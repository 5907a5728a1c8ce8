// Work-conserving single-server CPU model for a VM.
//
// Control-plane requests consume CPU slices; when offered load exceeds
// capacity the FIFO backlog — and therefore queueing delay — grows without
// bound, which is precisely the overload behaviour §3.1 measures on OpenEPC
// ("once the compute capacity is reached, the requests have to be queued,
// resulting in high and unpredictable delays").
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/time.h"
#include "sim/engine.h"

namespace scale::sim {

class CpuModel {
 public:
  /// speed_factor scales service times: 2.0 halves every execution time
  /// (a faster VM flavor).
  CpuModel(Engine& engine, double speed_factor = 1.0);

  CpuModel(const CpuModel&) = delete;
  CpuModel& operator=(const CpuModel&) = delete;

  /// Enqueue `work` of CPU time; `on_done` fires when it completes (FIFO
  /// behind everything already queued). Takes any void() callable by
  /// forwarding reference — the old by-value std::function signature boxed
  /// every completion lambda on the busiest path in the tree (ScaleLint L5).
  /// The completion event holds `on_done` next to this model's pointer, so
  /// `on_done` may capture at most kCallbackBytes.
  template <typename F>
  void execute(Duration work, F&& on_done) {
    static_assert(sizeof(std::decay_t<F>) <= kCallbackBytes,
                  "CPU completion capture exceeds its 32-byte budget: hold a "
                  "message as a proto::PduRef or a handle, not by value");
    const Time done_at = enqueue(work);
    if constexpr (std::is_null_pointer_v<std::decay_t<F>>) {
      engine_.at(done_at, [this] { ++completed_; });
    } else {
      engine_.at(done_at, [this, cb = std::forward<F>(on_done)]() mutable {
        ++completed_;
        cb();
      });
    }
  }

  /// Enqueue work with no completion callback (pure overhead, e.g. the CPU
  /// cost of reassignment signaling on a peer).
  void consume(Duration work) { execute(work, nullptr); }

  /// Remaining queued work at the current instant.
  Duration backlog() const;

  /// Whether the server is busy right now.
  bool busy() const;

  /// Total CPU time consumed up to now (integral of the busy indicator).
  Duration cumulative_busy() const;

  /// Jobs whose completion callback has fired.
  std::uint64_t completed_jobs() const { return completed_; }

  /// Change the speed factor mid-run (fault scripting: a "slow VM" — noisy
  /// neighbor, thermal throttle — is modeled by dropping this below 1.0 at
  /// a scripted sim time, and restoring it later). Work already enqueued
  /// keeps its original completion instants; only work submitted after the
  /// change is scaled by the new factor — matching a real CPU whose
  /// in-flight instructions finish at the old clock. Deterministic: callers
  /// schedule the change via Engine::at/after.
  void set_speed_factor(double factor);

 private:
  /// Capture budget of an execute() callback: InlineAction's inline buffer
  /// less the model pointer the completion event adds.
  static constexpr std::size_t kCallbackBytes =
      InlineAction::kInlineBytes - sizeof(CpuModel*);

  /// FIFO bookkeeping shared by every execute() instantiation: scale the
  /// work, extend the busy horizon, and return the completion instant.
  Time enqueue(Duration work);

  Engine& engine_;
  double speed_;
  Time busy_until_ = Time::zero();
  Duration total_assigned_ = Duration::zero();  // post-scaling work
  std::uint64_t completed_ = 0;
};

}  // namespace scale::sim
