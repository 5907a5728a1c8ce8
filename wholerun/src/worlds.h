// The three WholeRun workloads. Each world is built only through the
// library's public API — testbed::Testbed (single engine, threads = 0),
// core::ScaleCluster with its default ring steering, and the workload
// drivers — so internal refactors of those layers never touch the benchmark.
//
// All load is open loop: independent devices with Poisson or per-device
// exponential arrivals at a fixed rate per workload, so the results are
// figures "at a stated input size", not a rate sweep.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "testbed/testbed.h"

namespace wholerun {

using scale::Duration;
using scale::Time;

/// Arrivals summed over a world's drivers. PeriodicDriver exposes only the
/// wake-ups it could issue, so for it generated == issued.
struct Arrivals {
  std::uint64_t generated = 0;
  std::uint64_t issued = 0;
};

/// Simulated-time plan of one run: load runs through warm-up and window;
/// only the window is measured; slices are the traced run's timeline step.
struct Plan {
  Duration warmup;
  Duration window;
  Duration slice;
};

class World {
 public:
  virtual ~World() = default;

  /// Construct the testbed, its sites and the SCALE clusters.
  virtual void build(std::uint64_t seed) = 0;
  /// Create the device population and register it (an attach storm).
  virtual void populate() = 0;
  /// Start the open-loop load; it generates arrivals until `until`.
  /// `window_start` places mid-window events (attach_churn's burst).
  virtual void start_load(Time window_start, Time until) = 0;
  virtual Arrivals arrivals() const = 0;
  virtual Plan plan() const = 0;
  /// Short description of the world, printed with the results.
  virtual std::string describe() const = 0;

  scale::testbed::Testbed& tb() { return *tb_; }
  const std::vector<std::unique_ptr<scale::core::ScaleCluster>>& clusters()
      const {
    return clusters_;
  }
  /// Every device of every site.
  std::vector<scale::epc::Ue*> devices();

 protected:
  std::uint64_t seed_ = 1;
  // Declared before clusters_ so the clusters (fabric endpoints) are
  // destroyed first.
  std::unique_ptr<scale::testbed::Testbed> tb_;
  std::vector<std::unique_ptr<scale::core::ScaleCluster>> clusters_;
};

/// nullptr for an unknown workload name.
std::unique_ptr<World> make_world(const std::string& name);
const std::vector<std::string>& workload_names();

}  // namespace wholerun
