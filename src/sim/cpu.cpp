#include "sim/cpu.h"

#include <algorithm>

#include "common/check.h"
#include "sim/engine.h"

namespace scale::sim {

CpuModel::CpuModel(Engine& engine, double speed_factor)
    : engine_(engine), speed_(speed_factor) {
  SCALE_CHECK(speed_factor > 0.0);
}

Time CpuModel::enqueue(Duration work) {
  SCALE_CHECK(work >= Duration::zero());
  const Duration scaled = work * (1.0 / speed_);
  const Time start = std::max(engine_.now(), busy_until_);
  busy_until_ = start + scaled;
  total_assigned_ += scaled;
  return busy_until_;
}

void CpuModel::set_speed_factor(double factor) {
  SCALE_CHECK(factor > 0.0);
  speed_ = factor;
}

Duration CpuModel::backlog() const {
  const Time now = engine_.now();
  return busy_until_ > now ? busy_until_ - now : Duration::zero();
}

bool CpuModel::busy() const { return busy_until_ > engine_.now(); }

Duration CpuModel::cumulative_busy() const {
  // Work-conserving single server: consumed = assigned - outstanding.
  return total_assigned_ - backlog();
}

}  // namespace scale::sim
