// ParkingLot — values held by a 32-bit handle while an event that carries
// only the handle is in flight.
//
// An engine event's capture must fit InlineAction's 40-byte buffer. A
// callback that needs more than that (a NAS message on the eNodeB's radio
// leg, a shed transfer's addresses) parks its payload here and captures the
// handle instead. Slots are reused LIFO, so a steady workload stops growing
// the lot once it holds its peak number of parked values; handles never
// leak into simulated output.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace scale::epc {

template <class T>
class ParkingLot {
 public:
  /// Park `value`; take() it back, exactly once, with the returned handle.
  std::uint32_t park(T value) {
    if (free_.empty()) {
      slots_.push_back(std::move(value));
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t handle = free_.back();
    free_.pop_back();
    slots_[handle] = std::move(value);
    return handle;
  }

  /// The value parked under `handle`; the handle is free again afterwards.
  T take(std::uint32_t handle) {
    SCALE_CHECK(handle < slots_.size());
    free_.push_back(handle);
    return std::move(slots_[handle]);
  }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace scale::epc
