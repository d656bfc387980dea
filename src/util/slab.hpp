// Values parked under a small integer handle until taken back: in-flight
// packets and callables, keyed by the token of their scheduled delivery.
// Freed handles are reused, so a warm slab stores without allocating.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace scallop::util {

template <typename T>
class Slab {
 public:
  // Parks `value`; returns its handle.
  uint32_t Put(T value) {
    if (free_.empty()) {
      items_.push_back(std::move(value));
      return static_cast<uint32_t>(items_.size() - 1);
    }
    const uint32_t handle = free_.back();
    free_.pop_back();
    items_[handle] = std::move(value);
    return handle;
  }

  // Hands back the value parked under `handle` and frees the handle.
  T Take(uint32_t handle) {
    T value = std::move(items_[handle]);
    free_.push_back(handle);
    return value;
  }

 private:
  std::vector<T> items_;
  std::vector<uint32_t> free_;
};

}  // namespace scallop::util
