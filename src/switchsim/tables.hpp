// Match-action tables with resource accounting.
// Capacities are fixed at construction like statically allocated P4 tables;
// inserts fail when full — that is the hardware capacity bound the capacity
// model and the tree manager must respect.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace scallop::switchsim {

// Bookkeeping shared by tables and register cells; aggregated by
// ResourceModel.
struct TableFootprint {
  std::string name;
  size_t capacity = 0;
  size_t entry_bits = 0;  // key + value + overhead
  bool tcam = false;      // ternary tables consume TCAM instead of SRAM
  size_t occupied = 0;

  size_t allocated_bits() const { return capacity * entry_bits; }
};

template <typename K, typename V>
class ExactTable {
 public:
  ExactTable(std::string name, size_t capacity, size_t key_bits,
             size_t value_bits)
      : footprint_{std::move(name), capacity,
                   // ~10% SRAM overhead for match overhead/action pointers.
                   (key_bits + value_bits) * 11 / 10, false, 0} {}

  bool Insert(const K& key, V value) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second = std::move(value);
      return true;
    }
    if (map_.size() >= footprint_.capacity) return false;
    map_.emplace(key, std::move(value));
    footprint_.occupied = map_.size();
    return true;
  }

  bool Erase(const K& key) {
    bool erased = map_.erase(key) > 0;
    footprint_.occupied = map_.size();
    return erased;
  }

  const V* Lookup(const K& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }
  V* Mutable(const K& key) {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  size_t size() const { return map_.size(); }
  size_t capacity() const { return footprint_.capacity; }
  bool full() const { return map_.size() >= footprint_.capacity; }
  const TableFootprint& footprint() const { return footprint_; }

  // Iteration support (control-plane style walks, not data-plane).
  auto begin() const { return map_.begin(); }
  auto end() const { return map_.end(); }

 private:
  TableFootprint footprint_;
  std::unordered_map<K, V> map_;
};

// Ternary table on 64-bit keys: first matching (value, mask) entry wins,
// in priority order. Used for the protocol classification stage.
template <typename V>
class TernaryTable {
 public:
  TernaryTable(std::string name, size_t capacity, size_t key_bits,
               size_t value_bits)
      : footprint_{std::move(name), capacity,
                   (2 * key_bits + value_bits) * 11 / 10, true, 0} {}

  bool Insert(uint64_t value, uint64_t mask, V action) {
    if (entries_.size() >= footprint_.capacity) return false;
    entries_.push_back({value & mask, mask, std::move(action)});
    footprint_.occupied = entries_.size();
    return true;
  }

  const V* Lookup(uint64_t key) const {
    for (const auto& e : entries_) {
      if ((key & e.mask) == e.value) return &e.action;
    }
    return nullptr;
  }

  size_t size() const { return entries_.size(); }
  const TableFootprint& footprint() const { return footprint_; }

 private:
  struct Entry {
    uint64_t value;
    uint64_t mask;
    V action;
  };
  TableFootprint footprint_;
  std::vector<Entry> entries_;
};

}  // namespace scallop::switchsim
