// Open-addressed set of 64-bit values.
//
// The scan-path dedup sets hold one already-hashed object identity per row
// for a continuous query's whole life, so their cost per entry is what
// matters. A node-based std::unordered_set<uint64_t> pays ~44 B per value (a
// heap node with its malloc header, plus a bucket pointer); this table pays
// one 8 B slot per value at a load factor between 3/8 and 3/4.
//
// Linear probing over a power-of-two table. A value's home slot comes from a
// multiplicative hash, so inputs need not be well mixed. Slot value 0 marks
// an empty slot; the value 0 itself is tracked by a flag of its own.

#ifndef PIER_UTIL_U64_SET_H_
#define PIER_UTIL_U64_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pier {

class U64Set {
 public:
  /// Adds `v`. True when `v` was not present yet, as
  /// std::unordered_set::insert(v).second.
  bool Insert(uint64_t v);

  size_t size() const { return size_ + (has_zero_ ? 1 : 0); }

 private:
  size_t Home(uint64_t v) const {
    return static_cast<size_t>((v * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  void Grow();

  std::vector<uint64_t> slots_;  // 0 = empty; empty until the first insert
  size_t size_ = 0;              // nonzero values held in slots_
  unsigned shift_ = 64;          // 64 - log2(slots_.size())
  bool has_zero_ = false;
};

}  // namespace pier

#endif  // PIER_UTIL_U64_SET_H_
