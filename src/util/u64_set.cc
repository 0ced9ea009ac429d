#include "util/u64_set.h"

namespace pier {

bool U64Set::Insert(uint64_t v) {
  if (v == 0) {
    bool fresh = !has_zero_;
    has_zero_ = true;
    return fresh;
  }
  if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
  size_t mask = slots_.size() - 1;
  for (size_t i = Home(v);; i = (i + 1) & mask) {
    if (slots_[i] == v) return false;
    if (slots_[i] == 0) {
      slots_[i] = v;
      size_++;
      return true;
    }
  }
}

void U64Set::Grow() {
  std::vector<uint64_t> old;
  old.swap(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, 0);
  shift_ = 64;
  for (size_t n = slots_.size(); n > 1; n >>= 1) shift_--;
  size_t mask = slots_.size() - 1;
  for (uint64_t v : old) {
    if (v == 0) continue;
    size_t i = Home(v);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = v;
  }
}

}  // namespace pier
