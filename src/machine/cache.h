// Set-associative LRU cache model used for both L1i and L1d (with a shared
// unified L2 behind them).
//
// The simulator touches a cache model on every retired instruction and every
// load/store, so the hit path lives in this header. Two things keep it cheap
// without changing a single hit/miss outcome against a plain "set = line %
// sets, scan the ways, evict the least recently used" model:
//   - the set count is a power of two, so the set index is a mask;
//   - the most recently touched line is memoised. Touching it again would only
//     raise the largest LRU stamp in its set, which changes no LRU order, so a
//     memo hit returns at once without stamping or scanning.
#ifndef SRC_MACHINE_CACHE_H_
#define SRC_MACHINE_CACHE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nsf {

class CacheModel {
 public:
  // Why `size_bytes`/`line_size`/`ways` cannot form a cache, or nullptr when
  // they can: the line size and the set count must be powers of two and the
  // size a multiple of line_size * ways.
  static constexpr const char* GeometryError(uint32_t size_bytes, uint32_t line_size,
                                             uint32_t ways) {
    if (!std::has_single_bit(line_size)) {
      return "line size is not a power of two";
    }
    if (ways == 0 || size_bytes % (uint64_t{line_size} * ways) != 0) {
      return "size is not a multiple of line_size * ways";
    }
    if (!std::has_single_bit(size_bytes / (uint64_t{line_size} * ways))) {
      return "set count is not a power of two";
    }
    return nullptr;
  }

  // Builds an empty cache; aborts with a message on an invalid geometry (see
  // GeometryError). `recycled` may carry the state array of an earlier model
  // of the same geometry (see TakeState): it is adopted without being
  // cleared, so the model's contents are unspecified until the next Reset().
  CacheModel(uint32_t size_bytes, uint32_t line_size, uint32_t ways,
             std::vector<uint64_t> recycled = {});

  // Touches the line containing `addr`; returns true on hit.
  bool Access(uint64_t addr) {
    const uint64_t line = addr >> line_shift_;
    if (line == mru_line_) {
      return true;
    }
    mru_line_ = line;
    uint64_t* tags = &state_[(line & set_mask_) * (2 * size_t{ways_})];
    uint64_t* stamps = tags + ways_;
    tick_++;
    for (uint32_t w = 0; w < ways_; w++) {
      if (tags[w] == line) {
        stamps[w] = tick_;
        return true;
      }
    }
    Fill(tags, stamps, line);
    return false;
  }

  // Touches every line in [addr, addr+size); returns the number of misses.
  uint32_t AccessRange(uint64_t addr, uint32_t size) {
    uint32_t miss_count = 0;
    const uint64_t first = addr >> line_shift_;
    const uint64_t last = (addr + (size > 0 ? size - 1 : 0)) >> line_shift_;
    for (uint64_t line = first; line <= last; line++) {
      miss_count += Access(line << line_shift_) ? 0 : 1;
    }
    return miss_count;
  }

  // Empties the cache.
  void Reset();

  // Hands the state array over for reuse by a later model of the same
  // geometry; this model must not be touched afterwards.
  std::vector<uint64_t> TakeState() { return std::move(state_); }

 private:
  // Miss path: replaces the first way with the smallest LRU stamp.
  void Fill(uint64_t* tags, uint64_t* stamps, uint64_t line);

  uint32_t ways_;
  uint32_t line_shift_;
  uint64_t set_mask_;
  uint64_t mru_line_ = UINT64_MAX;
  uint64_t tick_ = 0;
  // Per set: `ways_` tags (UINT64_MAX = empty) followed by `ways_` LRU stamps.
  std::vector<uint64_t> state_;
};

}  // namespace nsf

#endif  // SRC_MACHINE_CACHE_H_
