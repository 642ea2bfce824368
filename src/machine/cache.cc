#include "src/machine/cache.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace nsf {

CacheModel::CacheModel(uint32_t size_bytes, uint32_t line_size, uint32_t ways,
                       std::vector<uint64_t> recycled)
    : ways_(ways), state_(std::move(recycled)) {
  if (const char* why = GeometryError(size_bytes, line_size, ways)) {
    fprintf(stderr, "CacheModel(%u, %u, %u): %s\n", size_bytes, line_size, ways, why);
    std::abort();
  }
  line_shift_ = static_cast<uint32_t>(std::countr_zero(line_size));
  const uint32_t num_sets = size_bytes / (line_size * ways);
  set_mask_ = num_sets - 1;
  const size_t words = 2 * size_t{num_sets} * ways;
  if (state_.size() != words) {
    state_.assign(words, 0);
    Reset();
  }
}

void CacheModel::Fill(uint64_t* tags, uint64_t* stamps, uint64_t line) {
  uint32_t victim = 0;
  for (uint32_t w = 1; w < ways_; w++) {
    if (stamps[w] < stamps[victim]) {
      victim = w;
    }
  }
  tags[victim] = line;
  stamps[victim] = tick_;
}

void CacheModel::Reset() {
  for (size_t base = 0; base < state_.size(); base += 2 * size_t{ways_}) {
    std::fill_n(&state_[base], ways_, UINT64_MAX);
    std::fill_n(&state_[base + ways_], ways_, 0);
  }
  mru_line_ = UINT64_MAX;
  tick_ = 0;
}

}  // namespace nsf
