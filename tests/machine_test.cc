// Machine-level tests: cache model behaviour, instruction size estimates,
// counter accounting, and hand-assembled programs.
#include "src/machine/machine.h"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "src/machine/cache.h"
#include "src/support/rng.h"

namespace nsf {
namespace {

TEST(CacheModel, HitsAfterFill) {
  CacheModel cache(1024, 64, 2);  // 8 sets x 2 ways
  EXPECT_FALSE(cache.Access(0));   // cold miss
  EXPECT_TRUE(cache.Access(0));    // hit
  EXPECT_TRUE(cache.Access(63));   // same line
  EXPECT_FALSE(cache.Access(64));  // next line
}

TEST(CacheModel, LruEviction) {
  CacheModel cache(1024, 64, 2);
  // Three lines mapping to the same set (stride = sets*line = 512).
  cache.Access(0);
  cache.Access(512);
  EXPECT_TRUE(cache.Access(0));     // keep 0 fresh
  EXPECT_FALSE(cache.Access(1024));  // evicts 512 (LRU)
  EXPECT_TRUE(cache.Access(0));
  EXPECT_FALSE(cache.Access(512));   // was evicted
}

TEST(CacheModel, RangeCountsLineMisses) {
  CacheModel cache(1024, 64, 2);
  EXPECT_EQ(cache.AccessRange(60, 8), 2u);  // straddles two lines
  EXPECT_EQ(cache.AccessRange(60, 8), 0u);
}

// --- CacheModel against a reference model ---

// The straightforward model the production CacheModel must match outcome for
// outcome: set = line % sets, a scan of every way on every access, and the
// first way with the smallest LRU stamp evicted on a miss.
class ReferenceCache {
 public:
  ReferenceCache(uint32_t size_bytes, uint32_t line_size, uint32_t ways)
      : ways_(ways),
        num_sets_(size_bytes / (line_size * ways)),
        line_shift_(static_cast<uint32_t>(std::countr_zero(line_size))),
        sets_(size_t{num_sets_} * ways) {}

  bool Access(uint64_t addr) {
    uint64_t line = addr >> line_shift_;
    uint32_t set = static_cast<uint32_t>(line % num_sets_);
    Way* base = &sets_[size_t{set} * ways_];
    tick_++;
    Way* victim = base;
    for (uint32_t w = 0; w < ways_; w++) {
      if (base[w].tag == line) {
        base[w].lru = tick_;
        return true;
      }
      if (base[w].lru < victim->lru) {
        victim = &base[w];
      }
    }
    victim->tag = line;
    victim->lru = tick_;
    return false;
  }

  uint32_t AccessRange(uint64_t addr, uint32_t size) {
    uint32_t miss_count = 0;
    uint64_t first = addr >> line_shift_;
    uint64_t last = (addr + (size > 0 ? size - 1 : 0)) >> line_shift_;
    for (uint64_t line = first; line <= last; line++) {
      if (!Access(line << line_shift_)) {
        miss_count++;
      }
    }
    return miss_count;
  }

  void Reset() {
    for (Way& w : sets_) {
      w = Way{};
    }
    tick_ = 0;
  }

 private:
  struct Way {
    uint64_t tag = UINT64_MAX;
    uint64_t lru = 0;
  };
  uint32_t ways_;
  uint32_t num_sets_;
  uint32_t line_shift_;
  std::vector<Way> sets_;
  uint64_t tick_ = 0;
};

struct CacheGeometry {
  uint32_t size_bytes;
  uint32_t line_size;
  uint32_t ways;
};

// The machine's three caches, the small geometry the unit tests above use,
// and a way count that is not a power of two.
constexpr CacheGeometry kDifferentialGeometries[] = {
    {kL1iBytes, kCacheLineSize, kCacheWays},
    {kL1dBytes, kCacheLineSize, kCacheWays},
    {kL2Bytes, kCacheLineSize, kCacheWays},
    {1024, 64, 2},
    {3 * 1024, 64, 3},
};

enum class AddrStream { kRandom, kStrided, kSameLine, kSetConflict };

// Seeded address streams shaped to reach every branch of the model: cold and
// capacity misses, long runs on one line (the MRU memo), and more live lines
// per set than there are ways (LRU eviction order).
class StreamGen {
 public:
  StreamGen(AddrStream kind, const CacheGeometry& g, uint64_t seed)
      : kind_(kind), g_(g), rng_(seed) {
    const uint64_t strides[] = {4, 8, g.line_size, g.line_size + 8, 4096};
    stride_ = strides[rng_.NextBelow(5)];
    cur_ = kHeapBase + rng_.NextBelow(g.size_bytes);
  }

  uint64_t Next() {
    const uint64_t set_stride = uint64_t{g_.size_bytes} / g_.ways;  // sets * line
    switch (kind_) {
      case AddrStream::kRandom:
        // A window 4x the cache: both hits and capacity misses are common.
        return kHeapBase + rng_.NextBelow(4 * uint64_t{g_.size_bytes});
      case AddrStream::kStrided:
        // Sweeps a window the size of the cache: cold misses on the first
        // pass, hits after that.
        cur_ += stride_;
        if (cur_ >= kHeapBase + g_.size_bytes) {
          cur_ = kHeapBase + rng_.NextBelow(g_.line_size);
        }
        return cur_;
      case AddrStream::kSameLine:
        if (rng_.NextBelow(8) == 0) {
          cur_ = kHeapBase + rng_.NextBelow(4 * uint64_t{g_.size_bytes});
        }
        return (cur_ & ~uint64_t{g_.line_size - 1}) + rng_.NextBelow(g_.line_size);
      case AddrStream::kSetConflict:
        // ways + 2 lines that all index set `set_`, mostly swept in order (the
        // LRU worst case), sometimes picked at random; the set moves now and then.
        if (rng_.NextBelow(64) == 0) {
          set_ = rng_.NextBelow(set_stride / g_.line_size);
        }
        if (rng_.NextBelow(4) == 0) {
          sweep_ = rng_.NextBelow(g_.ways + 2);
        } else {
          sweep_ = (sweep_ + 1) % (g_.ways + 2);
        }
        return kHeapBase + sweep_ * set_stride + set_ * g_.line_size +
               rng_.NextBelow(g_.line_size);
    }
    return 0;
  }

  Rng& rng() { return rng_; }

 private:
  AddrStream kind_;
  CacheGeometry g_;
  Rng rng_;
  uint64_t stride_ = 0;
  uint64_t cur_ = 0;
  uint64_t set_ = 0;
  uint64_t sweep_ = 0;
};

TEST(CacheModel, MatchesReferenceModelStepByStep) {
  constexpr AddrStream kStreams[] = {AddrStream::kRandom, AddrStream::kStrided,
                                     AddrStream::kSameLine, AddrStream::kSetConflict};
  constexpr int kSteps = 20000;
  for (const CacheGeometry& g : kDifferentialGeometries) {
    for (AddrStream kind : kStreams) {
      for (uint64_t seed = 1; seed <= 3; seed++) {
        SCOPED_TRACE(testing::Message() << "geometry " << g.size_bytes << "/" << g.line_size
                                        << "/" << g.ways << " stream "
                                        << static_cast<int>(kind) << " seed " << seed);
        CacheModel cache(g.size_bytes, g.line_size, g.ways);
        ReferenceCache ref(g.size_bytes, g.line_size, g.ways);
        StreamGen gen(kind, g, seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(kind));
        uint64_t hits = 0;
        uint64_t misses = 0;
        for (int i = 0; i < kSteps; i++) {
          const uint64_t addr = gen.Next();
          const uint64_t op = gen.rng().NextBelow(100);
          if (op == 0) {
            cache.Reset();
            ref.Reset();
          } else if (op == 1) {
            // Reset through the pool path: a new model adopting this one's
            // state array must behave as empty after Reset().
            CacheModel adopted(g.size_bytes, g.line_size, g.ways, cache.TakeState());
            adopted.Reset();
            cache = std::move(adopted);
            ref.Reset();
          } else if (op < 15) {
            const uint32_t size =
                1 + static_cast<uint32_t>(gen.rng().NextBelow(3 * g.line_size));
            const uint32_t got = cache.AccessRange(addr, size);
            ASSERT_EQ(got, ref.AccessRange(addr, size)) << "AccessRange at step " << i;
            misses += got;
          } else {
            const bool hit = cache.Access(addr);
            ASSERT_EQ(hit, ref.Access(addr)) << "Access at step " << i;
            (hit ? hits : misses)++;
          }
        }
        // Both outcomes occurred, so the comparison above was not vacuous.
        EXPECT_GT(hits, 0u);
        EXPECT_GT(misses, 0u);
      }
    }
  }
}

TEST(CacheModel, GeometryValidation) {
  for (const CacheGeometry& g : kDifferentialGeometries) {
    EXPECT_EQ(CacheModel::GeometryError(g.size_bytes, g.line_size, g.ways), nullptr);
  }
  EXPECT_STREQ(CacheModel::GeometryError(1000, 64, 2),
               "size is not a multiple of line_size * ways");
  EXPECT_STREQ(CacheModel::GeometryError(1024, 64, 0),
               "size is not a multiple of line_size * ways");
  EXPECT_STREQ(CacheModel::GeometryError(1536, 48, 2), "line size is not a power of two");
  EXPECT_STREQ(CacheModel::GeometryError(0, 0, 2), "line size is not a power of two");
  EXPECT_STREQ(CacheModel::GeometryError(384, 64, 2), "set count is not a power of two");
  EXPECT_STREQ(CacheModel::GeometryError(0, 64, 2), "set count is not a power of two");
  // Three ways are fine as long as the set count is a power of two.
  EXPECT_EQ(CacheModel::GeometryError(3 * 1024, 64, 3), nullptr);
  EXPECT_DEATH(CacheModel(384, 64, 2), "set count is not a power of two");
}

TEST(EncodedSize, RoughlyX86Shaped) {
  EXPECT_EQ(EncodedSize(MInstr::RR(MOp::kAdd, Gpr::kRax, Gpr::kRbx, 4)), 2u);
  EXPECT_EQ(EncodedSize(MInstr::RR(MOp::kAdd, Gpr::kRax, Gpr::kRbx, 8)), 3u);  // +REX.W
  MInstr movimm = MInstr::RI(MOp::kMovImm64, Gpr::kRax, 1ll << 40, 8);
  EXPECT_EQ(EncodedSize(movimm), 10u);
  MInstr ret;
  ret.op = MOp::kRet;
  EXPECT_EQ(EncodedSize(ret), 1u);
  // Memory operand with big displacement costs more than reg-reg.
  MInstr ld = MInstr::RM(MOp::kLoad, Gpr::kRax, MemRef::BaseDisp(Gpr::kRbx, 0x10000), 8);
  EXPECT_GT(EncodedSize(ld), 5u);
}

TEST(MProgram, LinkAssignsAlignedBases) {
  MProgram prog;
  MFunction a;
  a.name = "a";
  a.code.push_back(MInstr::RR(MOp::kAdd, Gpr::kRax, Gpr::kRbx, 4));
  MInstr ret;
  ret.op = MOp::kRet;
  a.code.push_back(ret);
  prog.funcs.push_back(a);
  prog.funcs.push_back(a);
  prog.Link();
  EXPECT_EQ(prog.funcs[0].code_base, 0u);
  EXPECT_EQ(prog.funcs[1].code_base % 16, 0u);
  EXPECT_GT(prog.total_code_bytes, 0u);
}

// Builds a tiny hand-assembled program: f(x) = x*2 + 5 with x in rdi.
TEST(SimMachine, HandAssembledProgram) {
  MProgram prog;
  MFunction f;
  f.name = "f";
  f.code.push_back(MInstr::RR(MOp::kMov, Gpr::kRax, Gpr::kRdi, 8));
  MInstr shl;
  shl.op = MOp::kShl;
  shl.dst = Operand::R(Gpr::kRax);
  shl.src2 = Operand::Imm(1);
  shl.width = 8;
  f.code.push_back(shl);
  f.code.push_back(MInstr::RI(MOp::kAdd, Gpr::kRax, 5, 8));
  MInstr ret;
  ret.op = MOp::kRet;
  f.code.push_back(ret);
  prog.funcs.push_back(std::move(f));
  prog.Link();
  SimMachine m(&prog);
  MachineResult r = m.Run(0, {21});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ret_i, 47u);
  EXPECT_EQ(m.counters().instructions_retired, 4u);
}

TEST(SimMachine, CountersDistinguishLoadsAndStores) {
  MProgram prog;
  prog.memory_pages = 1;
  MFunction f;
  // store [heap+8] <- rdi ; load rax <- [heap+8] ; ret
  f.code.push_back(MInstr::MR(MOp::kStore, MemRef::Abs(static_cast<int32_t>(kHeapBase) + 8),
                              Gpr::kRdi, 8));
  f.code.push_back(MInstr::RM(MOp::kLoad, Gpr::kRax,
                              MemRef::Abs(static_cast<int32_t>(kHeapBase) + 8), 8));
  MInstr ret;
  ret.op = MOp::kRet;
  f.code.push_back(ret);
  prog.funcs.push_back(std::move(f));
  prog.Link();
  SimMachine m(&prog);
  MachineResult r = m.Run(0, {0xabcdef});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ret_i, 0xabcdefu);
  EXPECT_EQ(m.counters().loads_retired, 1u);
  EXPECT_EQ(m.counters().stores_retired, 1u);
  EXPECT_GE(m.counters().l1d_misses, 1u);  // cold
}

TEST(SimMachine, DivisionTrapsAndConvention) {
  MProgram prog;
  MFunction f;
  // rax = rdi; cdq; idiv rsi -> quotient rax
  f.code.push_back(MInstr::RR(MOp::kMov, Gpr::kRax, Gpr::kRdi, 4));
  MInstr cdq;
  cdq.op = MOp::kCdq;
  cdq.width = 4;
  f.code.push_back(cdq);
  MInstr div;
  div.op = MOp::kIdiv;
  div.src = Operand::R(Gpr::kRsi);
  div.width = 4;
  f.code.push_back(div);
  MInstr ret;
  ret.op = MOp::kRet;
  f.code.push_back(ret);
  prog.funcs.push_back(std::move(f));
  prog.Link();
  SimMachine m(&prog);
  MachineResult ok = m.Run(0, {100, 7});
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.ret_i & 0xffffffff, 14u);
  SimMachine m2(&prog);
  MachineResult bad = m2.Run(0, {100, 0});
  EXPECT_EQ(bad.trap, TrapKind::kDivByZero);
  SimMachine m3(&prog);
  MachineResult ovf = m3.Run(0, {0x80000000ull, static_cast<uint64_t>(-1) & 0xffffffff});
  EXPECT_EQ(ovf.trap, TrapKind::kIntegerOverflow);
}

TEST(SimMachine, OutOfBoundsAccessTraps) {
  MProgram prog;
  prog.memory_pages = 1;  // 64 KiB heap
  MFunction f;
  f.code.push_back(MInstr::RM(MOp::kLoad, Gpr::kRax,
                              MemRef::BaseDisp(Gpr::kRdi, static_cast<int32_t>(kHeapBase)), 8));
  MInstr ret;
  ret.op = MOp::kRet;
  f.code.push_back(ret);
  prog.funcs.push_back(std::move(f));
  prog.Link();
  SimMachine m(&prog);
  EXPECT_TRUE(m.Run(0, {0}).ok);
  SimMachine m2(&prog);
  EXPECT_EQ(m2.Run(0, {65536}).trap, TrapKind::kMemoryOutOfBounds);
}

TEST(SimMachine, FuelLimitStopsRunaway) {
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::Jump(0));  // infinite loop
  prog.funcs.push_back(std::move(f));
  prog.Link();
  SimMachine m(&prog);
  m.set_fuel(1000);
  EXPECT_EQ(m.Run(0).trap, TrapKind::kFuelExhausted);
}

TEST(SimMachine, TakenBranchesCostMore) {
  // Loop with taken back-edges vs straight-line code of the same length.
  auto build = [](bool loop) {
    MProgram prog;
    MFunction f;
    f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 0, 8));
    f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRcx, 100, 8));
    // L: dec rcx (sub 1); cmp; jne L
    f.code.push_back(MInstr::RI(MOp::kSub, Gpr::kRcx, 1, 8));
    f.code.push_back(MInstr::RI(MOp::kCmp, Gpr::kRcx, 0, 8));
    f.code.push_back(MInstr::JumpCc(Cond::kNe, loop ? 2 : 5));
    MInstr ret;
    ret.op = MOp::kRet;
    f.code.push_back(ret);
    prog.funcs.push_back(std::move(f));
    prog.Link();
    return prog;
  };
  MProgram looped = build(true);
  SimMachine m(&looped);
  ASSERT_TRUE(m.Run(0).ok);
  EXPECT_EQ(m.counters().taken_branches, 99u);
  EXPECT_EQ(m.counters().cond_branches_retired, 100u);
}

}  // namespace
}  // namespace nsf
