// Unit tests for the benchmark's own rules: the percentile reporting rule,
// seed determinism of every generated input, the metric-name charset, and
// that every metric the benchmark defines reaches its output and
// BENCHMARK.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "perfbench/src/catalog.h"
#include "perfbench/src/report.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

TEST(PercentileRule, TenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_TRUE(PercentileReportable(100, 90));
  EXPECT_EQ(SamplesBeyond(99, 90), 9u);
  EXPECT_FALSE(PercentileReportable(99, 90));
  EXPECT_TRUE(PercentileReportable(1000, 99));
  EXPECT_FALSE(PercentileReportable(999, 99));
  EXPECT_TRUE(PercentileReportable(20, 50));
  EXPECT_FALSE(PercentileReportable(19, 50));
  EXPECT_FALSE(PercentileReportable(0, 50));
}

TEST(PercentileRule, HighestReportable) {
  EXPECT_EQ(HighestReportablePercentile(0), 0);
  EXPECT_EQ(HighestReportablePercentile(19), 0);
  EXPECT_EQ(HighestReportablePercentile(20), 50);
  EXPECT_EQ(HighestReportablePercentile(114), 90);  // one paper pass
  EXPECT_EQ(HighestReportablePercentile(200), 95);
  EXPECT_EQ(HighestReportablePercentile(1000), 99);
  EXPECT_EQ(HighestReportablePercentile(10000), 99.9);
}

TEST(PercentileRule, NearestRankIsASample) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; i--) {
    xs.push_back(i);
  }
  EXPECT_EQ(Percentile(xs, 50), 50);
  EXPECT_EQ(Percentile(xs, 90), 90);
  EXPECT_EQ(Percentile(xs, 100), 100);
  EXPECT_EQ(Percentile({2.5, 7.5}, 50), 2.5);
  EXPECT_EQ(Percentile({}, 50), 0);
  PercentileValue v = MeasurePercentile(xs, 99);
  EXPECT_EQ(v.samples, 100u);
  EXPECT_EQ(v.beyond, 1u);
  EXPECT_FALSE(v.reportable);
}

bool IsPermutation(std::vector<size_t> order, size_t n) {
  std::sort(order.begin(), order.end());
  for (size_t i = 0; i < order.size(); i++) {
    if (order[i] != i) {
      return false;
    }
  }
  return order.size() == n;
}

TEST(Seeds, PaperRoundsAreSeededAndCoverEveryKey) {
  EXPECT_EQ(PaperOrder(7, 0), PaperOrder(7, 0));
  EXPECT_NE(PaperOrder(7, 0), PaperOrder(8, 0));
  EXPECT_NE(PaperOrder(7, 0), PaperOrder(7, 1));
  // Three rounds: the 30 short programs' 90 keys run in each, the 8 long
  // programs' 24 keys in exactly one.
  std::vector<size_t> runs(38 * 3, 0);
  for (size_t round = 0; round < 3; round++) {
    std::vector<size_t> order = PaperOrder(7, round);
    EXPECT_EQ(std::set<size_t>(order.begin(), order.end()).size(), order.size());
    EXPECT_EQ(order.size(), 90u + 8u);
    for (size_t k : order) {
      ASSERT_LT(k, runs.size());
      runs[k]++;
    }
  }
  EXPECT_EQ(std::count(runs.begin(), runs.end(), 3u), 90);
  EXPECT_EQ(std::count(runs.begin(), runs.end(), 1u), 24);
  // The deal of long keys to rounds repeats every three rounds.
  std::vector<size_t> a = PaperOrder(7, 1), b = PaperOrder(7, 4);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(Seeds, CompileOrderIsSeededPermutation) {
  EXPECT_EQ(CompileOrder(3, 2, 1), CompileOrder(3, 2, 1));
  EXPECT_TRUE(IsPermutation(CompileOrder(3, 2, 1), 38 * 5));
  EXPECT_NE(CompileOrder(3, 2, 0), CompileOrder(3, 2, 1));
  EXPECT_NE(CompileOrder(3, 2, 0), CompileOrder(4, 2, 0));
}

TEST(Seeds, ServeMixesAndArrivalsAreSeeded) {
  ServeSchedule a = ServeInputs(11, 20);
  ServeSchedule b = ServeInputs(11, 20);
  ServeSchedule c = ServeInputs(12, 20);
  EXPECT_EQ(a.mix_orders, b.mix_orders);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_NE(a.arrivals, c.arrivals);
  EXPECT_NE(a.mix_orders, c.mix_orders);
  ASSERT_EQ(a.mix_orders.size(), 2u);
  EXPECT_TRUE(IsPermutation(a.mix_orders[0], 23));
  EXPECT_TRUE(IsPermutation(a.mix_orders[1], 7));
  for (const std::vector<double>& times : a.arrivals) {
    EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
    EXPECT_GT(times.size(), 100u);  // ~10 rps for 20 s
    EXPECT_GE(times.front(), 0);
    EXPECT_LT(times.back(), 20);
  }
}

TEST(Catalog, NamesAndUnitsUseTheAllowedCharacters) {
  std::set<std::string> seen;
  for (const MetricDef& m : MetricCatalog()) {
    EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
    EXPECT_TRUE(ValidUnit(m.unit)) << m.name << " " << m.unit;
    EXPECT_TRUE(m.better == "lower" || m.better == "higher") << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
  }
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("a b"));
  EXPECT_FALSE(ValidMetricName("-x"));
  EXPECT_FALSE(ValidMetricName("x/y"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName("machine.ns_per_instr.spec-int_2"));
  EXPECT_FALSE(ValidUnit("M instr/s"));
}

TEST(Catalog, EveryNamedMetricIsDefined) {
  const char* named[] = {
      "setup_s", "rss_mb", "fail_frac", "pass_s", "sim_mips", "model_err", "cold_p50_ms",
      "cold_p99_ms", "warm_p50_ms", "warm_p99_ms", "e2e_p50_ms", "e2e_p90_ms", "goodput_frac",
      "builder.build_ms", "wasm.hash_ms", "wasm.validate_ms", "wasm.artifact_encode_ms",
      "wasm.artifact_decode_ms", "wasm.artifact_bytes", "codegen.compile_ms",
      "codegen.verify_machine_ms", "codegen.vops", "codegen.minstrs", "codegen.spill_slots",
      "codegen.code_bytes", "machine.predecode_ms", "machine.verify_decoded_ms",
      "machine.decode_records", "machine.fused_pairs", "machine.generic_records",
      "machine.run_ms", "machine.ns_per_instr.polybench", "machine.ns_per_instr.spec_int",
      "machine.ns_per_instr.spec_fp", "machine.ns_per_mem_op.polybench",
      "machine.ns_per_mem_op.spec_int", "machine.ns_per_mem_op.spec_fp", "machine.construct_ms",
      "machine.pool_reuse_frac", "machine.instructions", "machine.cycles", "machine.loads",
      "machine.stores", "machine.branches", "machine.l1i_misses", "machine.l1d_misses",
      "machine.l2_misses", "kernel.stage_ms", "kernel.syscalls", "kernel.browsix_frac",
      "engine.instantiate_ms", "engine.hit_ms", "engine.cache_hit_frac", "engine.lock_waits",
      "engine.disk_hits", "engine.disk_stores", "engine.verify_rejects", "serving.queue_ms_p50",
      "serving.queue_ms_p90", "serving.service_ms_p50", "serving.service_ms_p90",
      "serving.gen_late_ms_p90", "serving.shed", "serving.abandoned",
      "serving.deadline_dispatches", "host.task_clock_s", "host.page_faults",
      "host.ctx_switches", "trace.overhead_frac"};
  for (const char* name : named) {
    EXPECT_NE(FindMetric(name), nullptr) << name;
  }
}

WorkloadResult FullResult() {
  WorkloadResult r;
  for (const MetricDef& m : MetricCatalog()) {
    r.metrics[m.name] = 1.25;
  }
  r.attempted = 3;
  return r;
}

TEST(ResultLine, HoldsExactlyTheGroupsMetrics) {
  for (bool trace : {false, true}) {
    WorkloadResult r = FullResult();
    std::string line, error;
    ASSERT_TRUE(ResultLine(r, trace, &line, &error)) << error;
    EXPECT_EQ(line.rfind("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{", 0), 0u);
    for (const MetricDef& m : MetricCatalog()) {
      bool wanted = m.group == (trace ? MetricGroup::kLayer : MetricGroup::kEndToEnd);
      EXPECT_EQ(line.find("\"" + m.name + "\":{\"value\":1.25,\"unit\":\"" + m.unit + "\"}") !=
                    std::string::npos,
                wanted)
          << m.name;
    }
  }
}

TEST(ResultLine, RefusesAMissingMetric) {
  WorkloadResult r = FullResult();
  r.metrics.erase("e2e_p50_ms");
  std::string line, error;
  EXPECT_FALSE(ResultLine(r, false, &line, &error));
  EXPECT_NE(error.find("e2e_p50_ms"), std::string::npos);
  EXPECT_TRUE(ResultLine(r, true, &line, &error));
}

// The names listed under `key` in BENCHMARK.json, in order.
std::vector<std::string> ListedNames(const std::string& json, const std::string& key) {
  std::vector<std::string> names;
  size_t pos = json.find("\"" + key + "\"");
  size_t end = json.find(']', pos);
  const std::string tag = "\"name\": \"";
  while (pos != std::string::npos && (pos = json.find(tag, pos)) != std::string::npos &&
         pos < end) {
    pos += tag.size();
    names.push_back(json.substr(pos, json.find('"', pos) - pos));
  }
  return names;
}

TEST(BenchmarkJson, ListsTheCatalogue) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(ListedNames(text.str(), "end_to_end"), MetricNames(MetricGroup::kEndToEnd));
  EXPECT_EQ(ListedNames(text.str(), "per_layer"), MetricNames(MetricGroup::kLayer));
  EXPECT_EQ(ListedNames(text.str(), "workloads"), WorkloadNames());
}

}  // namespace
}  // namespace perfbench
