#include "perfbench/src/catalog.h"

#include <cctype>

namespace perfbench {

namespace {

MetricDef E2e(const char* name, const char* unit) {
  return {name, unit, "lower", MetricGroup::kEndToEnd};
}
MetricDef Rep(const char* name, const char* unit, const char* better = "lower") {
  return {name, unit, better, MetricGroup::kReport};
}
MetricDef Layer(const char* name, const char* unit, const char* better = "lower") {
  return {name, unit, better, MetricGroup::kLayer};
}

std::vector<MetricDef> BuildCatalog() {
  return {
      // --- end to end, every workload ---
      E2e("setup_s", "s"),
      E2e("rss_mb", "MB"),
      E2e("cold_p50_ms", "ms"),
      E2e("warm_p50_ms", "ms"),
      E2e("e2e_p50_ms", "ms"),
      // --- end to end, only where the workload has them ---
      Rep("e2e_p90_ms", "ms"),
      Rep("fail_frac", "ratio"),
      Rep("cpu_ms_per_op", "ms"),
      Rep("pass_s", "s"),
      Rep("sim_mips", "M_instr/s", "higher"),
      Rep("model_err", "ratio_pts"),
      Rep("cold_p99_ms", "ms"),
      Rep("warm_p99_ms", "ms"),
      Rep("goodput_frac", "ratio", "higher"),
      // --- per layer, traced run ---
      Layer("builder.build_ms", "ms"),
      Layer("wasm.hash_ms", "ms"),
      Layer("wasm.validate_ms", "ms"),
      Layer("wasm.artifact_encode_ms", "ms"),
      Layer("wasm.artifact_decode_ms", "ms"),
      Layer("wasm.artifact_bytes", "bytes"),
      Layer("codegen.compile_ms", "ms"),
      Layer("codegen.verify_machine_ms", "ms"),
      Layer("codegen.vops", "count"),
      Layer("codegen.minstrs", "count"),
      Layer("codegen.spill_slots", "count"),
      Layer("codegen.code_bytes", "bytes"),
      Layer("machine.predecode_ms", "ms"),
      Layer("machine.verify_decoded_ms", "ms"),
      Layer("machine.decode_records", "count"),
      Layer("machine.fused_pairs", "count", "higher"),
      Layer("machine.generic_records", "count"),
      Layer("machine.run_ms", "ms"),
      Layer("machine.ns_per_instr.polybench", "ns"),
      Layer("machine.ns_per_instr.spec_int", "ns"),
      Layer("machine.ns_per_instr.spec_fp", "ns"),
      Layer("machine.ns_per_mem_op.polybench", "ns"),
      Layer("machine.ns_per_mem_op.spec_int", "ns"),
      Layer("machine.ns_per_mem_op.spec_fp", "ns"),
      Layer("machine.construct_ms", "ms"),
      Layer("machine.pool_reuse_frac", "ratio", "higher"),
      Layer("machine.instructions", "count"),
      Layer("machine.cycles", "count"),
      Layer("machine.loads", "count"),
      Layer("machine.stores", "count"),
      Layer("machine.branches", "count"),
      Layer("machine.l1i_misses", "count"),
      Layer("machine.l1d_misses", "count"),
      Layer("machine.l2_misses", "count"),
      Layer("kernel.stage_ms", "ms"),
      Layer("kernel.syscalls", "count"),
      Layer("kernel.browsix_frac", "ratio"),
      Layer("engine.instantiate_ms", "ms"),
      Layer("engine.hit_ms", "ms"),
      Layer("engine.cache_hit_frac", "ratio", "higher"),
      Layer("engine.lock_waits", "count"),
      Layer("engine.disk_hits", "count"),
      Layer("engine.disk_stores", "count"),
      Layer("engine.verify_rejects", "count"),
      Layer("serving.queue_ms_p50", "ms"),
      Layer("serving.queue_ms_p90", "ms"),
      Layer("serving.service_ms_p50", "ms"),
      Layer("serving.service_ms_p90", "ms"),
      Layer("serving.gen_late_ms_p90", "ms"),
      Layer("serving.shed", "count"),
      Layer("serving.abandoned", "count"),
      Layer("serving.deadline_dispatches", "count"),
      Layer("host.task_clock_s", "s"),
      Layer("host.page_faults", "count"),
      Layer("host.ctx_switches", "count"),
      Layer("trace.overhead_frac", "ratio"),
  };
}

bool CharsIn(const std::string& s, const char* extra) {
  for (char c : s) {
    bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0;
    for (const char* e = extra; *e != '\0' && !ok; e++) {
      ok = c == *e;
    }
    if (!ok) {
      return false;
    }
  }
  return true;
}

}  // namespace

const std::vector<MetricDef>& MetricCatalog() {
  static const std::vector<MetricDef> catalog = BuildCatalog();
  return catalog;
}

std::vector<std::string> MetricNames(MetricGroup group) {
  std::vector<std::string> names;
  for (const MetricDef& m : MetricCatalog()) {
    if (m.group == group) {
      names.push_back(m.name);
    }
  }
  return names;
}

const MetricDef* FindMetric(const std::string& name) {
  for (const MetricDef& m : MetricCatalog()) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

bool ValidMetricName(const std::string& name) {
  return !name.empty() && name.size() <= 64 &&
         std::isalnum(static_cast<unsigned char>(name[0])) != 0 && CharsIn(name, "_.-");
}

bool ValidUnit(const std::string& unit) {
  return !unit.empty() && unit.size() <= 16 && CharsIn(unit, "_/%.-");
}

}  // namespace perfbench
