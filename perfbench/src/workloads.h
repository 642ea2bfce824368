// The benchmark's three workloads, driven through the public APIs of
// src/engine, src/codegen, src/wasm and src/machine.
//
//   paper   — the paper's experiment: every SPEC-like program and PolyBench
//             kernel under NativeClang, ChromeV8 and FirefoxSM, one client,
//             one Session, seeded order in rounds (short programs every
//             round, long ones every third); code compiled in set-up. The
//             simulated machine is nearly all of the host time.
//   compile — cold and warm compiles: per pass, every module under five
//             profiles on a fresh Engine over an empty cache directory
//             (validate + backend + predecode + disk store), then on a
//             second fresh Engine over the same directory (disk load +
//             checksum + verify + predecode). The machine does no work.
//   serve   — a ServingLoop under open-loop Poisson arrivals at a fixed
//             rate, 3 workers, warm code cache, two tenants (PolyBench under
//             ChromeV8, short SPEC-like programs under FirefoxSM).
//
// Every workload sets up several times (build + cold compile + warm start)
// and reports the median set-up time, then measures for the requested
// seconds, then checks outputs against the native-profile reference and
// counters against a repeated run.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;  // "paper", "compile" or "serve"
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string work_dir;  // scratch space for cache directories
};

struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Every catalogue metric the run measured, by name (end-to-end, report
  // and — in a traced run — per-layer).
  std::map<std::string, double> metrics;
  // Sample counts behind each percentile/median metric, by metric name.
  std::map<std::string, size_t> samples;
  std::string digest;              // counter/code digest (see each workload)
  std::vector<std::string> notes;  // human-readable findings, errors first
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload. Returns false (with *error set) when the run could not
// produce its metrics at all; mismatches are reported in the result.
bool RunWorkload(const RunConfig& config, WorkloadResult* result, std::string* error);

// --- Seeded inputs, exposed for the determinism tests ---

// The paper workload's (program, profile) keys for one round, in execution
// order: every short key (PolyBench kernels and the short SPEC-like
// programs) and a seeded third of the long ones, so that any three
// consecutive rounds run every long key once.
std::vector<size_t> PaperOrder(uint64_t seed, size_t round);
// The compile workload's key order for one leg (0 = cold, 1 = warm) of a pass.
std::vector<size_t> CompileOrder(uint64_t seed, size_t pass, int leg);
// The serve workload's per-tenant mix orders and arrival schedules.
struct ServeSchedule {
  std::vector<std::vector<size_t>> mix_orders;  // per tenant: indices into its programs
  std::vector<std::vector<double>> arrivals;    // per tenant: due times (s)
};
ServeSchedule ServeInputs(uint64_t seed, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
