#include "perfbench/src/workloads.h"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>

#include "perfbench/src/host.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"
#include "src/codegen/artifact.h"
#include "src/codegen/verify.h"
#include "src/engine/engine.h"
#include "src/engine/executor.h"
#include "src/engine/serving.h"
#include "src/machine/decode.h"
#include "src/machine/verify_decoded.h"
#include "src/polybench/polybench.h"
#include "src/spec/spec.h"
#include "src/support/str.h"
#include "src/wasm/artifact_codec.h"
#include "src/wasm/encoder.h"
#include "src/wasm/validator.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using nsf::CodegenOptions;
using nsf::Module;
using nsf::PerfCounters;
using nsf::WorkloadSpec;
using nsf::engine::CompiledModuleRef;
using nsf::engine::CompileInfo;
using nsf::engine::Engine;
using nsf::engine::Session;

// Set-ups before the timed window; paper and serve repeat as many after it.
// setup_s is the median over all of them. Serve's set-up compiles only 30
// keys in ~0.05 s, so it repeats more.
constexpr int kSetups = 5;
constexpr int kServeSetups = 15;
// Serve: the offered load is fixed, never derived from the code under test.
// 3 workers + the generator thread fill the 4-vCPU reference box (see
// perfbench/README.md); the total of 24 rps was ~60% of the capacity measured
// there when the benchmark was written (it kept up at 38 rps, not at 44).
constexpr int kServeWorkers = 3;
constexpr double kServeKernelsRps = 12.0;
constexpr double kServeAppsRps = 12.0;
// A served request counts toward goodput when it completes OK within this
// many milliseconds of its due time.
constexpr double kGoodputLimitMs = 500.0;
// Runs repeated after the timed window to check that counters repeat exactly.
constexpr size_t kRepeatChecks = 5;
// Paper: a round runs every short key and every kPaperRounds-th long key, so
// kPaperRounds rounds run every key at least once (see PaperOrder).
constexpr size_t kPaperRounds = 3;
// The paper's SPEC geomean slowdowns (Figure 3b).
constexpr double kPaperChromeSlowdown = 1.55;
constexpr double kPaperFirefoxSlowdown = 1.45;

// Seed streams: every seeded input draws from its own stream of the run seed.
constexpr uint64_t kStreamPaperOrder = 100;
constexpr uint64_t kStreamCompileOrder = 200;
constexpr uint64_t kStreamSetupOrder = 300;
constexpr uint64_t kStreamServeMix = 400;
constexpr uint64_t kStreamServeArrivals = 410;
constexpr uint64_t kStreamRepeat = 500;

// Samples grouped by repetition (one set-up, one pass, one serving window).
using Reps = std::vector<std::vector<double>>;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// CPU time of the calling thread, in milliseconds. The single-threaded
// operations (a compile, a program run) are timed with it: it leaves out the
// time the thread was not running, whether preempted or with its vCPU stolen
// by the hypervisor (the kernel subtracts steal time from thread clocks), which
// on a shared host moves wall-clock latencies by tens of percent between runs.
// Waits inside an operation (a disk-tier store blocked on the file system
// journal) are left out too; set-up time, which is wall-clock, still has them.
double ThreadCpuMs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

// --- Programs and keys ---

enum class ProgramClass { kPolybench, kSpecInt, kSpecFp };

struct Program {
  WorkloadSpec spec;
  ProgramClass cls = ProgramClass::kPolybench;
};

// One (program, profile) compile key.
struct Key {
  size_t program = 0;
  CodegenOptions options;
};

ProgramClass SpecClass(const std::string& name) {
  static const std::set<std::string> kInt = {"401.bzip2",      "429.mcf",     "445.gobmk",
                                             "458.sjeng",      "462.libquantum", "464.h264ref",
                                             "473.astar",      "641.leela_s"};
  return kInt.count(name) != 0 ? ProgramClass::kSpecInt : ProgramClass::kSpecFp;
}

std::vector<Program> PolybenchPrograms() {
  std::vector<Program> out;
  for (const std::string& name : nsf::PolybenchKernelNames()) {
    out.push_back({nsf::PolybenchSpec(name), ProgramClass::kPolybench});
  }
  return out;
}

std::vector<Program> SpecPrograms(const std::vector<std::string>& names) {
  std::vector<Program> out;
  for (const std::string& name : names) {
    out.push_back({nsf::SpecWorkload(name), SpecClass(name)});
  }
  return out;
}

std::vector<Program> PaperPrograms() {
  std::vector<Program> out = PolybenchPrograms();
  for (Program& p : SpecPrograms(nsf::SpecWorkloadNames())) {
    out.push_back(std::move(p));
  }
  return out;
}

// The SPEC-like programs whose FirefoxSM run took at most ~150 ms of host
// time on the reference box. They are the serve workload's "apps" tenant, so
// requests stay short and many of them overlap, and with the PolyBench
// kernels the paper workload's short programs, which run in every round.
std::vector<std::string> ShortSpecNames() {
  return {"444.namd", "445.gobmk", "450.soplex", "453.povray",
          "482.sphinx3", "641.leela_s", "644.nab_s"};
}

std::vector<Key> KeysFor(size_t programs, const std::vector<CodegenOptions>& profiles) {
  std::vector<Key> keys;
  for (size_t p = 0; p < programs; p++) {
    for (const CodegenOptions& o : profiles) {
      keys.push_back({p, o});
    }
  }
  return keys;
}

std::vector<CodegenOptions> PaperProfiles() {
  return {CodegenOptions::NativeClang(), CodegenOptions::ChromeV8(), CodegenOptions::FirefoxSM()};
}

std::vector<CodegenOptions> CompileProfiles() {
  return {CodegenOptions::NativeClang(), CodegenOptions::ChromeV8(), CodegenOptions::FirefoxSM(),
          CodegenOptions::ChromeAsmJs(), CodegenOptions::FirefoxAsmJs()};
}

// --- Accounting shared by the workloads ---

struct EngineTotals {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t lock_waits = 0;
  uint64_t disk_hits = 0;
  uint64_t disk_stores = 0;
  uint64_t verify_rejects = 0;

  void Add(const Engine& eng) {
    nsf::engine::EngineStats s = eng.Stats();
    hits += s.cache_hits;
    misses += s.cache_misses;
    lock_waits += s.lock_waits;
    disk_hits += s.disk_hits;
    disk_stores += s.disk_stores;
    verify_rejects += s.verify_rejects;
  }
};

struct ClassTotals {
  double run_ns = 0;
  uint64_t instructions = 0;
  uint64_t mem_ops = 0;
};

// Per-layer tallies that do not come from span durations.
struct LayerTotals {
  // Compile pipeline, summed over the workload's distinct keys.
  uint64_t vops = 0, minstrs = 0, spill_slots = 0, code_bytes = 0;
  uint64_t decode_records = 0, fused_pairs = 0, generic_records = 0;
  uint64_t artifact_bytes = 0;
  // Execution, summed over the traced runs.
  ClassTotals by_class[3];
  PerfCounters counters;
  uint64_t syscalls = 0;
  double sim_seconds = 0;
  double browsix_seconds = 0;
  uint64_t pool_acquires = 0, pool_reuses = 0;
  EngineTotals engine;
  HostCounts host;
  double trace_overhead = 0;
  // Serving, from the traced window.
  std::vector<double> queue_ms, service_ms, gen_late_ms;
  uint64_t shed = 0, abandoned = 0, deadline_dispatches = 0;
};

// Counts every checked operation into attempted/failed and keeps the first
// failures as report notes.
class Tally {
 public:
  explicit Tally(WorkloadResult* result) : result_(result) {}
  void Ok() { result_->attempted++; }
  void Fail(const std::string& why) {
    result_->attempted++;
    result_->failed++;
    if (result_->notes.size() < 40) {
      result_->notes.push_back("FAIL " + why);
    }
  }
  void Check(bool ok, const std::string& why) { ok ? Ok() : Fail(why); }

 private:
  WorkloadResult* result_;
};

std::string Label(const Program& p, const CodegenOptions& o) {
  return p.spec.name + "/" + o.profile_name;
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

void SyncFileSystem(const std::string& dir) {
  int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    syncfs(fd);
    close(fd);
  }
}

// Empties the cache directory and flushes the file system, outside any timed
// span. A disk-tier store is a file creation plus two renames, and on the
// reference box their cost grew ~5x as the journal filled between commits;
// starting every repetition from a flushed file system keeps that phase the
// same from one repetition, and one run, to the next.
void FreshCacheDir(const std::string& dir) {
  ResetDir(dir);
  SyncFileSystem(dir);
}

std::unique_ptr<Engine> NewEngine(const std::string& cache_dir) {
  nsf::engine::EngineConfig config;
  config.cache_dir = cache_dir;
  config.disk_cache_max_bytes = 0;  // unbounded: nothing is evicted mid-run
  return std::make_unique<Engine>(config);
}

std::vector<Module> BuildModules(const std::vector<Program>& programs) {
  std::vector<Module> modules;
  modules.reserve(programs.size());
  for (const Program& p : programs) {
    Span span("builder.build");
    modules.push_back(p.spec.build());
  }
  return modules;
}

// Compiles every key on `eng` in `order`. A cold leg must run the backend
// and a warm leg must load from the disk tier; anything else is a failure.
void CompileLeg(Engine* eng, const std::vector<Program>& programs,
                const std::vector<Module>& modules, const std::vector<Key>& keys,
                const std::vector<size_t>& order, bool cold, std::vector<double>* ms_by_key,
                std::vector<CompiledModuleRef>* code_by_key, Tally* tally) {
  ms_by_key->assign(keys.size(), 0);
  code_by_key->assign(keys.size(), nullptr);
  for (size_t k : order) {
    const Key& key = keys[k];
    CompileInfo info;
    double t0 = ThreadCpuMs();
    CompiledModuleRef code = eng->Compile(modules[key.program], key.options, &info);
    (*ms_by_key)[k] = ThreadCpuMs() - t0;
    if (code != nullptr && code->ok && (cold ? info.compiled : info.disk_loaded)) {
      tally->Ok();
    } else {
      tally->Fail(nsf::StrFormat("%s compile of %s: %s", cold ? "cold" : "warm",
                                 Label(programs[key.program], key.options).c_str(),
                                 code != nullptr && !code->ok ? code->error.c_str()
                                                              : "unexpected cache tier"));
    }
    (*code_by_key)[k] = std::move(code);
  }
}

// One set-up of a workload that runs precompiled code: build every module,
// compile every key cold into `dir` (emptied by the caller), then warm-start
// a fresh Engine from that directory. The warm Engine serves the timed window.
struct CompiledSet {
  std::vector<Module> modules;
  std::unique_ptr<Engine> engine;  // the warm Engine
  std::vector<CompiledModuleRef> code;
};

CompiledSet SetUpCompiled(const std::vector<Program>& programs, const std::vector<Key>& keys,
                          const std::string& dir, uint64_t order_seed, Reps* cold_ms, Reps* warm_ms,
                          EngineTotals* totals, Tally* tally) {
  CompiledSet set;
  set.modules = BuildModules(programs);
  std::vector<size_t> order = SeededPermutation(keys.size(), order_seed);
  std::vector<double> ms;
  {
    std::unique_ptr<Engine> cold = NewEngine(dir);
    CompileLeg(cold.get(), programs, set.modules, keys, order, true, &ms, &set.code, tally);
    cold_ms->push_back(ms);
    totals->Add(*cold);
  }
  set.engine = NewEngine(dir);
  CompileLeg(set.engine.get(), programs, set.modules, keys, order, false, &ms, &set.code, tally);
  warm_ms->push_back(ms);
  return set;
}

// Runs `count` set-ups (set-up indices first..first+count-1 seed their
// orders), each from a fresh cache directory, appending their durations and
// compile latencies. Returns the last set-up; earlier Engines' stats go to
// *totals.
CompiledSet RunSetUps(int count, int first, const std::vector<Program>& programs,
                      const std::vector<Key>& keys, const std::string& dir, uint64_t seed,
                      std::vector<double>* setup_s, Reps* cold_ms, Reps* warm_ms,
                      EngineTotals* totals, Tally* tally) {
  CompiledSet set;
  CpuRotation cpus;
  for (int i = first; i < first + count; i++) {
    if (set.engine != nullptr) {
      totals->Add(*set.engine);
    }
    cpus.Next();
    FreshCacheDir(dir);
    auto t0 = Clock::now();
    set = SetUpCompiled(programs, keys, dir, DeriveSeed(seed, kStreamSetupOrder + i), cold_ms,
                        warm_ms, totals, tally);
    setup_s->push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return set;
}

// --- One program run ---

struct RunRecord {
  bool ok = false;
  std::string error;
  uint64_t exit_code = 0;
  std::string stdout_text;
  std::vector<std::pair<std::string, std::vector<uint8_t>>> outputs;
  PerfCounters counters;
  double sim_seconds = 0;
  double browsix_seconds = 0;
  uint64_t syscalls = 0;
  double run_ns = 0;  // thread CPU time inside Instance::Run
  double op_ms = 0;   // thread CPU time of the whole operation: stage, instantiate, run, read back
};

bool SameOutputs(const RunRecord& a, const RunRecord& b) {
  return a.ok && b.ok && a.exit_code == b.exit_code && a.stdout_text == b.stdout_text &&
         a.outputs == b.outputs;
}

// Resets the session, stages the program's inputs, instantiates, runs and
// reads the output files back. In a traced run it also constructs and
// destroys one standalone SimMachine over the session's buffer pool, which
// is what every Instance::Run pays before executing.
RunRecord RunProgram(Session* session, const Program& program, const CompiledModuleRef& code) {
  RequestScope request;
  RunRecord rec;
  double t0 = ThreadCpuMs();
  {
    Span span("kernel.stage");
    session->Reset();
    if (program.spec.setup) {
      program.spec.setup(session->kernel());
    }
  }
  nsf::engine::InstanceOptions iopts;
  iopts.argv = program.spec.argv;
  iopts.entry = program.spec.entry;
  iopts.fuel = program.spec.fuel;
  std::unique_ptr<nsf::engine::Instance> instance;
  {
    Span span("engine.instantiate");
    instance = session->Instantiate(code, std::move(iopts), &rec.error);
  }
  if (instance == nullptr) {
    rec.op_ms = ThreadCpuMs() - t0;
    return rec;
  }
  if (Tracer::Global().enabled()) {
    Span span("machine.construct");
    nsf::SimMachine probe(&code->program(), code->decoded_program(), &session->buffer_pool());
  }
  nsf::engine::RunOutcome out;
  {
    Span span("machine.run");
    double r0 = ThreadCpuMs();
    out = instance->Run();
    rec.run_ns = (ThreadCpuMs() - r0) * 1e6;
  }
  rec.ok = out.ok;
  rec.error = out.error;
  rec.exit_code = out.exit_code;
  rec.stdout_text = std::move(out.stdout_text);
  rec.counters = out.counters;
  rec.sim_seconds = out.seconds;
  rec.browsix_seconds = out.browsix_seconds;
  rec.syscalls = out.syscalls;
  if (rec.ok) {
    for (const std::string& path : program.spec.output_files) {
      std::vector<uint8_t> bytes;
      session->fs().ReadFile(path, &bytes);
      rec.outputs.push_back({path, std::move(bytes)});
    }
  }
  rec.op_ms = ThreadCpuMs() - t0;
  return rec;
}

void AddRun(const Program& program, const RunRecord& rec, LayerTotals* layers) {
  ClassTotals& c = layers->by_class[static_cast<int>(program.cls)];
  c.run_ns += rec.run_ns;
  c.instructions += rec.counters.instructions_retired;
  c.mem_ops += rec.counters.loads_retired + rec.counters.stores_retired;
  layers->counters += rec.counters;
  layers->syscalls += rec.syscalls;
  layers->sim_seconds += rec.sim_seconds;
  layers->browsix_seconds += rec.browsix_seconds;
}

void AddPool(Session& session, LayerTotals* layers) {
  layers->pool_acquires += session.buffer_pool().acquires();
  layers->pool_reuses += session.buffer_pool().reuses();
}

nsf::engine::ArrivalConfig ServeArrivals(uint64_t seed, size_t tenant) {
  nsf::engine::ArrivalConfig arrivals;
  arrivals.kind = nsf::engine::ArrivalKind::kPoisson;
  arrivals.rate_rps = tenant == 0 ? kServeKernelsRps : kServeAppsRps;
  arrivals.seed = DeriveSeed(seed, kStreamServeArrivals + tenant);
  return arrivals;
}

std::string Hex(uint64_t v) {
  return nsf::StrFormat("%016llx", static_cast<unsigned long long>(v));
}

// FNV-1a over "label counters..." lines sorted by label, so the digest does
// not depend on execution order.
std::string CounterDigest(std::vector<std::pair<std::string, PerfCounters>> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string text;
  for (const auto& [label, c] : rows) {
    text += nsf::StrFormat(
        "%s %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu\n", label.c_str(),
        (unsigned long long)c.instructions_retired, (unsigned long long)c.micro_cycles,
        (unsigned long long)c.loads_retired, (unsigned long long)c.stores_retired,
        (unsigned long long)c.branches_retired, (unsigned long long)c.cond_branches_retired,
        (unsigned long long)c.taken_branches, (unsigned long long)c.calls,
        (unsigned long long)c.l1i_misses, (unsigned long long)c.l1d_misses,
        (unsigned long long)c.l2_misses);
  }
  return Hex(nsf::Fnv1a(text));
}

// --- Per-layer decomposition of the compile pipeline (traced runs) ---

// Calls each layer's public functions directly, in the order Engine::Compile
// runs them internally, once per distinct key, so each gets its own span:
// build, hash, validate, backend, machine verify, predecode, decoded verify,
// artifact encode and decode. Then probes the warm in-memory hit path of
// `hit_engine`, which already holds every key.
void TracePipeline(const std::vector<Program>& programs, const std::vector<Key>& keys,
                   Engine* hit_engine, LayerTotals* layers, Tally* tally) {
  std::vector<Module> modules = BuildModules(programs);
  for (const Key& key : keys) {
    const Module& module = modules[key.program];
    const std::string label = Label(programs[key.program], key.options);
    uint64_t hash = 0;
    {
      Span span("wasm.hash");
      hash = nsf::HashModule(module);
    }
    bool valid = false;
    {
      Span span("wasm.validate");
      valid = nsf::ValidateModule(module).ok;
    }
    tally->Check(valid, "validate " + label);
    nsf::CompiledArtifact artifact;
    {
      Span span("codegen.compile");
      artifact = nsf::BuildArtifact(module, key.options, hash, key.options.Fingerprint());
    }
    if (!artifact.ok()) {
      tally->Fail("backend " + label + ": " + artifact.compiled.error);
      continue;
    }
    std::string diag;
    {
      Span span("codegen.verify_machine");
      diag = nsf::VerifyMachine(artifact.program());
    }
    tally->Check(diag.empty(), "verify machine " + label + ": " + diag);
    nsf::DecodedProgram decoded;
    {
      Span span("machine.predecode");
      decoded = nsf::Predecode(artifact.program());
    }
    {
      Span span("machine.verify_decoded");
      diag = nsf::VerifyDecodedProgram(artifact.program(), decoded);
    }
    tally->Check(diag.empty(), "verify decoded " + label + ": " + diag);
    std::vector<uint8_t> bytes;
    {
      Span span("wasm.artifact_encode");
      bytes = nsf::SerializeArtifact(artifact);
    }
    bool decoded_ok = false;
    {
      Span span("wasm.artifact_decode");
      nsf::CompiledArtifact back;
      decoded_ok = nsf::DeserializeArtifact(bytes, &back, &diag);
    }
    tally->Check(decoded_ok, "decode " + label + ": " + diag);
    {
      Span span("engine.hit");
      CompileInfo info;
      CompiledModuleRef code = hit_engine->Compile(module, key.options, &info);
      tally->Check(code->ok && info.hit && !info.disk_loaded, "warm hit " + label);
    }
    const nsf::CompileStats& s = artifact.stats();
    layers->vops += s.vops;
    layers->minstrs += s.minstrs;
    layers->spill_slots += s.spill_slots;
    layers->code_bytes += s.code_bytes;
    layers->decode_records += decoded.stats.records;
    layers->fused_pairs += decoded.stats.fused_pairs;
    layers->generic_records += decoded.stats.generic;
    layers->artifact_bytes += bytes.size();
  }
}

// --- Result assembly ---

// The p-th percentile of each repetition's samples, then the median over
// repetitions: a repetition that ran while the host was slow moves the
// result less than it would move the percentile of the pooled samples.
void SetPercentile(WorkloadResult* r, const std::string& name, const Reps& reps, double p) {
  std::vector<double> per_rep;
  size_t samples = 0;
  for (const std::vector<double>& xs : reps) {
    PercentileValue v = MeasurePercentile(xs, p);
    samples += v.samples;
    if (!v.reportable) {
      r->notes.push_back(nsf::StrFormat("%s not reported: a repetition has %zu samples, %zu beyond "
                                        "p%g (need %zu)",
                                        name.c_str(), v.samples, v.beyond, p, kMinSamplesBeyond));
      return;
    }
    per_rep.push_back(v.value);
  }
  r->metrics[name] = Percentile(per_rep, 50);
  r->samples[name] = samples;
}

// Each key's fastest latency over the repetitions (all repetitions hold one
// sample per key, in key order). On the reference box disk-tier stores and CPU
// speed swing by up to 2x from one pass to the next; a key's best repetition
// is the steadiest estimate of what the code costs.
std::vector<double> PerKeyMin(const Reps& reps) {
  std::vector<double> best = reps.empty() ? std::vector<double>() : reps[0];
  for (const std::vector<double>& xs : reps) {
    for (size_t k = 0; k < best.size() && k < xs.size(); k++) {
      best[k] = std::min(best[k], xs[k]);
    }
  }
  return best;
}

Reps Pooled(const Reps& reps) {
  std::vector<double> all;
  for (const std::vector<double>& xs : reps) {
    all.insert(all.end(), xs.begin(), xs.end());
  }
  return {all};
}

void SetMedian(WorkloadResult* r, const std::string& name, const std::vector<double>& xs) {
  r->metrics[name] = Percentile(xs, 50);
  r->samples[name] = xs.size();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void SetCommonEndToEnd(WorkloadResult* r, const std::vector<double>& setup_s, const Reps& cold_ms,
                       const Reps& warm_ms, const Reps& e2e_ms, const HostCounts& host,
                       size_t ops) {
  SetMedian(r, "setup_s", setup_s);
  r->metrics["rss_mb"] = PeakRssMb();
  SetPercentile(r, "cold_p50_ms", {PerKeyMin(cold_ms)}, 50);
  SetPercentile(r, "warm_p50_ms", {PerKeyMin(warm_ms)}, 50);
  SetPercentile(r, "e2e_p50_ms", e2e_ms, 50);
  SetPercentile(r, "e2e_p90_ms", e2e_ms, 90);
  std::vector<double> all = Pooled(e2e_ms)[0];
  double tail = HighestReportablePercentile(all.size());
  r->notes.push_back(nsf::StrFormat("e2e tail: p%g = %.3f ms, the highest percentile with %zu "
                                    "samples beyond it (%zu samples)",
                                    tail, Percentile(all, tail), kMinSamplesBeyond, all.size()));
  r->metrics["cpu_ms_per_op"] = Ratio(host.task_clock_s * 1e3, static_cast<double>(ops));
  r->samples["cpu_ms_per_op"] = ops;
}

double OverheadFrac(const HostCounts& untraced, size_t untraced_ops, const HostCounts& traced,
                    size_t traced_ops) {
  double base = Ratio(untraced.task_clock_s, static_cast<double>(untraced_ops));
  double with = Ratio(traced.task_clock_s, static_cast<double>(traced_ops));
  return base > 0 ? with / base - 1 : 0;
}

void SetLayerMetrics(const LayerTotals& t, WorkloadResult* r) {
  const Tracer& tracer = Tracer::Global();
  auto& m = r->metrics;
  for (const char* span :
       {"builder.build", "wasm.hash", "wasm.validate", "wasm.artifact_encode",
        "wasm.artifact_decode", "codegen.compile", "codegen.verify_machine", "machine.predecode",
        "machine.verify_decoded", "machine.run", "machine.construct", "kernel.stage",
        "engine.instantiate", "engine.hit"}) {
    m[std::string(span) + "_ms"] = tracer.MeanMs(span);
  }
  m["wasm.artifact_bytes"] = static_cast<double>(t.artifact_bytes);
  m["codegen.vops"] = static_cast<double>(t.vops);
  m["codegen.minstrs"] = static_cast<double>(t.minstrs);
  m["codegen.spill_slots"] = static_cast<double>(t.spill_slots);
  m["codegen.code_bytes"] = static_cast<double>(t.code_bytes);
  m["machine.decode_records"] = static_cast<double>(t.decode_records);
  m["machine.fused_pairs"] = static_cast<double>(t.fused_pairs);
  m["machine.generic_records"] = static_cast<double>(t.generic_records);
  const char* class_names[3] = {"polybench", "spec_int", "spec_fp"};
  for (int c = 0; c < 3; c++) {
    const ClassTotals& ct = t.by_class[c];
    m[std::string("machine.ns_per_instr.") + class_names[c]] =
        Ratio(ct.run_ns, static_cast<double>(ct.instructions));
    m[std::string("machine.ns_per_mem_op.") + class_names[c]] =
        Ratio(ct.run_ns, static_cast<double>(ct.mem_ops));
  }
  m["machine.pool_reuse_frac"] =
      Ratio(static_cast<double>(t.pool_reuses), static_cast<double>(t.pool_acquires));
  m["machine.instructions"] = static_cast<double>(t.counters.instructions_retired);
  m["machine.cycles"] = static_cast<double>(t.counters.cycles());
  m["machine.loads"] = static_cast<double>(t.counters.loads_retired);
  m["machine.stores"] = static_cast<double>(t.counters.stores_retired);
  m["machine.branches"] = static_cast<double>(t.counters.branches_retired);
  m["machine.l1i_misses"] = static_cast<double>(t.counters.l1i_misses);
  m["machine.l1d_misses"] = static_cast<double>(t.counters.l1d_misses);
  m["machine.l2_misses"] = static_cast<double>(t.counters.l2_misses);
  m["kernel.syscalls"] = static_cast<double>(t.syscalls);
  m["kernel.browsix_frac"] = Ratio(t.browsix_seconds, t.sim_seconds);
  m["engine.cache_hit_frac"] = Ratio(static_cast<double>(t.engine.hits),
                                     static_cast<double>(t.engine.hits + t.engine.misses));
  m["engine.lock_waits"] = static_cast<double>(t.engine.lock_waits);
  m["engine.disk_hits"] = static_cast<double>(t.engine.disk_hits);
  m["engine.disk_stores"] = static_cast<double>(t.engine.disk_stores);
  m["engine.verify_rejects"] = static_cast<double>(t.engine.verify_rejects);
  m["serving.queue_ms_p50"] = t.queue_ms.empty() ? 0 : Percentile(t.queue_ms, 50);
  m["serving.queue_ms_p90"] = t.queue_ms.empty() ? 0 : Percentile(t.queue_ms, 90);
  m["serving.service_ms_p50"] = t.service_ms.empty() ? 0 : Percentile(t.service_ms, 50);
  m["serving.service_ms_p90"] = t.service_ms.empty() ? 0 : Percentile(t.service_ms, 90);
  m["serving.gen_late_ms_p90"] = t.gen_late_ms.empty() ? 0 : Percentile(t.gen_late_ms, 90);
  m["serving.shed"] = static_cast<double>(t.shed);
  m["serving.abandoned"] = static_cast<double>(t.abandoned);
  m["serving.deadline_dispatches"] = static_cast<double>(t.deadline_dispatches);
  m["host.task_clock_s"] = t.host.task_clock_s;
  m["host.page_faults"] = static_cast<double>(t.host.page_faults);
  m["host.ctx_switches"] = static_cast<double>(t.host.ctx_switches);
  m["trace.overhead_frac"] = t.trace_overhead;
}

// ============================== paper ==============================

struct PaperWindow {
  std::vector<double> best_ms;   // by key: the fastest run in the window
  std::vector<RunRecord> first;  // by key: its first run
  double seconds = 0;
  size_t rounds = 0;
  double run_ns = 0;
  uint64_t instructions = 0;
  size_t ops = 0;
  HostCounts host;
};

// Rounds of PaperOrder in turn until the next round would end past
// `seconds`, and never fewer than kPaperRounds, so every key runs. A key's
// later runs must repeat its first run's outputs and counters, and after the
// window every JIT profile's first run must match the native one.
//
// Why rounds and not whole passes: on the reference box one run of a program
// took 30 ms or 45 ms of CPU time depending on the second it ran in, in spells
// of seconds (host contention that thread CPU time does not remove), and a
// whole pass of ~25 s fits only once in a run. The short keys, which decide
// the median, run once per round, ~9 s apart, and each reports its fastest.
PaperWindow RunPaperWindow(const std::vector<Program>& programs, const std::vector<Key>& keys,
                           const CompiledSet& set, const RunConfig& config,
                           SoftwareCounters* counters, LayerTotals* layers, Tally* tally) {
  PaperWindow w;
  w.best_ms.assign(keys.size(), INFINITY);
  w.first.resize(keys.size());
  std::vector<bool> ran(keys.size(), false);
  Session session(set.engine.get());
  CpuRotation cpus;
  counters->Start();
  auto start = Clock::now();
  for (size_t round = 0;; round++) {
    cpus.Next();
    auto round_t0 = Clock::now();
    for (size_t k : PaperOrder(config.seed, round)) {
      RunRecord rec = RunProgram(&session, programs[keys[k].program], set.code[k]);
      w.best_ms[k] = std::min(w.best_ms[k], rec.op_ms);
      w.run_ns += rec.run_ns;
      w.instructions += rec.counters.instructions_retired;
      w.ops++;
      if (layers != nullptr) {
        AddRun(programs[keys[k].program], rec, layers);
      }
      if (!ran[k]) {
        ran[k] = true;
        w.first[k] = std::move(rec);
        continue;
      }
      tally->Check(rec.ok && SameOutputs(rec, w.first[k]) && rec.counters == w.first[k].counters,
                   Label(programs[keys[k].program], keys[k].options) +
                       (rec.ok ? " differs from its first run" : " failed: " + rec.error));
    }
    double round_s = std::chrono::duration<double>(Clock::now() - round_t0).count();
    w.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    w.rounds = round + 1;
    if (w.rounds >= kPaperRounds && w.seconds + round_s > config.seconds) {
      break;
    }
  }
  w.host = counters->Stop();
  // Keys are program-major over PaperProfiles(): key 3p is the native run.
  for (size_t k = 0; k < keys.size(); k++) {
    const RunRecord& rec = w.first[k];
    tally->Check(rec.ok && SameOutputs(rec, w.first[k - k % 3]),
                 Label(programs[keys[k].program], keys[k].options) +
                     (rec.ok ? " differs from the native run" : " failed: " + rec.error));
  }
  if (layers != nullptr) {
    AddPool(session, layers);
  }
  return w;
}

// Mean over Chrome and Firefox of |simulated SPEC geomean slowdown vs native
// - the paper's figure|, computed the way bench/fig03b_spec_relative does.
double ModelError(const std::vector<Program>& programs, const std::vector<Key>& keys,
                  const std::vector<RunRecord>& recs) {
  double log_sum[2] = {0, 0};
  int n = 0;
  for (size_t k = 0; k < keys.size(); k += 3) {
    if (programs[keys[k].program].cls == ProgramClass::kPolybench) {
      continue;
    }
    for (int j = 0; j < 2; j++) {
      log_sum[j] += std::log(Ratio(recs[k + 1 + j].sim_seconds, recs[k].sim_seconds));
    }
    n++;
  }
  if (n == 0) {
    return 0;
  }
  double chrome = std::exp(log_sum[0] / n);
  double firefox = std::exp(log_sum[1] / n);
  return (std::fabs(chrome - kPaperChromeSlowdown) + std::fabs(firefox - kPaperFirefoxSlowdown)) /
         2;
}

void RunPaper(const RunConfig& config, const std::string& dir, WorkloadResult* r) {
  Tally tally(r);
  std::vector<Program> programs = PaperPrograms();
  std::vector<Key> keys = KeysFor(programs.size(), PaperProfiles());
  LayerTotals layers;
  std::vector<double> setup_s;
  Reps cold_ms, warm_ms;
  CompiledSet set = RunSetUps(kSetups, 0, programs, keys, dir, config.seed, &setup_s, &cold_ms,
                              &warm_ms, &layers.engine, &tally);

  SoftwareCounters counters;
  PaperWindow w = RunPaperWindow(programs, keys, set, config, &counters, nullptr, &tally);
  if (config.trace) {
    Tracer::Global().set_enabled(true);
    PaperWindow traced = RunPaperWindow(programs, keys, set, config, &counters, &layers, &tally);
    TracePipeline(programs, keys, set.engine.get(), &layers, &tally);
    Tracer::Global().set_enabled(false);
    layers.host = w.host;
    layers.trace_overhead = OverheadFrac(w.host, w.ops, traced.host, traced.ops);
  }

  // Counters must repeat exactly: rerun a seeded handful of PolyBench keys.
  {
    Session session(set.engine.get());
    std::vector<size_t> polybench_keys;
    for (size_t k = 0; k < keys.size(); k++) {
      if (programs[keys[k].program].cls == ProgramClass::kPolybench) {
        polybench_keys.push_back(k);
      }
    }
    std::vector<size_t> pick =
        SeededPermutation(polybench_keys.size(), DeriveSeed(config.seed, kStreamRepeat));
    for (size_t i = 0; i < kRepeatChecks && i < pick.size(); i++) {
      size_t k = polybench_keys[pick[i]];
      RunRecord again = RunProgram(&session, programs[keys[k].program], set.code[k]);
      tally.Check(SameOutputs(again, w.first[k]) && again.counters == w.first[k].counters,
                  "repeated run of " + Label(programs[keys[k].program], keys[k].options) +
                      " changed its outputs or counters");
    }
  }
  layers.engine.Add(*set.engine);
  set = CompiledSet();
  // The set-ups again, half a minute later: a slow spell of the host or its
  // disk then skews only half of the samples behind setup_s and the
  // per-key fastest compile latencies.
  layers.engine.Add(*RunSetUps(kSetups, kSetups, programs, keys, dir, config.seed, &setup_s,
                               &cold_ms, &warm_ms, &layers.engine, &tally)
                         .engine);

  SetCommonEndToEnd(r, setup_s, cold_ms, warm_ms, {w.best_ms}, w.host, w.ops);
  r->metrics["pass_s"] = w.seconds * kPaperRounds / static_cast<double>(w.rounds);
  r->samples["pass_s"] = w.rounds;
  r->metrics["sim_mips"] = Ratio(static_cast<double>(w.instructions), w.run_ns * 1e-9) / 1e6;
  r->samples["sim_mips"] = w.ops;
  r->metrics["model_err"] = ModelError(programs, keys, w.first);
  std::vector<std::pair<std::string, PerfCounters>> rows;
  for (size_t k = 0; k < keys.size(); k++) {
    rows.push_back({Label(programs[keys[k].program], keys[k].options), w.first[k].counters});
  }
  r->digest = CounterDigest(std::move(rows));
  if (config.trace) {
    SetLayerMetrics(layers, r);
  }
}

// ============================== compile ==============================

struct CompilePass {
  std::vector<double> cold_ms, warm_ms;  // by key
  std::vector<CompiledModuleRef> cold_code, warm_code;
  std::unique_ptr<Engine> warm_engine;
};

// One pass: a cold leg on a fresh Engine over an empty cache directory, then
// a warm leg on a second fresh Engine over the same directory.
CompilePass RunCompilePass(const std::vector<Program>& programs,
                           const std::vector<Module>& modules, const std::vector<Key>& keys,
                           const std::string& dir, uint64_t seed, size_t pass,
                           EngineTotals* totals, Tally* tally) {
  CompilePass p;
  FreshCacheDir(dir);
  {
    std::unique_ptr<Engine> cold = NewEngine(dir);
    CompileLeg(cold.get(), programs, modules, keys, CompileOrder(seed, pass, 0), true,
               &p.cold_ms, &p.cold_code, tally);
    totals->Add(*cold);
  }
  p.warm_engine = NewEngine(dir);
  CompileLeg(p.warm_engine.get(), programs, modules, keys, CompileOrder(seed, pass, 1), false,
             &p.warm_ms, &p.warm_code, tally);
  return p;
}

struct CompileWindow {
  Reps cold_ms, warm_ms, pair_ms;  // per pass
  std::vector<double> pass_s;
  size_t ops = 0;  // keys delivered (one cold + one warm compile each)
  HostCounts host;
  CompilePass last;
};

CompileWindow RunCompileWindow(const std::vector<Program>& programs,
                               const std::vector<Module>& modules, const std::vector<Key>& keys,
                               const std::string& dir, const RunConfig& config,
                               SoftwareCounters* counters, EngineTotals* totals, Tally* tally) {
  CompileWindow w;
  CpuRotation cpus;
  counters->Start();
  auto start = Clock::now();
  for (size_t pass = 0;; pass++) {
    cpus.Next();
    auto pass_t0 = Clock::now();
    if (w.last.warm_engine != nullptr) {
      totals->Add(*w.last.warm_engine);
    }
    w.last = RunCompilePass(programs, modules, keys, dir, config.seed, pass, totals, tally);
    w.pass_s.push_back(std::chrono::duration<double>(Clock::now() - pass_t0).count());
    w.cold_ms.push_back(w.last.cold_ms);
    w.warm_ms.push_back(w.last.warm_ms);
    w.pair_ms.emplace_back();
    for (size_t k = 0; k < keys.size(); k++) {
      w.pair_ms.back().push_back(w.last.cold_ms[k] + w.last.warm_ms[k]);
    }
    w.ops += keys.size();
    double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed + w.pass_s.back() > config.seconds) {
      break;
    }
  }
  w.host = counters->Stop();
  return w;
}

void RunCompile(const RunConfig& config, const std::string& dir, WorkloadResult* r) {
  Tally tally(r);
  std::vector<Program> programs = PaperPrograms();
  std::vector<Key> keys = KeysFor(programs.size(), CompileProfiles());
  LayerTotals layers;
  std::vector<double> setup_s;
  std::vector<Module> modules;
  {
    CpuRotation cpus;
    for (int i = 0; i < kSetups; i++) {
      cpus.Next();
      auto t0 = Clock::now();
      modules = BuildModules(programs);
      // One untimed pass lets allocator and page-cache state settle.
      CompilePass warmup = RunCompilePass(programs, modules, keys, dir,
                                          DeriveSeed(config.seed, kStreamSetupOrder + i), 0,
                                          &layers.engine, &tally);
      layers.engine.Add(*warmup.warm_engine);
      setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    }
  }

  SoftwareCounters counters;
  CompileWindow w =
      RunCompileWindow(programs, modules, keys, dir, config, &counters, &layers.engine, &tally);
  if (config.trace) {
    Tracer::Global().set_enabled(true);
    CompileWindow traced =
        RunCompileWindow(programs, modules, keys, dir, config, &counters, &layers.engine, &tally);
    TracePipeline(programs, keys, traced.last.warm_engine.get(), &layers, &tally);
    Tracer::Global().set_enabled(false);
    layers.engine.Add(*traced.last.warm_engine);
    layers.host = w.host;
    layers.trace_overhead = OverheadFrac(w.host, w.ops, traced.host, traced.ops);
  }
  layers.engine.Add(*w.last.warm_engine);

  // A warm-started artifact must be the cold one, byte for byte. The digest
  // covers every key's code statistics, sorted so that it does not depend on
  // the seeded order.
  std::vector<std::string> lines;
  for (size_t k = 0; k < keys.size(); k++) {
    const CompiledModuleRef& cold = w.last.cold_code[k];
    const CompiledModuleRef& warm = w.last.warm_code[k];
    std::string label = Label(programs[keys[k].program], keys[k].options);
    bool ok = cold != nullptr && warm != nullptr && cold->ok && warm->ok &&
              nsf::SerializeArtifact(cold->artifact) == nsf::SerializeArtifact(warm->artifact);
    tally.Check(ok, "warm artifact of " + label + " differs from the cold one");
    if (ok) {
      const nsf::CompileStats& s = cold->stats();
      const nsf::DecodeStats& d = cold->decoded_program()->stats;
      lines.push_back(nsf::StrFormat(
          "%s %llu %llu %llu %llu %llu %llu %llu\n", label.c_str(), (unsigned long long)s.vops,
          (unsigned long long)s.minstrs, (unsigned long long)s.spill_slots,
          (unsigned long long)s.code_bytes, (unsigned long long)d.records,
          (unsigned long long)d.fused_pairs, (unsigned long long)d.generic));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string joined;
  for (const std::string& l : lines) {
    joined += l;
  }
  r->digest = Hex(nsf::Fnv1a(joined));

  SetCommonEndToEnd(r, setup_s, w.cold_ms, w.warm_ms, {PerKeyMin(w.pair_ms)}, w.host, w.ops);
  SetMedian(r, "pass_s", w.pass_s);
  // One pass holds too few keys for a p99; these pool every pass.
  SetPercentile(r, "cold_p99_ms", Pooled(w.cold_ms), 99);
  SetPercentile(r, "warm_p99_ms", Pooled(w.warm_ms), 99);
  if (config.trace) {
    SetLayerMetrics(layers, r);
  }
}

// ============================== serve ==============================

struct ServeWindow {
  std::vector<double> e2e_ms, queue_ms, service_ms, late_ms;
  uint64_t offered = 0;
  uint64_t good = 0;
  uint64_t shed = 0, abandoned = 0, deadline_dispatches = 0;
  double sort_ms = 0;  // replayed cost of the loop's slowest-list sorts
  HostCounts host;
};

// ServingLoop re-sorts a tenant's slowest list after every completion, and
// the benchmark keeps that list unbounded. Replays those sorts in completion
// order and returns their host time, to show it is negligible.
double ReplaySlowestSorts(const std::vector<nsf::engine::ServedRequest>& served) {
  std::vector<nsf::engine::ServedRequest> by_completion = served;
  std::sort(by_completion.begin(), by_completion.end(), [](const auto& a, const auto& b) {
    return a.enqueue_seconds + a.e2e_seconds < b.enqueue_seconds + b.e2e_seconds;
  });
  std::vector<nsf::engine::ServedRequest> list;
  auto t0 = Clock::now();
  for (const auto& rec : by_completion) {
    list.push_back(rec);
    std::sort(list.begin(), list.end(),
              [](const auto& a, const auto& b) { return a.e2e_seconds > b.e2e_seconds; });
  }
  return MsSince(t0);
}

// Wraps the spec's builder and staging callbacks in spans, so a traced
// serving window attributes the per-request build and staging cost the
// serving loop pays (ExecuteRequest calls both for every request).
WorkloadSpec TracedSpec(const WorkloadSpec& spec) {
  WorkloadSpec traced = spec;
  traced.build = [build = spec.build] {
    Span span("builder.build");
    return build();
  };
  if (spec.setup) {
    traced.setup = [setup = spec.setup](nsf::BrowsixKernel& kernel) {
      Span span("kernel.stage");
      setup(kernel);
    };
  }
  return traced;
}

// `tenant_first[t]` is the first key of tenant t (kernels, then apps).
ServeWindow RunServeWindow(const std::vector<Program>& programs, const std::vector<Key>& keys,
                           const size_t tenant_first[2], Engine* engine, const RunConfig& config,
                           SoftwareCounters* counters, Tally* tally) {
  using namespace nsf::engine;
  ServeSchedule inputs = ServeInputs(config.seed, config.seconds);
  const char* names[2] = {"kernels", "apps"};
  std::vector<TenantConfig> tenants(2);
  for (size_t t = 0; t < 2; t++) {
    TenantConfig& tc = tenants[t];
    tc.name = names[t];
    tc.arrivals = ServeArrivals(config.seed, t);
    tc.max_queue_depth = SIZE_MAX;  // no shedding: nothing feeds back into the offered load
    tc.p99_slo_seconds = 0;
    for (size_t i : inputs.mix_orders[t]) {
      const Key& key = keys[tenant_first[t] + i];
      RunRequest req;
      const WorkloadSpec& spec = programs[key.program].spec;
      req.spec = Tracer::Global().enabled() ? TracedSpec(spec) : spec;
      req.options = key.options;
      tc.mix.push_back(std::move(req));
    }
  }
  ServingConfig sc;
  sc.workers = kServeWorkers;
  sc.duration_seconds = config.seconds;
  sc.drain_timeout_seconds = 60;
  // Keep every request's timeline: exact percentiles need all of them.
  sc.slowest_per_tenant = SIZE_MAX;
  ServingLoop loop(engine, sc);
  counters->Start();
  ServingReport report = loop.Run(tenants);
  ServeWindow w;
  w.host = counters->Stop();

  w.offered = report.offered;
  w.shed = report.shed;
  w.abandoned = report.abandoned;
  tally->Check(report.accounted(), "serving report does not account for every request");
  for (size_t t = 0; t < 2; t++) {
    const TenantReport& tr = report.tenants[t];
    const std::vector<double>& due = inputs.arrivals[t];
    w.deadline_dispatches += tr.deadline_dispatches;
    std::vector<ServedRequest> served = tr.slowest;
    w.sort_ms += ReplaySlowestSorts(served);
    std::stable_sort(served.begin(), served.end(), [](const auto& a, const auto& b) {
      return a.enqueue_seconds < b.enqueue_seconds;
    });
    // With no shedding, the k-th enqueued request of a tenant is its k-th
    // arrival and runs mix entry k mod |mix|.
    for (size_t k = 0; k < served.size(); k++) {
      const ServedRequest& s = served[k];
      const std::vector<RunRequest>& mix = tenants[t].mix;
      bool matched = k < due.size() && s.workload == mix[k % mix.size()].spec.name;
      double due_s = k < due.size() ? due[k] : s.enqueue_seconds;
      double e2e = (s.enqueue_seconds + s.e2e_seconds - due_s) * 1e3;
      w.e2e_ms.push_back(e2e);
      w.queue_ms.push_back(s.queue_seconds * 1e3);
      w.service_ms.push_back(s.service_seconds * 1e3);
      w.late_ms.push_back(std::max(0.0, s.enqueue_seconds - due_s) * 1e3);
      bool ok = matched && s.outcome == ServeOutcome::kOk;
      w.good += ok && e2e <= kGoodputLimitMs ? 1 : 0;
      tally->Check(ok, nsf::StrFormat("%s request %zu (%s): %s", names[t], k, s.workload.c_str(),
                                      matched ? ServeOutcomeName(s.outcome)
                                              : "does not match its arrival"));
    }
    uint64_t unserved = tr.offered - served.size();
    for (uint64_t i = 0; i < unserved; i++) {
      tally->Fail(nsf::StrFormat("%s request shed or abandoned", names[t]));
    }
  }
  return w;
}

void RunServe(const RunConfig& config, const std::string& dir, WorkloadResult* r) {
  Tally tally(r);
  std::vector<Program> programs = PolybenchPrograms();
  const size_t kernels = programs.size();
  for (Program& p : SpecPrograms(ShortSpecNames())) {
    programs.push_back(std::move(p));
  }
  // Key i is program i: kernels under ChromeV8, apps under FirefoxSM.
  std::vector<Key> keys;
  for (size_t p = 0; p < programs.size(); p++) {
    keys.push_back({p, p < kernels ? CodegenOptions::ChromeV8() : CodegenOptions::FirefoxSM()});
  }
  LayerTotals layers;
  std::vector<double> setup_s;
  Reps cold_ms, warm_ms;
  CompiledSet set = RunSetUps(kServeSetups, 0, programs, keys, dir, config.seed, &setup_s,
                              &cold_ms, &warm_ms, &layers.engine, &tally);

  // Reference check before serving: every mix entry's result must equal the
  // native-profile run of the same program.
  Tracer::Global().set_enabled(config.trace);
  std::vector<RunRecord> served_ref(keys.size());
  {
    std::unique_ptr<Engine> native = NewEngine("");
    Session session(set.engine.get());
    Session native_session(native.get());
    for (size_t k = 0; k < keys.size(); k++) {
      const Program& program = programs[keys[k].program];
      CompiledModuleRef native_code =
          native->Compile(set.modules[keys[k].program], CodegenOptions::NativeClang());
      RunRecord ref = RunProgram(&native_session, program, native_code);
      served_ref[k] = RunProgram(&session, program, set.code[k]);
      if (config.trace) {
        AddRun(program, served_ref[k], &layers);
      }
      tally.Check(served_ref[k].ok && SameOutputs(served_ref[k], ref),
                  Label(program, keys[k].options) + " differs from its native run");
    }
    if (config.trace) {
      AddPool(session, &layers);
    }
    layers.engine.Add(*native);
  }
  Tracer::Global().set_enabled(false);

  SoftwareCounters counters;
  const size_t first[2] = {0, kernels};
  ServeWindow w =
      RunServeWindow(programs, keys, first, set.engine.get(), config, &counters, &tally);
  if (config.trace) {
    Tracer::Global().set_enabled(true);
    ServeWindow traced =
        RunServeWindow(programs, keys, first, set.engine.get(), config, &counters, &tally);
    TracePipeline(programs, keys, set.engine.get(), &layers, &tally);
    Tracer::Global().set_enabled(false);
    layers.host = w.host;
    layers.trace_overhead = OverheadFrac(w.host, w.offered, traced.host, traced.offered);
    layers.queue_ms = traced.queue_ms;
    layers.service_ms = traced.service_ms;
    layers.gen_late_ms = traced.late_ms;
    layers.shed = traced.shed;
    layers.abandoned = traced.abandoned;
    layers.deadline_dispatches = traced.deadline_dispatches;
  }

  // Counters must repeat exactly: rerun a seeded handful of mix entries.
  {
    Session session(set.engine.get());
    std::vector<size_t> pick =
        SeededPermutation(keys.size(), DeriveSeed(config.seed, kStreamRepeat));
    for (size_t i = 0; i < kRepeatChecks && i < pick.size(); i++) {
      size_t k = pick[i];
      RunRecord again = RunProgram(&session, programs[keys[k].program], set.code[k]);
      tally.Check(SameOutputs(again, served_ref[k]) && again.counters == served_ref[k].counters,
                  "repeated run of " + Label(programs[keys[k].program], keys[k].options) +
                      " changed its outputs or counters");
    }
  }
  layers.engine.Add(*set.engine);
  set = CompiledSet();
  // The set-ups again after serving (see RunPaper).
  layers.engine.Add(*RunSetUps(kServeSetups, kServeSetups, programs, keys, dir, config.seed,
                               &setup_s, &cold_ms, &warm_ms, &layers.engine, &tally)
                         .engine);

  SetCommonEndToEnd(r, setup_s, cold_ms, warm_ms, {w.e2e_ms}, w.host, w.offered);
  r->metrics["goodput_frac"] =
      Ratio(static_cast<double>(w.good), static_cast<double>(w.offered));
  r->samples["goodput_frac"] = w.offered;
  std::vector<std::pair<std::string, PerfCounters>> rows;
  for (size_t k = 0; k < keys.size(); k++) {
    rows.push_back({Label(programs[keys[k].program], keys[k].options), served_ref[k].counters});
  }
  r->digest = CounterDigest(std::move(rows));
  double service_ms = 0;
  for (double ms : w.service_ms) {
    service_ms += ms;
  }
  r->notes.push_back(nsf::StrFormat(
      "serve: offered %llu requests at %.1f rps; generator lateness p50 %.3f ms, p90 %.3f ms; "
      "slowest-list sorts %.3f ms in all (%.4f%% of service time)",
      (unsigned long long)w.offered, kServeKernelsRps + kServeAppsRps, Percentile(w.late_ms, 50),
      Percentile(w.late_ms, 90), w.sort_ms, 100 * Ratio(w.sort_ms, service_ms)));
  if (config.trace) {
    SetLayerMetrics(layers, r);
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper", "compile", "serve"};
  return names;
}

std::vector<size_t> PaperOrder(uint64_t seed, size_t round) {
  std::vector<Program> programs = PaperPrograms();
  const std::vector<std::string> short_spec = ShortSpecNames();
  const size_t profiles = PaperProfiles().size();
  // Long keys are dealt to rounds by their place in one seeded permutation.
  std::vector<size_t> long_rank(programs.size() * profiles, 0);
  {
    std::vector<size_t> long_keys;
    for (size_t k = 0; k < long_rank.size(); k++) {
      const Program& p = programs[k / profiles];
      if (p.cls != ProgramClass::kPolybench &&
          std::find(short_spec.begin(), short_spec.end(), p.spec.name) == short_spec.end()) {
        long_keys.push_back(k);
      }
    }
    std::vector<size_t> perm =
        SeededPermutation(long_keys.size(), DeriveSeed(seed, kStreamPaperOrder + 1));
    for (size_t i = 0; i < perm.size(); i++) {
      long_rank[long_keys[perm[i]]] = 1 + i;
    }
  }
  std::vector<size_t> order;
  for (size_t k : SeededPermutation(long_rank.size(),
                                    DeriveSeed(seed, kStreamPaperOrder + 2 * (round + 1)))) {
    if (long_rank[k] == 0 || (long_rank[k] - 1) % kPaperRounds == round % kPaperRounds) {
      order.push_back(k);
    }
  }
  return order;
}

std::vector<size_t> CompileOrder(uint64_t seed, size_t pass, int leg) {
  return SeededPermutation(PaperPrograms().size() * CompileProfiles().size(),
                           DeriveSeed(seed, kStreamCompileOrder + 2 * pass + leg));
}

ServeSchedule ServeInputs(uint64_t seed, double seconds) {
  ServeSchedule s;
  const size_t sizes[2] = {nsf::PolybenchKernelNames().size(), ShortSpecNames().size()};
  for (size_t t = 0; t < 2; t++) {
    s.mix_orders.push_back(SeededPermutation(sizes[t], DeriveSeed(seed, kStreamServeMix + t)));
    s.arrivals.push_back(nsf::engine::GenerateArrivals(ServeArrivals(seed, t), seconds));
  }
  return s;
}

bool RunWorkload(const RunConfig& config, WorkloadResult* result, std::string* error) {
  std::string dir = config.work_dir + "/cache-" + config.workload;
  if (config.workload == "paper") {
    RunPaper(config, dir, result);
  } else if (config.workload == "compile") {
    RunCompile(config, dir, result);
  } else if (config.workload == "serve") {
    RunServe(config, dir, result);
  } else {
    *error = "unknown workload '" + config.workload + "'";
    return false;
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  // Leaves the deletions flushed, so the next run starts on a quiet disk.
  SyncFileSystem(config.work_dir);
  result->correct = result->failed == 0;
  result->metrics["fail_frac"] =
      Ratio(static_cast<double>(result->failed), static_cast<double>(result->attempted));
  result->samples["fail_frac"] = result->attempted;
  return true;
}

}  // namespace perfbench
