// perfbench: the repository benchmark. Usually started through
// perfbench/run.py, which builds it first:
//
//   perfbench --workload <paper|compile|serve> --seed <n> --seconds <s>
//             --trace <0|1> [--work-dir <dir>]
//
// Standard output: report lines (host facts, every measured metric with its
// unit and sample count, the counter digest, any failures), then one JSON
// result line. Exit status: 0 when every output check passed, 1 when one
// failed (the result line still prints, with "correct": false), 2 on bad
// arguments, 3 when the run could not measure its metrics (no result line).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "perfbench/src/host.h"
#include "perfbench/src/report.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/support/str.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <paper|compile|serve> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

bool WriteFile(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.work_dir = ".perfbench_work";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && config.seconds > 0;
    } else if (arg == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) are required");
  }
  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) {
    known = known || w == config.workload;
  }
  if (!known) {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  std::error_code ec;
  std::filesystem::create_directories(config.work_dir + "/results", ec);
  std::string host = perfbench::HostFacts(perfbench::SoftwareCounters::Source());
  std::printf("host %s\n", host.c_str());
  std::fflush(stdout);

  perfbench::WorkloadResult result;
  std::string error;
  if (!perfbench::RunWorkload(config, &result, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 3;
  }
  std::fputs(perfbench::ReportLines(config, result).c_str(), stdout);

  std::string stem = nsf::StrFormat("%s/results/%s-seed%llu-trace%d", config.work_dir.c_str(),
                                    config.workload.c_str(),
                                    static_cast<unsigned long long>(config.seed),
                                    config.trace ? 1 : 0);
  if (!WriteFile(stem + ".json", perfbench::ResultJson(config, result, host))) {
    std::fprintf(stderr, "perfbench: cannot write %s.json\n", stem.c_str());
  }
  if (config.trace && !perfbench::Tracer::Global().WriteChromeTrace(stem + ".trace.json")) {
    std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n", stem.c_str());
  }

  std::string line;
  if (!perfbench::ResultLine(result, config.trace, &line, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 3;
  }
  std::printf("%s\n", line.c_str());
  return result.correct ? 0 : 1;
}
