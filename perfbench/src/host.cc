#include "perfbench/src/host.h"

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>

#include "src/codegen/codegen.h"
#include "src/machine/decode.h"
#include "src/support/str.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

int OpenSoftwareCounter(uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_SOFTWARE;
  attr.config = config;
  attr.disabled = 1;
  attr.inherit = 1;
  attr.exclude_hv = 1;
  return static_cast<int>(syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
}

HostCounts RusageCounts() {
  rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  HostCounts c;
  c.task_clock_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                   static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  c.page_faults = static_cast<uint64_t>(ru.ru_minflt + ru.ru_majflt);
  c.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return c;
}

uint64_t ReadCounter(int fd) {
  uint64_t value = 0;
  if (read(fd, &value, sizeof(value)) != static_cast<ssize_t>(sizeof(value))) {
    return 0;
  }
  return value;
}

}  // namespace

bool SoftwareCounters::Open() {
  Close();
  const uint64_t configs[3] = {PERF_COUNT_SW_TASK_CLOCK, PERF_COUNT_SW_PAGE_FAULTS,
                               PERF_COUNT_SW_CONTEXT_SWITCHES};
  for (int i = 0; i < 3; i++) {
    fds_[i] = OpenSoftwareCounter(configs[i]);
    if (fds_[i] < 0) {
      Close();
      return false;
    }
  }
  return true;
}

void SoftwareCounters::Close() {
  for (int& fd : fds_) {
    if (fd >= 0) {
      close(fd);
    }
    fd = -1;
  }
}

const char* SoftwareCounters::Source() {
  SoftwareCounters probe;
  return probe.Open() ? "perf_event_open" : "getrusage";
}

void SoftwareCounters::Start() {
  if (!Open()) {
    rusage_start_ = RusageCounts();
    return;
  }
  for (int fd : fds_) {
    ioctl(fd, PERF_EVENT_IOC_ENABLE, 0);
  }
}

HostCounts SoftwareCounters::Stop() {
  HostCounts c;
  if (fds_[0] < 0) {
    HostCounts now = RusageCounts();
    c.task_clock_s = now.task_clock_s - rusage_start_.task_clock_s;
    c.page_faults = now.page_faults - rusage_start_.page_faults;
    c.ctx_switches = now.ctx_switches - rusage_start_.ctx_switches;
    return c;
  }
  for (int fd : fds_) {
    ioctl(fd, PERF_EVENT_IOC_DISABLE, 0);
  }
  c.task_clock_s = static_cast<double>(ReadCounter(fds_[0])) * 1e-9;
  c.page_faults = ReadCounter(fds_[1]);
  c.ctx_switches = ReadCounter(fds_[2]);
  Close();
  return c;
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (CPU_ISSET(cpu, &original_)) {
      cpus_.push_back(cpu);
    }
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) {
    sched_setaffinity(0, sizeof(original_), &original_);
  }
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_ % cpus_.size()], &one);
  next_++;
  sched_setaffinity(0, sizeof(one), &one);
}

double PeakRssMb() {
  rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string HostFacts(const char* counter_source) {
  const char* sanitizers = "none";
#if defined(__SANITIZE_ADDRESS__) && defined(__SANITIZE_THREAD__)
  sanitizers = "address,thread";
#elif defined(__SANITIZE_ADDRESS__)
  sanitizers = "address";
#elif defined(__SANITIZE_THREAD__)
  sanitizers = "thread";
#endif
  return nsf::StrFormat(
      "nproc=%ld build_type=%s dispatch_backend=%s compiler=\"%s\" verify_ir_default=%d "
      "dispatch_stats=%d sanitizers=%s asserts=%s host_counters=%s",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE, nsf::SimDispatchBackend(),
      __VERSION__, nsf::CodegenOptions::ChromeV8().verify_ir ? 1 : 0,
      nsf::DispatchStatsEnabled() ? 1 : 0, sanitizers,
#ifdef NDEBUG
      "off",
#else
      "on",
#endif
      counter_source);
}

}  // namespace perfbench
