// Host-side measurement: software perf events (task-clock, page faults,
// context switches) around a workload's timed window, peak resident memory,
// and the facts about the build and box that every result records.
#ifndef PERFBENCH_SRC_HOST_H_
#define PERFBENCH_SRC_HOST_H_

#include <sched.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct HostCounts {
  double task_clock_s = 0;  // CPU time of every thread of the process
  uint64_t page_faults = 0;
  uint64_t ctx_switches = 0;
};

// PERF_TYPE_SOFTWARE counters opened on the calling thread with `inherit`,
// so threads started after Start() (serving workers) are counted too. Each
// Start() opens fresh counters: a reset would not clear the counts that
// exited threads already folded into them. Where perf_event_open is refused,
// falls back to getrusage(RUSAGE_SELF) deltas; Source() names which one is
// in use.
class SoftwareCounters {
 public:
  SoftwareCounters() = default;
  ~SoftwareCounters() { Close(); }
  SoftwareCounters(const SoftwareCounters&) = delete;
  SoftwareCounters& operator=(const SoftwareCounters&) = delete;

  void Start();
  // Counts since Start(). Threads started after Start() must have ended.
  HostCounts Stop();
  // Which source Start() would use on this host.
  static const char* Source();

 private:
  bool Open();
  void Close();

  int fds_[3] = {-1, -1, -1};
  HostCounts rusage_start_;
};

// Moves the calling thread to the next CPU it may run on at each Next(), in
// turn, and gives it back its own affinity when destroyed. On the reference
// box one vCPU ran the simulator up to 1.7x slower than another for seconds
// at a time; a workload that keeps each key's fastest repetition and puts its
// repetitions on different CPUs measures the code, not the CPU the thread
// happened to stay on. Threads started while a CPU is set inherit it, so
// nothing multi-threaded may run inside a rotation. Where the affinity
// cannot be set, Next() does nothing.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Peak resident set size of this process so far, in MB (ru_maxrss).
double PeakRssMb();

// One line of `key=value` facts: CPUs, build type, dispatch backend,
// compiler, and which verify/sanitizer/dispatch-stats options are compiled
// in.
std::string HostFacts(const char* counter_source);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_H_
