// Spans around the benchmark's calls into each layer's public functions
// (builder, wasm, codegen, machine, kernel, engine). Nothing inside src/ is
// instrumented: a span covers exactly one call the benchmark makes, so its
// duration is that call's cost as a caller sees it.
//
// Recording is off unless the run is traced (--trace 1); a disabled Span is
// one relaxed atomic load. Spans are kept in memory, aggregated per name for
// the per-layer metrics, and written out as a Chrome trace when the run ends.
// Each span records its parent (the enclosing span on the same thread) and a
// request id shared by every span of one operation.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // "<layer>.<call>", a string literal
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = top level
  uint64_t request = 0;  // 0 = not part of an operation
  uint32_t thread = 0;
  int64_t start_ns = 0;  // steady clock, relative to the tracer's epoch
  int64_t end_ns = 0;
};

class Tracer {
 public:
  static Tracer& Global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Mean span duration of `name` in milliseconds; 0 when none was recorded.
  double MeanMs(const std::string& name) const;

  // Chrome trace-event JSON ("X" events); false when the file cannot be
  // written.
  bool WriteChromeTrace(const std::string& path) const;

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  int64_t NowNs() const;
  void Record(const SpanRecord& rec);

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  int64_t epoch_ns_ = 0;
  mutable std::mutex mu_;  // guards spans_
  std::vector<SpanRecord> spans_;
};

// RAII span: recorded on destruction when the tracer was enabled at
// construction.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
  bool active_ = false;
  uint64_t saved_parent_ = 0;
};

// Marks the spans opened on this thread during its lifetime as one
// operation's (they share a fresh request id).
class RequestScope {
 public:
  RequestScope();
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t saved_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
