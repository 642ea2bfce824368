#include "perfbench/src/trace.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_request = 0;

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t ThreadTag() {
  return static_cast<uint32_t>(std::hash<std::thread::id>()(std::this_thread::get_id()) & 0xffff);
}

}  // namespace

Tracer::Tracer() : epoch_ns_(SteadyNs()) {}

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::NowNs() const { return SteadyNs() - epoch_ns_; }

void Tracer::Record(const SpanRecord& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(rec);
}

double Tracer::MeanMs(const std::string& name) const {
  uint64_t count = 0;
  int64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : spans_) {
    if (name == s.name) {
      count++;
      total += s.end_ns - s.start_ns;
    }
  }
  return count == 0 ? 0 : static_cast<double>(total) / static_cast<double>(count) / 1e6;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("{\"traceEvents\":[", f);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); i++) {
    const SpanRecord& s = spans_[i];
    std::string name = s.name;
    std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                 i == 0 ? "" : ",", name.c_str(), layer.c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.thread,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

Span::Span(const char* name) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) {
    return;
  }
  active_ = true;
  rec_.name = name;
  rec_.id = tracer.NewId();
  rec_.parent = t_current_span;
  rec_.request = t_current_request;
  rec_.thread = ThreadTag();
  saved_parent_ = t_current_span;
  t_current_span = rec_.id;
  rec_.start_ns = tracer.NowNs();
}

Span::~Span() {
  if (!active_) {
    return;
  }
  Tracer& tracer = Tracer::Global();
  rec_.end_ns = tracer.NowNs();
  t_current_span = saved_parent_;
  tracer.Record(rec_);
}

RequestScope::RequestScope() : saved_(t_current_request) {
  if (Tracer::Global().enabled()) {
    t_current_request = Tracer::Global().NewId();
  }
}

RequestScope::~RequestScope() { t_current_request = saved_; }

}  // namespace perfbench
