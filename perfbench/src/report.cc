#include "perfbench/src/report.h"

#include <cmath>

#include "perfbench/src/catalog.h"
#include "src/support/str.h"

namespace perfbench {

namespace {

std::string Number(double v) { return nsf::StrFormat("%.17g", v); }

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += nsf::StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

bool ResultLine(const WorkloadResult& result, bool trace, std::string* line, std::string* error) {
  std::string metrics;
  MetricGroup group = trace ? MetricGroup::kLayer : MetricGroup::kEndToEnd;
  for (const std::string& name : MetricNames(group)) {
    auto it = result.metrics.find(name);
    if (it == result.metrics.end() || !std::isfinite(it->second)) {
      *error = "metric " + name +
               (it == result.metrics.end() ? " was not measured" : " is not finite");
      return false;
    }
    metrics += nsf::StrFormat("%s%s:{\"value\":%s,\"unit\":%s}", metrics.empty() ? "" : ",",
                              Quote(name).c_str(), Number(it->second).c_str(),
                              Quote(FindMetric(name)->unit).c_str());
  }
  *line = nsf::StrFormat("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}",
                         result.correct ? "true" : "false",
                         static_cast<unsigned long long>(result.attempted),
                         static_cast<unsigned long long>(result.failed), metrics.c_str());
  return true;
}

std::string ReportLines(const RunConfig& config, const WorkloadResult& result) {
  std::string out = nsf::StrFormat("workload %s seed %llu seconds %g trace %d\n",
                                   config.workload.c_str(),
                                   static_cast<unsigned long long>(config.seed), config.seconds,
                                   config.trace ? 1 : 0);
  for (const MetricDef& m : MetricCatalog()) {
    auto it = result.metrics.find(m.name);
    if (it == result.metrics.end()) {
      continue;
    }
    out += nsf::StrFormat("metric %-34s %16.6f %-10s", m.name.c_str(), it->second, m.unit.c_str());
    auto s = result.samples.find(m.name);
    if (s != result.samples.end()) {
      out += nsf::StrFormat(" samples=%zu", s->second);
    }
    out += "\n";
  }
  out += nsf::StrFormat("attempted %llu failed %llu\n",
                        static_cast<unsigned long long>(result.attempted),
                        static_cast<unsigned long long>(result.failed));
  out += "digest " + config.workload + " " + result.digest + "\n";
  for (const std::string& note : result.notes) {
    out += "note " + note + "\n";
  }
  return out;
}

std::string ResultJson(const RunConfig& config, const WorkloadResult& result,
                       const std::string& host_facts) {
  std::string metrics;
  for (const MetricDef& m : MetricCatalog()) {
    auto it = result.metrics.find(m.name);
    if (it == result.metrics.end()) {
      continue;
    }
    auto s = result.samples.find(m.name);
    metrics += nsf::StrFormat("%s%s:{\"value\":%s,\"unit\":%s,\"better\":%s,\"samples\":%s}",
                              metrics.empty() ? "" : ",", Quote(m.name).c_str(),
                              std::isfinite(it->second) ? Number(it->second).c_str() : "null",
                              Quote(m.unit).c_str(), Quote(m.better).c_str(),
                              s == result.samples.end() ? "null"
                                                        : nsf::StrFormat("%zu", s->second).c_str());
  }
  std::string notes;
  for (const std::string& n : result.notes) {
    notes += (notes.empty() ? "" : ",") + Quote(n);
  }
  return nsf::StrFormat(
      "{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%s,\"host\":%s,\"correct\":%s,"
      "\"attempted\":%llu,\"failed\":%llu,\"digest\":%s,\"metrics\":{%s},\"notes\":[%s]}\n",
      Quote(config.workload).c_str(), static_cast<unsigned long long>(config.seed),
      Number(config.seconds).c_str(), config.trace ? "true" : "false", Quote(host_facts).c_str(),
      result.correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), Quote(result.digest).c_str(),
      metrics.c_str(), notes.c_str());
}

}  // namespace perfbench
