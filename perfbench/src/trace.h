// In-memory spans recorded around the benchmark's calls into each layer.
//
// A span has a name, a start and a duration (seconds since the tracer's
// epoch), its own id and its parent's id; every span of one request
// carries the request's root id. Spans stay in memory while the workload
// runs and are written out as JSON lines when it ends. A span's self
// time is its duration minus the part covered by its children.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/report.h"
#include "util.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = request root
  uint64_t request = 0;  // root span id shared by the whole request
  std::string name;
  double start = 0;      // seconds since the tracer epoch
  double duration = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  uint64_t NewId() { return next_id_.fetch_add(1); }

  // Records a timed interval as span `id`. A request root passes its own
  // id as `request` and 0 as `parent`.
  void Record(uint64_t id, uint64_t parent, uint64_t request,
              const std::string& name, Clock::time_point start,
              Clock::time_point end) {
    if (!enabled_) return;
    Add(Span{id, parent, request, name, SecondsBetween(epoch_, start),
             SecondsBetween(start, end)});
  }

  // Lays the report's phase durations out as children of `parent`, in
  // execution order: admission wait, parse, bind, plan, execute (with
  // extraction inside execute). The report carries only durations, so the
  // phases are placed back to back from the parent's start.
  void RecordReportPhases(const lazyetl::engine::ExecutionReport& r,
                          uint64_t request, uint64_t parent,
                          Clock::time_point parent_start) {
    if (!enabled_) return;
    double t = SecondsBetween(epoch_, parent_start);
    auto phase = [&](const char* name, double seconds) {
      uint64_t id = NewId();
      Add(Span{id, parent, request, name, t, seconds});
      t += seconds;
      return id;
    };
    phase("queue_wait", r.queue_wait_seconds);
    phase("parse", r.parse_seconds);
    phase("bind", r.bind_seconds);
    phase("plan", r.plan_seconds);
    double exec_start = t;
    uint64_t exec = phase("execute", r.execute_seconds);
    Add(Span{NewId(), exec, request, "extract", exec_start,
             r.extract_seconds});
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  // Self time of every span, grouped by span name.
  std::map<std::string, Samples> SelfTimes() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<uint64_t, double> child_time;
    for (const Span& s : spans_) {
      if (s.parent != 0) child_time[s.parent] += s.duration;
    }
    std::map<std::string, Samples> out;
    for (const Span& s : spans_) {
      auto it = child_time.find(s.id);
      double covered = it == child_time.end() ? 0 : it->second;
      out[s.name].Add(std::max(0.0, s.duration - covered));
    }
    return out;
  }

  bool WriteJsonl(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                   "\"name\":%s,\"start_s\":%.9f,\"duration_s\":%.9f}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   JsonEscape(s.name).c_str(), s.start, s.duration);
    }
    return std::fclose(f) == 0;
  }

 private:
  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  const bool enabled_;
  const Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
