// Small helpers shared by the perfbench workloads: clocks, sample
// statistics, seeded sub-streams, process memory, host-noise probes and
// JSON text.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) {
  return SecondsBetween(t, Clock::now());
}

// A set of measurements; quantiles interpolate linearly between ranks.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }

  double Quantile(double q) const {
    if (values_.empty()) return 0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  }
  double Median() const { return Quantile(0.5); }
  // Samples strictly above the q-quantile: a percentile is reported only
  // when at least ten samples lie beyond it.
  size_t Beyond(double q) const {
    double cut = Quantile(q);
    return static_cast<size_t>(
        std::count_if(values_.begin(), values_.end(),
                      [cut](double v) { return v > cut; }));
  }

 private:
  std::vector<double> values_;
};

// Mixes the run seed with a stream label so independent streams of one
// run (requests, warm-up, written data) never share draws.
inline uint64_t SubSeed(uint64_t seed, uint64_t label) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + label + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Peak resident set size of this process (VmHWM), in MiB.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Restarts the VmHWM high-water mark at the current RSS, so the peak
// covers only what runs afterwards. Returns false where unsupported.
inline bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  return static_cast<bool>(out.flush());
}

// Host-noise diagnostics. They are printed beside the metrics so that
// runs made during a slow-host episode can be recognised; they never
// adjust a metric.
struct CpuTimes {
  uint64_t idle = 0, steal = 0, total = 0;
};

// The machine-wide CPU time counters of /proc/stat (all CPUs).
inline CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string line;
  CpuTimes t;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
  std::istringstream fields(line.substr(4));
  std::vector<uint64_t> v;
  uint64_t x = 0;
  while (fields >> x) v.push_back(x);
  // user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already counted in user and nice.
  for (size_t i = 0; i < v.size() && i < 8; ++i) t.total += v[i];
  if (v.size() > 3) t.idle = v[3] + (v.size() > 4 ? v[4] : 0);
  if (v.size() > 7) t.steal = v[7];
  return t;
}

// Milliseconds a fixed, single-threaded integer loop takes: the same work
// on every run, so a slower reading means a slower (or busier) host.
inline double ComputeProbeMs() {
  Clock::time_point start = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // An empty barrier on x keeps the loop from being optimised away.
    asm volatile("" : "+r"(x));
  }
  return SecondsSince(start) * 1e3;
}

// Notes on standard error how far into the run a phase ended, so a slow
// set-up, warm-up or check shows where the run's time went.
inline void LogPhase(const char* phase) {
  static const Clock::time_point process_start = Clock::now();
  std::fprintf(stderr, "perfbench: %7.2f s  %s\n",
               SecondsSince(process_start), phase);
}

inline std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// An ordered JSON object built field by field (values are raw JSON text).
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonEscape(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonEscape(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

inline std::string JsonStrings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + JsonEscape(items[i]);
  }
  return out + "]";
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
