// perfbench: the end-to-end benchmark of the lazy ETL warehouse.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --data DIR
//   perfbench --prepare --workload W --data DIR
//
// --prepare generates (or reuses) the repository of the workload under
// DIR and exits; a measuring run expects it to exist, so generation never
// sits inside a timing. A measuring run prints one details line (options,
// seed, sample counts, cost classes, host noise) and then, as its last
// line, the result object: correct, attempted, failed and the metrics
// (end-to-end with --trace 0, per-layer with --trace 1).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

// Every LAZYETL_* variable changes what the library does; none may reach
// it from outside the benchmark. Returns the names removed.
std::vector<std::string> ScrubEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "LAZYETL_", 8) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq == nullptr ? std::strlen(*e) : eq - *e);
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return names;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](std::string* v) {
      if (i + 1 >= argc) return false;
      *v = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--prepare") {
      args->prepare_only = true;
    } else if (a == "--workload" && value(&v)) {
      args->workload = v;
    } else if (a == "--seed" && value(&v)) {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds" && value(&v)) {
      args->seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace" && value(&v)) {
      args->trace = v == "1";
    } else if (a == "--data" && value(&v)) {
      args->data_dir = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->data_dir.empty() &&
         args->seconds > 0;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject m;
  for (const auto& x : metrics) {
    m.Raw(x.name,
          JsonObject().Num("value", x.value).Str("unit", x.unit).ToString());
  }
  return m.ToString();
}

int Main(int argc, char** argv) {
  std::vector<std::string> scrubbed = ScrubEnvironment();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench [--prepare] --workload W --seed N "
                 "[--seconds S] [--trace 0|1] --data DIR\n");
    return 2;
  }
  auto root = EnsureRepository(args, args.prepare_only);
  if (!root.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", root.status().ToString().c_str());
    return 1;
  }
  if (args.prepare_only) return 0;

  LogPhase("start");
  Outcome out;
  Status st;
  if (args.workload == "serve-point") {
    st = RunServePoint(args, *root, &out);
  } else if (args.workload == "scan-cold") {
    st = RunScanCold(args, *root, &out);
  } else if (args.workload == "analytic-spill") {
    st = RunAnalyticSpill(args, *root, &out);
  } else if (args.workload == "ingest-live") {
    st = RunIngestLive(args, *root, &out);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }

  LogPhase("done");
  const Tally& t = out.tally;
  out.details.Str("workload", args.workload)
      .Num("seed", static_cast<double>(args.seed))
      .Num("seconds", args.seconds)
      .Bool("trace", args.trace)
      .Raw("scrubbed_env", JsonStrings(scrubbed))
      .Num("wrong_answers", static_cast<double>(t.wrong))
      .Num("failed_share", t.attempted ? static_cast<double>(t.failed) /
                                             static_cast<double>(t.attempted)
                                       : 0)
      .Raw("notes", JsonStrings(t.notes));
  std::printf("%s\n",
              JsonObject().Raw("perfbench", out.details.ToString())
                  .ToString().c_str());
  std::printf("%s\n",
              JsonObject()
                  .Bool("correct", t.wrong == 0)
                  .Num("attempted", static_cast<double>(t.attempted))
                  .Num("failed", static_cast<double>(t.failed))
                  .Raw("metrics", MetricsJson(out.metrics))
                  .ToString().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
