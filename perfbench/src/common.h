// Pieces every perfbench workload uses: command-line arguments, the run
// outcome and its metrics, the cached repositories, timed warehouse
// set-up, the independent decode oracle, the closed-loop client, cost
// classes, host-noise probes and the per-layer metrics of the traced run.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "core/warehouse.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

namespace core = lazyetl::core;
namespace engine = lazyetl::engine;
namespace storage = lazyetl::storage;
using lazyetl::NanoTime;
using lazyetl::Result;
using lazyetl::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;  // cached repositories, spill files, span dumps
  bool prepare_only = false;
};

// Requests attempted and failed by one client (or the whole run). A wrong
// answer is a failure too.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::vector<std::string> notes;  // the first few failures

  // Counts one request; returns whether it succeeded.
  bool Count(const Status& status);
  // A counted request that failed (Fail) or answered wrongly (Wrong).
  void Fail(const std::string& note);
  void Wrong(const std::string& note);
  void Note(const std::string& note);
  void Merge(const Tally& other);
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// What one run reports: the tally, the metrics of the final line
// (end-to-end untraced, per-layer traced) and the details line.
struct Outcome {
  Tally tally;
  std::vector<Metric> metrics;
  JsonObject details;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// ---- Repositories -----------------------------------------------------

// Each workload reads one generated repository. Its content depends only
// on the workload, so it is generated once per checkout and every seed
// reuses it; the seed draws the requests and the written data.
struct RepoShape {
  int days = 0;
  double seconds_per_day = 0;
};
RepoShape ShapeFor(const std::string& workload);
constexpr int kStartYear = 2010;
constexpr int kStartDayOfYear = 10;

// Returns the root of the workload's repository, generating it first when
// absent and `generate` is set. Generation is never inside a timing:
// run.py calls it in a separate process first.
Result<std::string> EnsureRepository(const Args& args, bool generate);

// mSEED waveform files under `root` (the dataless inventory excluded),
// sorted by path.
std::vector<std::string> ListWaveformFiles(const std::string& root);

// NanoTime of `seconds` after midnight of `day` days past the start day.
NanoTime DayTime(int day, double seconds);
std::string Ts(NanoTime t);  // SQL timestamp literal text

// ---- Set-up -------------------------------------------------------------

// The library defaults, except that spill files go under the benchmark's
// data directory so a run writes nothing outside its checkout.
core::WarehouseOptions DefaultOptions(const Args& args);
std::string OptionsJson(const core::WarehouseOptions& o);

Result<std::unique_ptr<core::Warehouse>> OpenAndAttach(
    const core::WarehouseOptions& options,
    const std::vector<std::string>& roots);

// Set-up and first-answer times over several fresh systems.
struct SetupTimes {
  Samples setup;         // seconds until the first query can run
  Samples first_answer;  // set-up plus one fixed-shape first query
};

// Times one block of fresh systems: `once` builds a new one, replacing the
// last, and times its set-up into *setup_s and set-up plus the first
// query into *first_answer_s. A block runs at least 8 systems and more
// while it has run under 5 s (at most 200). The host's speed drifts over
// seconds, so an untraced run times two blocks, one before the warm-up
// and one after the timed section, and reports the median of both.
Status TimeSetups(
    const std::function<Status(double* setup_s, double* first_answer_s)>&
        once,
    SetupTimes* times);

// ---- Oracle -------------------------------------------------------------

// One file decoded by the benchmark itself with mseed::ReadFull; sample
// times are derived here from each record's start time and rate.
struct DecodedFile {
  std::string network, station, channel;
  std::vector<int64_t> times;
  std::vector<int32_t> values;
  std::vector<NanoTime> record_starts;  // per record
  std::vector<size_t> record_first;     // index of each record's 1st sample
};
Result<DecodedFile> DecodeFile(const std::string& path);

// Numeric equality with a relative tolerance for averages.
bool Near(double got, double want);

// Count, sum, minimum and maximum of sample values.
struct Agg {
  int64_t count = 0, sum = 0;
  int32_t min = 0, max = 0;
  void Add(int32_t v) {
    min = count == 0 ? v : std::min(min, v);
    max = count == 0 ? v : std::max(max, v);
    ++count;
    sum += v;
  }
};

// ---- Requests and their cost classes -------------------------------------

// Report fields summed over the warehouse queries of one request.
struct Phases {
  int queries = 0;
  int result_cache_hits = 0;
  double total = 0, queue_wait = 0, parse = 0, bind = 0, plan = 0;
  double execute = 0, extract = 0, spill_wait = 0;
  uint64_t spilled = 0, spill_compressed = 0, bytes_read = 0;
  uint64_t files_opened = 0, rows_pruned = 0, rows_scanned = 0;
  uint64_t stale = 0, record_hits = 0, record_misses = 0;
  std::vector<std::string> touched;  // a few files read by extraction

  void Add(const engine::ExecutionReport& r);
  // The request's cost class, named by what the caches did: result cache
  // hit or miss, then record cache hit, miss, partial or none, then
  // whether a stale file was reloaded.
  std::string CostClass() const;
};

// The requests of one or more closed-loop clients.
struct ClientLog {
  Samples latency;                          // seconds, every request
  std::map<std::string, Samples> by_class;  // the same, by cost class
  Samples traced, untraced;                 // split by span recording
  std::vector<Phases> phases;               // traced run: per request
  double qps = 0;  // requests per second spent waiting for answers

  void Add(double latency_s, const std::string& cost_class) {
    latency.Add(latency_s);
    by_class[cost_class].Add(latency_s);
  }
  void Merge(const ClientLog& other);
};

// The SQL texts of one request, run in order, and their answers.
using RequestSql = std::vector<std::string>;
using Answers = std::vector<Result<core::QueryResult>>;

// Runs `sql` in-process as one request and times it. A traced request
// records its spans (the request root, one warehouse call per query, the
// report phases below each) inside its timing, so traced requests pay
// what tracing costs. Fills *phases from the reports.
Answers TimedRequest(core::Warehouse* wh, const RequestSql& sql,
                     Tracer* tracer, bool traced, double* seconds,
                     Phases* phases);

// Whether request `n` records spans: a fixed pseudo-random half of the
// requests in a traced run, none otherwise.
inline bool Traced(const Tracer& tracer, uint64_t n) {
  return tracer.enabled() && SubSeed(n, 7) % 2 == 0;
}

// One closed-loop client: until `seconds` after `start`, runs next(n)'s
// SQL through TimedRequest and hands the answers to check(n, answers),
// outside the timing. The cost class is `kind` + "/" + Phases::CostClass.
void RunClient(core::Warehouse* wh, Clock::time_point start, double seconds,
               const std::string& kind, Tracer* tracer,
               const std::function<RequestSql(uint64_t n)>& next,
               const std::function<void(uint64_t n, Answers& answers)>& check,
               ClientLog* log);

// ---- The timed section ----------------------------------------------------

// Host-noise probes, warehouse stats and the peak-RSS mark around the
// timed section.
class TimedSection {
 public:
  void Begin(core::Warehouse* wh);
  void End(core::Warehouse* wh);
  const core::WarehouseStats& before() const { return before_; }
  const core::WarehouseStats& after() const { return after_; }
  double peak_rss_mb() const { return peak_rss_mb_; }
  std::string HostJson() const;

 private:
  double compute_before_ms_ = 0, compute_after_ms_ = 0;
  CpuTimes cpu_before_, cpu_after_;
  core::WarehouseStats before_, after_;
  double peak_rss_mb_ = 0;
};

// The end-to-end metrics, with the sample counts, p99 and the cost-class
// table in the details.
void AddEndToEnd(const SetupTimes& setup, const ClientLog& log,
                 const TimedSection& section, Outcome* out);

// ---- Per-layer metrics (traced run) -------------------------------------

// In-process replays of the same requests through OpenCursor/Next, on a
// warehouse at the defaults and on one at query_threads = 1, interleaved
// request by request. `warm` prepares each fresh warehouse.
struct Replay {
  Samples defaults, serial;     // seconds per request
  std::vector<Phases> phases;   // at the defaults
};
Status RunReplay(const core::WarehouseOptions& options,
                 const std::vector<std::string>& roots,
                 const std::function<Status(core::Warehouse*)>& warm,
                 const std::vector<RequestSql>& requests, Replay* replay);

struct LayerInputs {
  core::Warehouse* wh = nullptr;
  const Tracer* tracer = nullptr;
  const TimedSection* section = nullptr;
  uint64_t warehouse_queries = 0;       // queries run in the timed section
  const std::vector<Phases>* phases = nullptr;  // per traced request
  std::vector<std::string> sqls;        // workload SQL for the sql replays
  std::vector<std::string> repo_files;
  Samples traced, untraced;             // request latency with/without spans
  const Replay* replay = nullptr;
  // Serving path only (zero elsewhere): the socket p50, and the
  // connections the server accepted against the requests they carried.
  double socket_p50_s = 0;
  uint64_t connections = 0, wire_requests = 0;
  // Writes (ingest-live only).
  Samples refresh_s, freshness_s;
};

void AddLayerMetrics(const LayerInputs& in, Outcome* out);

// Writes the spans to the data directory.
void WriteSpans(const Args& args, const Tracer& tracer, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
