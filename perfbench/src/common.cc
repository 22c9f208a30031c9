#include "common.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/time.h"
#include "core/etl.h"
#include "mseed/dataless.h"
#include "mseed/reader.h"
#include "mseed/repository.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace mseed = lazyetl::mseed;

namespace {

// Bumped whenever the generated content of any workload changes, so a
// repository written by an older benchmark is never reused.
constexpr int kRepoFormat = 4;

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

// ---- Tally --------------------------------------------------------------

bool Tally::Count(const Status& status) {
  ++attempted;
  if (status.ok()) return true;
  Fail(status.ToString());
  return false;
}

void Tally::Fail(const std::string& note) {
  ++failed;
  Note(note);
}

void Tally::Wrong(const std::string& note) {
  ++wrong;
  Fail("wrong answer: " + note);
}

void Tally::Note(const std::string& note) {
  if (notes.size() < 5) notes.push_back(note);
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  wrong += other.wrong;
  for (const std::string& n : other.notes) Note(n);
}

// ---- Repositories -------------------------------------------------------

RepoShape ShapeFor(const std::string& workload) {
  if (workload == "serve-point") return {2, 600};
  if (workload == "scan-cold") return {30, 3600};
  if (workload == "analytic-spill") return {1, 600};
  if (workload == "ingest-live") return {30, 600};
  return {};
}

Result<std::string> EnsureRepository(const Args& args, bool generate) {
  RepoShape shape = ShapeFor(args.workload);
  if (shape.days == 0) {
    return Status::InvalidArgument("unknown workload: " + args.workload);
  }
  fs::path dir = fs::path(args.data_dir) / args.workload;
  std::string name = "repo-v" + std::to_string(kRepoFormat);
  fs::path root = dir / name;
  fs::path marker = dir / (name + ".ready");
  std::error_code ec;
  if (fs::exists(marker, ec)) return root.string();
  if (!generate) {
    return Status::NotFound("repository not prepared: " + root.string());
  }
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  fs::path tmp = dir / (name + ".tmp");

  // The day range is generated in parallel slices; waveforms are seeded
  // per (channel, day), so the files do not depend on the slicing.
  mseed::RepositoryConfig base = mseed::DefaultDemoConfig();
  base.start_year = kStartYear;
  base.seconds_per_segment = shape.seconds_per_day;
  base.synth.seed = Fnv1a(args.workload);
  const int slices = std::min(4, shape.days);
  std::vector<Status> status(slices, Status::OK());
  std::vector<std::thread> threads;
  for (int s = 0; s < slices; ++s) {
    threads.emplace_back([&, s] {
      int first = shape.days * s / slices;
      int last = shape.days * (s + 1) / slices;
      mseed::RepositoryConfig cfg = base;
      cfg.start_day_of_year = kStartDayOfYear + first;
      cfg.num_days = last - first;
      cfg.write_dataless = s == 0;
      status[s] = mseed::GenerateRepository(tmp.string(), cfg).status();
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : status) {
    if (!s.ok()) return s;
  }
  fs::rename(tmp, root, ec);
  if (ec) {
    return Status::IOError("rename " + tmp.string() + ": " + ec.message());
  }
  std::ofstream(marker) << "ok\n";
  return root.string();
}

std::vector<std::string> ListWaveformFiles(const std::string& root) {
  std::vector<std::string> out;
  auto scanned = mseed::ScanRepository(root);
  if (!scanned.ok()) return out;
  for (const auto& f : *scanned) {
    if (fs::path(f.path).filename() != mseed::kDatalessFilename) {
      out.push_back(f.path);
    }
  }
  return out;
}

NanoTime DayTime(int day, double seconds) {
  lazyetl::CivilTime ct;
  ct.year = kStartYear;
  (void)lazyetl::MonthDayFromDayOfYear(kStartYear, kStartDayOfYear + day,
                                       &ct.month, &ct.day);
  NanoTime midnight = *lazyetl::CivilToNano(ct);
  return midnight + static_cast<NanoTime>(std::llround(seconds * 1e9));
}

std::string Ts(NanoTime t) { return lazyetl::FormatTimestamp(t); }

// ---- Set-up -------------------------------------------------------------

core::WarehouseOptions DefaultOptions(const Args& args) {
  core::WarehouseOptions options;
  options.spill_dir = (fs::path(args.data_dir) / "spill").string();
  return options;
}

std::string OptionsJson(const core::WarehouseOptions& o) {
  JsonObject j;
  j.Str("strategy", core::LoadStrategyToString(o.strategy))
      .Num("cache_budget_bytes", static_cast<double>(o.cache_budget_bytes))
      .Bool("enable_result_cache", o.enable_result_cache)
      .Bool("enable_metadata_pruning", o.enable_metadata_pruning)
      .Num("extraction_threads", o.extraction_threads)
      .Num("query_threads", static_cast<double>(o.query_threads))
      .Num("max_concurrent_queries",
           static_cast<double>(o.max_concurrent_queries))
      .Num("queue_timeout_ms", static_cast<double>(o.queue_timeout_ms))
      .Bool("footprint_aware_admission", o.footprint_aware_admission)
      .Num("memory_budget_bytes", static_cast<double>(o.memory_budget_bytes))
      .Str("spill_dir", o.spill_dir)
      .Num("enable_column_cache", o.enable_column_cache)
      .Num("enable_plan_cache", o.enable_plan_cache)
      .Num("column_cache_budget_bytes",
           static_cast<double>(o.column_cache_budget_bytes))
      .Num("plan_cache_budget_bytes",
           static_cast<double>(o.plan_cache_budget_bytes))
      .Num("cache_pool_budget_bytes",
           static_cast<double>(o.cache_pool_budget_bytes))
      .Num("batch_rows", static_cast<double>(o.batch_rows))
      .Num("cursor_window_batches",
           static_cast<double>(o.cursor_window_batches))
      .Num("priority_aging_ms", static_cast<double>(o.priority_aging_ms))
      .Bool("echo_log", o.echo_log);
  return j.ToString();
}

Result<std::unique_ptr<core::Warehouse>> OpenAndAttach(
    const core::WarehouseOptions& options,
    const std::vector<std::string>& roots) {
  LAZYETL_ASSIGN_OR_RETURN(std::unique_ptr<core::Warehouse> wh,
                           core::Warehouse::Open(options));
  for (const std::string& root : roots) {
    LAZYETL_RETURN_NOT_OK(wh->AttachRepository(root).status());
  }
  return wh;
}

Status TimeSetups(
    const std::function<Status(double* setup_s, double* first_answer_s)>&
        once,
    SetupTimes* times) {
  constexpr int kMinReps = 8, kMaxReps = 200;
  constexpr double kBlockSeconds = 5.0;
  Clock::time_point start = Clock::now();
  for (int rep = 0; rep < kMinReps || (rep < kMaxReps &&
                                       SecondsSince(start) < kBlockSeconds);
       ++rep) {
    double setup_s = 0, first_answer_s = 0;
    LAZYETL_RETURN_NOT_OK(once(&setup_s, &first_answer_s));
    times->setup.Add(setup_s);
    times->first_answer.Add(first_answer_s);
  }
  LogPhase("set-up timed");
  return Status::OK();
}

// ---- Oracle -------------------------------------------------------------

Result<DecodedFile> DecodeFile(const std::string& path) {
  LAZYETL_ASSIGN_OR_RETURN(mseed::FullFile full, mseed::ReadFull(path));
  DecodedFile out;
  out.network = full.metadata.network;
  out.station = full.metadata.station;
  out.channel = full.metadata.channel;
  for (size_t r = 0; r < full.metadata.records.size(); ++r) {
    const mseed::RecordHeader& h = full.metadata.records[r].header;
    LAZYETL_ASSIGN_OR_RETURN(NanoTime start, h.StartTime());
    double rate = h.SampleRate();
    const std::vector<int32_t>& values = full.record_samples[r];
    out.record_starts.push_back(start);
    out.record_first.push_back(out.times.size());
    for (size_t i = 0; i < values.size(); ++i) {
      out.times.push_back(
          start + static_cast<int64_t>(std::llround(i * 1e9 / rate)));
      out.values.push_back(values[i]);
    }
  }
  return out;
}

bool Near(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

// ---- Requests -------------------------------------------------------------

void Phases::Add(const engine::ExecutionReport& r) {
  ++queries;
  result_cache_hits += r.result_cache_hit;
  total += r.total_seconds;
  queue_wait += r.queue_wait_seconds;
  parse += r.parse_seconds;
  bind += r.bind_seconds;
  plan += r.plan_seconds;
  execute += r.execute_seconds;
  extract += r.extract_seconds;
  spill_wait += r.spill_write_wait_seconds;
  spilled += r.spilled_bytes;
  spill_compressed += r.spill_compressed_bytes;
  bytes_read += r.bytes_read;
  files_opened += r.files_opened;
  rows_pruned += r.rows_pruned;
  for (const auto& op : r.operator_stats) {
    if (op.op.rfind("Scan(", 0) == 0 || op.op.rfind("FilterScan(", 0) == 0) {
      rows_scanned += op.rows;
    }
  }
  stale += r.cache_stale;
  record_hits += r.cache_hits;
  record_misses += r.cache_misses;
  for (const std::string& f : r.files_touched) {
    if (touched.size() >= 4) break;
    touched.push_back(f);
  }
}

std::string Phases::CostClass() const {
  if (queries > 0 && result_cache_hits == queries) return "rc_hit";
  std::string c = result_cache_hits == 0 ? "rc_miss" : "rc_mixed";
  if (record_hits == 0 && record_misses == 0) {
    c += "/rec_none";
  } else if (record_misses == 0) {
    c += "/rec_hit";
  } else if (record_hits == 0) {
    c += "/rec_miss";
  } else {
    c += "/rec_partial";
  }
  if (stale > 0) c += "/stale";
  return c;
}

void ClientLog::Merge(const ClientLog& other) {
  latency.Append(other.latency);
  for (const auto& [c, s] : other.by_class) by_class[c].Append(s);
  traced.Append(other.traced);
  untraced.Append(other.untraced);
  phases.insert(phases.end(), other.phases.begin(), other.phases.end());
  qps += other.qps;
}

Answers TimedRequest(core::Warehouse* wh, const RequestSql& sql,
                     Tracer* tracer, bool traced, double* seconds,
                     Phases* phases) {
  Clock::time_point start = Clock::now();
  Answers answers;
  answers.reserve(sql.size());
  std::vector<std::pair<Clock::time_point, Clock::time_point>> calls;
  calls.reserve(sql.size());
  for (const std::string& s : sql) {
    Clock::time_point t = Clock::now();
    answers.push_back(wh->Query(s));
    calls.emplace_back(t, Clock::now());
  }
  if (traced) {
    uint64_t request = tracer->NewId();
    for (size_t i = 0; i < calls.size(); ++i) {
      uint64_t call = tracer->NewId();
      tracer->Record(call, request, request, "warehouse", calls[i].first,
                     calls[i].second);
      if (answers[i].ok()) {
        tracer->RecordReportPhases(answers[i]->report, request, call,
                                   calls[i].first);
      }
    }
    tracer->Record(request, 0, request, "request", start, Clock::now());
  }
  *seconds = SecondsSince(start);
  for (const auto& a : answers) {
    if (a.ok()) phases->Add(a->report);
  }
  return answers;
}

void RunClient(core::Warehouse* wh, Clock::time_point start, double seconds,
               const std::string& kind, Tracer* tracer,
               const std::function<RequestSql(uint64_t n)>& next,
               const std::function<void(uint64_t n, Answers& answers)>& check,
               ClientLog* log) {
  ClientLog mine;
  double client_s = 0;  // drawing requests and checking answers
  uint64_t n = 0;
  while (SecondsSince(start) < seconds) {
    Clock::time_point t = Clock::now();
    RequestSql sql = next(n);
    client_s += SecondsSince(t);
    bool traced = Traced(*tracer, n);
    double s = 0;
    Phases phases;
    Answers answers = TimedRequest(wh, sql, tracer, traced, &s, &phases);
    t = Clock::now();
    mine.Add(s, kind + "/" + phases.CostClass());
    (traced ? mine.traced : mine.untraced).Add(s);
    if (traced) mine.phases.push_back(std::move(phases));
    check(n, answers);
    ++n;
    client_s += SecondsSince(t);
  }
  mine.qps = static_cast<double>(n) / (SecondsSince(start) - client_s);
  log->Merge(mine);
}

// ---- The timed section ----------------------------------------------------

void TimedSection::Begin(core::Warehouse* wh) {
  LogPhase("warm-up done");
  compute_before_ms_ = ComputeProbeMs();
  before_ = wh->Stats();
  ResetPeakRss();
  cpu_before_ = ReadCpuTimes();
}

void TimedSection::End(core::Warehouse* wh) {
  cpu_after_ = ReadCpuTimes();
  peak_rss_mb_ = PeakRssMb();
  after_ = wh->Stats();
  compute_after_ms_ = ComputeProbeMs();
  LogPhase("timed section done");
}

std::string TimedSection::HostJson() const {
  double total = static_cast<double>(cpu_after_.total - cpu_before_.total);
  return JsonObject()
      .Num("steal_share",
           Ratio(static_cast<double>(cpu_after_.steal - cpu_before_.steal),
                 total))
      .Num("idle_share",
           Ratio(static_cast<double>(cpu_after_.idle - cpu_before_.idle),
                 total))
      .Num("compute_before_ms", compute_before_ms_)
      .Num("compute_after_ms", compute_after_ms_)
      .ToString();
}

namespace {

// Cost classes in order of their median latency, with each one's count
// and the cumulative share of requests up to and including it, and the
// class in which the run's p50 and p90 fall with their distance (in
// share) to the nearest class boundary.
std::string ClassesJson(const ClientLog& log) {
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [c, s] : log.by_class) order.emplace_back(s.Median(), c);
  std::sort(order.begin(), order.end());
  double n = static_cast<double>(log.latency.size());
  std::string list = "[";
  double cum = 0;
  std::string p50_class, p90_class;
  double p50_margin = 0, p90_margin = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const Samples& s = log.by_class.at(order[i].second);
    double lo = cum;
    cum += static_cast<double>(s.size()) / n;
    for (auto [q, cls, margin] :
         {std::tuple{0.5, &p50_class, &p50_margin},
          std::tuple{0.9, &p90_class, &p90_margin}}) {
      if (q >= lo && q < cum) {
        *cls = order[i].second;
        *margin = std::min(q - lo, cum - q);
      }
    }
    list += std::string(i ? ", " : "") +
            JsonObject()
                .Str("class", order[i].second)
                .Num("count", static_cast<double>(s.size()))
                .Num("p50_ms", s.Median() * 1e3)
                .Num("cum_share", cum)
                .ToString();
  }
  list += "]";
  return JsonObject()
      .Raw("by_latency", list)
      .Str("p50_in", p50_class)
      .Num("p50_boundary_margin", p50_margin)
      .Str("p90_in", p90_class)
      .Num("p90_boundary_margin", p90_margin)
      .ToString();
}

}  // namespace

void AddEndToEnd(const SetupTimes& setup, const ClientLog& log,
                 const TimedSection& section, Outcome* out) {
  const Samples& lat = log.latency;
  out->Add("setup_s", setup.setup.Median(), "s");
  out->Add("p50_ms", lat.Median() * 1e3, "ms");
  out->Add("p90_ms", lat.Quantile(0.9) * 1e3, "ms");
  out->Add("qps", log.qps, "1/s");
  out->Add("peak_rss_mb", section.peak_rss_mb(), "MiB");
  out->details.Raw(
      "samples",
      JsonObject()
          .Num("setup", static_cast<double>(setup.setup.size()))
          .Num("requests", static_cast<double>(lat.size()))
          .Num("beyond_p90", static_cast<double>(lat.Beyond(0.9)))
          .Num("beyond_p99", static_cast<double>(lat.Beyond(0.99)))
          .ToString());
  // Ungated: set-up dominates it, and its ten-run spread reached the bound.
  out->details.Num("first_answer_s", setup.first_answer.Median());
  out->details.Num("p99_ms", lat.Quantile(0.99) * 1e3);
  std::string deciles = "[";
  for (int d = 1; d <= 9; ++d) {
    deciles += (d > 1 ? ", " : "") + JsonNumber(lat.Quantile(d / 10.0) * 1e3);
  }
  out->details.Raw("deciles_ms", deciles + "]");
  out->details.Raw("classes", ClassesJson(log));
  out->details.Raw("host", section.HostJson());
}

// ---- Per-layer metrics ----------------------------------------------------

namespace {

// Runs one request through OpenCursor/Next and returns its seconds.
Result<double> CursorRequest(core::Warehouse* wh, const RequestSql& sql,
                             Phases* phases) {
  Clock::time_point start = Clock::now();
  for (const std::string& s : sql) {
    LAZYETL_ASSIGN_OR_RETURN(auto cursor, wh->OpenCursor(s));
    storage::Table batch;
    while (true) {
      LAZYETL_ASSIGN_OR_RETURN(bool more, cursor->Next(&batch));
      if (!more) break;
    }
    if (phases != nullptr) phases->Add(cursor->report());
  }
  return SecondsSince(start);
}

// Times `fn` over `items` and returns the median seconds per call.
template <typename T, typename Fn>
double MedianSeconds(const std::vector<T>& items, int reps, Fn fn) {
  Samples s;
  for (int rep = 0; rep < reps; ++rep) {
    for (const T& item : items) {
      Clock::time_point t = Clock::now();
      fn(item);
      s.Add(SecondsSince(t));
    }
  }
  return s.Median();
}

}  // namespace

Status RunReplay(const core::WarehouseOptions& options,
                 const std::vector<std::string>& roots,
                 const std::function<Status(core::Warehouse*)>& warm,
                 const std::vector<RequestSql>& requests, Replay* replay) {
  core::WarehouseOptions serial = options;
  serial.query_threads = 1;
  LAZYETL_ASSIGN_OR_RETURN(auto a, OpenAndAttach(options, roots));
  LAZYETL_ASSIGN_OR_RETURN(auto b, OpenAndAttach(serial, roots));
  LogPhase("replay warehouses open");
  LAZYETL_RETURN_NOT_OK(warm(a.get()));
  LAZYETL_RETURN_NOT_OK(warm(b.get()));
  for (size_t i = 0; i < requests.size(); ++i) {
    // Alternate which side goes first, so neither always follows the
    // other's cache and allocator state.
    for (int side = 0; side < 2; ++side) {
      bool defaults = (side == 0) == (i % 2 == 0);
      Phases phases;
      LAZYETL_ASSIGN_OR_RETURN(
          double s, CursorRequest(defaults ? a.get() : b.get(), requests[i],
                                  defaults ? &phases : nullptr));
      if (defaults) {
        replay->defaults.Add(s);
        replay->phases.push_back(std::move(phases));
      } else {
        replay->serial.Add(s);
      }
    }
  }
  return Status::OK();
}

void AddLayerMetrics(const LayerInputs& in, Outcome* out) {
  LogPhase("replays done");
  const std::vector<Phases>& ps = *in.phases;
  Samples queue_wait, compile, execute, extract, unattributed, spill_wait;
  double spilled = 0, compressed = 0, bytes_read = 0, files = 0, pruned = 0,
         scanned = 0, stale = 0;
  std::vector<std::string> touched;
  for (const Phases& p : ps) {
    queue_wait.Add(p.queue_wait);
    compile.Add(p.parse + p.bind + p.plan);
    execute.Add(p.execute - p.extract);
    extract.Add(p.extract);
    spill_wait.Add(p.spill_wait);
    if (p.total > 0) {
      unattributed.Add(1.0 - (p.queue_wait + p.parse + p.bind + p.plan +
                              p.execute) / p.total);
    }
    spilled += static_cast<double>(p.spilled);
    compressed += static_cast<double>(p.spill_compressed);
    bytes_read += static_cast<double>(p.bytes_read);
    files += static_cast<double>(p.files_opened);
    pruned += static_cast<double>(p.rows_pruned);
    scanned += static_cast<double>(p.rows_scanned);
    stale += static_cast<double>(p.stale);
    for (const std::string& f : p.touched) {
      if (touched.size() < 8 &&
          std::find(touched.begin(), touched.end(), f) == touched.end()) {
        touched.push_back(f);
      }
    }
  }
  double n = std::max<double>(1, static_cast<double>(ps.size()));

  // Parse / bind / plan replays over the workload's own SQL.
  const storage::Catalog* catalog = &in.wh->catalog();
  double parse_s = MedianSeconds(in.sqls, 3, [](const std::string& sql) {
    (void)lazyetl::sql::Parse(sql);
  });
  std::vector<lazyetl::sql::SelectStatement> stmts;
  for (const auto& sql : in.sqls) {
    auto st = lazyetl::sql::Parse(sql);
    if (st.ok()) stmts.push_back(std::move(*st));
  }
  double bind_s =
      MedianSeconds(stmts, 3, [&](const lazyetl::sql::SelectStatement& st) {
        lazyetl::sql::Binder binder(catalog);
        (void)binder.Bind(st);
      });
  double explain_s = MedianSeconds(in.sqls, 3, [&](const std::string& sql) {
    (void)in.wh->Explain(sql);
  });

  // mseed / core replays: header scans over repository files, full
  // decodes and record transforms over files the requests read.
  std::vector<std::string> scan_files = in.repo_files;
  if (scan_files.size() > 100) scan_files.resize(100);
  double scan_s = MedianSeconds(scan_files, 1, [](const std::string& p) {
    (void)mseed::ScanMetadata(p);
  });
  if (touched.empty()) {
    touched.assign(in.repo_files.begin(),
                   in.repo_files.begin() +
                       std::min<size_t>(8, in.repo_files.size()));
  }
  double decoded = 0, decode_s = 0, transform_s = 0, records = 0;
  for (const auto& path : touched) {
    Clock::time_point t = Clock::now();
    auto full = mseed::ReadFull(path);
    decode_s += SecondsSince(t);
    if (!full.ok()) continue;
    for (const auto& r : full->record_samples) decoded += r.size();
    t = Clock::now();
    for (size_t i = 0; i < full->record_samples.size(); ++i) {
      (void)core::TransformRecord(full->metadata.records[i].header,
                                  full->record_samples[i]);
    }
    transform_s += SecondsSince(t);
    records += static_cast<double>(full->record_samples.size());
  }

  const core::WarehouseStats& a = in.section->before();
  const core::WarehouseStats& b = in.section->after();
  double hits = static_cast<double>(b.cache.hits - a.cache.hits);
  double misses = static_cast<double>(b.cache.misses - a.cache.misses);
  double rc_hits =
      static_cast<double>(b.result_cache_hits - a.result_cache_hits);

  // Where a request's time goes, as shares of its median latency: the
  // server (socket minus in-process), admission wait, parse + bind + plan,
  // execution outside extraction, extraction, and the rest.
  double request_s = in.socket_p50_s > 0 ? in.socket_p50_s
                                          : in.traced.Median();
  double inproc_s = in.replay ? in.replay->defaults.Median() : 0;
  double server_s =
      in.socket_p50_s > 0 ? std::max(0.0, in.socket_p50_s - inproc_s) : 0;
  const double server_share = Ratio(server_s, request_s);
  const double execute_share = Ratio(execute.Median(), request_s);
  const double extract_share = Ratio(extract.Median(), request_s);
  std::vector<std::pair<std::string, double>> shares = {
      {"server", server_share},
      {"queue_wait", Ratio(queue_wait.Median(), request_s)},
      {"parse_bind_plan", Ratio(compile.Median(), request_s)},
      {"execute", execute_share},
      {"extract", extract_share}};
  double rest = 1;
  for (const auto& s : shares) rest -= s.second;
  shares.emplace_back("other", std::max(0.0, rest));

  out->Add("server.overhead_ms", server_s * 1e3, "ms");
  out->Add("server.connections_per_request",
           Ratio(static_cast<double>(in.connections),
                 static_cast<double>(in.wire_requests)),
           "count");
  out->Add("server.share", server_share, "ratio");
  out->Add("sql.parse_us", parse_s * 1e6, "us");
  out->Add("sql.bind_us", bind_s * 1e6, "us");
  out->Add("engine.plan_us", std::max(0.0, explain_s - parse_s - bind_s) * 1e6,
           "us");
  out->Add("engine.inproc_p50_ms", inproc_s * 1e3, "ms");
  out->Add("engine.parallel_tax",
           in.replay ? Ratio(inproc_s, in.replay->serial.Median()) : 0,
           "ratio");
  out->Add("engine.execute_ms", execute.Median() * 1e3, "ms");
  out->Add("engine.extract_ms", extract.Median() * 1e3, "ms");
  out->Add("engine.execute_share", execute_share, "ratio");
  out->Add("engine.extract_share", extract_share, "ratio");
  out->Add("engine.recycler_hit_ratio", Ratio(hits, hits + misses), "ratio");
  out->Add("engine.result_cache_hit_ratio",
           Ratio(rc_hits, static_cast<double>(in.warehouse_queries)),
           "ratio");
  out->Add("engine.rows_pruned_ratio", Ratio(pruned, pruned + scanned),
           "ratio");
  out->Add("engine.spilled_mb_per_request", spilled / n / (1 << 20), "MiB");
  out->Add("engine.spill_wait_ms", spill_wait.Median() * 1e3, "ms");
  out->Add("engine.unattributed_share", unattributed.Median(), "ratio");
  out->Add("common.queue_wait_p50_ms", queue_wait.Median() * 1e3, "ms");
  out->Add("common.queue_wait_p90_ms", queue_wait.Quantile(0.9) * 1e3, "ms");
  out->Add("common.cache_pool_mb",
           static_cast<double>(b.cache_pool.used_bytes) / (1 << 20), "MiB");
  out->Add("mseed.scan_metadata_us_per_file", scan_s * 1e6, "us");
  out->Add("mseed.decode_msamples_per_s", Ratio(decoded / 1e6, decode_s),
           "Msamples/s");
  out->Add("mseed.bytes_read_per_request", bytes_read / n, "B");
  out->Add("mseed.files_opened_per_request", files / n, "count");
  out->Add("core.transform_us_per_record", Ratio(transform_s * 1e6, records),
           "us");
  out->Add("core.refresh_ms", in.refresh_s.Median() * 1e3, "ms");
  out->Add("core.stale_reloads_per_request", stale / n, "count");
  out->Add("core.freshness_ms", in.freshness_s.Median() * 1e3, "ms");
  out->Add("storage.catalog_mb",
           static_cast<double>(b.catalog_bytes) / (1 << 20), "MiB");
  out->Add("storage.spill_compression_ratio", Ratio(spilled, compressed),
           "ratio");

  std::map<std::string, Samples> self = in.tracer->SelfTimes();
  auto self_ms = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.Median() * 1e3;
  };
  out->Add("trace.self_request_ms", self_ms("request"), "ms");
  out->Add("trace.self_socket_ms", self_ms("socket"), "ms");
  out->Add("trace.self_warehouse_ms", self_ms("warehouse"), "ms");
  out->Add("trace.overhead_ms",
           (in.traced.Median() - in.untraced.Median()) * 1e3, "ms");
  out->Add("trace.spans", static_cast<double>(in.tracer->size()), "count");

  JsonObject share_json;
  for (const auto& [name, v] : shares) share_json.Num(name, v);
  out->details.Raw("shares", share_json.ToString());
  out->details.Str("largest_share",
                   std::max_element(shares.begin(), shares.end(),
                                    [](const auto& x, const auto& y) {
                                      return x.second < y.second;
                                    })
                       ->first);
  JsonObject self_json;
  for (const auto& [name, s] : self) {
    self_json.Raw(name, JsonObject()
                            .Num("p50_ms", s.Median() * 1e3)
                            .Num("p90_ms", s.Quantile(0.9) * 1e3)
                            .Num("n", static_cast<double>(s.size()))
                            .ToString());
  }
  out->details.Raw("self_times", self_json.ToString());
  out->details.Raw(
      "traced_samples",
      JsonObject()
          .Num("requests_with_reports", static_cast<double>(ps.size()))
          .Num("traced", static_cast<double>(in.traced.size()))
          .Num("untraced", static_cast<double>(in.untraced.size()))
          .Num("replayed", in.replay ? static_cast<double>(
                                           in.replay->defaults.size())
                                     : 0)
          .ToString());
}

void WriteSpans(const Args& args, const Tracer& tracer, Outcome* out) {
  std::string path = args.data_dir + "/trace-" + args.workload + ".jsonl";
  if (tracer.WriteJsonl(path)) {
    out->details.Str("spans_file", path);
  } else {
    out->tally.Note("cannot write spans to " + path);
  }
}

}  // namespace perfbench
