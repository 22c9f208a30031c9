// analytic-spill: one closed-loop client over Warehouse::Query on a
// repository that fits the record cache (1 day x 600 s x 14 channels,
// 336 k samples) and is warmed, with a per-query memory budget small enough
// that the group-by spills (spill is unreachable on the defaults). A
// request is one report: the same four pipeline-breaker queries in a
// fixed order, so every request has the same cost mix:
//   - a 1-s TIME_BUCKET group-by over the NL network;
//   - DISTINCT (channel, value);
//   - ORDER BY value DESC ... LIMIT 10;
//   - a full COUNT/AVG.
// Each report has its own lower time bound, so no SQL text repeats and the
// result cache never hits. With no repository reads once warm, Grace
// aggregation, the spill format and morsel parallelism dominate.

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kMemoryBudget = 256ULL << 10;
// Every report's lower time bound lies in the first minute of the first
// day, at a whole millisecond.
constexpr int64_t kBoundWindowMs = 60000;

enum class Kind { kBuckets, kDistinct, kTopN, kCountAvg };
constexpr Kind kReport[] = {Kind::kBuckets, Kind::kDistinct, Kind::kTopN,
                            Kind::kCountAvg};

struct SpillQuery {
  Kind kind = Kind::kBuckets;
  NanoTime lo = 0;  // sample_time >= lo
  std::string sql;
};

SpillQuery MakeQuery(Kind kind, NanoTime lo) {
  SpillQuery q{kind, lo, ""};
  std::string since = "D.sample_time >= '" + Ts(lo) + "'";
  switch (kind) {
    case Kind::kBuckets:
      q.sql =
          "SELECT TIME_BUCKET(1, D.sample_time), F.station, F.channel, "
          "COUNT(*), MIN(D.sample_value), MAX(D.sample_value) "
          "FROM mseed.dataview WHERE F.network = 'NL' AND " + since +
          " GROUP BY TIME_BUCKET(1, D.sample_time), F.station, F.channel";
      break;
    case Kind::kDistinct:
      q.sql = "SELECT DISTINCT F.channel, D.sample_value FROM mseed.dataview "
              "WHERE " + since;
      break;
    case Kind::kTopN:
      q.sql =
          "SELECT F.station, F.channel, D.sample_time, D.sample_value "
          "FROM mseed.dataview WHERE F.network = 'NL' AND " + since +
          " ORDER BY D.sample_value DESC, D.sample_time, F.station, "
          "F.channel LIMIT 10";
      break;
    case Kind::kCountAvg:
      q.sql = "SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview "
              "WHERE " + since;
      break;
  }
  return q;
}

// The seeded report stream: report n uses the n-th of a seeded
// permutation of the millisecond offsets, so bounds never repeat within a
// run of up to 60,000 reports.
class ReportStream {
 public:
  explicit ReportStream(uint64_t seed) : offsets_(kBoundWindowMs) {
    for (size_t i = 0; i < offsets_.size(); ++i) offsets_[i] = i;
    std::mt19937_64 rng(seed);
    std::shuffle(offsets_.begin(), offsets_.end(), rng);
  }

  std::vector<SpillQuery> Report(uint64_t n) const {
    NanoTime lo = DayTime(0, 0) + offsets_[n % offsets_.size()] * 1000000LL;
    std::vector<SpillQuery> out;
    for (Kind k : kReport) out.push_back(MakeQuery(k, lo));
    return out;
  }

 private:
  std::vector<int64_t> offsets_;
};

// Expected answers computed from the repository decoded by the benchmark
// (mseed::ReadFull). It keeps per-second aggregates of every file, the
// raw samples of the first minute, where the lower bounds fall, and the
// set of distinct values, so each answer is checked as soon as it
// returns and need not be kept.
class SpillOracle {
 public:
  Status Load(const std::string& root) {
    for (const std::string& path : ListWaveformFiles(root)) {
      LAZYETL_ASSIGN_OR_RETURN(DecodedFile f, DecodeFile(path));
      if (f.times.empty()) continue;
      File file;
      file.network = f.network;
      file.day_start = f.times[0] - f.times[0] % kNanosPerDay;
      for (size_t i = 0; i < f.times.size(); ++i) {
        int64_t sec = (f.times[i] - file.day_start) / kNanosPerSecond;
        if (sec >= static_cast<int64_t>(file.seconds.size())) {
          file.seconds.resize(sec + 1);
        }
        file.seconds[sec].Add(f.values[i]);
        if (f.times[i] < file.day_start + kBoundWindowMs * 1000000LL) {
          file.head_times.push_back(f.times[i]);
          file.head_values.push_back(f.values[i]);
        }
        NanoTime& last = last_seen_[{f.channel, f.values[i]}];
        last = std::max(last, f.times[i]);
        if (f.network == "NL") {
          top_.emplace_back(-f.values[i], f.times[i], f.station, f.channel);
          if (top_.size() >= 2 * kTopCandidates) KeepTop();
        }
      }
      index_[Key(f.station, f.channel, file.day_start)] = files_.size();
      files_.push_back(std::move(file));
    }
    KeepTop();
    std::sort(top_.begin(), top_.end());
    return Status::OK();
  }

  bool Check(const SpillQuery& q, const storage::Table& t) const {
    switch (q.kind) {
      case Kind::kBuckets: return CheckBuckets(q, t);
      case Kind::kDistinct: return CheckDistinct(q, t);
      case Kind::kTopN: return CheckTopN(q, t);
      case Kind::kCountAvg: return CheckCountAvg(q, t);
    }
    return false;
  }

 private:
  static constexpr int64_t kNanosPerSecond = 1000000000LL;
  static constexpr int64_t kNanosPerDay = 86400LL * kNanosPerSecond;
  static constexpr size_t kTopCandidates = 4096;

  struct File {
    std::string network;
    NanoTime day_start = 0;
    std::vector<Agg> seconds;  // by second since midnight
    // Samples of the first kBoundWindowMs, in time order.
    std::vector<int64_t> head_times;
    std::vector<int32_t> head_values;
  };

  // Keeps the kTopCandidates highest NL samples in top_.
  void KeepTop() {
    if (top_.size() <= kTopCandidates) return;
    std::nth_element(top_.begin(), top_.begin() + kTopCandidates, top_.end());
    top_.resize(kTopCandidates);
  }

  static std::string Key(const std::string& station,
                         const std::string& channel, NanoTime day_start) {
    return station + "/" + channel + "/" + std::to_string(day_start);
  }

  // The aggregate of second `sec` of `f` restricted to samples >= lo.
  static Agg SecondSince(const File& f, size_t sec, NanoTime lo) {
    NanoTime begin = f.day_start + static_cast<int64_t>(sec) * kNanosPerSecond;
    if (begin >= lo) return f.seconds[sec];
    if (begin + kNanosPerSecond <= lo) return Agg();
    Agg a;
    const auto& times = f.head_times;
    for (size_t i = std::lower_bound(times.begin(), times.end(), lo) -
                    times.begin();
         i < times.size() && times[i] < begin + kNanosPerSecond; ++i) {
      a.Add(f.head_values[i]);
    }
    return a;
  }

  bool CheckBuckets(const SpillQuery& q, const storage::Table& t) const {
    size_t want_rows = 0;
    for (const File& f : files_) {
      if (f.network != "NL") continue;
      for (size_t s = 0; s < f.seconds.size(); ++s) {
        want_rows += SecondSince(f, s, q.lo).count > 0;
      }
    }
    if (t.num_rows() != want_rows || t.num_columns() != 6) return false;
    std::set<std::pair<size_t, int64_t>> seen;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      int64_t bucket = t.GetValue(r, 0).AsInt64();
      NanoTime day_start = bucket - bucket % kNanosPerDay;
      auto it = index_.find(Key(t.GetValue(r, 1).string_value(),
                                t.GetValue(r, 2).string_value(), day_start));
      if (it == index_.end()) return false;
      const File& f = files_[it->second];
      int64_t sec = (bucket - day_start) / kNanosPerSecond;
      if (f.network != "NL" || sec < 0 ||
          sec >= static_cast<int64_t>(f.seconds.size()) ||
          !seen.emplace(it->second, sec).second) {
        return false;
      }
      Agg a = SecondSince(f, sec, q.lo);
      if (a.count == 0 || t.GetValue(r, 3).AsDouble() != a.count ||
          t.GetValue(r, 4).AsDouble() != a.min ||
          t.GetValue(r, 5).AsDouble() != a.max) {
        return false;
      }
    }
    return true;
  }

  bool CheckDistinct(const SpillQuery& q, const storage::Table& t) const {
    size_t want_rows = 0;
    for (const auto& [key, last] : last_seen_) want_rows += last >= q.lo;
    if (t.num_rows() != want_rows || t.num_columns() != 2) return false;
    std::set<std::pair<std::string, int32_t>> seen;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      std::pair<std::string, int32_t> key(
          t.GetValue(r, 0).string_value(),
          static_cast<int32_t>(t.GetValue(r, 1).AsInt64()));
      auto it = last_seen_.find(key);
      if (it == last_seen_.end() || it->second < q.lo ||
          !seen.insert(key).second) {
        return false;
      }
    }
    return true;
  }

  bool CheckTopN(const SpillQuery& q, const storage::Table& t) const {
    std::vector<size_t> want;
    for (size_t i = 0; i < top_.size() && want.size() < 10; ++i) {
      if (std::get<1>(top_[i]) >= q.lo) want.push_back(i);
    }
    // The candidates cover every bound unless nearly all of the top
    // samples fall before it; then the answer cannot be checked here.
    if (want.size() < 10 && top_.size() == kTopCandidates) return false;
    if (t.num_rows() != want.size() || t.num_columns() != 4) return false;
    for (size_t r = 0; r < want.size(); ++r) {
      const auto& [neg, time, station, channel] = top_[want[r]];
      if (t.GetValue(r, 0).string_value() != station ||
          t.GetValue(r, 1).string_value() != channel ||
          t.GetValue(r, 2).AsInt64() != time ||
          t.GetValue(r, 3).AsInt64() != -neg) {
        return false;
      }
    }
    return true;
  }

  bool CheckCountAvg(const SpillQuery& q, const storage::Table& t) const {
    Agg total;
    for (const File& f : files_) {
      for (size_t s = 0; s < f.seconds.size(); ++s) {
        Agg a = SecondSince(f, s, q.lo);
        total.count += a.count;
        total.sum += a.sum;
      }
    }
    return total.count > 0 && t.num_rows() == 1 && t.num_columns() == 2 &&
           t.GetValue(0, 0).AsDouble() == total.count &&
           Near(t.GetValue(0, 1).AsDouble(),
                static_cast<double>(total.sum) / total.count);
  }

  std::vector<File> files_;
  std::map<std::string, size_t> index_;  // Key(...) -> files_ index
  std::map<std::pair<std::string, int32_t>, NanoTime> last_seen_;
  std::vector<std::tuple<int32_t, int64_t, std::string, std::string>> top_;
};

}  // namespace

Status RunAnalyticSpill(const Args& args, const std::string& root,
                        Outcome* out) {
  core::WarehouseOptions options = DefaultOptions(args);
  options.memory_budget_bytes = kMemoryBudget;
  out->details.Raw("options", OptionsJson(options));
  Tracer tracer(args.trace);

  SpillOracle oracle;
  LAZYETL_RETURN_NOT_OK(oracle.Load(root));
  auto check = [&](const SpillQuery& q, Result<core::QueryResult>& r,
                   Tally* tally) {
    if (tally->Count(r.status()) && !oracle.Check(q, r->table)) {
      tally->Wrong(q.sql);
    }
  };

  // Set-up: fresh warehouses, each answering the group-by from the first
  // day's midnight, cold.
  const SpillQuery first = MakeQuery(Kind::kBuckets, DayTime(0, 0));
  SetupTimes setup;
  std::unique_ptr<core::Warehouse> wh;
  auto fresh = [&](double* setup_s, double* first_answer_s) -> Status {
    wh.reset();
    Clock::time_point t = Clock::now();
    LAZYETL_ASSIGN_OR_RETURN(wh, OpenAndAttach(options, {root}));
    *setup_s = SecondsSince(t);
    auto r = wh->Query(first.sql);
    *first_answer_s = SecondsSince(t);
    check(first, r, &out->tally);
    return Status::OK();
  };
  LAZYETL_RETURN_NOT_OK(TimeSetups(fresh, &setup));

  // Warm-up: every record into the cache, then two reports from a
  // separate stream.
  auto warm = [&](core::Warehouse* w) -> Status {
    LAZYETL_RETURN_NOT_OK(
        w->Query("SELECT COUNT(*), SUM(D.sample_value) FROM mseed.dataview")
            .status());
    ReportStream warm_stream(SubSeed(args.seed, 2));
    for (uint64_t n = 0; n < 2; ++n) {
      for (const SpillQuery& q : warm_stream.Report(n)) {
        LAZYETL_RETURN_NOT_OK(w->Query(q.sql).status());
      }
    }
    return Status::OK();
  };
  LAZYETL_RETURN_NOT_OK(warm(wh.get()));

  const ReportStream stream(SubSeed(args.seed, 1));
  std::vector<std::string> sqls;
  auto report_sql = [&](uint64_t n) {
    RequestSql sql;
    for (const SpillQuery& q : stream.Report(n)) sql.push_back(q.sql);
    return sql;
  };
  TimedSection section;
  section.Begin(wh.get());
  ClientLog log;
  RunClient(
      wh.get(), Clock::now(), args.seconds, "report", &tracer,
      [&](uint64_t n) {
        RequestSql sql = report_sql(n);
        if (sqls.size() < 100) sqls.insert(sqls.end(), sql.begin(), sql.end());
        return sql;
      },
      [&](uint64_t n, Answers& answers) {
        std::vector<SpillQuery> qs = stream.Report(n);
        for (size_t i = 0; i < qs.size(); ++i) {
          check(qs[i], answers[i], &out->tally);
        }
      },
      &log);
  section.End(wh.get());

  if (!args.trace) {
    LAZYETL_RETURN_NOT_OK(TimeSetups(fresh, &setup));  // the second block
    AddEndToEnd(setup, log, section, out);
    return Status::OK();
  }

  // Replays of the reports that come next, on warmed warehouses at the
  // defaults and at query_threads = 1.
  std::vector<RequestSql> replayed;
  for (uint64_t i = 0; i < 20; ++i) {
    replayed.push_back(report_sql(log.latency.size() + i));
  }
  Replay replay;
  LAZYETL_RETURN_NOT_OK(RunReplay(options, {root}, warm, replayed, &replay));
  LayerInputs in;
  in.wh = wh.get();
  in.tracer = &tracer;
  in.section = &section;
  in.warehouse_queries = log.latency.size() * std::size(kReport);
  in.phases = &log.phases;
  in.sqls = sqls;
  in.repo_files = ListWaveformFiles(root);
  in.traced = log.traced;
  in.untraced = log.untraced;
  in.replay = &replay;
  AddLayerMetrics(in, out);
  WriteSpans(args, tracer, out);
  return Status::OK();
}

}  // namespace perfbench
