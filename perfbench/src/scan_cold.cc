// scan-cold: one closed-loop client over Warehouse::Query on a repository
// that decodes to about 2.8x the default 256 MiB record cache (30 days x
// 1 h x 14 channels, 420 files, 60 M samples at 12 bytes each). A request
// asks for COUNT/AVG/MIN/MAX of one cell: the hour of one channel on one
// day, which is one whole file, so every request reads the same number of
// samples. Requests walk the cells in a seeded order that visits every
// cell once per pass, and a pass holds more cells than the record cache
// (about 150), so no cell is requested again before LRU has evicted it and
// every request is a record-cache miss. Each pass tags its SQL with a
// comment, so no text repeats and the result cache never hits. File read,
// Steim decode, the core transform and recycler admission/eviction
// dominate.

#include <atomic>
#include <random>
#include <thread>

#include "mseed/repository.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace mseed = lazyetl::mseed;

constexpr double kCellSeconds = 3600;

struct File {
  std::string path, station, channel;
  int day = 0;
};

std::vector<File> ListFiles(const std::string& root) {
  std::vector<File> files;
  for (const std::string& path : ListWaveformFiles(root)) {
    auto md = mseed::ParseSdsFilename(path.substr(path.find_last_of('/') + 1));
    if (!md.ok()) continue;
    files.push_back({path, md->station, md->channel,
                     md->day_of_year - kStartDayOfYear});
  }
  return files;
}

std::string CellSql(const File& f, const std::string& tag) {
  NanoTime lo = DayTime(f.day, 0);
  NanoTime hi = lo + static_cast<NanoTime>(kCellSeconds * 1e9);
  return "SELECT COUNT(*), AVG(D.sample_value), MIN(D.sample_value), "
         "MAX(D.sample_value) FROM mseed.dataview WHERE F.station = '" +
         f.station + "' AND F.channel = '" + f.channel +
         "' AND D.sample_time >= '" + Ts(lo) + "' AND D.sample_time < '" +
         Ts(hi) + "' -- " + tag;
}

// Position k of the walk: every file (cell) in a seeded order, repeated.
class CellWalk {
 public:
  CellWalk(uint64_t seed, size_t files) : order_(files) {
    for (size_t i = 0; i < files; ++i) order_[i] = i;
    std::mt19937_64 rng(seed);
    std::shuffle(order_.begin(), order_.end(), rng);
  }
  size_t cells() const { return order_.size(); }
  size_t At(size_t k) const { return order_[k % cells()]; }
  size_t Pass(size_t k) const { return k / cells(); }

 private:
  std::vector<size_t> order_;
};

// Expected aggregates of every cell, from the files decoded by the
// benchmark (mseed::ReadFull), in four threads.
Status BuildOracle(const std::vector<File>& files, std::vector<Agg>* cells) {
  cells->assign(files.size(), Agg());
  std::atomic<size_t> next{0};
  std::vector<Status> status(4, Status::OK());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = next++; i < files.size(); i = next++) {
        auto f = DecodeFile(files[i].path);
        if (!f.ok()) {
          status[t] = f.status();
          return;
        }
        NanoTime lo = DayTime(files[i].day, 0);
        NanoTime hi = lo + static_cast<NanoTime>(kCellSeconds * 1e9);
        Agg& a = (*cells)[i];
        for (size_t k = 0; k < f->times.size(); ++k) {
          if (f->times[k] >= lo && f->times[k] < hi) a.Add(f->values[k]);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : status) LAZYETL_RETURN_NOT_OK(s);
  return Status::OK();
}

bool CheckCell(const Agg& a, const storage::Table& t) {
  return a.count > 0 && t.num_rows() == 1 && t.num_columns() == 4 &&
         t.GetValue(0, 0).AsDouble() == static_cast<double>(a.count) &&
         Near(t.GetValue(0, 1).AsDouble(),
              static_cast<double>(a.sum) / static_cast<double>(a.count)) &&
         t.GetValue(0, 2).AsDouble() == a.min &&
         t.GetValue(0, 3).AsDouble() == a.max;
}

}  // namespace

Status RunScanCold(const Args& args, const std::string& root, Outcome* out) {
  core::WarehouseOptions options = DefaultOptions(args);
  out->details.Raw("options", OptionsJson(options));
  Tracer tracer(args.trace);
  const std::vector<File> files = ListFiles(root);
  if (files.empty()) return Status::NotFound("no waveform files in " + root);
  const CellWalk walk(SubSeed(args.seed, 1), files.size());

  // Answers are one row each; they are kept and checked after the timed
  // section against the oracle.
  std::vector<std::pair<size_t, storage::Table>> answers;
  auto record = [&](size_t c, Result<core::QueryResult>& r) {
    if (out->tally.Count(r.status())) {
      answers.emplace_back(c, std::move(r->table));
    }
  };

  // Set-up: fresh warehouses, each answering one fixed cold cell.
  const size_t first = 0;
  SetupTimes setup;
  std::unique_ptr<core::Warehouse> wh;
  auto fresh = [&](double* setup_s, double* first_answer_s) -> Status {
    wh.reset();
    Clock::time_point t = Clock::now();
    LAZYETL_ASSIGN_OR_RETURN(wh, OpenAndAttach(options, {root}));
    *setup_s = SecondsSince(t);
    auto r = wh->Query(CellSql(files[first], "first"));
    *first_answer_s = SecondsSince(t);
    record(first, r);
    return Status::OK();
  };
  LAZYETL_RETURN_NOT_OK(TimeSetups(fresh, &setup));

  // The last set-up's first cell must not be served from cache later.
  wh->ClearCaches();

  // Warm-up: the second half of the first pass, in walk order, four cells
  // at a time. It fills the record cache, so the timed section runs at
  // steady-state eviction, and LRU has evicted every warmed cell before
  // the walk comes to it: the first half of the pass inserts more cells
  // than the cache holds.
  {
    std::atomic<size_t> next{walk.cells() / 2};
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (size_t k = next++; k < walk.cells() && !failed; k = next++) {
          if (!wh->Query(CellSql(files[walk.At(k)], "warm")).ok()) {
            failed = true;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    if (failed) return Status::Internal("scan-cold warm-up query failed");
  }

  TimedSection section;
  section.Begin(wh.get());
  ClientLog log;
  std::vector<std::string> sqls;
  RunClient(
      wh.get(), Clock::now(), args.seconds, "cell", &tracer,
      [&](uint64_t n) -> RequestSql {
        std::string sql = CellSql(files[walk.At(n)],
                                  "pass " + std::to_string(walk.Pass(n) + 1));
        if (sqls.size() < 100) sqls.push_back(sql);
        return {sql};
      },
      [&](uint64_t n, Answers& a) { record(walk.At(n), a[0]); }, &log);
  section.End(wh.get());
  if (!args.trace) {
    LAZYETL_RETURN_NOT_OK(TimeSetups(fresh, &setup));  // the second block
  }

  std::vector<Agg> oracle;
  LAZYETL_RETURN_NOT_OK(BuildOracle(files, &oracle));
  LogPhase("answers checked");
  for (const auto& [cell, table] : answers) {
    if (!CheckCell(oracle[cell], table)) {
      out->tally.Wrong(CellSql(files[cell], "check"));
    }
  }

  if (!args.trace) {
    AddEndToEnd(setup, log, section, out);
    return Status::OK();
  }

  // Replays of the cells that come next in the walk, on two fresh (cold)
  // warehouses: at the defaults and at query_threads = 1.
  std::vector<RequestSql> replayed;
  for (size_t i = 0; i < 60; ++i) {
    size_t c = walk.At(log.latency.size() + i);
    replayed.push_back({CellSql(files[c], "replay")});
  }
  Replay replay;
  LAZYETL_RETURN_NOT_OK(RunReplay(
      options, {root}, [](core::Warehouse*) { return Status::OK(); },
      replayed, &replay));
  LayerInputs in;
  in.wh = wh.get();
  in.tracer = &tracer;
  in.section = &section;
  in.warehouse_queries = log.latency.size();
  in.phases = &log.phases;
  in.sqls = sqls;
  for (const File& f : files) in.repo_files.push_back(f.path);
  in.traced = log.traced;
  in.untraced = log.untraced;
  in.replay = &replay;
  AddLayerMetrics(in, out);
  WriteSpans(args, tracer, out);
  return Status::OK();
}

}  // namespace perfbench
