// ingest-live: writes beside reads. One writer thread rewrites the current
// segment file of a live channel (mseed::WriteMseedFile beside the
// repository, then a rename, so readers never see a torn file) every
// 100 ms and every 20 writes rolls to a new segment file, calling
// Warehouse::Refresh() to register it. Two closed-loop readers poll the
// "latest hour" of that channel, as a live dashboard does. Each poll tags
// its SQL, so every poll is executed: the default result cache would
// otherwise serve stale answers (a known defect, see README.md), and a
// benchmark run must answer every request correctly. The base repository
// has 30 days x 600 s x 14 channels (420 files), so catalog publishes are
// not trivial. This is the only workload that writes the file registry
// and the catalog: Refresh under the exclusive metadata lock,
// copy-on-write catalog publishes and query-time stale reloads.

#include <atomic>
#include <filesystem>
#include <thread>

#include "mseed/repository.h"
#include "mseed/synth.h"
#include "mseed/writer.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace mseed = lazyetl::mseed;

constexpr double kRate = 40.0;
constexpr int64_t kSampleNanos = 25000000;  // 1 / kRate
// The writer appends 1 s of data every 100 ms and rolls to a new segment
// every 20 writes. Its schedule does not depend on how fast the readers
// run. A run lasts at most 60 s, so the live data written (at most 600 s)
// stays inside the hour the readers ask for, which starts where the live
// data does: their SQL and its cost stay the same through the run.
constexpr size_t kChunkSamples = 40;
constexpr size_t kChunksPerSegment = 20;
constexpr double kWriteIntervalS = 0.1;

struct LiveChannel {
  std::string network = "KO", station = "ISK", location, channel = "BHZ";
};

std::string ReaderSql(const LiveChannel& c, NanoTime lo,
                      const std::string& tag = "") {
  std::string sql =
      "SELECT COUNT(*), MAX(D.sample_time) FROM mseed.dataview "
      "WHERE F.station = '" + c.station + "' AND F.channel = '" +
      c.channel + "' AND D.sample_time >= '" + Ts(lo) + "'";
  return tag.empty() ? sql : sql + " -- " + tag;
}

struct Write {
  Clock::time_point acked;  // file in place, and registered when new
  uint64_t samples = 0;     // live samples acknowledged by this write
};

struct Read {
  Clock::time_point done;
  uint64_t seen = 0;  // live samples the answer covers
};

}  // namespace

Status RunIngestLive(const Args& args, const std::string& root,
                     Outcome* out) {
  const RepoShape shape = ShapeFor(args.workload);
  core::WarehouseOptions options = DefaultOptions(args);
  out->details.Raw("options", OptionsJson(options));
  Tracer tracer(args.trace);
  const LiveChannel live;
  const NanoTime live_start = DayTime(shape.days, 0);
  const int live_doy = kStartDayOfYear + shape.days;

  fs::path live_root = fs::path(args.data_dir) / args.workload / "live";
  fs::path tmp_dir = fs::path(args.data_dir) / args.workload / "live-tmp";
  fs::path live_dir = live_root / std::to_string(kStartYear) / live.network /
                      live.station / (live.channel + ".D");
  std::error_code ec;
  auto reset_live = [&] {
    fs::remove_all(live_root, ec);
    fs::create_directories(live_root, ec);
  };

  // Set-up: the base repository plus the (empty) live root. The first
  // answer is the reader query over the last base day.
  const std::string first_sql = ReaderSql(live, DayTime(shape.days - 1, 0));
  const int64_t base_day_samples =
      static_cast<int64_t>(shape.seconds_per_day * kRate);
  SetupTimes setup;
  std::unique_ptr<core::Warehouse> wh;
  auto fresh = [&](double* setup_s, double* first_answer_s) -> Status {
    wh.reset();
    reset_live();
    Clock::time_point t = Clock::now();
    LAZYETL_ASSIGN_OR_RETURN(
        wh, OpenAndAttach(options, {root, live_root.string()}));
    *setup_s = SecondsSince(t);
    auto r = wh->Query(first_sql);
    *first_answer_s = SecondsSince(t);
    if (out->tally.Count(r.status()) &&
        (r->table.num_rows() != 1 ||
         r->table.GetValue(0, 0).AsInt64() != base_day_samples)) {
      out->tally.Wrong(first_sql);
    }
    return Status::OK();
  };
  LAZYETL_RETURN_NOT_OK(TimeSetups(fresh, &setup));
  fs::create_directories(live_dir, ec);
  fs::create_directories(tmp_dir, ec);

  const size_t max_writes =
      static_cast<size_t>(args.seconds / kWriteIntervalS) + 2;
  mseed::SynthOptions synth;
  synth.seed = SubSeed(args.seed, 3);
  const std::vector<int32_t> samples =
      mseed::GenerateSeismogram(max_writes * kChunkSamples, synth);

  std::atomic<uint64_t> acked{0};    // samples acknowledged to readers
  std::atomic<uint64_t> started{0};  // samples of writes begun
  std::vector<Write> writes;         // writer thread only until joined
  Samples refresh_s;
  Tally writer_tally;

  // One write: the segment's samples so far, written whole beside the
  // repository and renamed into place. A write that opens a segment is
  // acknowledged after Refresh has registered the new file.
  auto write_once = [&](size_t w) -> Status {
    size_t seg = w / kChunksPerSegment;
    size_t first = seg * kChunksPerSegment * kChunkSamples;
    size_t end = (w + 1) * kChunkSamples;
    started.store(end);
    mseed::TimeSeries ts;
    ts.network = live.network;
    ts.station = live.station;
    ts.location = live.location;
    ts.channel = live.channel;
    ts.sample_rate = kRate;
    ts.start_time = live_start + static_cast<int64_t>(first) * kSampleNanos;
    ts.samples.assign(samples.begin() + first, samples.begin() + end);
    std::string name =
        mseed::SdsFilename(live.network, live.station, live.location,
                           live.channel, 'D', kStartYear, live_doy,
                           static_cast<int>(seg), 2);
    uint64_t request = tracer.NewId();
    Clock::time_point t0 = Clock::now();
    std::string tmp = (tmp_dir / name).string();
    LAZYETL_RETURN_NOT_OK(
        mseed::WriteMseedFile(tmp, ts, mseed::WriterOptions()).status());
    std::error_code rename_ec;
    fs::rename(tmp, live_dir / name, rename_ec);
    if (rename_ec) {
      return Status::IOError("rename " + tmp + ": " + rename_ec.message());
    }
    if (w % kChunksPerSegment == 0) {
      Clock::time_point t1 = Clock::now();
      LAZYETL_RETURN_NOT_OK(wh->Refresh().status());
      Clock::time_point t2 = Clock::now();
      refresh_s.Add(SecondsBetween(t1, t2));
      tracer.Record(tracer.NewId(), request, request, "refresh", t1, t2);
    }
    acked.store(end);
    Clock::time_point done = Clock::now();
    tracer.Record(request, 0, request, "write", t0, done);
    writes.push_back({done, end});
    return Status::OK();
  };

  // The first write lands before the readers start, so every reader query
  // has live data to find.
  LAZYETL_RETURN_NOT_OK(write_once(0));

  TimedSection section;
  section.Begin(wh.get());
  const Clock::time_point start = Clock::now();
  std::thread writer([&] {
    for (size_t w = 1; w < max_writes; ++w) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(w * kWriteIntervalS)));
      if (SecondsSince(start) >= args.seconds) break;
      Status s = write_once(w);
      if (!writer_tally.Count(s)) break;
    }
  });

  struct Reader {
    ClientLog log;
    Tally tally;
    std::vector<Read> reads;
  };
  Reader readers[2];
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i, &rd = readers[i]] {
      uint64_t floor = 0;
      std::string reader_sql;
      RunClient(
          wh.get(), start, args.seconds, "reader", &tracer,
          [&](uint64_t n) -> RequestSql {
            floor = acked.load();
            reader_sql = ReaderSql(live, live_start,
                                   "reader " + std::to_string(i) + " poll " +
                                       std::to_string(n));
            return {reader_sql};
          },
          [&](uint64_t, Answers& answers) {
            uint64_t ceiling = started.load();
            Result<core::QueryResult>& r = answers[0];
            if (!rd.tally.Count(r.status())) return;
            // Every acknowledged write must be counted, nothing beyond
            // what was written, and the newest sample must close the
            // range.
            int64_t count = r->table.GetValue(0, 0).AsInt64();
            uint64_t seen = static_cast<uint64_t>(count);
            bool ok = count > 0 && seen >= floor && seen <= ceiling &&
                      r->table.GetValue(0, 1).AsInt64() ==
                          live_start +
                              static_cast<int64_t>(seen - 1) * kSampleNanos;
            if (ok) {
              // Only the first answer to cover new samples can end a
              // write's freshness interval.
              if (rd.reads.empty() || seen > rd.reads.back().seen) {
                rd.reads.push_back({Clock::now(), seen});
              }
            } else {
              rd.tally.Wrong("count " + std::to_string(count) + ", acked " +
                             std::to_string(floor) + ": " + reader_sql);
            }
          },
          &rd.log);
    });
  }
  for (auto& t : threads) t.join();
  writer.join();
  section.End(wh.get());

  ClientLog log;
  std::vector<Read> reads;
  for (Reader& rd : readers) {
    log.Merge(rd.log);
    out->tally.Merge(rd.tally);
    reads.insert(reads.end(), rd.reads.begin(), rd.reads.end());
  }
  out->tally.Merge(writer_tally);
  out->tally.attempted += 1;  // the first write, made before timing

  // Freshness: from each acknowledged write of the timed section to the
  // first correct reader answer that covers its samples.
  std::sort(reads.begin(), reads.end(),
            [](const Read& a, const Read& b) { return a.done < b.done; });
  Samples freshness;
  for (size_t i = 1; i < writes.size(); ++i) {  // writes[0] came before
    const Write& w = writes[i];
    auto it = std::lower_bound(
        reads.begin(), reads.end(), w.acked,
        [](const Read& r, Clock::time_point t) { return r.done < t; });
    for (; it != reads.end(); ++it) {
      if (it->seen >= w.samples) {
        freshness.Add(SecondsBetween(w.acked, it->done));
        break;
      }
    }
  }
  out->details.Raw(
      "writes",
      JsonObject()
          .Num("writes", static_cast<double>(writes.size()))
          .Num("refreshes", static_cast<double>(refresh_s.size()))
          .Num("refresh_p50_ms", refresh_s.Median() * 1e3)
          .Num("freshness_p50_ms", freshness.Median() * 1e3)
          .Num("freshness_n", static_cast<double>(freshness.size()))
          .ToString());

  if (!args.trace) {
    LAZYETL_RETURN_NOT_OK(TimeSetups(fresh, &setup));  // the second block
    AddEndToEnd(setup, log, section, out);
  } else {
    // Replays of the reader SQL over the final files, on fresh warehouses
    // at the defaults and at query_threads = 1.
    std::vector<RequestSql> replayed;
    for (int i = 0; i < 100; ++i) {
      replayed.push_back({ReaderSql(live, live_start,
                                    "replay " + std::to_string(i))});
    }
    Replay replay;
    LAZYETL_RETURN_NOT_OK(RunReplay(
        options, {root, live_root.string()},
        [](core::Warehouse*) { return Status::OK(); }, replayed, &replay));
    LayerInputs in;
    in.wh = wh.get();
    in.tracer = &tracer;
    in.section = &section;
    in.warehouse_queries = log.latency.size();
    in.phases = &log.phases;
    in.sqls = {ReaderSql(live, live_start)};
    in.repo_files = ListWaveformFiles(root);
    in.traced = log.traced;
    in.untraced = log.untraced;
    in.replay = &replay;
    in.refresh_s = refresh_s;
    in.freshness_s = freshness;
    AddLayerMetrics(in, out);
    WriteSpans(args, tracer, out);
  }
  wh.reset();
  fs::remove_all(live_root, ec);
  fs::remove_all(tmp_dir, ec);
  return Status::OK();
}

}  // namespace perfbench
