// serve-point: two closed-loop clients, each on one persistent keep-alive
// connection, against an in-process server::QueryServer. Every request is
// a Fig. 1 Q1-shape point window (AVG over 2 s of one channel) at a
// seeded (station, channel, day, millisecond start), so no SQL text
// repeats and the result cache never hits. The repository is small
// (2 days x 600 s x 14 channels), fits the record cache and is warmed, so
// extraction is ~0 and per-request fixed cost dominates: wire framing and
// socket writes, parse/bind/plan, admission and the parallel fan-out.

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <tuple>
#include <unordered_set>

#include "server/client.h"
#include "server/server.h"
#include "wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace server = lazyetl::server;

constexpr int kClients = 2;
// Requests per connection before the timed section, so it starts in the
// connection's steady state rather than in its first round trips.
constexpr int kWarmRequests = 10;
constexpr int64_t kWindowMs = 2000;

// One point window: AVG(sample_value) over (start, start + 2 s) of one
// channel on one day, exclusive at both ends as in Fig. 1 Q1.
struct Point {
  std::string station, channel;
  int day = 0;
  int64_t start_ms = 0;  // since midnight
  std::string sql;
};

Point MakePoint(const std::string& station, const std::string& channel,
                int day, int64_t start_ms) {
  Point p{station, channel, day, start_ms, ""};
  NanoTime lo = DayTime(day, 0) + start_ms * 1000000LL;
  p.sql = "SELECT AVG(D.sample_value) FROM mseed.dataview WHERE "
          "F.station = '" + station + "' AND F.channel = '" + channel +
          "' AND R.start_time > '" + Ts(DayTime(day, 0)) +
          "' AND R.start_time < '" + Ts(DayTime(day, 86399.999)) +
          "' AND D.sample_time > '" + Ts(lo) + "' AND D.sample_time < '" +
          Ts(lo + kWindowMs * 1000000LL) + "'";
  return p;
}

// Expected answers, from the repository decoded by the benchmark.
class PointOracle {
 public:
  Status Load(const std::string& root) {
    for (const std::string& path : ListWaveformFiles(root)) {
      LAZYETL_ASSIGN_OR_RETURN(DecodedFile f, DecodeFile(path));
      if (f.times.empty()) continue;
      int day = static_cast<int>((f.times[0] - DayTime(0, 0)) /
                                 (86400LL * 1000000000LL));
      files_[{f.station, f.channel, day}] = std::move(f);
    }
    return Status::OK();
  }

  std::vector<std::pair<std::string, std::string>> Channels() const {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& [key, f] : files_) {
      auto sc = std::make_pair(std::get<0>(key), std::get<1>(key));
      if (std::find(out.begin(), out.end(), sc) == out.end()) {
        out.push_back(sc);
      }
    }
    return out;
  }

  // Checks one streamed answer: a single row holding the average.
  bool Check(const Point& p, const WireAnswer& a) const {
    auto it = files_.find({p.station, p.channel, p.day});
    if (it == files_.end() || a.rows.size() != 1) return false;
    const DecodedFile& f = it->second;
    NanoTime lo = DayTime(p.day, 0) + p.start_ms * 1000000LL;
    NanoTime hi = lo + kWindowMs * 1000000LL;
    int64_t count = 0, sum = 0;
    // The R.start_time bounds are exclusive too: a record that starts at
    // midnight is not in the view.
    for (size_t r = 0; r < f.record_starts.size(); ++r) {
      if (f.record_starts[r] <= DayTime(p.day, 0) ||
          f.record_starts[r] >= DayTime(p.day, 86399.999)) {
        continue;
      }
      size_t end = r + 1 < f.record_first.size() ? f.record_first[r + 1]
                                                 : f.times.size();
      for (size_t i = f.record_first[r]; i < end; ++i) {
        if (f.times[i] > lo && f.times[i] < hi) {
          ++count;
          sum += f.values[i];
        }
      }
    }
    // The engine has no NULLs (README): an aggregate over an empty window
    // yields 0.
    double want =
        count == 0 ? 0 : static_cast<double>(sum) / static_cast<double>(count);
    const std::string& row = a.rows[0];  // "[avg]"
    char* end = nullptr;
    double got = std::strtod(row.c_str() + 1, &end);
    return end != row.c_str() + 1 && Near(got, want);
  }

 private:
  std::map<std::tuple<std::string, std::string, int>, DecodedFile> files_;
};

// The seeded request stream: distinct (channel, day, millisecond start)
// keys drawn uniformly, one at a time, so a run of any length and rate
// never runs out (the key space holds millions of windows).
class PointStream {
 public:
  PointStream(uint64_t seed, int days, double seconds_per_day,
              std::vector<std::pair<std::string, std::string>> channels)
      : rng_(seed),
        days_(days),
        starts_(static_cast<int64_t>(seconds_per_day * 1000) - kWindowMs),
        channels_(std::move(channels)) {}

  // The next point of the stream; *index is its position in it. Clients
  // share the stream, so no two requests of a run are the same window.
  Point Next(uint64_t* index) {
    std::lock_guard<std::mutex> lock(mu_);
    while (true) {
      uint64_t c = std::uniform_int_distribution<uint64_t>(
          0, channels_.size() - 1)(rng_);
      uint64_t day =
          std::uniform_int_distribution<uint64_t>(0, days_ - 1)(rng_);
      int64_t start = std::uniform_int_distribution<int64_t>(0, starts_)(rng_);
      uint64_t key = (c * days_ + day) * static_cast<uint64_t>(starts_ + 1) +
                     static_cast<uint64_t>(start);
      if (!seen_.insert(key).second) continue;
      *index = seen_.size() - 1;
      return MakePoint(channels_[c].first, channels_[c].second,
                       static_cast<int>(day), start);
    }
  }

 private:
  std::mutex mu_;
  std::mt19937_64 rng_;
  const uint64_t days_;
  const int64_t starts_;
  const std::vector<std::pair<std::string, std::string>> channels_;
  std::unordered_set<uint64_t> seen_;
};

Status WarmRecords(core::Warehouse* wh) {
  return wh->Query("SELECT COUNT(*), SUM(D.sample_value) FROM mseed.dataview")
      .status();
}

}  // namespace

Status RunServePoint(const Args& args, const std::string& root,
                     Outcome* out) {
  const RepoShape shape = ShapeFor(args.workload);
  core::WarehouseOptions options = DefaultOptions(args);
  out->details.Raw("options", OptionsJson(options));
  Tracer tracer(args.trace);

  PointOracle oracle;
  LAZYETL_RETURN_NOT_OK(oracle.Load(root));
  // The warm-up takes the stream's first requests, the timed section the
  // rest.
  PointStream stream(SubSeed(args.seed, 1), shape.days, shape.seconds_per_day,
                     oracle.Channels());

  // Set-up: Open + Attach + QueryServer::Start. The first answer is one
  // fixed point query over a fresh connection (server::RunStreamedQuery).
  const Point first = MakePoint("HGN", "BHZ", 0, 300000);
  SetupTimes setup;
  std::unique_ptr<core::Warehouse> wh;
  std::unique_ptr<server::QueryServer> srv;
  auto fresh = [&](double* setup_s, double* first_answer_s) -> Status {
    srv.reset();
    wh.reset();
    Clock::time_point t = Clock::now();
    LAZYETL_ASSIGN_OR_RETURN(wh, OpenAndAttach(options, {root}));
    srv = std::make_unique<server::QueryServer>(wh.get());
    LAZYETL_RETURN_NOT_OK(srv->Start());
    *setup_s = SecondsSince(t);
    auto r = server::RunStreamedQuery("127.0.0.1", srv->port(), first.sql);
    *first_answer_s = SecondsSince(t);
    if (out->tally.Count(r.status())) {
      WireAnswer a;
      a.http_status = r->http_status;
      a.rows = r->rows;
      a.saw_end = r->saw_end;
      a.end_rows = r->end_rows;
      a.error = r->error_code;
      if (!a.ok() || !oracle.Check(first, a)) out->tally.Wrong(first.sql);
    }
    return Status::OK();
  };
  LAZYETL_RETURN_NOT_OK(TimeSetups(fresh, &setup));

  // Warm-up: every record into the record cache, then a few requests on
  // each client's connection.
  LAZYETL_RETURN_NOT_OK(WarmRecords(wh.get()));
  const server::ServerCounters counters_before = srv->counters();
  std::vector<std::unique_ptr<WireClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<WireClient>("127.0.0.1", srv->port()));
  }
  std::vector<Status> warmed(kClients, Status::OK());
  std::vector<std::thread> warmers;
  for (int c = 0; c < kClients; ++c) {
    warmers.emplace_back([&, c] {
      for (int i = 0; i < kWarmRequests && warmed[c].ok(); ++i) {
        uint64_t index = 0;
        const Point p = stream.Next(&index);
        auto r = clients[c]->Query(p.sql);
        if (!r.ok()) {
          warmed[c] = r.status();
        } else if (!r->ok() || !oracle.Check(p, *r)) {
          warmed[c] = Status::Internal("warm-up answer is wrong: " + p.sql);
        }
      }
    });
  }
  for (auto& t : warmers) t.join();
  for (const Status& s : warmed) LAZYETL_RETURN_NOT_OK(s);

  // Timed section: each client sends its next request as soon as the last
  // one has been answered.
  TimedSection section;
  section.Begin(wh.get());
  std::vector<ClientLog> logs(kClients);
  std::vector<Tally> tallies(kClients);
  // The first requests each client sent, for the traced run's replay.
  std::vector<std::vector<std::string>> sent(kClients);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      WireClient* client = clients[c].get();
      ClientLog& log = logs[c];
      double client_s = 0;
      uint64_t n = 0;
      while (SecondsSince(start) < args.seconds) {
        uint64_t i = 0;
        const Point p = stream.Next(&i);
        bool traced = Traced(tracer, i);
        Clock::time_point t0 = Clock::now();
        auto r = client->Query(p.sql);
        Clock::time_point t1 = Clock::now();
        if (traced) {
          uint64_t request = tracer.NewId();
          tracer.Record(tracer.NewId(), request, request, "socket", t0, t1);
          tracer.Record(request, 0, request, "request", t0, Clock::now());
        }
        double s = SecondsSince(t0);
        Clock::time_point t2 = Clock::now();
        log.latency.Add(s);
        (traced ? log.traced : log.untraced).Add(s);
        if (sent[c].size() < 400) sent[c].push_back(p.sql);
        if (tallies[c].Count(r.status())) {
          if (!r->ok()) {
            tallies[c].Fail("HTTP " + std::to_string(r->http_status) + " " +
                            r->error + ": " + p.sql);
          } else if (!oracle.Check(p, *r)) {
            tallies[c].Wrong((r->rows.empty() ? "no row" : r->rows[0]) +
                             " for " + p.sql);
          }
        }
        ++n;
        client_s += SecondsSince(t2);
      }
      log.qps = static_cast<double>(n) / (SecondsSince(start) - client_s);
    });
  }
  for (auto& t : threads) t.join();
  section.End(wh.get());
  const server::ServerCounters counters_after = srv->counters();

  ClientLog log;
  for (int c = 0; c < kClients; ++c) {
    log.Merge(logs[c]);
    out->tally.Merge(tallies[c]);
  }
  uint64_t connections_opened = 0;
  for (const auto& c : clients) connections_opened += c->connections_opened();
  // Connections the server accepted from the warm-up on, against the
  // requests sent over them.
  uint64_t connections =
      counters_after.connections - counters_before.connections;
  uint64_t wire_requests = log.latency.size() + kClients * kWarmRequests;
  clients.clear();

  // The socket carries no report, so requests are classed from the
  // warehouse counters over the timed section: with no result-cache hit,
  // no record-cache miss and no stale reload, every request is a result
  // cache miss served from cached records.
  const core::WarehouseStats& a = section.before();
  const core::WarehouseStats& b = section.after();
  bool one_class = b.result_cache_hits == a.result_cache_hits &&
                   b.cache.misses == a.cache.misses &&
                   b.cache.stale == a.cache.stale &&
                   b.cache.hits > a.cache.hits;
  log.by_class[one_class ? "point/rc_miss/rec_hit" : "point/unclassified"] =
      log.latency;
  out->details.Raw(
      "connections",
      JsonObject()
          .Num("client_opened", static_cast<double>(connections_opened))
          .Num("server_accepted", static_cast<double>(connections))
          .Num("requests", static_cast<double>(wire_requests))
          .ToString());

  if (!args.trace) {
    LAZYETL_RETURN_NOT_OK(TimeSetups(fresh, &setup));  // the second block
    AddEndToEnd(setup, log, section, out);
    return Status::OK();
  }

  // The same requests replayed in-process through OpenCursor/Next, at the
  // defaults and at query_threads = 1: the server's share of a request,
  // the parallel tax, and the report fields the socket does not carry.
  std::vector<RequestSql> replayed;
  std::vector<std::string> sqls;
  for (const auto& client_sqls : sent) {
    for (const std::string& sql : client_sqls) {
      if (replayed.size() < 400) replayed.push_back({sql});
      if (sqls.size() < 100) sqls.push_back(sql);
    }
  }
  Replay replay;
  LAZYETL_RETURN_NOT_OK(
      RunReplay(options, {root}, WarmRecords, replayed, &replay));
  LayerInputs in;
  in.wh = wh.get();
  in.tracer = &tracer;
  in.section = &section;
  in.wire_requests = wire_requests;
  in.warehouse_queries = log.latency.size();
  in.phases = &replay.phases;
  in.sqls = sqls;
  in.repo_files = ListWaveformFiles(root);
  in.traced = log.traced;
  in.untraced = log.untraced;
  in.replay = &replay;
  in.socket_p50_s = log.latency.Median();
  in.connections = connections;
  AddLayerMetrics(in, out);
  WriteSpans(args, tracer, out);
  return Status::OK();
}

}  // namespace perfbench
