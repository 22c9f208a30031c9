// Streaming cursor + serving front-end: streamed results must equal
// materialized Query() results byte-for-byte (same JSON encoding on both
// sides) across thread counts, memory budgets and priorities; streaming
// must hold peak resident result bytes to O(window × batch); early Close
// (LIMIT satisfied, client disconnect) and mid-stream errors must release
// the admission slot, budget carve and spill directory exactly once; and
// the wire protocol must map admission headers and typed status codes
// faithfully — including queue timeouts, which are counted by
// Stats().queries_timed_out on the cursor path exactly as on Query().

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_budget.h"
#include "core/warehouse.h"
#include "server/client.h"
#include "server/json.h"
#include "server/server.h"
#include "storage/table.h"
#include "test_util.h"
#include "warehouse_test_util.h"

namespace lazyetl::core {
namespace {

namespace fs = std::filesystem;
using storage::Table;

// Multi-batch by construction: batch_rows is forced tiny so even the
// small demo repository streams tens of batches.
constexpr size_t kTestBatchRows = 128;

std::unique_ptr<Warehouse> OpenServing(const std::string& root,
                                       size_t query_threads,
                                       uint64_t memory_budget,
                                       size_t max_concurrent = 0,
                                       const std::string& spill_dir = "",
                                       size_t batch_rows = kTestBatchRows) {
  WarehouseOptions options;
  options.strategy = LoadStrategy::kLazy;
  options.query_threads = query_threads;
  options.memory_budget_bytes = memory_budget;
  options.max_concurrent_queries = max_concurrent;
  options.batch_rows = batch_rows;
  options.spill_dir = spill_dir;
  auto wh = Warehouse::Open(options);
  EXPECT_TRUE(wh.ok()) << wh.status().ToString();
  auto stats = (*wh)->AttachRepository(root);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return std::move(*wh);
}

const char* kParityQueries[] = {
    testing::kPaperQ1,
    testing::kPaperQ2,
    "SELECT file_id, station, channel FROM mseed.files ORDER BY file_id;",
    "SELECT D.sample_value FROM mseed.dataview "
    "WHERE F.station = 'ISK' AND F.channel = 'BHE';",
    "SELECT AVG(D.sample_value) FROM mseed.dataview "
    "WHERE F.station = 'ZZZ';",  // aggregate over empty input: one NULL row
    "SELECT file_id, station FROM mseed.files "
    "WHERE station = 'ZZZ';",  // genuinely empty result: zero rows
};

class ServeStreamTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    repo_dir_ = new testing::ScopedTempDir();
    testing::MustGenerate(repo_dir_->path(), testing::SmallRepoConfig());
  }
  static void TearDownTestSuite() {
    delete repo_dir_;
    repo_dir_ = nullptr;
  }
  static const std::string& repo() { return repo_dir_->path(); }

 private:
  static testing::ScopedTempDir* repo_dir_;
};

testing::ScopedTempDir* ServeStreamTest::repo_dir_ = nullptr;

// --- Parity: streamed ≡ materialized --------------------------------------

TEST_F(ServeStreamTest, StreamedMatchesMaterializedAcrossConfigs) {
  const size_t kThreads[] = {1, 8};
  const uint64_t kBudgets[] = {0, 1ULL << 20};
  const char* kPriorities[] = {"low", "high"};
  for (size_t threads : kThreads) {
    for (uint64_t budget : kBudgets) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " budget=" + std::to_string(budget));
      auto wh = OpenServing(repo(), threads, budget);
      server::QueryServer srv(wh.get());
      ASSERT_STATUS_OK(srv.Start());

      for (const char* sql : kParityQueries) {
        SCOPED_TRACE(sql);
        auto expected = wh->Query(sql);
        ASSERT_OK(expected);
        std::vector<std::string> expected_rows =
            server::JsonRows(expected->table);

        // Two passes so the second may stream a cached whole result —
        // parity must hold on both the execution and the cache path.
        for (int pass = 0; pass < 2; ++pass) {
          server::ClientOptions copts;
          copts.priority = kPriorities[pass % 2];
          auto streamed =
              server::RunStreamedQuery("127.0.0.1", srv.port(), sql, copts);
          ASSERT_OK(streamed);
          ASSERT_EQ(streamed->http_status, 200) << streamed->error_body;
          EXPECT_TRUE(streamed->error_code.empty())
              << streamed->error_code << ": " << streamed->error_message;
          ASSERT_TRUE(streamed->saw_end);
          EXPECT_EQ(streamed->end_rows, expected->table.num_rows());
          EXPECT_FALSE(streamed->schema_json.empty());
          ASSERT_EQ(streamed->rows.size(), expected_rows.size());
          for (size_t r = 0; r < expected_rows.size(); ++r) {
            ASSERT_EQ(streamed->rows[r], expected_rows[r]) << "row " << r;
          }
        }
      }
      srv.Stop();
    }
  }
}

// --- Lifecycle parity: Query() ≡ OpenCursor() + drain --------------------

// One lifecycle path through a fresh warehouse: configuration, warm-up
// queries run through Query() first, an optional open cursor holding the
// only admission slot, and the SQL compared on both paths.
struct LifecycleCase {
  const char* name;
  bool footprint_aware = false;
  int plan_cache = 0;
  bool result_cache = true;
  size_t max_concurrent = 0;
  const char* warm_sql = nullptr;
  bool hold_slot = false;
  int64_t queue_timeout_ms = 0;
  const char* sql = nullptr;
  const char* expect = nullptr;  // what this case must show on both paths
};

// Everything one run of the lifecycle left observable: the answer or its
// error code, the report's admission and cache fields, and the deltas of
// the warehouse counters it moved.
std::string DescribeLifecycle(const Status& status,
                              const engine::ExecutionReport& report,
                              const WarehouseStats& before,
                              const WarehouseStats& after) {
  std::string out = std::string("code=") + StatusCodeToString(status.code());
  if (status.ok()) {
    out += " ticket=" + std::to_string(report.ticket_id) +
           " priority=" + report.priority + " client=" + report.client_id +
           " estimated=" + std::to_string(report.estimated_footprint_bytes) +
           " budget=" + std::to_string(report.admitted_budget_bytes) +
           " result_hit=" + std::to_string(report.result_cache_hit) +
           " plan_hit=" + std::to_string(report.plan_cache_hit) +
           " rows=" + std::to_string(report.result_rows);
  }
  auto delta = [](uint64_t a, uint64_t b) { return std::to_string(b - a); };
  out += " d_result_hits=" +
         delta(before.result_cache_hits, after.result_cache_hits) +
         " d_result_entries=" +
         delta(before.result_cache_entries, after.result_cache_entries) +
         " d_plan_hits=" + delta(before.plan_cache.hits, after.plan_cache.hits) +
         " d_plan_misses=" +
         delta(before.plan_cache.misses, after.plan_cache.misses) +
         " d_admitted=" + delta(before.queries_admitted, after.queries_admitted) +
         " d_timed_out=" +
         delta(before.queries_timed_out, after.queries_timed_out);
  return out;
}

TEST_F(ServeStreamTest, LifecycleParityAcrossCachesAndFailures) {
  const LifecycleCase cases[] = {
      {"result-cache hit, FIFO", false, 0, true, 0, testing::kPaperQ1, false,
       0, testing::kPaperQ1, "result_hit=1"},
      {"result-cache hit, footprint-aware", true, 0, true, 0,
       testing::kPaperQ1, false, 0, testing::kPaperQ1, "result_hit=1"},
      {"sub-plan hit", false, 1, false, 0, testing::kPaperQ2, false, 0,
       testing::kPaperQ2, "plan_hit=1"},
      {"queue timeout", false, 0, true, 1, nullptr, true, 20,
       testing::kPaperQ1, "code=deadline-exceeded"},
      {"parse error", false, 0, true, 0, nullptr, false, 0, "SELEC nonsense",
       "code=parse-error"},
      {"bind error", false, 0, true, 0, nullptr, false, 0,
       "SELECT x FROM no.such_table;", "code=bind-error"},
  };
  for (const LifecycleCase& c : cases) {
    SCOPED_TRACE(c.name);
    std::string described[2];
    std::vector<std::string> rows[2];
    for (int side = 0; side < 2; ++side) {
      const bool streamed = side == 1;
      WarehouseOptions options;
      options.strategy = LoadStrategy::kLazy;
      options.query_threads = 2;
      options.batch_rows = kTestBatchRows;
      options.enable_result_cache = c.result_cache;
      options.enable_plan_cache = c.plan_cache;
      options.enable_column_cache = 0;
      options.footprint_aware_admission = c.footprint_aware;
      options.max_concurrent_queries = c.max_concurrent;
      auto opened = Warehouse::Open(options);
      ASSERT_OK(opened);
      std::unique_ptr<Warehouse> wh = std::move(*opened);
      ASSERT_OK(wh->AttachRepository(repo()));
      if (c.warm_sql != nullptr) ASSERT_OK(wh->Query(c.warm_sql));
      std::unique_ptr<QueryCursor> holder;
      if (c.hold_slot) {
        auto cursor = wh->OpenCursor(kParityQueries[3]);
        ASSERT_OK(cursor);
        holder = std::move(*cursor);
        Table first;
        ASSERT_OK(holder->Next(&first));
      }

      QueryOptions qopts;
      qopts.client_id = "tenant-7";
      qopts.queue_timeout_ms = c.queue_timeout_ms;
      const WarehouseStats before = wh->Stats();
      Status status;
      engine::ExecutionReport report;
      if (!streamed) {
        auto result = wh->Query(c.sql, qopts);
        status = result.status();
        if (result.ok()) {
          rows[side] = server::JsonRows(result->table);
          report = result->report;
        }
      } else {
        auto cursor = wh->OpenCursor(c.sql, qopts);
        status = cursor.status();
        if (cursor.ok()) {
          Table batch;
          while (true) {
            auto more = (*cursor)->Next(&batch);
            ASSERT_OK(more);
            if (!*more) break;
            for (std::string& row : server::JsonRows(batch)) {
              rows[side].push_back(std::move(row));
            }
          }
          report = (*cursor)->report();
        }
      }
      described[side] = DescribeLifecycle(status, report, before, wh->Stats());
      if (holder != nullptr) holder->Close();
    }
    EXPECT_NE(described[0].find(c.expect), std::string::npos) << described[0];
    EXPECT_EQ(described[0], described[1]);
    EXPECT_EQ(rows[0], rows[1]);
  }
}

TEST_F(ServeStreamTest, BinaryFramesMatchNdjson) {
  auto wh = OpenServing(repo(), 2, 0);
  server::QueryServer srv(wh.get());
  ASSERT_STATUS_OK(srv.Start());
  const char* sql = kParityQueries[2];

  server::ClientOptions ndjson;
  auto a = server::RunStreamedQuery("127.0.0.1", srv.port(), sql, ndjson);
  server::ClientOptions frames;
  frames.binary_frames = true;
  auto b = server::RunStreamedQuery("127.0.0.1", srv.port(), sql, frames);
  ASSERT_OK(a);
  ASSERT_OK(b);
  ASSERT_EQ(a->http_status, 200);
  ASSERT_EQ(b->http_status, 200);
  ASSERT_TRUE(a->saw_end);
  ASSERT_TRUE(b->saw_end);
  EXPECT_EQ(a->schema_json, b->schema_json);
  EXPECT_EQ(a->rows, b->rows);
  EXPECT_EQ(a->end_rows, b->end_rows);
}

TEST_F(ServeStreamTest, EmptyResultStreamsSchemaThenEnd) {
  auto wh = OpenServing(repo(), 2, 0);
  server::QueryServer srv(wh.get());
  ASSERT_STATUS_OK(srv.Start());
  auto streamed =
      server::RunStreamedQuery("127.0.0.1", srv.port(), kParityQueries[5]);
  ASSERT_OK(streamed);
  ASSERT_EQ(streamed->http_status, 200) << streamed->error_body;
  EXPECT_FALSE(streamed->schema_json.empty());
  EXPECT_EQ(streamed->rows.size(), 0u);
  EXPECT_EQ(streamed->batch_frames, 0u);
  ASSERT_TRUE(streamed->saw_end);
  EXPECT_EQ(streamed->end_rows, 0u);
}

// --- Streaming memory: O(batch), not O(result) ----------------------------

TEST_F(ServeStreamTest, PeakBufferedBytesStayFarBelowMaterialized) {
  // A wide scan whose materialized result dwarfs one batch. The cursor's
  // peak resident result bytes (drive loop -> consumer) must sit at least
  // 10x below the materialized table, both serial and parallel.
  const char* sql =
      "SELECT D.sample_value, D.sample_time FROM mseed.dataview "
      "WHERE F.channel = 'BHZ';";
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto wh = OpenServing(repo(), threads, 0);
    // Stream before materializing: a prior Query() would admit the whole
    // result into the recycler and the cursor would answer from cache
    // (zero execution buffering) instead of exercising the drive loop.
    auto cursor = wh->OpenCursor(sql);
    ASSERT_OK(cursor);
    Table batch;
    uint64_t rows = 0;
    while (true) {
      auto more = (*cursor)->Next(&batch);
      ASSERT_OK(more);
      if (!*more) break;
      rows += batch.num_rows();
    }
    const uint64_t peak = (*cursor)->peak_buffered_bytes();

    auto expected = wh->Query(sql);
    ASSERT_OK(expected);
    const uint64_t materialized = expected->table.MemoryBytes();
    ASSERT_GT(expected->table.num_rows(), 20u * kTestBatchRows);
    EXPECT_EQ(rows, expected->table.num_rows());
    EXPECT_GT(peak, 0u);
    EXPECT_LE(peak * 10, materialized)
        << "peak=" << peak << " materialized=" << materialized;
  }
}

// --- Early close / abandonment --------------------------------------------

TEST_F(ServeStreamTest, EarlyCloseReleasesTicketBudgetAndSpill) {
  testing::ScopedTempDir spill_dir;
  common::MemoryBudget& global = common::MemoryBudget::Process();
  {
    auto wh = OpenServing(repo(), 4, 1ULL << 20, /*max_concurrent=*/2,
                          spill_dir.path());
    const char* sql =
        "SELECT D.sample_value, D.sample_time FROM mseed.dataview "
        "WHERE F.channel = 'BHZ' ORDER BY D.sample_value;";

    for (int round = 0; round < 3; ++round) {
      auto cursor = wh->OpenCursor(sql);
      ASSERT_OK(cursor);
      Table first;
      auto more = (*cursor)->Next(&first);
      ASSERT_OK(more);
      // Abandon mid-stream: the slot frees immediately (a second cursor
      // admits on a 2-slot scheduler while the first is still open).
      (*cursor)->Close();
      EXPECT_EQ(wh->Stats().queries_active, 0u);
    }
    // Dropping the handle without Close (client disconnect) releases too.
    {
      auto cursor = wh->OpenCursor(sql);
      ASSERT_OK(cursor);
      Table first;
      ASSERT_OK((*cursor)->Next(&first));
    }
    EXPECT_EQ(wh->Stats().queries_active, 0u);
    // Abandoned spilling queries left no spill directories behind.
    size_t leftover = 0;
    for (auto it = fs::recursive_directory_iterator(spill_dir.path());
         it != fs::recursive_directory_iterator(); ++it) {
      ++leftover;
    }
    EXPECT_EQ(leftover, 0u) << "orphaned spill state under "
                            << spill_dir.path();
  }
  // The warehouse is gone: every budget reservation (cursor state
  // included) must have been returned to the process-global budget.
  EXPECT_EQ(global.used(), 0u);
}

// --- Mid-stream errors ----------------------------------------------------

// Zeroes every byte of every mSEED file in place: size and mtime are
// preserved, so both staleness passes (the pre-plan candidate refresh,
// which compares mtime AND size, and the record stream's open-time mtime
// check) keep trusting the loaded metadata — OpenCursor succeeds, and the
// failure surfaces where deferred extraction first decodes a record
// (Steim frames of zeros hold zero samples), strictly mid-stream.
void CorruptRepositoryKeepingStat(const std::string& root) {
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    auto mtime = fs::last_write_time(it->path());
    std::vector<char> zeros(fs::file_size(it->path()), 0);
    std::ofstream out(it->path(), std::ios::binary | std::ios::in);
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
    out.close();
    fs::last_write_time(it->path(), mtime);
  }
}

TEST_F(ServeStreamTest, MidStreamErrorPropagatesAndReleases) {
  // Private repository copy — this test destroys the data.
  testing::ScopedTempDir dir;
  testing::MustGenerate(dir.path(), testing::SmallRepoConfig());
  auto wh = OpenServing(dir.path(), 2, 0);
  server::QueryServer srv(wh.get());
  ASSERT_STATUS_OK(srv.Start());

  CorruptRepositoryKeepingStat(dir.path());

  // Cursor path: the error is typed, sticky, and releasing.
  auto cursor = wh->OpenCursor(kParityQueries[3]);
  ASSERT_OK(cursor);
  Table batch;
  Status error = Status::OK();
  while (true) {
    auto more = (*cursor)->Next(&batch);
    if (!more.ok()) {
      error = more.status();
      break;
    }
    if (!*more) break;
  }
  EXPECT_FALSE(error.ok()) << "corrupted repository still extracted";
  EXPECT_EQ(wh->Stats().queries_active, 0u);

  // Wire path: the 200 is already committed when extraction fails, so
  // the typed code must arrive as an in-stream error frame.
  auto streamed =
      server::RunStreamedQuery("127.0.0.1", srv.port(), kParityQueries[3]);
  ASSERT_OK(streamed);
  ASSERT_EQ(streamed->http_status, 200);
  EXPECT_FALSE(streamed->saw_end);
  EXPECT_FALSE(streamed->error_code.empty());
  EXPECT_EQ(streamed->error_code, StatusCodeToString(error.code()));
  EXPECT_EQ(wh->Stats().queries_active, 0u);
}

// --- Wire protocol --------------------------------------------------------

TEST_F(ServeStreamTest, ProtocolMapsHeadersAndErrors) {
  auto wh = OpenServing(repo(), 2, 0, /*max_concurrent=*/1);
  server::QueryServer srv(wh.get());
  ASSERT_STATUS_OK(srv.Start());

  auto health = server::HttpGet("127.0.0.1", srv.port(), "/healthz");
  ASSERT_OK(health);
  EXPECT_EQ(*health, "ok\n");

  // Unknown endpoint.
  auto missing = server::HttpGet("127.0.0.1", srv.port(), "/nope");
  EXPECT_FALSE(missing.ok());

  // Parse and bind errors are typed pre-stream failures: HTTP 400.
  auto bad_sql =
      server::RunStreamedQuery("127.0.0.1", srv.port(), "SELEC nonsense");
  ASSERT_OK(bad_sql);
  EXPECT_EQ(bad_sql->http_status, 400);
  EXPECT_NE(bad_sql->error_body.find("parse-error"), std::string::npos)
      << bad_sql->error_body;
  auto bad_table = server::RunStreamedQuery(
      "127.0.0.1", srv.port(), "SELECT x FROM no.such_table;");
  ASSERT_OK(bad_table);
  EXPECT_EQ(bad_table->http_status, 400);

  // Malformed admission headers fail before admission.
  server::ClientOptions bad_priority;
  bad_priority.priority = "urgent";
  auto rejected = server::RunStreamedQuery("127.0.0.1", srv.port(),
                                           kParityQueries[0], bad_priority);
  ASSERT_OK(rejected);
  EXPECT_EQ(rejected->http_status, 400);

  // Valid headers reach the report: client id and priority round-trip.
  server::ClientOptions tagged;
  tagged.priority = "high";
  tagged.client_id = "tenant-42";
  auto ok = server::RunStreamedQuery("127.0.0.1", srv.port(),
                                     kParityQueries[1], tagged);
  ASSERT_OK(ok);
  ASSERT_EQ(ok->http_status, 200) << ok->error_body;
  EXPECT_TRUE(ok->saw_end);
  EXPECT_GT(ok->ticket, 0u);
}

TEST_F(ServeStreamTest, QueueTimeoutIs503AndCounted) {
  auto wh = OpenServing(repo(), 2, 0, /*max_concurrent=*/1);
  server::QueryServer srv(wh.get());
  ASSERT_STATUS_OK(srv.Start());

  const uint64_t timed_out_before = wh->Stats().queries_timed_out;
  // Hold the only slot with an open cursor, mid-stream.
  auto holder = wh->OpenCursor(kParityQueries[3]);
  ASSERT_OK(holder);
  Table first;
  ASSERT_OK((*holder)->Next(&first));

  server::ClientOptions opts;
  opts.queue_timeout_ms = 50;
  auto blocked = server::RunStreamedQuery("127.0.0.1", srv.port(),
                                          kParityQueries[0], opts);
  ASSERT_OK(blocked);
  EXPECT_EQ(blocked->http_status, 503);
  EXPECT_NE(blocked->error_body.find("deadline-exceeded"), std::string::npos)
      << blocked->error_body;
  // Cursor-path timeouts count in the same scheduler stat as Query().
  EXPECT_EQ(wh->Stats().queries_timed_out, timed_out_before + 1);

  (*holder)->Close();
  // The slot freed: the same request now succeeds.
  auto after = server::RunStreamedQuery("127.0.0.1", srv.port(),
                                        kParityQueries[0], opts);
  ASSERT_OK(after);
  EXPECT_EQ(after->http_status, 200) << after->error_body;

  auto stats = server::HttpGet("127.0.0.1", srv.port(), "/stats");
  ASSERT_OK(stats);
  EXPECT_NE(stats->find("\"queries_timed_out\":1"), std::string::npos)
      << *stats;
}

// --- Concurrent serving over the socket -----------------------------------

TEST_F(ServeStreamTest, ConcurrentClientsStreamConsistently) {
  auto wh = OpenServing(repo(), 2, 0, /*max_concurrent=*/4);
  server::QueryServer srv(wh.get());
  ASSERT_STATUS_OK(srv.Start());

  auto expected = wh->Query(kParityQueries[2]);
  ASSERT_OK(expected);
  std::vector<std::string> expected_rows = server::JsonRows(expected->table);

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  const char* priorities[] = {"low", "normal", "high"};
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      server::ClientOptions opts;
      opts.priority = priorities[t % 3];
      opts.client_id = "client-" + std::to_string(t % 2);
      auto streamed = server::RunStreamedQuery("127.0.0.1", srv.port(),
                                               kParityQueries[2], opts);
      if (!streamed.ok()) {
        failures[t] = streamed.status().ToString();
        return;
      }
      if (streamed->http_status != 200 || !streamed->saw_end ||
          streamed->rows != expected_rows) {
        failures[t] = "stream mismatch (http " +
                      std::to_string(streamed->http_status) + ")";
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < kClients; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "client " << t << ": " << failures[t];
  }
  srv.Stop();
  EXPECT_EQ(wh->Stats().queries_active, 0u);
  EXPECT_EQ(srv.counters().queries_ok, static_cast<uint64_t>(kClients));
}

// --- Connection churn ------------------------------------------------------

// A field of this process's /proc/self/status, in its own unit.
uint64_t ProcStatus(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream value(line.substr(field.size() + 1));
      uint64_t v = 0;
      value >> v;
      return v;
    }
  }
  return 0;
}

// A long-running server must not keep a thread (or its stack) for every
// connection it has ever accepted: finished connection threads are reaped.
TEST_F(ServeStreamTest, ConnectionChurnReapsThreads) {
  auto wh = OpenServing(repo(), 1, 0);
  server::QueryServer srv(wh.get());
  ASSERT_STATUS_OK(srv.Start());
  ASSERT_OK(server::HttpGet("127.0.0.1", srv.port(), "/healthz"));
  const uint64_t threads_before = ProcStatus("Threads");
  const uint64_t vm_before_kb = ProcStatus("VmSize");

  constexpr int kConnections = 300;
  for (int i = 0; i < kConnections; ++i) {
    ASSERT_OK(server::HttpGet("127.0.0.1", srv.port(), "/healthz"));
  }
  // The last connections' threads may still be unwinding.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ProcStatus("Threads") > threads_before + 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(ProcStatus("Threads"), threads_before + 4);
  // An exited but unjoined thread keeps its stack mapped: 300 of them
  // would add hundreds of MiB of address space.
  EXPECT_LE(ProcStatus("VmSize"), vm_before_kb + (64u << 10))
      << "VmSize grew from " << vm_before_kb << " kB";
  EXPECT_EQ(srv.counters().connections, kConnections + 1u);
  srv.Stop();
}

}  // namespace
}  // namespace lazyetl::core
