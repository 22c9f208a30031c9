#include "core/warehouse.h"

#include <gtest/gtest.h>

#include <fstream>
#include <thread>

#include "common/log.h"
#include "core/schema.h"
#include "mseed/repository.h"
#include "storage/persist.h"
#include "test_util.h"
#include "warehouse_test_util.h"

namespace lazyetl::core {
namespace {

using lazyetl::testing::MustGenerate;
using lazyetl::testing::MustOpen;
using lazyetl::testing::ScopedTempDir;
using lazyetl::testing::SmallRepoConfig;

class WarehouseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    repo_ = MustGenerate(dir_.path(), SmallRepoConfig());
  }

  ScopedTempDir dir_;
  mseed::GeneratedRepository repo_;
};

TEST_F(WarehouseTest, LazyAttachLoadsOnlyMetadata) {
  WarehouseOptions lazy_options;
  lazy_options.strategy = LoadStrategy::kLazy;
  auto wh = Warehouse::Open(lazy_options);
  ASSERT_OK(wh);
  auto stats = (*wh)->AttachRepository(dir_.path());
  ASSERT_OK(stats);
  EXPECT_EQ(stats->files, repo_.files.size());
  EXPECT_EQ(stats->records, repo_.total_records);
  EXPECT_EQ(stats->samples_loaded, 0u);
  // Metadata scan reads far less than the repository size.
  EXPECT_LT(stats->bytes_read, repo_.total_bytes / 2);

  // F and R are filled; D is empty.
  auto files = (*wh)->catalog().GetTable(kFilesTable);
  auto records = (*wh)->catalog().GetTable(kRecordsTable);
  auto data = (*wh)->catalog().GetTable(kDataTable);
  ASSERT_OK(files);
  ASSERT_OK(records);
  ASSERT_OK(data);
  EXPECT_EQ((*files)->num_rows(), repo_.files.size());
  EXPECT_EQ((*records)->num_rows(), repo_.total_records);
  EXPECT_EQ((*data)->num_rows(), 0u);
}

TEST_F(WarehouseTest, EagerAttachLoadsEverything) {
  auto wh = MustOpen(LoadStrategy::kEager, dir_.path());
  auto data = wh->catalog().GetTable(kDataTable);
  ASSERT_OK(data);
  EXPECT_EQ((*data)->num_rows(), repo_.total_samples);
}

TEST_F(WarehouseTest, FilenameOnlyAttachReadsNoFileBytes) {
  WarehouseOptions fn_options;
  fn_options.strategy = LoadStrategy::kLazyFilenameOnly;
  auto wh = Warehouse::Open(fn_options);
  ASSERT_OK(wh);
  auto stats = (*wh)->AttachRepository(dir_.path());
  ASSERT_OK(stats);
  EXPECT_EQ(stats->files, repo_.files.size());
  // Only the dataless inventory volume is read; no waveform file bytes.
  EXPECT_EQ(stats->bytes_read, repo_.dataless_bytes);
  auto records = (*wh)->catalog().GetTable(kRecordsTable);
  ASSERT_OK(records);
  EXPECT_EQ((*records)->num_rows(), 0u);  // not hydrated yet
}

TEST_F(WarehouseTest, MetadataBrowsingQueries) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  // Stations in network NL (queried against base table: no extraction).
  auto result = wh->Query(
      "SELECT station, COUNT(*) AS n FROM mseed.files "
      "WHERE network = 'NL' GROUP BY station ORDER BY station");
  ASSERT_OK(result);
  ASSERT_EQ(result->table.num_rows(), 3u);
  EXPECT_EQ(result->table.GetValue(0, 0).string_value(), "HGN");
  EXPECT_EQ(result->report.records_extracted, 0u);
  EXPECT_EQ(result->report.files_opened, 0u);
}

TEST_F(WarehouseTest, PaperQ1ExtractsOnlyMatchingRecords) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto result = wh->Query(lazyetl::testing::kPaperQ1);
  ASSERT_OK(result);
  ASSERT_EQ(result->table.num_rows(), 1u);
  const auto& report = result->report;
  // Only records from ISK/BHE on the matching day are requested — far
  // fewer than the repository's record count.
  EXPECT_GT(report.records_requested, 0u);
  EXPECT_LT(report.records_requested, repo_.total_records / 4);
  EXPECT_EQ(report.files_opened, 1u);  // one channel-day file
  EXPECT_GT(report.samples_extracted, 0u);
  // Run-time rewrite is documented.
  EXPECT_NE(report.plan_runtime.find("rewritten at run time"),
            std::string::npos);
  EXPECT_NE(report.plan_after.find("LazyDataScan"), std::string::npos);
}

TEST_F(WarehouseTest, RepeatQueryServedFromCache) {
  // Pin the column/plan tiers off: this test asserts record-tier
  // internals (per-record hit counts), which the upper tiers bypass.
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                     /*cache_budget=*/64ULL << 20,
                     /*result_cache=*/false,
                     /*column_cache=*/0, /*plan_cache=*/0);
  auto first = wh->Query(lazyetl::testing::kPaperQ1);
  ASSERT_OK(first);
  EXPECT_GT(first->report.records_extracted, 0u);
  auto second = wh->Query(lazyetl::testing::kPaperQ1);
  ASSERT_OK(second);
  EXPECT_EQ(second->report.records_extracted, 0u);
  EXPECT_GT(second->report.cache_hits, 0u);
  EXPECT_EQ(second->report.files_opened, 0u);
  // Same answer.
  EXPECT_TRUE(second->table.GetValue(0, 0).Equals(first->table.GetValue(0, 0)));
}

TEST_F(WarehouseTest, ResultCacheShortCircuits) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto first = wh->Query(lazyetl::testing::kPaperQ2);
  ASSERT_OK(first);
  EXPECT_FALSE(first->report.result_cache_hit);
  auto second = wh->Query(lazyetl::testing::kPaperQ2);
  ASSERT_OK(second);
  EXPECT_TRUE(second->report.result_cache_hit);
  ASSERT_EQ(second->table.num_rows(), first->table.num_rows());
  for (size_t r = 0; r < first->table.num_rows(); ++r) {
    for (size_t c = 0; c < first->table.num_columns(); ++c) {
      EXPECT_TRUE(
          second->table.GetValue(r, c).Equals(first->table.GetValue(r, c)));
    }
  }
}

TEST_F(WarehouseTest, FilenameOnlyHydratesCandidatesOnly) {
  auto wh = MustOpen(LoadStrategy::kLazyFilenameOnly, dir_.path());
  auto result = wh->Query(lazyetl::testing::kPaperQ1);
  ASSERT_OK(result);
  // Only the ISK/BHE files (2 days) should have been hydrated.
  EXPECT_GT(result->report.files_hydrated, 0u);
  EXPECT_LE(result->report.files_hydrated, 2u);
  auto stats = wh->Stats();
  EXPECT_LT(stats.num_hydrated_files, stats.num_files);
}

TEST_F(WarehouseTest, CacheBudgetForcesEviction) {
  // Budget fits roughly one record's samples. Pin the column/plan tiers
  // off: the re-run must reach the record tier to observe the eviction.
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                     /*cache_budget=*/8 << 10, /*result_cache=*/false,
                     /*column_cache=*/0, /*plan_cache=*/0);
  auto r1 = wh->Query(lazyetl::testing::kPaperQ2);
  ASSERT_OK(r1);
  auto stats = wh->Stats();
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_LE(stats.cache.current_bytes, stats.cache.budget_bytes);
  // Re-running re-extracts (entries were evicted), result still correct.
  auto r2 = wh->Query(lazyetl::testing::kPaperQ2);
  ASSERT_OK(r2);
  EXPECT_GT(r2->report.records_extracted, 0u);
}

TEST_F(WarehouseTest, WorstCaseFullExtraction) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto result = wh->Query("SELECT COUNT(*) FROM mseed.dataview");
  ASSERT_OK(result);
  EXPECT_EQ(result->table.GetValue(0, 0).int64_value(),
            static_cast<int64_t>(repo_.total_samples));
  EXPECT_EQ(result->report.records_requested, repo_.total_records);
  EXPECT_EQ(result->report.files_opened, repo_.files.size());
}

TEST_F(WarehouseTest, DirectLazyDataTableQuery) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto result = wh->Query("SELECT COUNT(*) FROM mseed.data");
  ASSERT_OK(result);
  EXPECT_EQ(result->table.GetValue(0, 0).int64_value(),
            static_cast<int64_t>(repo_.total_samples));
}

TEST_F(WarehouseTest, StatsReflectState) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto stats = wh->Stats();
  EXPECT_EQ(stats.strategy, LoadStrategy::kLazy);
  EXPECT_EQ(stats.num_files, repo_.files.size());
  EXPECT_EQ(stats.num_hydrated_files, repo_.files.size());
  EXPECT_EQ(stats.repository_bytes, repo_.total_bytes);
  EXPECT_GT(stats.catalog_bytes, 0u);
  EXPECT_EQ(stats.cache.entries, 0u);

  ASSERT_OK(wh->Query(lazyetl::testing::kPaperQ1));
  stats = wh->Stats();
  EXPECT_GT(stats.cache.entries, 0u);
}

TEST_F(WarehouseTest, ClearCachesResets) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  ASSERT_OK(wh->Query(lazyetl::testing::kPaperQ1));
  EXPECT_GT(wh->Stats().cache.entries, 0u);
  wh->ClearCaches();
  EXPECT_EQ(wh->Stats().cache.entries, 0u);
  EXPECT_EQ(wh->Stats().cache.hits, 0u);
}

TEST_F(WarehouseTest, QueryErrorsPropagate) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  EXPECT_TRUE(wh->Query("SELEC typo").status().IsParseError());
  EXPECT_TRUE(wh->Query("SELECT nope FROM mseed.files").status().IsBindError());
  EXPECT_TRUE(
      wh->Query("SELECT x FROM unknown.table").status().IsBindError());
}

TEST_F(WarehouseTest, EagerPersistsWarehouseToDisk) {
  ScopedTempDir persist;
  WarehouseOptions options;
  options.strategy = LoadStrategy::kEager;
  options.persist_dir = persist.path();
  auto wh = Warehouse::Open(options);
  ASSERT_OK(wh);
  ASSERT_OK((*wh)->AttachRepository(dir_.path()));
  auto bytes = storage::DirectoryBytes(persist.path());
  ASSERT_OK(bytes);
  // The decoded warehouse is much larger than the compressed repository
  // (§4: "up to 10 times the original storage size").
  EXPECT_GT(*bytes, repo_.total_bytes * 2);
}

TEST_F(WarehouseTest, SkipsStrayFiles) {
  // Drop a non-mSEED file into the repository.
  std::ofstream junk(dir_.path() + "/README.txt");
  junk << "not seismic data";
  junk.close();
  WarehouseOptions skip_options;
  skip_options.strategy = LoadStrategy::kLazy;
  auto wh = Warehouse::Open(skip_options);
  ASSERT_OK(wh);
  auto stats = (*wh)->AttachRepository(dir_.path());
  ASSERT_OK(stats);
  EXPECT_EQ(stats->files, repo_.files.size());  // junk skipped
}

TEST_F(WarehouseTest, AttachTwiceIsIdempotent) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto again = wh->AttachRepository(dir_.path());
  ASSERT_OK(again);
  EXPECT_EQ(again->files, 0u);
  EXPECT_EQ(wh->Stats().num_files, repo_.files.size());
}

TEST_F(WarehouseTest, OperationLogRecordsPhases) {
  auto& log = OperationLog::Global();
  int64_t mark = log.LastSeq();
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  ASSERT_OK(wh->Query(lazyetl::testing::kPaperQ1));
  bool saw_metadata_load = false;
  bool saw_rewrite = false;
  bool saw_extract = false;
  for (const auto& e : log.EntriesSince(mark)) {
    if (e.category == LogCategory::kMetadataLoad) saw_metadata_load = true;
    if (e.category == LogCategory::kRewrite) saw_rewrite = true;
    if (e.category == LogCategory::kExtract) saw_extract = true;
  }
  EXPECT_TRUE(saw_metadata_load);
  EXPECT_TRUE(saw_rewrite);
  EXPECT_TRUE(saw_extract);
}

// The lines the query lifecycle writes after admission name the ticket,
// so two concurrent queries' lines can be told apart: a result-cache hit
// and a sub-plan hit, each with its admission and done lines.
TEST_F(WarehouseTest, LifecycleLogLinesNameTheTicket) {
  WarehouseOptions options;
  options.strategy = LoadStrategy::kLazy;
  options.enable_plan_cache = 1;
  options.enable_column_cache = 0;
  options.plan_cache_budget_bytes = 64ULL << 20;
  options.cache_pool_budget_bytes = 256ULL << 20;
  auto opened = Warehouse::Open(options);
  ASSERT_OK(opened);
  std::unique_ptr<Warehouse> wh = std::move(*opened);
  ASSERT_OK(wh->AttachRepository(dir_.path()));
  const std::string sql = lazyetl::testing::kPaperQ2;
  ASSERT_OK(wh->Query(sql));  // admits the sub-plan and the result

  auto& log = OperationLog::Global();
  const int64_t mark = log.LastSeq();
  Result<QueryResult> result_hit = Status::Internal("not run");
  Result<QueryResult> subplan_hit = Status::Internal("not run");
  // Same plan, different text: a result-cache miss over a sub-plan hit.
  std::thread a([&] { result_hit = wh->Query(sql); });
  std::thread b([&] { subplan_hit = wh->Query(sql + " -- again"); });
  a.join();
  b.join();
  ASSERT_OK(result_hit);
  ASSERT_OK(subplan_hit);
  ASSERT_TRUE(result_hit->report.result_cache_hit);
  ASSERT_TRUE(subplan_hit->report.plan_cache_hit);
  const uint64_t ta = result_hit->report.ticket_id;
  const uint64_t tb = subplan_hit->report.ticket_id;
  ASSERT_NE(ta, tb);

  auto lines_naming = [&](uint64_t ticket) {
    const std::string tag = "ticket " + std::to_string(ticket);
    std::vector<std::string> lines;
    for (const auto& e : log.EntriesSince(mark)) {
      size_t at = e.message.find(tag);
      if (at == std::string::npos) continue;
      char next = e.message[at + tag.size()];
      if (next == ')' || next == ',') lines.push_back(e.message);
    }
    return lines;
  };
  auto has = [](const std::vector<std::string>& lines, const std::string& s) {
    for (const auto& l : lines) {
      if (l.find(s) != std::string::npos) return true;
    }
    return false;
  };
  const auto a_lines = lines_naming(ta);
  const auto b_lines = lines_naming(tb);
  EXPECT_TRUE(has(a_lines, "query (ticket")) << ::testing::PrintToString(a_lines);
  EXPECT_TRUE(has(a_lines, "answered from result cache"));
  EXPECT_TRUE(has(a_lines, "query done"));
  EXPECT_FALSE(has(a_lines, "sub-plan served"));
  EXPECT_TRUE(has(b_lines, "query (ticket")) << ::testing::PrintToString(b_lines);
  EXPECT_TRUE(has(b_lines, "sub-plan served from plan cache"));
  EXPECT_TRUE(has(b_lines, "query done"));
  EXPECT_FALSE(has(b_lines, "answered from result cache"));
}

}  // namespace
}  // namespace lazyetl::core
