// Refresh semantics (§3.3): lazy staleness detection via file mtimes, the
// Refresh() API for new/modified/deleted files, and cache invalidation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "core/schema.h"
#include "core/warehouse.h"
#include "mseed/reader.h"
#include "mseed/repository.h"
#include "mseed/synth.h"
#include "mseed/writer.h"
#include "test_util.h"
#include "warehouse_test_util.h"

namespace lazyetl::core {
namespace {

namespace fs = std::filesystem;
using lazyetl::testing::MustGenerate;
using lazyetl::testing::MustOpen;
using lazyetl::testing::ScopedTempDir;
using lazyetl::testing::SmallRepoConfig;

// Rewrites `path` with different waveform content (longer series), bumping
// its mtime and record count.
void ModifyFile(const std::string& path, double seconds = 45.0) {
  auto md = mseed::ScanMetadata(path);
  ASSERT_OK(md);
  mseed::TimeSeries series;
  series.network = md->network;
  series.station = md->station;
  series.location = md->location;
  series.channel = md->channel;
  series.start_time = md->start_time;
  series.sample_rate = md->sample_rate;
  mseed::SynthOptions synth;
  synth.seed = 987654;
  synth.sample_rate = md->sample_rate;
  series.samples = mseed::GenerateSeismogram(
      static_cast<size_t>(seconds * md->sample_rate), synth);
  ASSERT_OK(mseed::WriteMseedFile(path, series, mseed::WriterOptions{}));
  // Ensure the mtime visibly advances even on coarse filesystems.
  auto now = fs::file_time_type::clock::now();
  fs::last_write_time(path, now + std::chrono::seconds(2));
}

class RefreshTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cfg = SmallRepoConfig();
    cfg.num_days = 1;
    repo_ = MustGenerate(dir_.path(), cfg);
  }

  ScopedTempDir dir_;
  mseed::GeneratedRepository repo_;
};

TEST_F(RefreshTest, LazyStalenessDetectedAtQueryTimeWithoutRefresh) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                     /*cache_budget=*/64ULL << 20, /*result_cache=*/false);
  const std::string sql =
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' "
      "AND F.channel = 'BHE'";
  auto before = wh->Query(sql);
  ASSERT_OK(before);
  int64_t count_before = before->table.GetValue(0, 0).int64_value();

  // Modify the ISK/BHE file on disk; do NOT call Refresh().
  std::string target;
  for (const auto& f : repo_.files) {
    if (f.station == "ISK" && f.channel == "BHE") target = f.path;
  }
  ASSERT_FALSE(target.empty());
  ModifyFile(target, 45.0);

  // The next query notices the stale metadata/cache lazily and re-extracts.
  auto after = wh->Query(sql);
  ASSERT_OK(after);
  int64_t count_after = after->table.GetValue(0, 0).int64_value();
  EXPECT_EQ(count_after, 45 * 40);  // 45 s at 40 Hz
  EXPECT_NE(count_after, count_before);
}

TEST_F(RefreshTest, CachedRecordsInvalidatedByMtimeChange) {
  // Record-tier internals under test: pin the column/plan tiers off.
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                     /*cache_budget=*/64ULL << 20, /*result_cache=*/false,
                     /*column_cache=*/0, /*plan_cache=*/0);
  const std::string sql =
      "SELECT AVG(D.sample_value) FROM mseed.dataview "
      "WHERE F.station = 'HGN' AND F.channel = 'BHZ'";
  ASSERT_OK(wh->Query(sql));
  // Warm: all hits.
  auto warm = wh->Query(sql);
  ASSERT_OK(warm);
  EXPECT_GT(warm->report.cache_hits, 0u);
  EXPECT_EQ(warm->report.records_extracted, 0u);

  std::string target;
  for (const auto& f : repo_.files) {
    if (f.station == "HGN" && f.channel == "BHZ") target = f.path;
  }
  ModifyFile(target);

  auto stale = wh->Query(sql);
  ASSERT_OK(stale);
  // Metadata was reloaded and records re-extracted.
  EXPECT_GT(stale->report.records_extracted, 0u);
}

TEST_F(RefreshTest, ResultCacheInvalidatedByModification) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  const std::string sql =
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'WIT'";
  ASSERT_OK(wh->Query(sql));
  auto hit = wh->Query(sql);
  ASSERT_OK(hit);
  EXPECT_TRUE(hit->report.result_cache_hit);

  std::string target;
  for (const auto& f : repo_.files) {
    if (f.station == "WIT") {
      target = f.path;
      break;
    }
  }
  ModifyFile(target, 20.0);

  auto miss = wh->Query(sql);
  ASSERT_OK(miss);
  EXPECT_FALSE(miss->report.result_cache_hit);
}

TEST_F(RefreshTest, RefreshRegistersNewFiles) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  size_t before = wh->Stats().num_files;

  // Add a brand new station file.
  mseed::RepositoryConfig extra;
  extra.stations = {{"CH", "DAVOX", "", {"HHZ"}, 40.0}};
  extra.num_days = 1;
  extra.seconds_per_segment = 10.0;
  MustGenerate(dir_.path(), extra);

  auto stats = wh->Refresh();
  ASSERT_OK(stats);
  EXPECT_EQ(stats->new_files, 1u);
  EXPECT_EQ(stats->deleted_files, 0u);
  EXPECT_EQ(wh->Stats().num_files, before + 1);

  auto result = wh->Query(
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'DAVOX'");
  ASSERT_OK(result);
  EXPECT_EQ(result->table.GetValue(0, 0).int64_value(), 400);
}

TEST_F(RefreshTest, RefreshDetectsModification) {
  for (LoadStrategy strategy :
       {LoadStrategy::kEager, LoadStrategy::kLazy,
        LoadStrategy::kLazyFilenameOnly}) {
    SCOPED_TRACE(LoadStrategyToString(strategy));
    ScopedTempDir local;
    auto cfg = SmallRepoConfig();
    cfg.num_days = 1;
    auto repo = MustGenerate(local.path(), cfg);
    auto wh = MustOpen(strategy, local.path());

    ModifyFile(repo.files[0].path, 33.0);
    auto stats = wh->Refresh();
    ASSERT_OK(stats);
    EXPECT_EQ(stats->modified_files, 1u);

    auto result = wh->Query(
        "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = '" +
        repo.files[0].station + "' AND F.channel = '" +
        repo.files[0].channel + "'");
    ASSERT_OK(result);
    EXPECT_EQ(result->table.GetValue(0, 0).int64_value(), 33 * 40);
  }
}

TEST_F(RefreshTest, RefreshDetectsDeletion) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  size_t before = wh->Stats().num_files;
  fs::remove(repo_.files[0].path);

  auto stats = wh->Refresh();
  ASSERT_OK(stats);
  EXPECT_EQ(stats->deleted_files, 1u);
  EXPECT_EQ(wh->Stats().num_files, before - 1);

  // The deleted file's rows are gone from the metadata tables.
  auto files = wh->catalog().GetTable(kFilesTable);
  ASSERT_OK(files);
  EXPECT_EQ((*files)->num_rows(), before - 1);

  // Queries over the remaining repository still work.
  auto result = wh->Query("SELECT COUNT(*) FROM mseed.dataview");
  ASSERT_OK(result);
  EXPECT_EQ(result->table.GetValue(0, 0).int64_value(),
            static_cast<int64_t>(repo_.total_samples -
                                 repo_.files[0].num_samples));
}

TEST_F(RefreshTest, EagerRefreshReloadsData) {
  auto wh = MustOpen(LoadStrategy::kEager, dir_.path());
  auto data_before = wh->catalog().GetTable(kDataTable);
  ASSERT_OK(data_before);
  size_t rows_before = (*data_before)->num_rows();

  ModifyFile(repo_.files[0].path, 60.0);
  auto stats = wh->Refresh();
  ASSERT_OK(stats);
  EXPECT_EQ(stats->modified_files, 1u);

  auto data_after = wh->catalog().GetTable(kDataTable);
  ASSERT_OK(data_after);
  EXPECT_EQ((*data_after)->num_rows(),
            rows_before - repo_.files[0].num_samples + 60 * 40);
}

TEST_F(RefreshTest, NoChangesMeansNoWork) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto stats = wh->Refresh();
  ASSERT_OK(stats);
  EXPECT_EQ(stats->new_files, 0u);
  EXPECT_EQ(stats->modified_files, 0u);
  EXPECT_EQ(stats->deleted_files, 0u);
  EXPECT_EQ(stats->bytes_read, 0u);
}

TEST_F(RefreshTest, QueryFailsWhenFileVanishesMidway) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                     /*cache_budget=*/64ULL << 20, /*result_cache=*/false);
  // Delete a file after metadata load, then query data that needs it.
  std::string target;
  std::string station;
  for (const auto& f : repo_.files) {
    if (f.station == "APE") {
      target = f.path;
      station = f.station;
      break;
    }
  }
  fs::remove(target);
  auto result = wh->Query(
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'APE'");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  // After Refresh() the file is dropped and the query succeeds (0 rows...
  // APE has two channel files; one remains).
  ASSERT_OK(wh->Refresh());
  auto after = wh->Query(
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'APE'");
  ASSERT_OK(after);
}

TEST_F(RefreshTest, AppendToFileExtendsSeries) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                     /*cache_budget=*/64ULL << 20, /*result_cache=*/false);
  const auto& gf = repo_.files[1];
  const std::string sql =
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = '" + gf.station +
      "' AND F.channel = '" + gf.channel + "'";
  auto before = wh->Query(sql);
  ASSERT_OK(before);

  // Append 10 more seconds to the file (a growing "live" archive).
  auto md = mseed::ScanMetadata(gf.path);
  ASSERT_OK(md);
  mseed::TimeSeries more;
  more.network = md->network;
  more.station = md->station;
  more.location = md->location;
  more.channel = md->channel;
  more.sample_rate = md->sample_rate;
  more.start_time = md->end_time + kNanosPerSecond / 40;
  mseed::SynthOptions synth;
  synth.seed = 5555;
  more.samples = mseed::GenerateSeismogram(400, synth);
  ASSERT_OK(mseed::AppendToMseedFile(
      gf.path, more, mseed::WriterOptions{},
      static_cast<int32_t>(md->records.size() + 1)));
  fs::last_write_time(gf.path,
                      fs::file_time_type::clock::now() +
                          std::chrono::seconds(2));

  auto after = wh->Query(sql);
  ASSERT_OK(after);
  EXPECT_EQ(after->table.GetValue(0, 0).int64_value(),
            before->table.GetValue(0, 0).int64_value() + 400);
}

// A footprint-aware query validates a result-cache hit before it queues
// for admission. When the file under that result is rewritten while the
// query waits for the only slot, it must execute after the wait instead of
// serving the stale entry — on both lifecycle paths.
TEST_F(RefreshTest, FootprintResultHitRecheckedAfterQueueWait) {
  WarehouseOptions options;
  options.strategy = LoadStrategy::kLazy;
  options.footprint_aware_admission = true;
  options.max_concurrent_queries = 1;
  auto opened = Warehouse::Open(options);
  ASSERT_OK(opened);
  std::unique_ptr<Warehouse> wh = std::move(*opened);
  ASSERT_OK(wh->AttachRepository(dir_.path()));
  const std::string sql =
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'WIT'";
  std::string target;
  for (const auto& f : repo_.files) {
    if (f.station == "WIT") {
      target = f.path;
      break;
    }
  }
  ASSERT_FALSE(target.empty());

  double seconds = 20.0;
  for (bool streamed : {false, true}) {
    SCOPED_TRACE(streamed ? "OpenCursor" : "Query");
    ASSERT_OK(wh->Query(sql));  // caches the current answer
    auto holder = wh->OpenCursor("SELECT file_id FROM mseed.files;");
    ASSERT_OK(holder);
    storage::Table first;
    ASSERT_OK((*holder)->Next(&first));  // holds the only slot

    Status status;
    int64_t answer = -1;
    bool hit = true;
    std::thread waiter([&] {
      if (!streamed) {
        auto r = wh->Query(sql);
        status = r.status();
        if (!r.ok()) return;
        answer = r->table.GetValue(0, 0).int64_value();
        hit = r->report.result_cache_hit;
        return;
      }
      auto cursor = wh->OpenCursor(sql);
      status = cursor.status();
      if (!cursor.ok()) return;
      storage::Table batch;
      while (true) {
        auto more = (*cursor)->Next(&batch);
        status = more.status();
        if (!more.ok() || !*more) break;
        if (batch.num_rows() > 0) answer = batch.GetValue(0, 0).int64_value();
      }
      hit = (*cursor)->report().result_cache_hit;
    });
    // The waiter probes the result cache before it queues.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (wh->Stats().queries_waiting == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(wh->Stats().queries_waiting, 1u);
    seconds += 5.0;
    ModifyFile(target, seconds);
    (*holder)->Close();
    waiter.join();

    auto fresh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                          /*cache_budget=*/64ULL << 20, /*result_cache=*/false);
    auto expected = fresh->Query(sql);
    ASSERT_OK(expected);
    ASSERT_STATUS_OK(status);
    EXPECT_FALSE(hit);
    EXPECT_EQ(answer, expected->table.GetValue(0, 0).int64_value());
  }
}

// The stale-result race: a reader planned against the catalog that a
// concurrent Refresh() (or another reader's stale reload) then replaced
// used to record its result's dependency mtimes after the publish, so its
// outdated answer looked fresh in the result cache and was served until
// the file changed again. With one fixed SQL text, every answer must cover
// every write acknowledged before it was asked, and nothing unwritten.
TEST_F(RefreshTest, FixedSqlPollsCoverAcknowledgedWrites) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  ScopedTempDir staging;
  const std::string live_dir = dir_.path() + "/2010/KO/LIVE/BHZ.D";
  fs::create_directories(live_dir);
  const std::string name =
      mseed::SdsFilename("KO", "LIVE", "", "BHZ", 'D', 2010, 10, 0, 1);
  const std::string sql =
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'LIVE'";
  constexpr size_t kChunk = 50;
  constexpr size_t kMaxWrites = 400;
  mseed::SynthOptions synth;
  synth.seed = 4242;
  const std::vector<int32_t> samples =
      mseed::GenerateSeismogram(kChunk * kMaxWrites, synth);
  auto start_time = ParseTimestamp("2010-01-10T00:00:00.000");
  ASSERT_OK(start_time);
  const auto base_mtime = fs::file_time_type::clock::now();

  std::atomic<uint64_t> started{0};
  std::atomic<uint64_t> acked{0};
  size_t records = 0;
  // One write appends a chunk to a copy of the live file and renames the
  // copy into place; every few writes also call Refresh(). Between them,
  // queries find the rewritten file by its mtime and reload it lazily. A
  // write is acknowledged once the file is in place. Earlier records stay
  // byte-identical, so a reader holding the previous metadata still
  // decodes them correctly — only its answer is older.
  auto write = [&](size_t w) -> Status {
    const std::string live = live_dir + "/" + name;
    const std::string tmp = staging.path() + "/" + name;
    started.store((w + 1) * kChunk);
    mseed::TimeSeries ts;
    ts.network = "KO";
    ts.station = "LIVE";
    ts.channel = "BHZ";
    ts.sample_rate = 40.0;
    ts.start_time = *start_time + static_cast<int64_t>(w * kChunk) *
                                      (kNanosPerSecond / 40);
    ts.samples.assign(samples.begin() + w * kChunk,
                      samples.begin() + (w + 1) * kChunk);
    if (w > 0) fs::copy_file(live, tmp, fs::copy_options::overwrite_existing);
    auto written =
        w == 0 ? mseed::WriteMseedFile(tmp, ts, mseed::WriterOptions{})
               : mseed::AppendToMseedFile(tmp, ts, mseed::WriterOptions{},
                                          static_cast<int32_t>(records + 1));
    LAZYETL_RETURN_NOT_OK(written.status());
    records += written->num_records;
    // Strictly increasing mtimes: rewrites within one filesystem
    // timestamp tick must still look modified.
    fs::last_write_time(tmp, base_mtime + std::chrono::seconds(w + 1));
    fs::rename(tmp, live);
    if (w % 4 == 0) LAZYETL_RETURN_NOT_OK(wh->Refresh().status());
    acked.store((w + 1) * kChunk);
    return Status::OK();
  };
  ASSERT_STATUS_OK(write(0));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answers{0};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const uint64_t floor = acked.load();
        auto result = wh->Query(sql);
        const uint64_t ceiling = started.load();
        if (!result.ok()) {
          if (failed.fetch_add(1) == 0) {
            ADD_FAILURE() << result.status().ToString();
          }
          continue;
        }
        const auto count =
            static_cast<uint64_t>(result->table.GetValue(0, 0).int64_value());
        if (count < floor || count > ceiling) wrong.fetch_add(1);
        answers.fetch_add(1);
      }
    });
  }
  Status writer_status;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  for (size_t w = 1; w < kMaxWrites && writer_status.ok() &&
                     std::chrono::steady_clock::now() < until;
       ++w) {
    writer_status = write(w);
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  ASSERT_STATUS_OK(writer_status);
  EXPECT_GT(answers.load(), 0u);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u) << "of " << answers.load() << " answers";
}

}  // namespace
}  // namespace lazyetl::core
