#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/memory_budget.h"
#include "engine/recycler.h"

#include "common/memory_pool.h"
#include "test_util.h"

namespace lazyetl::engine {
namespace {

CachedRecord MakeRecord(size_t samples, NanoTime mtime) {
  CachedRecord rec;
  rec.sample_times.resize(samples, 1);
  rec.sample_values.resize(samples, 2);
  rec.file_mtime = mtime;
  rec.admitted_at = 100;
  return rec;
}

TEST(RecyclerTest, AdmitAndLookup) {
  Recycler cache(1 << 20);
  cache.Admit({1, 1}, MakeRecord(10, 500));
  bool stale = false;
  CachedRecordPtr hit = cache.Lookup({1, 1}, 500, &stale);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(stale);
  EXPECT_EQ(hit->sample_times.size(), 10u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().admissions, 1u);
}

TEST(RecyclerTest, MissOnAbsentKey) {
  Recycler cache(1 << 20);
  bool stale = true;
  EXPECT_EQ(cache.Lookup({9, 9}, 0, &stale), nullptr);
  EXPECT_FALSE(stale);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(RecyclerTest, StaleEntryEvictedOnMtimeChange) {
  Recycler cache(1 << 20);
  cache.Admit({1, 1}, MakeRecord(10, 500));
  bool stale = false;
  // File was modified: mtime differs.
  EXPECT_EQ(cache.Lookup({1, 1}, 501, &stale), nullptr);
  EXPECT_TRUE(stale);
  EXPECT_EQ(cache.stats().stale, 1u);
  // The entry is gone now even with the original mtime.
  EXPECT_EQ(cache.Lookup({1, 1}, 500), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(RecyclerTest, LruEvictionUnderBudget) {
  // Each 100-sample record costs 100*(8+4) + sizeof(CachedRecord) bytes.
  CachedRecord probe = MakeRecord(100, 1);
  uint64_t per_entry = 100 * 12 + sizeof(CachedRecord);
  Recycler cache(per_entry * 3);
  cache.Admit({1, 1}, MakeRecord(100, 1));
  cache.Admit({1, 2}, MakeRecord(100, 1));
  cache.Admit({1, 3}, MakeRecord(100, 1));
  EXPECT_EQ(cache.stats().entries, 3u);
  // Touch (1,1) so (1,2) becomes LRU.
  EXPECT_NE(cache.Lookup({1, 1}, 1), nullptr);
  cache.Admit({1, 4}, MakeRecord(100, 1));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Lookup({1, 2}, 1), nullptr);  // evicted
  EXPECT_NE(cache.Lookup({1, 1}, 1), nullptr);  // survived
  EXPECT_NE(cache.Lookup({1, 4}, 1), nullptr);
  (void)probe;
}

TEST(RecyclerTest, OversizedEntryNotAdmitted) {
  Recycler cache(100);
  cache.Admit({1, 1}, MakeRecord(1000, 1));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup({1, 1}, 1), nullptr);
}

TEST(RecyclerTest, ReplacingEntryKeepsAccounting) {
  Recycler cache(1 << 20);
  cache.Admit({1, 1}, MakeRecord(10, 1));
  uint64_t bytes_small = cache.stats().current_bytes;
  cache.Admit({1, 1}, MakeRecord(20, 2));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GT(cache.stats().current_bytes, bytes_small);
  CachedRecordPtr hit = cache.Lookup({1, 1}, 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->sample_times.size(), 20u);
}

TEST(RecyclerTest, InvalidateFileDropsAllItsRecords) {
  Recycler cache(1 << 20);
  cache.Admit({1, 1}, MakeRecord(10, 1));
  cache.Admit({1, 2}, MakeRecord(10, 1));
  cache.Admit({2, 1}, MakeRecord(10, 1));
  cache.InvalidateFile(1);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.Lookup({1, 1}, 1), nullptr);
  EXPECT_EQ(cache.Lookup({1, 2}, 1), nullptr);
  EXPECT_NE(cache.Lookup({2, 1}, 1), nullptr);
}

TEST(RecyclerTest, ClearAndResetCounters) {
  Recycler cache(1 << 20);
  cache.Admit({1, 1}, MakeRecord(10, 1));
  EXPECT_NE(cache.Lookup({1, 1}, 1), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().current_bytes, 0u);
  // Counters survive Clear but reset with ResetCounters.
  EXPECT_GT(cache.stats().hits, 0u);
  cache.ResetCounters();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().budget_bytes, 1u << 20);
}

TEST(RecyclerTest, KeysInLruOrder) {
  Recycler cache(1 << 20);
  cache.Admit({1, 1}, MakeRecord(1, 1));
  cache.Admit({1, 2}, MakeRecord(1, 1));
  cache.Admit({1, 3}, MakeRecord(1, 1));
  EXPECT_NE(cache.Lookup({1, 1}, 1), nullptr);  // bump to MRU
  auto keys = cache.Keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys.front().seq_no, 2);  // LRU
  EXPECT_EQ(keys.back().seq_no, 1);   // MRU
}

TEST(RecyclerTest, GlobalPressureEvictsInLruOrder) {
  // A finite governed pool bounds the cache to half the global cap even
  // though the cache's own budget has room: entries must leave strictly
  // least-recently-used first at that share boundary.
  uint64_t per_entry = 100 * 12 + sizeof(CachedRecord);
  common::MemoryBudget global(per_entry * 8);  // cache share: 4 entries
  common::MemoryPool pool(0, &global);
  Recycler cache(1 << 20, &pool);
  for (int seq = 1; seq <= 4; ++seq) {
    cache.Admit({1, seq}, MakeRecord(100, 1));
  }
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(global.used(), per_entry * 4);

  // Touch (1,1) so (1,2) is LRU; the next admission must evict exactly
  // (1,2) at the share boundary — never the recently-used entry.
  EXPECT_NE(cache.Lookup({1, 1}, 1), nullptr);
  cache.Admit({1, 5}, MakeRecord(100, 1));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 4u);  // stays at the half-cap share
  EXPECT_EQ(cache.Lookup({1, 2}, 1), nullptr);  // the LRU victim
  EXPECT_NE(cache.Lookup({1, 1}, 1), nullptr);
  EXPECT_NE(cache.Lookup({1, 5}, 1), nullptr);
  // The governor never over-commits, and the cache never exceeds half of
  // the global cap — queries always keep reclaim-free headroom.
  EXPECT_LE(global.used(), global.limit());
  EXPECT_LE(cache.stats().current_bytes, global.limit() / 2);

  // Exhaust the remaining global headroom from the outside (concurrent
  // queries reserving state): the next admission yields LRU entries —
  // boundedly — and either fits or is rejected; the cap always holds.
  while (global.TryReserve(per_entry)) {
  }
  cache.Admit({1, 6}, MakeRecord(100, 1));
  EXPECT_LE(global.used(), global.limit());
  EXPECT_EQ(cache.stats().rejected + cache.stats().admissions, 6u);
}

TEST(RecyclerTest, HandleSurvivesEviction) {
  // A lookup handle must stay readable after the entry is evicted by a
  // later admission (the concurrent-query safety contract).
  uint64_t per_entry = 100 * 12 + sizeof(CachedRecord);
  Recycler cache(per_entry);  // room for exactly one entry
  cache.Admit({1, 1}, MakeRecord(100, 7));
  CachedRecordPtr hit = cache.Lookup({1, 1}, 7);
  ASSERT_NE(hit, nullptr);
  cache.Admit({1, 2}, MakeRecord(100, 7));  // evicts (1,1)
  EXPECT_EQ(cache.Lookup({1, 1}, 7), nullptr);
  EXPECT_EQ(hit->sample_times.size(), 100u);  // still valid
  EXPECT_EQ(hit->file_mtime, 7);
}

TEST(RecyclerTest, ConcurrentMixedUseKeepsCountersConsistent) {
  uint64_t per_entry = 10 * 12 + sizeof(CachedRecord);
  Recycler cache(per_entry * 8);
  constexpr int kThreads = 8;
  constexpr int kOps = 400;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        RecordKey key{1 + (i + t) % 4, (i * 7 + t) % 16};
        if (i % 3 == 0) {
          cache.Admit(key, MakeRecord(10, 1));
        } else {
          bool stale = false;
          CachedRecordPtr hit = cache.Lookup(key, 1, &stale);
          if (hit != nullptr) {
            // Reading through the handle must always be safe.
            EXPECT_EQ(hit->sample_times.size(), 10u);
          }
        }
        if (i % 97 == 0) cache.InvalidateFile(2);
      }
    });
  }
  for (auto& w : workers) w.join();
  RecyclerStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses + s.stale,
            static_cast<uint64_t>(kThreads) * ((kOps * 2) / 3));
  EXPECT_LE(s.current_bytes, per_entry * 8);
  EXPECT_EQ(s.entries, cache.Keys().size());
}

TEST(ResultRecyclerTest, HitMissAndInvalidation) {
  ResultRecycler cache;
  CachedResult result;
  ASSERT_STATUS_OK(result.table.AddColumn(
      "x", storage::Column::FromInt64({42})));
  result.deps = {{1, "/repo/a.mseed", 100}};
  cache.Admit("SELECT 1", std::move(result), cache.epoch());

  // All deps unchanged -> hit.
  auto unchanged = [](const ResultDependency& d) { return d.mtime; };
  CachedResultPtr hit = cache.ValidateAndGet("SELECT 1", unchanged);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->table.num_rows(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  // Unknown query -> miss.
  EXPECT_EQ(cache.ValidateAndGet("SELECT 2", unchanged), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  // Changed dependency -> invalidated and removed.
  auto changed = [](const ResultDependency& d) { return d.mtime + 1; };
  EXPECT_EQ(cache.ValidateAndGet("SELECT 1", changed), nullptr);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ResultRecyclerTest, BoundedEntries) {
  ResultRecycler cache(2);
  for (int i = 0; i < 5; ++i) {
    CachedResult r;
    cache.Admit("q" + std::to_string(i), std::move(r), cache.epoch());
  }
  EXPECT_LE(cache.entries(), 2u);
}

// A result computed before a catalog publish carries dependency mtimes
// read after it: admission must refuse it, exactly like PlanCache::Admit.
TEST(ResultRecyclerTest, AdmissionRefusedAfterEpochBump) {
  ResultRecycler cache;
  auto unchanged = [](const ResultDependency& d) { return d.mtime; };
  CachedResult result;
  result.deps = {{1, "/repo/a.mseed", 100}};

  const uint64_t observed = cache.epoch();
  cache.BumpEpoch();  // a catalog publish between planning and admission
  cache.Admit("SELECT 1", result, observed);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.ValidateAndGet("SELECT 1", unchanged), nullptr);

  // Clear() bumps too.
  const uint64_t before_clear = cache.epoch();
  cache.Clear();
  cache.Admit("SELECT 1", result, before_clear);
  EXPECT_EQ(cache.entries(), 0u);

  // An admission that observed the current epoch is accepted.
  cache.Admit("SELECT 1", result, cache.epoch());
  EXPECT_NE(cache.ValidateAndGet("SELECT 1", unchanged), nullptr);
}

}  // namespace
}  // namespace lazyetl::engine
