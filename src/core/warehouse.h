// Warehouse: the public API of the Lazy ETL system.
//
// A Warehouse wraps the column-store catalog, the SQL front-end, the query
// engine, and the ETL machinery. It can be bootstrapped from an mSEED
// repository three ways (§3, §4 demo point 1):
//
//   kEager            traditional ETL: extract, transform and load every
//                     sample before the first query.
//   kLazy             the paper's approach: initial loading reads only the
//                     file and record control headers; actual data is
//                     extracted/transformed/loaded on demand per query.
//   kLazyFilenameOnly even lazier: initial loading parses only the SDS
//                     filenames ("the file does not even need to be read");
//                     record metadata is hydrated at query time for
//                     candidate files.
//
// Concurrency: one Warehouse instance safely serves many concurrent
// Query() callers. Admission is controlled by a policy-driven
// QueryScheduler (`max_concurrent_queries`; priority classes, weighted
// per-client fair share, queue timeouts and footprint-aware admission via
// QueryOptions), each admitted query gets a MemoryBudget
// carved from the process-global cap, and all shared mutable state — the
// record/result recyclers, the catalog tables, the file registry with its
// hydration/lazy-refresh machinery — is synchronized internally:
// catalog tables are copy-on-write published (executing queries scan
// immutable snapshots), the registry sits behind a reader/writer lock, and
// the caches are lock-protected with atomic counters. A query's results
// under concurrent load are byte-identical to running it alone; cache
// evictions and scheduler queuing only ever change timings.
//
// Usage:
//   WarehouseOptions options;
//   options.strategy = LoadStrategy::kLazy;
//   auto wh = *Warehouse::Open(options);
//   wh->AttachRepository("/data/orfeus-pond");
//   auto result = wh->Query("SELECT AVG(D.sample_value) FROM mseed.dataview "
//                           "WHERE F.station = 'ISK' ...");
//   std::cout << result->table.ToString() << result->report.ToString();

#ifndef LAZYETL_CORE_WAREHOUSE_H_
#define LAZYETL_CORE_WAREHOUSE_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/memory_pool.h"
#include "common/query_scheduler.h"
#include "common/result.h"
#include "common/status.h"
#include "common/time.h"
#include "engine/column_cache.h"
#include "engine/executor.h"
#include "engine/plan_cache.h"
#include "engine/recycler.h"
#include "engine/report.h"
#include "mseed/reader.h"
#include "storage/catalog.h"

namespace lazyetl::engine {
struct PlannedQuery;
}  // namespace lazyetl::engine

namespace lazyetl::core {

enum class LoadStrategy {
  kEager,
  kLazy,
  kLazyFilenameOnly,
};

const char* LoadStrategyToString(LoadStrategy s);

struct WarehouseOptions {
  LoadStrategy strategy = LoadStrategy::kLazy;
  // Recycler budget for cached record intermediates (§3.3: "not larger
  // than the size of system's main memory"; default 256 MiB).
  uint64_t cache_budget_bytes = 256ULL << 20;
  // Whole-query result recycling (end results of views, §3.3).
  bool enable_result_cache = true;
  // Record/file pruning inferred from D.sample_time predicates. On by
  // default; off reproduces a system without record-granularity metadata
  // exploitation (the E10 ablation).
  bool enable_metadata_pruning = true;
  // When non-empty and the strategy is eager, the loaded tables are also
  // persisted here (for the storage-footprint experiment and reopening).
  std::string persist_dir;
  // Worker threads for lazy extraction. Files are independent units of
  // work (open + decode + transform), so multi-file fetches parallelise
  // cleanly on the shared common::ThreadPool; cache admission and table
  // assembly stay single-threaded. 1 = fully serial. The streaming fetch
  // extracts in windows of this many files, bounding peak
  // extracted-but-unconsumed data.
  unsigned extraction_threads = 1;
  // Worker threads for query execution (morsel-driven parallelism in the
  // batch pipeline). 0 = hardware_concurrency; 1 = the serial path.
  size_t query_threads = 0;
  // Admission control: at most this many Query() calls execute
  // concurrently; further callers wait per the admission policy (strict
  // priority classes, weighted fair share across client ids, FIFO within
  // a class+client — plain FIFO when every query uses the defaults).
  // 0 = unbounded (the LAZYETL_MAX_CONCURRENT_QUERIES environment
  // variable supplies a default when unset). With a bounded scheduler and
  // a finite global budget, each admitted query's memory budget is carved
  // as an equal share of the global cap (or from its footprint estimate,
  // see footprint_aware_admission).
  size_t max_concurrent_queries = 0;
  // Default admission-queue timeout applied to queries that do not set
  // QueryOptions::queue_timeout_ms themselves. 0 = no timeout (the
  // LAZYETL_QUEUE_TIMEOUT_MS environment variable supplies a default when
  // unset). A query that times out before admission fails with
  // Status::DeadlineExceeded without having touched any state — no slot,
  // budget reservation or spill directory is leaked.
  int64_t queue_timeout_ms = 0;
  // Footprint-aware admission: estimate each query's peak memory need
  // from its plan (pipeline-breaker inputs + cold-extraction file bytes
  // from registry metadata), gate admission on global-budget headroom,
  // and carve its per-query budget from the estimate instead of the blind
  // equal share. Small queries may be admitted past a footprint-blocked
  // large one (bounded bypassing — common::kMaxAdmissionBypasses — so the
  // large query is never starved). Off by default (admission is then
  // byte-identical to strict FIFO); the LAZYETL_FOOTPRINT_ADMISSION
  // environment variable supplies a default when unset.
  bool footprint_aware_admission = false;
  // Memory governance: per-query cap on resident pipeline-breaker state
  // (Sort, Aggregate, Distinct, HashJoin build). 0 = unlimited; the
  // LAZYETL_MEMORY_BUDGET environment variable supplies a default when
  // unset. With a finite budget, breakers spill to disk and stream the
  // state back — results are byte-identical to the unbudgeted run.
  // Recycler admissions and extraction windows are charged to the same
  // budget chain, so lazy ETL and query execution share one cap.
  uint64_t memory_budget_bytes = 0;
  // Directory for spill files ("" = LAZYETL_SPILL_DIR, else system temp).
  std::string spill_dir;
  // Multi-tier caching. Tri-state knobs: -1 = resolve from the
  // environment (LAZYETL_COLUMN_CACHE / LAZYETL_PLAN_CACHE, values
  // 1/true/on/yes enable), 0 = off, 1 = on. Both tiers default OFF; off
  // reproduces the two-tier (record + whole-result) behavior
  // byte-identically.
  //
  // The decoded-column tier caches assembled, publish-encoded extraction
  // outputs per (file, column set, seq window), shared zero-copy across
  // queries; the sub-plan tier caches pipeline-breaker outputs keyed by a
  // canonical plan-subtree fingerprint and substitutes them before
  // execution. Caches only ever change timings, never results.
  int enable_column_cache = -1;
  int enable_plan_cache = -1;
  // Per-tier resident-byte shares (0 = resolve from LAZYETL_COLUMN_CACHE_
  // BUDGET / LAZYETL_PLAN_CACHE_BUDGET, default 64 MiB each; suffixes
  // k/m/g accepted).
  uint64_t column_cache_budget_bytes = 0;
  uint64_t plan_cache_budget_bytes = 0;
  // Shared cache-pool cap across every tier including the record
  // recycler (0 = resolve from LAZYETL_CACHE_POOL_BUDGET, default
  // unlimited — each tier then only honors its own share). The pool is
  // chained to the process-global MemoryBudget either way.
  uint64_t cache_pool_budget_bytes = 0;
  // Rows per engine pipeline batch. Intermediates of pipelined plans are
  // bounded by O(batch_rows × pipeline depth).
  size_t batch_rows = engine::kDefaultBatchRows;
  // Streaming cursors (OpenCursor): result batches buffered ahead of the
  // consumer before morsel dispatch suspends (the backpressure window —
  // a slow client stalls the drive loop instead of buffering the result).
  // 0 = resolve from LAZYETL_CURSOR_WINDOW_BATCHES, default 4.
  size_t cursor_window_batches = 0;
  // Priority aging for the admission queue: a waiter stuck behind
  // higher-priority arrivals is promoted one priority class per this many
  // milliseconds of queue wait, so sustained HIGH load cannot starve LOW
  // indefinitely. 0 = resolve from LAZYETL_PRIORITY_AGING_MS; < 0 = off.
  // Off (the default) preserves the strict class order byte-identically.
  int64_t priority_aging_ms = 0;
  // Mirror the operation log to stderr.
  bool echo_log = false;
};

struct LoadStats {
  size_t files = 0;
  size_t records = 0;
  uint64_t samples_loaded = 0;   // 0 for lazy strategies
  uint64_t bytes_read = 0;       // actual bytes read from the repository
  double seconds = 0;
};

struct RefreshStats {
  size_t new_files = 0;
  size_t modified_files = 0;
  size_t deleted_files = 0;
  uint64_t bytes_read = 0;
  double seconds = 0;
};

struct QueryResult {
  storage::Table table;
  engine::ExecutionReport report;
};

// Per-query scheduling knobs for workload-aware admission. The defaults
// reproduce strict-FIFO admission exactly.
struct QueryOptions {
  // Priority class: strict ordering between classes (HIGH admitted before
  // NORMAL before LOW), FIFO within a class+client.
  common::QueryPriority priority = common::QueryPriority::kNormal;
  // Fair-share tenant key: within a priority class, waiters of distinct
  // client ids are admitted in weighted round-robin rotation so no tenant
  // monopolizes the slots. "" = the shared anonymous tenant.
  std::string client_id;
  // Admissions this client receives per fair-share rotation turn (>= 1).
  uint32_t client_weight = 1;
  // Admission-queue timeout: > 0 = fail with Status::DeadlineExceeded
  // after this many ms in the queue; 0 = use the warehouse default
  // (WarehouseOptions::queue_timeout_ms / LAZYETL_QUEUE_TIMEOUT_MS);
  // < 0 = never time out, overriding the default.
  int64_t queue_timeout_ms = 0;
};

// A streaming query handle: the admitted execution pipeline stays
// suspended between Next() calls, yielding the result in batch-sized
// tables instead of materializing it whole. Produced by
// Warehouse::OpenCursor; the warehouse must outlive the cursor.
//
// Lifecycle: the cursor holds its admission ticket (scheduler slot), the
// budget carved for it, and its spill directory from OpenCursor until
// Close() — which is idempotent, implied by the destructor, and safe at
// any point mid-stream (client disconnect, LIMIT satisfied): the drive
// loop is cancelled and joined, and ticket/budget/spill state is
// released exactly once. Single consumer: Next/Close from one thread at
// a time; different cursors are independent and may run concurrently.
//
// One lifecycle: OpenCursor() and Query() run the same preparation stage
// (admission, parse/bind, lazy refresh and hydration, planning, sub-plan
// and result-cache probes). They differ only in the backpressure window
// and in Query()'s drain and the cache admissions only a materialized
// result can make. So batches arrive in serial seq order and their
// concatenation is byte-identical to Query(sql).table; the first batch
// always carries the result schema (possibly with zero rows). A
// still-valid cached whole result is streamed in batch-sized chunks.
// Streamed results are not admitted to the whole-result cache, and a
// sub-plan miss executes the original plan without populating the tier.
class QueryCursor {
 public:
  ~QueryCursor();
  QueryCursor(const QueryCursor&) = delete;
  QueryCursor& operator=(const QueryCursor&) = delete;

  // Fills *out with the next result batch (an owned table, valid after
  // the cursor advances or closes); returns false at end of stream, after
  // finalizing report(). Errors (extraction I/O, mid-spill failures) are
  // sticky and release resources like Close.
  Result<bool> Next(storage::Table* out);

  // Tears down the pipeline and releases ticket/budget/spill exactly
  // once. After Close, Next returns end-of-stream.
  void Close();

  // The execution report; admission fields (ticket_id,
  // queue_wait_seconds, priority, client_id, admitted_budget_bytes) are
  // valid from OpenCursor on — identical to the materializing path —
  // and the remaining counters are final once the stream ends.
  const engine::ExecutionReport& report() const;

  // Rows delivered through Next so far.
  uint64_t rows_streamed() const;

  // Peak result bytes resident between the drive loop and the consumer —
  // O(window × batch) by construction, vs O(result) for Query().
  uint64_t peak_buffered_bytes() const;

 private:
  friend class Warehouse;
  QueryCursor();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct WarehouseStats {
  LoadStrategy strategy = LoadStrategy::kLazy;
  size_t num_files = 0;
  size_t num_hydrated_files = 0;
  uint64_t catalog_bytes = 0;         // in-memory table footprint
  uint64_t repository_bytes = 0;      // summed source file sizes
  engine::RecyclerStats cache;
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_entries = 0;
  // Multi-tier caching: per-tier counters and the shared pool snapshot
  // (zeroed when the tier/pool is disabled).
  engine::ColumnCacheStats column_cache;
  engine::PlanCacheStats plan_cache;
  common::MemoryPoolStats cache_pool;
  // Scheduler observability: total admissions, queue timeouts and
  // footprint-bypass admissions, and the current number of executing /
  // queued queries (racy snapshots).
  uint64_t queries_admitted = 0;
  uint64_t queries_timed_out = 0;
  uint64_t queries_bypass_admitted = 0;
  size_t queries_active = 0;
  size_t queries_waiting = 0;
};

class Warehouse {
 public:
  static Result<std::unique_ptr<Warehouse>> Open(WarehouseOptions options);

  ~Warehouse();
  Warehouse(const Warehouse&) = delete;
  Warehouse& operator=(const Warehouse&) = delete;

  // Performs initial loading of the repository rooted at `root` according
  // to the configured strategy. May be called for multiple roots.
  Result<LoadStats> AttachRepository(const std::string& root);

  // Re-opens an eagerly-loaded warehouse previously persisted through
  // `options.persist_dir`, skipping ETL entirely. Only valid on a fresh
  // kEager warehouse; restores tables, the file registry, and the attached
  // repository roots (so Refresh() keeps working).
  Result<LoadStats> AttachPersisted(const std::string& persist_dir);

  // Parses, binds, plans, and executes `sql`: OpenCursor()'s preparation
  // stage with an unbounded window, drained into one table, after which
  // the sub-plan (on a miss) and the whole result are admitted to their
  // caches. The report documents plan reorganisation, run-time
  // rewriting, extraction and cache activity — plus, under concurrent
  // serving, the admission ticket, queue wait, priority class and carved
  // budget. Safe to call from many threads at once. The one-argument form
  // runs with default QueryOptions (NORMAL priority, anonymous tenant,
  // warehouse-default timeout).
  Result<QueryResult> Query(const std::string& sql);
  Result<QueryResult> Query(const std::string& sql,
                            const QueryOptions& query_options);

  // Streaming form of Query(): the same preparation stage (same
  // priorities, fair share, queue timeouts — a timeout fails here with
  // Status::DeadlineExceeded before any state is touched), returning a
  // cursor that yields the result batch-by-batch. See QueryCursor for
  // lifecycle and backpressure; WarehouseOptions::cursor_window_batches
  // bounds what a slow consumer can keep buffered.
  Result<std::unique_ptr<QueryCursor>> OpenCursor(const std::string& sql);
  Result<std::unique_ptr<QueryCursor>> OpenCursor(
      const std::string& sql, const QueryOptions& query_options);

  // Parses, binds, and plans `sql` without executing it (the compile part
  // of the preparation stage): the report holds the naive plan and the
  // reorganised (metadata-first) plan. No data is touched, no metadata is
  // hydrated, and no admission ticket is needed.
  Result<engine::ExecutionReport> Explain(const std::string& sql);

  // Re-scans attached repositories: registers new files, refreshes the
  // metadata of modified ones (and drops deleted ones). Actual data held
  // in the cache is refreshed lazily at query time via mtime checks; with
  // the eager strategy modified files are re-loaded here. Safe to call
  // concurrently with queries (it serialises with hydration, and
  // executing queries keep scanning their catalog snapshots).
  Result<RefreshStats> Refresh();

  // Drops all cached intermediates and results (cold-cache measurements).
  void ClearCaches();

  // Zeroes the cache hit/miss/eviction counters while keeping the cached
  // contents (clean hot-cache measurements).
  void ResetCacheCounters();

  const storage::Catalog& catalog() const { return *catalog_; }
  WarehouseStats Stats() const;
  const WarehouseOptions& options() const { return options_; }

  // Paths of the attached repository roots (snapshot).
  std::vector<std::string> repositories() const;

 private:
  friend class WarehouseDataProvider;
  friend class WarehouseRecordStream;

  // Everything known about one source file. Field access is guarded by
  // meta_mu_; `metadata` is an immutable snapshot — re-hydration swaps in
  // a new one, so extraction jobs holding the old snapshot stay safe.
  struct FileEntry {
    int64_t file_id = 0;
    std::string path;
    NanoTime mtime = 0;      // as of the last metadata (re)load
    uint64_t size = 0;
    bool hydrated = false;   // record metadata present?
    std::shared_ptr<const mseed::FileMetadata> metadata;  // when hydrated
    std::map<int64_t, size_t> seq_to_record;  // seq_no -> records index
  };

  // Copy-on-write session over catalog tables: Mutable() clones a table
  // on first access, Publish() swaps the clones into the catalog so
  // concurrently executing queries keep their immutable snapshots, and
  // bumps the result cache's admission epoch. The whole session must run
  // under an exclusive meta_mu_ lock.
  class CatalogWriter;

  explicit Warehouse(WarehouseOptions options);

  // The *Locked helpers require meta_mu_ held exclusively and stage their
  // table changes in `writer` (published by the caller).
  Status AttachFileLocked(const std::string& path, CatalogWriter* writer,
                          LoadStats* stats);
  Status LoadFileEagerLocked(FileEntry* entry, CatalogWriter* writer,
                             LoadStats* stats);
  Status LoadFileMetadataLocked(FileEntry* entry, CatalogWriter* writer,
                                LoadStats* stats);
  Status LoadFileFromFilenameLocked(FileEntry* entry, CatalogWriter* writer);

  // Fills entry->metadata by scanning record headers; appends R rows.
  Status HydrateFileLocked(FileEntry* entry, CatalogWriter* writer,
                           uint64_t* bytes_read);

  // Loads a dataless SEED volume (ASCII control headers) into the
  // mseed.stations / mseed.channels inventory tables. Idempotent per path.
  Status LoadDatalessInventoryLocked(const std::string& path,
                                     CatalogWriter* writer, LoadStats* stats);

  // Drops a modified file's table rows and cache entries and re-loads its
  // metadata per the current strategy (shared by Refresh() and the lazy
  // query-time staleness pass).
  Status ReloadModifiedFileLocked(FileEntry* entry, CatalogWriter* writer,
                                  uint64_t* bytes_read);

  // File ids matching the query's file-level predicates (all files when
  // the query has none). Used to bound hydration and staleness checks.
  // Reads only an immutable catalog snapshot — no lock needed.
  Result<std::vector<int64_t>> CandidateFileIds(const sql::BoundQuery& query);

  // Footprint-aware admission: summed source-file bytes of the query's
  // candidate files, from registry metadata — the cold-extraction term of
  // the plan footprint estimate.
  Result<uint64_t> EstimateColdExtractionBytes(const sql::BoundQuery& query);

  // Resolves a query's effective admission-queue timeout from its options
  // and the warehouse default (see QueryOptions::queue_timeout_ms).
  int64_t ResolveQueueTimeoutMs(int64_t query_timeout_ms) const;

  // Lazy refresh (§3.3) at query time: stats the candidate files and
  // re-loads metadata of any whose mtime changed since it was read.
  // Takes meta_mu_ shared for the checks, exclusive only when a stale
  // file must actually be re-loaded.
  Status RefreshStaleCandidates(const sql::BoundQuery& query,
                                engine::ExecutionReport* report);

  // Filename-only strategy: hydrate record metadata of the files matching
  // the query's file-level predicates (called before planning when the
  // query needs R or D columns). Same locking shape as the lazy refresh.
  Status HydrateForQuery(const sql::BoundQuery& query,
                         engine::ExecutionReport* report);

  // Current mtime of a file, or -1 when it cannot be statted.
  NanoTime CurrentMtime(const std::string& path) const;

  // True while every dependency still has its recorded mtime.
  bool DepsFresh(const std::vector<engine::ResultDependency>& deps) const;

  // The compile steps shared by the query lifecycle and Explain(); each
  // records its phase time in `report`.
  Result<sql::BoundQuery> ParseAndBind(const std::string& sql,
                                       engine::ExecutionReport* report);
  Result<engine::PlannedQuery> PlanBound(const sql::BoundQuery& bound,
                                         engine::ExecutionReport* report);

  // The query lifecycle, written once: admission (ticket first, or after
  // planning when footprint-aware), parse/bind, lazy refresh, hydration,
  // planning, the sub-plan and result-cache probes (re-checked after the
  // queue wait), and the execution cursor over `window_batches` (0 =
  // unbounded, the materializing Query()).
  Result<std::unique_ptr<QueryCursor>> Prepare(
      const std::string& sql, const QueryOptions& query_options,
      size_t window_batches);

  Result<storage::TablePtr> FilesTable() const;
  Result<storage::TablePtr> RecordsTable() const;
  Result<storage::TablePtr> DataTable() const;

  bool IsLazyStrategy() const {
    return options_.strategy != LoadStrategy::kEager;
  }

  WarehouseOptions options_;
  std::unique_ptr<storage::Catalog> catalog_;
  // The shared cache pool must outlive every tier charging it (the tiers
  // release their resident bytes and unregister their yielders on
  // destruction), so it is declared first.
  std::unique_ptr<common::MemoryPool> cache_pool_;
  std::unique_ptr<engine::Recycler> recycler_;
  std::unique_ptr<engine::ColumnCache> column_cache_;  // null = tier off
  std::unique_ptr<engine::PlanCache> plan_cache_;      // null = tier off
  std::unique_ptr<engine::ResultRecycler> result_recycler_;
  std::unique_ptr<common::QueryScheduler> scheduler_;

  // Reader/writer lock over the file registry and every catalog-table
  // mutation (hydration, refresh, attach). Queries take it shared for
  // registry reads and exclusive only for the short metadata fix-up
  // sections; execution itself runs lock-free on catalog snapshots — no
  // global query lock.
  mutable std::shared_mutex meta_mu_;
  // Deque for address stability: attach only appends and refresh only
  // tombstones, so FileEntry pointers held briefly under the lock never
  // dangle from growth.
  std::deque<FileEntry> files_;                   // indexed by file_id - 1
  std::map<std::string, int64_t> path_to_file_id_;
  std::vector<std::string> roots_;
  std::set<std::string> dataless_paths_;  // inventories already loaded
  std::atomic<uint64_t> result_cache_hits_{0};
};

}  // namespace lazyetl::core

#endif  // LAZYETL_CORE_WAREHOUSE_H_
