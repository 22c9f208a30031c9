#include "core/warehouse.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/log.h"
#include "common/macros.h"
#include "common/memory_budget.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/etl.h"
#include "core/schema.h"
#include "engine/expr_eval.h"
#include "engine/operators/operator.h"
#include "engine/planner.h"
#include "engine/query_context.h"
#include "mseed/dataless.h"
#include "mseed/repository.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/persist.h"

namespace lazyetl::core {

namespace fs = std::filesystem;

using engine::CachedRecord;
using engine::ExecutionReport;
using engine::RecordKey;
using engine::ScanColumn;
using storage::Column;
using storage::Table;
using storage::TablePtr;
using storage::Value;

const char* LoadStrategyToString(LoadStrategy s) {
  switch (s) {
    case LoadStrategy::kEager:
      return "eager";
    case LoadStrategy::kLazy:
      return "lazy";
    case LoadStrategy::kLazyFilenameOnly:
      return "lazy-filename-only";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// CatalogWriter: copy-on-write sessions over catalog tables.
//
// Every mutation of a published table (hydration appending R rows, refresh
// removing a modified file's rows, eager loading) stages its changes in a
// private clone and publishes the clones atomically per table. Executing
// queries keep scanning the snapshot they grabbed at operator-build time —
// the reason concurrent Query() needs no global lock around execution.
// Sessions must run under an exclusive meta_mu_ so two writers never race
// on clone-modify-publish.
// ---------------------------------------------------------------------------

class Warehouse::CatalogWriter {
 public:
  explicit CatalogWriter(Warehouse* warehouse) : warehouse_(warehouse) {}

  // A session that errors out mid-way still publishes what it staged:
  // registry entries (FileEntry.hydrated, metadata, tombstones) are
  // mutated in place as each file is processed, so discarding the staged
  // rows would desynchronize registry and catalog permanently — e.g. a
  // file marked hydrated whose R rows were thrown away. Per-file failures
  // happen before that file's table mutations (the I/O comes first), so
  // the published state matches exactly what the pre-COW in-place code
  // left behind on the same error.
  ~CatalogWriter() { Publish(); }

  // Clone-on-first-use mutable copy of table `name`; one clone per session
  // no matter how many files touch it.
  Result<Table*> Mutable(const std::string& name) {
    auto it = copies_.find(name);
    if (it != copies_.end()) return it->second.get();
    LAZYETL_ASSIGN_OR_RETURN(TablePtr current,
                             warehouse_->catalog_->GetTable(name));
    auto copy = std::make_shared<Table>(*current);
    Table* raw = copy.get();
    copies_[name] = std::move(copy);
    return raw;
  }

  // Swaps every staged clone into the catalog, then bumps the result
  // cache's admission epoch: a query planned against the old tables must
  // not admit its result under the registry's new mtimes.
  void Publish() {
    if (copies_.empty()) return;
    for (auto& [name, table] : copies_) {
      warehouse_->catalog_->PutTable(name, table);
    }
    copies_.clear();
    warehouse_->result_recycler_->BumpEpoch();
  }

 private:
  Warehouse* warehouse_;
  std::map<std::string, TablePtr> copies_;
};

// ---------------------------------------------------------------------------
// WarehouseDataProvider: serves actual data at query time from the recycler
// cache or by extracting records from the source files (§3.1/§3.3). One
// provider exists per query (it carries the query's result-cache
// dependencies and its memory budget); the warehouse state it touches is
// synchronized behind meta_mu_ and the caches' own locks. The streaming
// interface emits the records file-by-file in batch-sized chunks,
// extracting a window of extraction_threads files at a time, so peak
// extracted-but-unconsumed memory is bounded by the window — never the
// whole qualifying set. The window's estimated bytes are charged to the
// query's MemoryBudget, so lazy extraction and pipeline-breaker state draw
// from the same cap (one resident file is the floor no budget undercuts).
// ---------------------------------------------------------------------------

class WarehouseRecordStream;

class WarehouseDataProvider : public engine::LazyDataProvider {
 public:
  WarehouseDataProvider(Warehouse* warehouse, engine::QueryContext* qctx)
      : warehouse_(warehouse), qctx_(qctx) {}

  const std::vector<engine::ResultDependency>& deps() const { return deps_; }

  common::MemoryBudget* query_budget() {
    return qctx_ != nullptr ? qctx_->budget() : nullptr;
  }

  Result<Table> FetchRecords(const std::vector<RecordKey>& keys,
                             const std::vector<ScanColumn>& columns,
                             ExecutionReport* report) override;

  Result<Table> FetchAllRecords(const std::vector<ScanColumn>& columns,
                                ExecutionReport* report) override;

  Result<std::unique_ptr<engine::RecordStream>> StreamRecords(
      const std::vector<RecordKey>& keys,
      const std::vector<ScanColumn>& columns, size_t batch_rows,
      ExecutionReport* report) override;

  Result<std::unique_ptr<engine::RecordStream>> StreamAllRecords(
      const std::vector<ScanColumn>& columns, size_t batch_rows,
      ExecutionReport* report) override;

 private:
  friend class WarehouseRecordStream;
  struct OutputBuffers {
    std::vector<int64_t> file_ids;
    std::vector<int64_t> seq_nos;
    std::vector<int64_t> sample_times;
    std::vector<int32_t> sample_values;

    void Append(int64_t fid, int64_t seq, const std::vector<int64_t>& times,
                const std::vector<int32_t>& values) {
      file_ids.insert(file_ids.end(), times.size(), fid);
      seq_nos.insert(seq_nos.end(), times.size(), seq);
      sample_times.insert(sample_times.end(), times.begin(), times.end());
      sample_values.insert(sample_values.end(), values.begin(), values.end());
    }
  };

  // One file's worth of pending extraction: which records to decode and,
  // after RunExtractionJobs, their transformed samples (or the error).
  // Holds an immutable metadata snapshot, so a concurrent re-hydration of
  // the same file (another query's lazy refresh) never races the decode.
  struct ExtractJob {
    std::shared_ptr<const mseed::FileMetadata> metadata;
    std::string path;
    int64_t file_id = 0;
    NanoTime mtime = 0;
    std::vector<size_t> record_indexes;  // sorted by file offset
    std::vector<int64_t> seq_nos;        // parallel to record_indexes
    std::vector<TransformedRecord> results;
    Status status;
  };

  // Executes the decode+transform of every job, in parallel when
  // options().extraction_threads > 1. Only job-local state is touched.
  Status RunExtractionJobs(std::vector<ExtractJob>* jobs);

  Result<Table> BuildOutput(OutputBuffers buffers,
                            const std::vector<ScanColumn>& columns);

  // Every record of the repository, hydrating record metadata as needed
  // (the §3.1 worst case).
  Result<std::vector<RecordKey>> AllRecordKeys(ExecutionReport* report);

  Warehouse* warehouse_;
  engine::QueryContext* qctx_;
  std::vector<engine::ResultDependency> deps_;
};

// Pull stream over the requested records: chunks of at most batch_rows
// rows, file by file, in (file_id, request) order — the same deterministic
// order the materialising fetch produced.
class WarehouseRecordStream : public engine::RecordStream {
 public:
  static Result<std::unique_ptr<engine::RecordStream>> Create(
      WarehouseDataProvider* provider, const std::vector<RecordKey>& keys,
      const std::vector<ScanColumn>& columns, size_t batch_rows,
      ExecutionReport* report);

  // The summary lines of the run-time rewrite are flushed when the stream
  // is drained; if a consumer stops early (LIMIT), flush what happened.
  ~WarehouseRecordStream() override {
    FlushSummary();
    ReleaseWindowBytes(outstanding_);
  }

  Result<bool> Next(Table* out) override;

 private:
  // One requested file, validated and refreshed at stream creation.
  struct FileRequest {
    int64_t fid = 0;
    NanoTime mtime = 0;
    std::vector<int64_t> seqs;  // requested records, in request order
  };

  // An assembled per-file table waiting to be chunk-emitted, plus the
  // window bytes it holds reserved on the query budget.
  struct ReadyTable {
    Table table;
    uint64_t reserved = 0;
  };

  WarehouseRecordStream(WarehouseDataProvider* provider,
                        std::vector<ScanColumn> columns, size_t batch_rows,
                        ExecutionReport* report)
      : provider_(provider),
        columns_(std::move(columns)),
        batch_rows_(batch_rows),
        report_(report) {
    // Canonical projection signature — the decoded-column cache key's
    // column component. Empty columns_ (= all columns) signs as "".
    for (const auto& sc : columns_) {
      columns_sig_ += sc.base_column;
      columns_sig_ += '>';
      columns_sig_ += sc.output_name;
      columns_sig_ += ',';
    }
  }

  // Cache pass + windowed extraction for the next run of files; pushes
  // their assembled tables onto ready_.
  Status AdvanceWindow();

  void ReleaseWindowBytes(uint64_t bytes) {
    if (bytes == 0) return;
    if (common::MemoryBudget* budget = provider_->query_budget()) {
      budget->Release(bytes);
    }
    outstanding_ -= bytes;
  }

  void FlushSummary();

  WarehouseDataProvider* provider_;
  std::vector<ScanColumn> columns_;
  size_t batch_rows_;
  ExecutionReport* report_;
  std::string columns_sig_;

  std::vector<FileRequest> files_;
  size_t next_file_ = 0;          // next file not yet cache-passed
  std::deque<ReadyTable> ready_;  // assembled per-file tables, fid order
  Table current_;                 // file table being chunk-emitted
  uint64_t current_reserved_ = 0;
  size_t current_offset_ = 0;
  bool current_active_ = false;
  uint64_t outstanding_ = 0;      // reserved window bytes not yet released

  uint64_t total_hits_ = 0;
  uint64_t column_hit_files_ = 0;
  std::vector<std::string> extracted_desc_;
  bool emitted_ = false;
  bool summary_written_ = false;
};

Status WarehouseDataProvider::RunExtractionJobs(std::vector<ExtractJob>* jobs) {
  auto run_one = [](ExtractJob* job) {
    auto samples =
        mseed::ReadSelectedRecords(*job->metadata, job->record_indexes);
    if (!samples.ok()) {
      job->status = samples.status();
      return;
    }
    job->results.reserve(job->record_indexes.size());
    for (size_t i = 0; i < job->record_indexes.size(); ++i) {
      const mseed::RecordInfo& info =
          job->metadata->records[job->record_indexes[i]];
      auto transformed = TransformRecord(info.header, (*samples)[i]);
      if (!transformed.ok()) {
        job->status = transformed.status().WithContext(
            "record " + std::to_string(job->seq_nos[i]) + " of " + job->path);
        return;
      }
      job->results.push_back(std::move(*transformed));
    }
  };

  unsigned threads = warehouse_->options().extraction_threads;
  if (threads <= 1 || jobs->size() <= 1) {
    for (auto& job : *jobs) run_one(&job);
    return Status::OK();
  }
  // The shared worker pool runs the per-file jobs; the calling thread
  // participates, so extraction windows driven from inside a parallel
  // query pipeline cannot deadlock on a saturated pool.
  common::ThreadPool::Shared().ParallelFor(
      jobs->size(), threads,
      [&](size_t i) { run_one(&(*jobs)[i]); });
  return Status::OK();
}

Result<Table> WarehouseDataProvider::BuildOutput(
    OutputBuffers buffers, const std::vector<ScanColumn>& columns) {
  // Empty column list means "all columns under their stored names".
  std::vector<ScanColumn> cols = columns;
  if (cols.empty()) {
    cols = {{"file_id", "file_id"},
            {"seq_no", "seq_no"},
            {"sample_time", "sample_time"},
            {"sample_value", "sample_value"}};
  }
  Table out;
  for (const auto& sc : cols) {
    Column col(storage::DataType::kInt64);
    if (sc.base_column == "file_id") {
      col = Column::FromInt64(buffers.file_ids);
    } else if (sc.base_column == "seq_no") {
      col = Column::FromInt64(buffers.seq_nos);
    } else if (sc.base_column == "sample_time") {
      col = Column::FromTimestamp(buffers.sample_times);
    } else if (sc.base_column == "sample_value") {
      col = Column::FromInt32(buffers.sample_values);
    } else {
      return Status::ExecutionError("lazy data table has no column '" +
                                    sc.base_column + "'");
    }
    LAZYETL_RETURN_NOT_OK(out.AddColumn(sc.output_name, std::move(col)));
  }
  return out;
}

Result<std::unique_ptr<engine::RecordStream>> WarehouseRecordStream::Create(
    WarehouseDataProvider* provider, const std::vector<RecordKey>& keys,
    const std::vector<ScanColumn>& columns, size_t batch_rows,
    ExecutionReport* report) {
  auto stream = std::unique_ptr<WarehouseRecordStream>(
      new WarehouseRecordStream(provider, columns, batch_rows, report));
  Warehouse* warehouse = provider->warehouse_;

  // Group requested records by file so each file is statted and opened at
  // most once, and validate/refresh every requested file up front: the
  // stat, staleness re-load and hydration are metadata-only work, and
  // recording all dependencies before any chunk is consumed keeps the
  // result cache sound even when a consumer (LIMIT) stops early. The
  // expensive part — cache lookups and sample extraction — stays deferred.
  std::map<int64_t, std::vector<int64_t>> by_file;
  for (const auto& k : keys) by_file[k.file_id].push_back(k.seq_no);

  // Pass 1 (shared lock): snapshot each requested file's registry state.
  struct Checked {
    int64_t fid = 0;
    std::string path;
    NanoTime entry_mtime = 0;
    bool hydrated = false;
  };
  std::vector<Checked> checks;
  checks.reserve(by_file.size());
  {
    std::shared_lock lock(warehouse->meta_mu_);
    for (const auto& [fid, seqs] : by_file) {
      if (fid < 1 || static_cast<size_t>(fid) > warehouse->files_.size() ||
          warehouse->files_[fid - 1].file_id == 0) {
        return Status::ExecutionError("unknown file_id " +
                                      std::to_string(fid));
      }
      const Warehouse::FileEntry& entry = warehouse->files_[fid - 1];
      checks.push_back({fid, entry.path, entry.mtime, entry.hydrated});
    }
  }

  // Pass 2 (no lock): stat the files and decide which need a fix-up.
  std::vector<int64_t> fix;
  for (const Checked& c : checks) {
    NanoTime mtime = warehouse->CurrentMtime(c.path);
    if (mtime < 0) {
      return Status::NotFound("source file disappeared during query: " +
                              c.path);
    }
    if (mtime != c.entry_mtime || !c.hydrated) fix.push_back(c.fid);
  }

  // Pass 3 (exclusive lock, only when needed): lazy refresh (§3.3) — a
  // requested file changed since its metadata was loaded, or was never
  // hydrated (filename-only loading). Re-checked under the lock: another
  // query may have fixed it meanwhile.
  if (!fix.empty()) {
    std::unique_lock lock(warehouse->meta_mu_);
    Warehouse::CatalogWriter writer(warehouse);
    for (int64_t fid : fix) {
      Warehouse::FileEntry& entry = warehouse->files_[fid - 1];
      if (entry.file_id == 0) {
        return Status::NotFound("source file disappeared during query: " +
                                entry.path);
      }
      NanoTime mtime = warehouse->CurrentMtime(entry.path);
      if (mtime < 0) {
        return Status::NotFound("source file disappeared during query: " +
                                entry.path);
      }
      if (mtime != entry.mtime && entry.hydrated) {
        LogOp(LogCategory::kRefresh,
              "lazy refresh: " + entry.path +
                  " was modified; re-loading its metadata");
        warehouse->recycler_->InvalidateFile(fid);
        if (warehouse->column_cache_ != nullptr) {
          warehouse->column_cache_->InvalidateFile(fid);
        }
        if (warehouse->plan_cache_ != nullptr) {
          warehouse->plan_cache_->InvalidateFile(fid);
        }
        LAZYETL_ASSIGN_OR_RETURN(Table * records,
                                 writer.Mutable(kRecordsTable));
        LAZYETL_ASSIGN_OR_RETURN(size_t removed,
                                 RemoveFileRows(records, fid));
        (void)removed;
        entry.hydrated = false;
      }
      if (!entry.hydrated) {
        uint64_t bytes = 0;
        LAZYETL_RETURN_NOT_OK(
            warehouse->HydrateFileLocked(&entry, &writer, &bytes));
        report->bytes_read += bytes;
      }
    }
    writer.Publish();
  }

  // Pass 4 (shared lock): record dependencies and build the per-file
  // requests against the (now current) registry state. A file tombstoned
  // by a concurrent Refresh since pass 1 fails here the same way it would
  // have failed in any earlier pass — never a silent zero-row result.
  {
    std::shared_lock lock(warehouse->meta_mu_);
    for (auto& [fid, seqs] : by_file) {
      const Warehouse::FileEntry& entry = warehouse->files_[fid - 1];
      if (entry.file_id == 0) {
        return Status::NotFound(
            "source file disappeared during query: file_id " +
            std::to_string(fid));
      }
      provider->deps_.push_back({fid, entry.path, entry.mtime});
      FileRequest fr;
      fr.fid = fid;
      fr.mtime = entry.mtime;
      fr.seqs = std::move(seqs);
      stream->files_.push_back(std::move(fr));
    }
  }
  return std::unique_ptr<engine::RecordStream>(std::move(stream));
}

Status WarehouseRecordStream::AdvanceWindow() {
  using ExtractJob = WarehouseDataProvider::ExtractJob;
  Warehouse* warehouse = provider_->warehouse_;
  unsigned threads =
      std::max(1u, warehouse->options().extraction_threads);
  common::MemoryBudget* budget = provider_->query_budget();

  // One window of files: cache lookups now, extraction jobs for the
  // misses. The window closes once it holds `threads` extraction jobs (or
  // a multiple of that in cache-only files), so extraction parallelism is
  // preserved while extracted-but-unconsumed data stays bounded by the
  // window instead of the whole qualifying set. The window's estimated
  // decoded bytes are additionally charged to the query's memory budget:
  // under pressure the window shrinks (down to a one-file floor), so lazy
  // ETL honours the same cap as pipeline-breaker state. Registry state is
  // only read under the shared lock; the extraction I/O below runs on
  // immutable metadata snapshots outside it.
  struct PendingFile {
    const FileRequest* request = nullptr;
    std::map<int64_t, TransformedRecord> staged;  // cache hits by seq_no
    int job_index = -1;
    uint64_t reserved = 0;  // window bytes charged for this file
    // Decoded-column tier hit: the shared assembled table — no budget
    // reservation, no recycler pass, no extraction job for this file.
    storage::TablePtr column_hit;
  };
  std::vector<PendingFile> window;
  std::vector<ExtractJob> jobs;

  {
    std::shared_lock lock(warehouse->meta_mu_);
    while (next_file_ < files_.size() && jobs.size() < threads &&
           window.size() < static_cast<size_t>(threads) * 4) {
      FileRequest& fr = files_[next_file_];
      const Warehouse::FileEntry& entry = warehouse->files_[fr.fid - 1];
      if (entry.file_id == 0) {
        // Tombstoned by a concurrent Refresh since stream creation: fail
        // like every earlier validation pass — never a silent partial
        // result.
        return Status::NotFound(
            "source file disappeared during query: file_id " +
            std::to_string(fr.fid));
      }

      // Decoded-column tier first: the assembled, publish-encoded table
      // for exactly this (file, projection, seq window) may already be
      // resident — then this file needs no budget reservation, no
      // per-record recycler pass and no extraction job.
      if (warehouse->column_cache_ != nullptr) {
        bool col_stale = false;
        storage::TablePtr cached = warehouse->column_cache_->Lookup(
            fr.fid, fr.mtime, columns_sig_, fr.seqs, &col_stale);
        if (cached != nullptr) {
          ++report_->column_cache_hits;
          ++column_hit_files_;
          // The window's records are served without extraction — credit
          // them as cache hits exactly like record-tier hits, so the
          // "requested = hits + misses + stale" accounting holds.
          report_->cache_hits += fr.seqs.size();
          total_hits_ += fr.seqs.size();
          ++next_file_;
          PendingFile pending;
          pending.request = &fr;
          pending.column_hit = std::move(cached);
          window.push_back(std::move(pending));
          continue;
        }
        ++report_->column_cache_misses;
      }

      // Estimated decoded footprint of this file's requested records
      // (8-byte time + 4-byte value per sample, plus per-record slack).
      uint64_t est = 0;
      if (entry.metadata != nullptr) {
        for (int64_t seq : fr.seqs) {
          auto it = entry.seq_to_record.find(seq);
          if (it == entry.seq_to_record.end()) continue;
          est += entry.metadata->records[it->second].header.num_samples *
                     12ULL +
                 64;
        }
      }
      uint64_t reserved = 0;
      if (budget != nullptr && est > 0) {
        if (budget->TryReserve(est)) {
          reserved = est;
        } else if (!window.empty()) {
          break;  // budget pressure: stop growing, keep the 1-file floor
        }
        // First file of the window proceeds unreserved — a single file is
        // the resident floor no budget can undercut.
      }
      outstanding_ += reserved;
      ++next_file_;

      PendingFile pending;
      pending.request = &fr;
      pending.reserved = reserved;

      // Cache lookups first; misses become one extraction job per file.
      std::vector<int64_t> to_extract;
      for (int64_t seq : fr.seqs) {
        bool stale = false;
        engine::CachedRecordPtr hit =
            warehouse->recycler_->Lookup({fr.fid, seq}, fr.mtime, &stale);
        if (hit != nullptr) {
          ++report_->cache_hits;
          ++total_hits_;
          pending.staged[seq] = {hit->sample_times, hit->sample_values};
        } else {
          if (stale) {
            ++report_->cache_stale;
          } else {
            ++report_->cache_misses;
          }
          to_extract.push_back(seq);
        }
      }

      ExtractJob job;
      job.metadata = entry.metadata;
      job.path = entry.path;
      job.file_id = fr.fid;
      job.mtime = fr.mtime;
      for (int64_t seq : to_extract) {
        auto it = entry.seq_to_record.find(seq);
        if (it == entry.seq_to_record.end()) {
          // The record vanished in a concurrent file modification; treat
          // as zero rows for this record rather than failing the query.
          LogOp(LogCategory::kExtract,
                "record " + std::to_string(seq) + " no longer present in " +
                    entry.path);
          continue;
        }
        job.record_indexes.push_back(it->second);
        job.seq_nos.push_back(seq);
      }
      if (!job.record_indexes.empty()) {
        // Sequential file I/O: visit records in offset order.
        std::vector<size_t> order(job.record_indexes.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          return job.record_indexes[a] < job.record_indexes[b];
        });
        ExtractJob sorted;
        sorted.metadata = job.metadata;
        sorted.path = job.path;
        sorted.file_id = job.file_id;
        sorted.mtime = job.mtime;
        for (size_t i : order) {
          sorted.record_indexes.push_back(job.record_indexes[i]);
          sorted.seq_nos.push_back(job.seq_nos[i]);
        }
        pending.job_index = static_cast<int>(jobs.size());
        jobs.push_back(std::move(sorted));
      }
      window.push_back(std::move(pending));
    }
  }

  // Run the extraction jobs — decode and transform are pure per-file work
  // on immutable metadata snapshots, so with extraction_threads > 1 the
  // window's files are processed concurrently. Everything touching
  // per-query state (report, the ready queue) happens below on this
  // thread; the recycler handles its own locking.
  LAZYETL_RETURN_NOT_OK(provider_->RunExtractionJobs(&jobs));

  for (PendingFile& pending : window) {
    if (pending.column_hit != nullptr) {
      // Emit a copy of the shared cached table: the entry itself stays
      // zero-copy-shared across queries (dictionary columns share their
      // dicts); the pipeline takes its own materialization, exactly as
      // the extraction path would have built one.
      ready_.push_back({*pending.column_hit, 0});
      continue;
    }
    if (pending.job_index >= 0) {
      ExtractJob& job = jobs[pending.job_index];
      LAZYETL_RETURN_NOT_OK(job.status);
      ++report_->files_opened;
      report_->files_touched.push_back(job.path);
      LogOp(LogCategory::kExtract,
            "extracted " + std::to_string(job.record_indexes.size()) +
                " records from " + job.path);
      for (size_t i = 0; i < job.record_indexes.size(); ++i) {
        const mseed::RecordInfo& info =
            job.metadata->records[job.record_indexes[i]];
        TransformedRecord& transformed = job.results[i];
        report_->bytes_read += info.header.record_length;
        ++report_->records_extracted;
        report_->samples_extracted += transformed.sample_values.size();

        // Lazy loading (§3.3): admit the extracted+transformed record.
        CachedRecord cached;
        cached.sample_times = transformed.sample_times;
        cached.sample_values = transformed.sample_values;
        cached.file_mtime = job.mtime;
        cached.admitted_at = NowNanos();
        warehouse->recycler_->Admit({job.file_id, job.seq_nos[i]},
                                    std::move(cached));

        pending.staged[job.seq_nos[i]] = std::move(transformed);
      }
      extracted_desc_.push_back(job.path + " (" +
                                std::to_string(job.record_indexes.size()) +
                                " records)");
    }

    // Deterministic assembly: by file, then by requested record order —
    // identical whether a record came from the cache or from extraction.
    WarehouseDataProvider::OutputBuffers buffers;
    for (int64_t seq : pending.request->seqs) {
      auto it = pending.staged.find(seq);
      if (it == pending.staged.end()) continue;  // vanished record
      buffers.Append(pending.request->fid, seq, it->second.sample_times,
                     it->second.sample_values);
    }
    LAZYETL_ASSIGN_OR_RETURN(
        Table file_table,
        provider_->BuildOutput(std::move(buffers), columns_));
    if (warehouse->column_cache_ != nullptr) {
      // Admit the assembled output (even when staged entirely from
      // record-tier hits — the assembly itself is what this tier saves).
      // No tier lock is held here, so the pool may run cross-tier yield.
      warehouse->column_cache_->Admit(
          pending.request->fid, pending.request->mtime, columns_sig_,
          pending.request->seqs, std::make_shared<Table>(file_table));
    }
    ready_.push_back({std::move(file_table), pending.reserved});
  }
  return Status::OK();
}

Result<bool> WarehouseRecordStream::Next(Table* out) {
  while (true) {
    if (current_active_) {
      size_t rows = current_.num_rows();
      if (current_offset_ < rows) {
        size_t n = std::min(batch_rows_, rows - current_offset_);
        if (current_offset_ == 0 && n == rows) {
          *out = std::move(current_);
          current_active_ = false;
        } else {
          *out = current_.Slice(current_offset_, n).Materialize();
          current_offset_ += n;
          if (current_offset_ >= rows) current_active_ = false;
        }
        if (!current_active_) {
          ReleaseWindowBytes(current_reserved_);
          current_reserved_ = 0;
        }
        emitted_ = true;
        return true;
      }
      current_active_ = false;
      ReleaseWindowBytes(current_reserved_);
      current_reserved_ = 0;
    }
    if (!ready_.empty()) {
      current_ = std::move(ready_.front().table);
      current_reserved_ = ready_.front().reserved;
      ready_.pop_front();
      current_offset_ = 0;
      current_active_ = current_.num_rows() > 0;
      if (!current_active_) {
        ReleaseWindowBytes(current_reserved_);
        current_reserved_ = 0;
      }
      continue;
    }
    if (next_file_ < files_.size()) {
      LAZYETL_RETURN_NOT_OK(AdvanceWindow());
      continue;
    }
    FlushSummary();
    if (!emitted_) {
      // Contract: at least one (possibly empty) chunk carries the schema.
      emitted_ = true;
      LAZYETL_ASSIGN_OR_RETURN(
          *out, provider_->BuildOutput({}, columns_));
      return true;
    }
    return false;
  }
}

void WarehouseRecordStream::FlushSummary() {
  if (summary_written_) return;
  summary_written_ = true;
  Warehouse* warehouse = provider_->warehouse_;
  std::ostringstream rewrite;
  rewrite << "LazyDataScan(" << kDataTable
          << ") rewritten at run time into:\n";
  rewrite << "  CacheScan[" << total_hits_ << " records]\n";
  if (column_hit_files_ > 0) {
    rewrite << "  ColumnCacheScan[" << column_hit_files_ << " files]\n";
  }
  rewrite << "  FileExtract[" << extracted_desc_.size() << " files";
  for (size_t i = 0; i < extracted_desc_.size() && i < 6; ++i) {
    rewrite << (i == 0 ? ": " : ", ") << extracted_desc_[i];
  }
  if (extracted_desc_.size() > 6) rewrite << ", ...";
  rewrite << "]\n";
  report_->plan_runtime += rewrite.str();
  engine::RecyclerStats cache_stats = warehouse->recycler_->stats();
  LogOp(LogCategory::kCache,
        "cache after fetch: " + std::to_string(cache_stats.entries) +
            " entries, " + std::to_string(cache_stats.current_bytes) +
            " bytes");
}

Result<std::unique_ptr<engine::RecordStream>>
WarehouseDataProvider::StreamRecords(const std::vector<RecordKey>& keys,
                                     const std::vector<ScanColumn>& columns,
                                     size_t batch_rows,
                                     ExecutionReport* report) {
  return WarehouseRecordStream::Create(this, keys, columns, batch_rows,
                                       report);
}

Result<std::unique_ptr<engine::RecordStream>>
WarehouseDataProvider::StreamAllRecords(const std::vector<ScanColumn>& columns,
                                        size_t batch_rows,
                                        ExecutionReport* report) {
  LAZYETL_ASSIGN_OR_RETURN(std::vector<RecordKey> keys,
                           AllRecordKeys(report));
  report->records_requested += keys.size();
  return WarehouseRecordStream::Create(this, keys, columns, batch_rows,
                                       report);
}

Result<std::vector<RecordKey>> WarehouseDataProvider::AllRecordKeys(
    ExecutionReport* report) {
  // Hydration pass (exclusive, only when files lack record metadata),
  // then a read-only pass building the keys.
  std::vector<int64_t> unhydrated;
  {
    std::shared_lock lock(warehouse_->meta_mu_);
    for (const auto& entry : warehouse_->files_) {
      if (entry.file_id == 0) continue;  // tombstone
      if (!entry.hydrated) unhydrated.push_back(entry.file_id);
    }
  }
  if (!unhydrated.empty()) {
    std::unique_lock lock(warehouse_->meta_mu_);
    Warehouse::CatalogWriter writer(warehouse_);
    for (int64_t fid : unhydrated) {
      Warehouse::FileEntry& entry = warehouse_->files_[fid - 1];
      if (entry.file_id == 0 || entry.hydrated) continue;
      uint64_t bytes = 0;
      LAZYETL_RETURN_NOT_OK(
          warehouse_->HydrateFileLocked(&entry, &writer, &bytes));
      report->bytes_read += bytes;
      ++report->files_hydrated;
    }
    writer.Publish();
  }
  std::vector<RecordKey> keys;
  {
    std::shared_lock lock(warehouse_->meta_mu_);
    for (const auto& entry : warehouse_->files_) {
      if (entry.file_id == 0 || entry.metadata == nullptr) continue;
      for (const auto& rec : entry.metadata->records) {
        keys.push_back({entry.file_id, rec.header.sequence_number});
      }
    }
  }
  return keys;
}

Result<Table> WarehouseDataProvider::FetchRecords(
    const std::vector<RecordKey>& keys, const std::vector<ScanColumn>& columns,
    ExecutionReport* report) {
  // Materialising wrapper over the stream (kept for API compatibility and
  // tests): drains every chunk into one table.
  LAZYETL_ASSIGN_OR_RETURN(
      std::unique_ptr<engine::RecordStream> stream,
      StreamRecords(keys, columns, std::numeric_limits<size_t>::max(),
                    report));
  Table result;
  bool first = true;
  Table chunk;
  while (true) {
    LAZYETL_ASSIGN_OR_RETURN(bool more, stream->Next(&chunk));
    if (!more) break;
    if (first) {
      result = std::move(chunk);
      first = false;
    } else {
      LAZYETL_RETURN_NOT_OK(result.AppendTable(chunk));
    }
  }
  return result;
}

Result<Table> WarehouseDataProvider::FetchAllRecords(
    const std::vector<ScanColumn>& columns, ExecutionReport* report) {
  LAZYETL_ASSIGN_OR_RETURN(std::vector<RecordKey> keys,
                           AllRecordKeys(report));
  report->records_requested += keys.size();
  return FetchRecords(keys, columns, report);
}

// ---------------------------------------------------------------------------
// Warehouse
// ---------------------------------------------------------------------------

Warehouse::Warehouse(WarehouseOptions options)
    : options_(std::move(options)) {}

Warehouse::~Warehouse() = default;

namespace {

// Tri-state cache knob: explicit option (0/1) wins; -1 resolves from the
// environment (1/true/on/yes enable); absent env = off.
bool ResolveCacheKnob(int option, const char* env_name) {
  if (option >= 0) return option != 0;
  if (const char* env = std::getenv(env_name)) {
    const std::string value = ToLowerAscii(env);
    return value == "1" || value == "true" || value == "on" ||
           value == "yes";
  }
  return false;
}

// Byte-size knob with k/m/g suffixes: explicit option (> 0) wins; 0
// resolves from the environment, falling back to `fallback`.
uint64_t ResolveCacheBytes(uint64_t option, const char* env_name,
                           uint64_t fallback) {
  if (option > 0) return option;
  if (const char* env = std::getenv(env_name)) {
    char* end = nullptr;
    uint64_t v = std::strtoull(env, &end, 10);
    if (end != nullptr) {
      switch (*end) {
        case 'k':
        case 'K':
          v <<= 10;
          break;
        case 'm':
        case 'M':
          v <<= 20;
          break;
        case 'g':
        case 'G':
          v <<= 30;
          break;
        default:
          break;
      }
    }
    return v;
  }
  return fallback;
}

}  // namespace

Result<std::unique_ptr<Warehouse>> Warehouse::Open(WarehouseOptions options) {
  auto wh = std::unique_ptr<Warehouse>(new Warehouse(std::move(options)));
  wh->catalog_ = std::make_unique<storage::Catalog>();
  LAZYETL_RETURN_NOT_OK(
      RegisterSchema(wh->catalog_.get(), wh->IsLazyStrategy()));

  // Multi-tier caching: every tier (record recycler, decoded-column,
  // sub-plan) charges one shared MemoryPool, itself chained to the
  // process-global budget — cache residency, extraction windows and
  // breaker state compete for one cap, and the tiers LRU-yield to each
  // other under pool pressure.
  wh->options_.enable_column_cache =
      ResolveCacheKnob(wh->options_.enable_column_cache,
                       "LAZYETL_COLUMN_CACHE")
          ? 1
          : 0;
  wh->options_.enable_plan_cache =
      ResolveCacheKnob(wh->options_.enable_plan_cache, "LAZYETL_PLAN_CACHE")
          ? 1
          : 0;
  wh->options_.column_cache_budget_bytes =
      ResolveCacheBytes(wh->options_.column_cache_budget_bytes,
                        "LAZYETL_COLUMN_CACHE_BUDGET", 64ULL << 20);
  wh->options_.plan_cache_budget_bytes =
      ResolveCacheBytes(wh->options_.plan_cache_budget_bytes,
                        "LAZYETL_PLAN_CACHE_BUDGET", 64ULL << 20);
  wh->options_.cache_pool_budget_bytes = ResolveCacheBytes(
      wh->options_.cache_pool_budget_bytes, "LAZYETL_CACHE_POOL_BUDGET", 0);
  wh->cache_pool_ = std::make_unique<common::MemoryPool>(
      wh->options_.cache_pool_budget_bytes, &common::MemoryBudget::Process());
  wh->recycler_ = std::make_unique<engine::Recycler>(
      wh->options_.cache_budget_bytes, wh->cache_pool_.get());
  if (wh->options_.enable_column_cache != 0) {
    wh->column_cache_ = std::make_unique<engine::ColumnCache>(
        wh->options_.column_cache_budget_bytes, wh->cache_pool_.get());
  }
  if (wh->options_.enable_plan_cache != 0) {
    wh->plan_cache_ = std::make_unique<engine::PlanCache>(
        wh->options_.plan_cache_budget_bytes, wh->cache_pool_.get());
  }
  wh->result_recycler_ = std::make_unique<engine::ResultRecycler>();

  // Admission control: resolve the concurrency bound and the per-query
  // budget (options, else environment) once; the scheduler carves each
  // admitted query's budget from the global cap.
  size_t max_concurrent = wh->options_.max_concurrent_queries;
  if (max_concurrent == 0) {
    if (const char* env = std::getenv("LAZYETL_MAX_CONCURRENT_QUERIES")) {
      max_concurrent = static_cast<size_t>(std::strtoull(env, nullptr, 10));
    }
  }
  if (wh->options_.queue_timeout_ms == 0) {
    if (const char* env = std::getenv("LAZYETL_QUEUE_TIMEOUT_MS")) {
      wh->options_.queue_timeout_ms = std::strtoll(env, nullptr, 10);
    }
  }
  if (!wh->options_.footprint_aware_admission) {
    if (const char* env = std::getenv("LAZYETL_FOOTPRINT_ADMISSION")) {
      const std::string value = ToLowerAscii(env);
      wh->options_.footprint_aware_admission =
          value == "1" || value == "true" || value == "on" || value == "yes";
    }
  }
  // Streaming-cursor backpressure window: batches buffered ahead of a
  // slow consumer before morsel dispatch suspends. Small by design — the
  // point of the cursor path is O(window × batch) resident result bytes.
  if (wh->options_.cursor_window_batches == 0) {
    if (const char* env = std::getenv("LAZYETL_CURSOR_WINDOW_BATCHES")) {
      wh->options_.cursor_window_batches =
          static_cast<size_t>(std::strtoull(env, nullptr, 10));
    }
    if (wh->options_.cursor_window_batches == 0) {
      wh->options_.cursor_window_batches = 4;
    }
  }
  // Priority aging (starvation protection): 0 resolves the environment
  // default, negative forces it off. Off preserves strict class order.
  if (wh->options_.priority_aging_ms == 0) {
    if (const char* env = std::getenv("LAZYETL_PRIORITY_AGING_MS")) {
      wh->options_.priority_aging_ms = std::strtoll(env, nullptr, 10);
    }
  }
  if (wh->options_.priority_aging_ms < 0) wh->options_.priority_aging_ms = 0;
  wh->scheduler_ = std::make_unique<common::QueryScheduler>(
      max_concurrent,
      common::ResolvePerQueryBudgetBytes(wh->options_.memory_budget_bytes),
      &common::MemoryBudget::Process(), wh->options_.priority_aging_ms);

  OperationLog::Global().set_echo_to_stderr(wh->options_.echo_log);
  LogOp(LogCategory::kGeneral,
        std::string("warehouse opened with strategy ") +
            LoadStrategyToString(wh->options_.strategy) +
            (max_concurrent > 0
                 ? ", max " + std::to_string(max_concurrent) +
                       " concurrent queries"
                 : ""));
  return wh;
}

Result<TablePtr> Warehouse::FilesTable() const {
  return catalog_->GetTable(kFilesTable);
}
Result<TablePtr> Warehouse::RecordsTable() const {
  return catalog_->GetTable(kRecordsTable);
}
Result<TablePtr> Warehouse::DataTable() const {
  return catalog_->GetTable(kDataTable);
}

NanoTime Warehouse::CurrentMtime(const std::string& path) const {
  auto st = mseed::StatFile(path);
  if (!st.ok()) return -1;
  return st->mtime;
}

std::vector<std::string> Warehouse::repositories() const {
  std::shared_lock lock(meta_mu_);
  return roots_;
}

Status Warehouse::HydrateFileLocked(FileEntry* entry, CatalogWriter* writer,
                                    uint64_t* bytes_read) {
  LAZYETL_ASSIGN_OR_RETURN(mseed::FileMetadata md,
                           mseed::ScanMetadata(entry->path));
  *bytes_read += md.bytes_read;

  LAZYETL_ASSIGN_OR_RETURN(Table * records, writer->Mutable(kRecordsTable));
  LAZYETL_RETURN_NOT_OK(AppendRecordRows(records, entry->file_id, md));

  entry->mtime = md.mtime;
  entry->size = md.file_size;
  entry->seq_to_record.clear();
  for (size_t i = 0; i < md.records.size(); ++i) {
    entry->seq_to_record[md.records[i].header.sequence_number] = i;
  }
  entry->metadata =
      std::make_shared<const mseed::FileMetadata>(std::move(md));
  entry->hydrated = true;

  // Correct the approximate F-row with header-derived values.
  LAZYETL_ASSIGN_OR_RETURN(Table * files, writer->Mutable(kFilesTable));
  LAZYETL_ASSIGN_OR_RETURN(size_t fid_idx, files->ColumnIndex("file_id"));
  const auto& fids = files->column(fid_idx).int64_data();
  for (size_t row = 0; row < fids.size(); ++row) {
    if (fids[row] != entry->file_id) continue;
    LAZYETL_ASSIGN_OR_RETURN(size_t c_start, files->ColumnIndex("start_time"));
    LAZYETL_ASSIGN_OR_RETURN(size_t c_end, files->ColumnIndex("end_time"));
    LAZYETL_ASSIGN_OR_RETURN(size_t c_nrec, files->ColumnIndex("num_records"));
    LAZYETL_ASSIGN_OR_RETURN(size_t c_rate, files->ColumnIndex("sample_rate"));
    LAZYETL_ASSIGN_OR_RETURN(size_t c_mtime,
                             files->ColumnIndex("last_modified"));
    files->column(c_start).int64_data()[row] = entry->metadata->start_time;
    files->column(c_end).int64_data()[row] = entry->metadata->end_time;
    files->column(c_nrec).int64_data()[row] =
        static_cast<int64_t>(entry->metadata->records.size());
    files->column(c_rate).double_data()[row] = entry->metadata->sample_rate;
    files->column(c_mtime).int64_data()[row] = entry->metadata->mtime;
    break;
  }
  result_recycler_->Clear();
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  return Status::OK();
}

Status Warehouse::LoadFileEagerLocked(FileEntry* entry, CatalogWriter* writer,
                                      LoadStats* stats) {
  LAZYETL_ASSIGN_OR_RETURN(mseed::FullFile full,
                           mseed::ReadFull(entry->path));
  stats->bytes_read += full.metadata.bytes_read;
  stats->records += full.metadata.records.size();

  LAZYETL_ASSIGN_OR_RETURN(Table * files, writer->Mutable(kFilesTable));
  LAZYETL_ASSIGN_OR_RETURN(Table * records, writer->Mutable(kRecordsTable));
  LAZYETL_ASSIGN_OR_RETURN(Table * data, writer->Mutable(kDataTable));
  LAZYETL_RETURN_NOT_OK(AppendFileRow(files, entry->file_id, full.metadata));
  LAZYETL_RETURN_NOT_OK(
      AppendRecordRows(records, entry->file_id, full.metadata));
  for (size_t i = 0; i < full.metadata.records.size(); ++i) {
    const mseed::RecordInfo& info = full.metadata.records[i];
    LAZYETL_ASSIGN_OR_RETURN(
        TransformedRecord transformed,
        TransformRecord(info.header, full.record_samples[i]));
    stats->samples_loaded += transformed.sample_values.size();
    LAZYETL_RETURN_NOT_OK(AppendDataRows(data, entry->file_id,
                                         info.header.sequence_number,
                                         transformed));
  }

  entry->mtime = full.metadata.mtime;
  entry->size = full.metadata.file_size;
  entry->seq_to_record.clear();
  for (size_t i = 0; i < full.metadata.records.size(); ++i) {
    entry->seq_to_record[full.metadata.records[i].header.sequence_number] = i;
  }
  entry->metadata =
      std::make_shared<const mseed::FileMetadata>(std::move(full.metadata));
  entry->hydrated = true;
  return Status::OK();
}

Status Warehouse::LoadFileMetadataLocked(FileEntry* entry,
                                         CatalogWriter* writer,
                                         LoadStats* stats) {
  LAZYETL_ASSIGN_OR_RETURN(mseed::FileMetadata md,
                           mseed::ScanMetadata(entry->path));
  stats->bytes_read += md.bytes_read;
  stats->records += md.records.size();

  LAZYETL_ASSIGN_OR_RETURN(Table * files, writer->Mutable(kFilesTable));
  LAZYETL_ASSIGN_OR_RETURN(Table * records, writer->Mutable(kRecordsTable));
  LAZYETL_RETURN_NOT_OK(AppendFileRow(files, entry->file_id, md));
  LAZYETL_RETURN_NOT_OK(AppendRecordRows(records, entry->file_id, md));

  entry->mtime = md.mtime;
  entry->size = md.file_size;
  entry->seq_to_record.clear();
  for (size_t i = 0; i < md.records.size(); ++i) {
    entry->seq_to_record[md.records[i].header.sequence_number] = i;
  }
  entry->metadata =
      std::make_shared<const mseed::FileMetadata>(std::move(md));
  entry->hydrated = true;
  return Status::OK();
}

Status Warehouse::LoadFileFromFilenameLocked(FileEntry* entry,
                                             CatalogWriter* writer) {
  std::string basename = fs::path(entry->path).filename().string();
  LAZYETL_ASSIGN_OR_RETURN(mseed::FilenameMetadata fn,
                           mseed::ParseSdsFilename(basename));
  LAZYETL_ASSIGN_OR_RETURN(mseed::FileStatInfo st,
                           mseed::StatFile(entry->path));

  CivilTime day_start;
  day_start.year = fn.year;
  LAZYETL_RETURN_NOT_OK(MonthDayFromDayOfYear(fn.year, fn.day_of_year,
                                              &day_start.month,
                                              &day_start.day));
  LAZYETL_ASSIGN_OR_RETURN(NanoTime start, CivilToNano(day_start));

  // Approximate extent: the file covers (a slice of) its day. Record
  // metadata is hydrated on demand when a query needs it.
  mseed::FileMetadata md;
  md.path = entry->path;
  md.file_size = st.size;
  md.mtime = st.mtime;
  md.network = fn.network;
  md.station = fn.station;
  md.location = fn.location;
  md.channel = fn.channel;
  md.quality = fn.quality;
  md.start_time = start;
  md.end_time = start + kNanosPerDay;
  md.sample_rate = 0.0;  // unknown until hydration

  LAZYETL_ASSIGN_OR_RETURN(Table * files, writer->Mutable(kFilesTable));
  LAZYETL_RETURN_NOT_OK(AppendFileRow(files, entry->file_id, md));

  entry->mtime = st.mtime;
  entry->size = st.size;
  entry->hydrated = false;
  return Status::OK();
}

Status Warehouse::LoadDatalessInventoryLocked(const std::string& path,
                                              CatalogWriter* writer,
                                              LoadStats* stats) {
  if (dataless_paths_.count(path)) return Status::OK();
  LAZYETL_ASSIGN_OR_RETURN(mseed::StationInventory inventory,
                           mseed::ReadDataless(path));
  LAZYETL_ASSIGN_OR_RETURN(mseed::FileStatInfo st, mseed::StatFile(path));
  stats->bytes_read += st.size;

  LAZYETL_ASSIGN_OR_RETURN(Table * stations, writer->Mutable(kStationsTable));
  LAZYETL_ASSIGN_OR_RETURN(Table * channels, writer->Mutable(kChannelsTable));
  for (const auto& station : inventory.stations) {
    LAZYETL_RETURN_NOT_OK(stations->AppendRow({
        Value::String(station.network),
        Value::String(station.station),
        Value::Double(station.latitude),
        Value::Double(station.longitude),
        Value::Double(station.elevation),
        Value::String(station.site_name),
    }));
    for (const auto& channel : station.channels) {
      LAZYETL_RETURN_NOT_OK(channels->AppendRow({
          Value::String(station.network),
          Value::String(station.station),
          Value::String(channel.location),
          Value::String(channel.channel),
          Value::Double(channel.latitude),
          Value::Double(channel.longitude),
          Value::Double(channel.elevation),
          Value::Double(channel.local_depth),
          Value::Double(channel.azimuth),
          Value::Double(channel.dip),
          Value::Double(channel.sample_rate),
      }));
    }
  }
  dataless_paths_.insert(path);
  LogOp(LogCategory::kMetadataLoad,
        "loaded station inventory from control headers of " + path + " (" +
            std::to_string(inventory.stations.size()) + " stations)");
  return Status::OK();
}

Status Warehouse::AttachFileLocked(const std::string& path,
                                   CatalogWriter* writer, LoadStats* stats) {
  // Dataless SEED volumes hold inventory control headers, not waveforms.
  if (mseed::IsDatalessFilename(fs::path(path).filename().string())) {
    return LoadDatalessInventoryLocked(path, writer, stats);
  }
  FileEntry entry;
  entry.file_id = static_cast<int64_t>(files_.size()) + 1;
  entry.path = path;

  Status load_status;
  switch (options_.strategy) {
    case LoadStrategy::kEager:
      load_status = LoadFileEagerLocked(&entry, writer, stats);
      break;
    case LoadStrategy::kLazy:
      load_status = LoadFileMetadataLocked(&entry, writer, stats);
      break;
    case LoadStrategy::kLazyFilenameOnly:
      load_status = LoadFileFromFilenameLocked(&entry, writer);
      break;
  }
  if (!load_status.ok()) {
    if (load_status.IsCorruptData() || load_status.IsParseError() ||
        load_status.IsNotImplemented()) {
      // Not an mSEED/SDS file: skip it, the repository may contain stray
      // files (checksums, READMEs).
      LogOp(LogCategory::kMetadataLoad,
            "skipping non-mSEED file " + path + ": " + load_status.ToString());
      return Status::OK();
    }
    return load_status;
  }
  ++stats->files;
  path_to_file_id_[path] = entry.file_id;
  files_.push_back(std::move(entry));
  return Status::OK();
}

Result<LoadStats> Warehouse::AttachRepository(const std::string& root) {
  Stopwatch timer;
  LoadStats stats;
  LogOp(IsLazyStrategy() ? LogCategory::kMetadataLoad : LogCategory::kEagerLoad,
        std::string("initial loading (") +
            LoadStrategyToString(options_.strategy) + ") of " + root);

  LAZYETL_ASSIGN_OR_RETURN(auto scanned, mseed::ScanRepository(root));
  {
    std::unique_lock lock(meta_mu_);
    CatalogWriter writer(this);
    for (const auto& f : scanned) {
      if (path_to_file_id_.count(f.path)) continue;  // already attached
      LAZYETL_RETURN_NOT_OK(AttachFileLocked(f.path, &writer, &stats));
    }
    if (std::find(roots_.begin(), roots_.end(), root) == roots_.end()) {
      roots_.push_back(root);
    }
    writer.Publish();
  }
  result_recycler_->Clear();
  if (plan_cache_ != nullptr) plan_cache_->Clear();

  if (options_.strategy == LoadStrategy::kEager &&
      !options_.persist_dir.empty()) {
    LAZYETL_ASSIGN_OR_RETURN(TablePtr files, FilesTable());
    LAZYETL_ASSIGN_OR_RETURN(TablePtr records, RecordsTable());
    LAZYETL_ASSIGN_OR_RETURN(TablePtr data, DataTable());
    LAZYETL_RETURN_NOT_OK(storage::WriteTable(
        (fs::path(options_.persist_dir) / "files").string(), *files));
    LAZYETL_RETURN_NOT_OK(storage::WriteTable(
        (fs::path(options_.persist_dir) / "records").string(), *records));
    LAZYETL_RETURN_NOT_OK(storage::WriteTable(
        (fs::path(options_.persist_dir) / "data").string(), *data));
    // Remember the attached roots so a reopened warehouse can Refresh().
    std::ofstream roots_file(fs::path(options_.persist_dir) / "roots",
                             std::ios::trunc);
    for (const auto& r : repositories()) roots_file << r << "\n";
    if (!roots_file.good()) {
      return Status::IOError("failed writing roots file in " +
                             options_.persist_dir);
    }
  }

  stats.seconds = timer.ElapsedSeconds();
  LogOp(LogCategory::kGeneral,
        "initial loading done: " + std::to_string(stats.files) + " files, " +
            std::to_string(stats.records) + " records, " +
            std::to_string(stats.samples_loaded) + " samples, " +
            HumanBytes(stats.bytes_read) + " read in " +
            std::to_string(stats.seconds) + "s");
  return stats;
}

Result<std::vector<int64_t>> Warehouse::CandidateFileIds(
    const sql::BoundQuery& query) {
  LAZYETL_ASSIGN_OR_RETURN(TablePtr files, FilesTable());
  LAZYETL_ASSIGN_OR_RETURN(size_t fid_idx, files->ColumnIndex("file_id"));
  const auto& fids = files->column(fid_idx).int64_data();

  // With file-level conjuncts, evaluate them over a qualified view of the
  // files table ("F.station", ...) to prune the candidate set. Runs on an
  // immutable snapshot — no registry lock needed.
  if (query.view != nullptr && query.where != nullptr) {
    std::vector<sql::BoundExprPtr> file_preds;
    for (auto& conjunct : engine::SplitConjuncts(*query.where)) {
      std::vector<std::string> tables;
      conjunct->CollectTables(&tables);
      if (tables.size() == 1 && tables[0] == kFilesTable) {
        file_preds.push_back(std::move(conjunct));
      }
    }
    if (!file_preds.empty()) {
      Table qualified;
      for (size_t i = 0; i < files->num_columns(); ++i) {
        LAZYETL_RETURN_NOT_OK(qualified.AddColumn(
            "F." + files->column_name(i), files->column(i)));
      }
      sql::BoundExprPtr combined =
          engine::CombineConjuncts(std::move(file_preds));
      LAZYETL_ASSIGN_OR_RETURN(
          storage::SelectionVector sel,
          engine::EvaluatePredicate(*combined, qualified));
      std::vector<int64_t> out;
      out.reserve(sel.size());
      for (uint32_t row : sel) out.push_back(fids[row]);
      return out;
    }
  }
  return std::vector<int64_t>(fids.begin(), fids.end());
}

Status Warehouse::ReloadModifiedFileLocked(FileEntry* entry,
                                           CatalogWriter* writer,
                                           uint64_t* bytes_read) {
  recycler_->InvalidateFile(entry->file_id);
  if (column_cache_ != nullptr) column_cache_->InvalidateFile(entry->file_id);
  if (plan_cache_ != nullptr) plan_cache_->InvalidateFile(entry->file_id);
  LAZYETL_ASSIGN_OR_RETURN(Table * files, writer->Mutable(kFilesTable));
  LAZYETL_ASSIGN_OR_RETURN(Table * records, writer->Mutable(kRecordsTable));
  LAZYETL_RETURN_NOT_OK(RemoveFileRows(files, entry->file_id).status());
  LAZYETL_RETURN_NOT_OK(RemoveFileRows(records, entry->file_id).status());
  entry->hydrated = false;
  entry->metadata.reset();
  entry->seq_to_record.clear();

  switch (options_.strategy) {
    case LoadStrategy::kEager: {
      LAZYETL_ASSIGN_OR_RETURN(Table * data, writer->Mutable(kDataTable));
      LAZYETL_RETURN_NOT_OK(RemoveFileRows(data, entry->file_id).status());
      LoadStats ls;
      LAZYETL_RETURN_NOT_OK(LoadFileEagerLocked(entry, writer, &ls));
      *bytes_read += ls.bytes_read;
      break;
    }
    case LoadStrategy::kLazy: {
      LoadStats ls;
      LAZYETL_RETURN_NOT_OK(LoadFileMetadataLocked(entry, writer, &ls));
      *bytes_read += ls.bytes_read;
      break;
    }
    case LoadStrategy::kLazyFilenameOnly:
      LAZYETL_RETURN_NOT_OK(LoadFileFromFilenameLocked(entry, writer));
      break;
  }
  result_recycler_->Clear();
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  return Status::OK();
}

Status Warehouse::RefreshStaleCandidates(const sql::BoundQuery& query,
                                         ExecutionReport* report) {
  LAZYETL_ASSIGN_OR_RETURN(std::vector<int64_t> candidates,
                           CandidateFileIds(query));

  // Pass 1 (shared): snapshot the registry state of the candidates.
  struct Checked {
    int64_t fid = 0;
    std::string path;
    NanoTime mtime = 0;
    uint64_t size = 0;
  };
  std::vector<Checked> checks;
  {
    std::shared_lock lock(meta_mu_);
    for (int64_t fid : candidates) {
      if (fid < 1 || static_cast<size_t>(fid) > files_.size()) continue;
      const FileEntry& entry = files_[fid - 1];
      if (entry.file_id == 0) continue;
      checks.push_back({fid, entry.path, entry.mtime, entry.size});
    }
  }

  // Pass 2 (no lock): stat the candidates.
  std::vector<int64_t> changed;
  for (const Checked& c : checks) {
    auto st = mseed::StatFile(c.path);
    if (!st.ok()) continue;  // vanished: extraction will report NotFound
    if (st->mtime == c.mtime && st->size == c.size) continue;
    changed.push_back(c.fid);
  }
  if (changed.empty()) return Status::OK();

  // Pass 3 (exclusive): re-check and re-load, one COW session.
  std::unique_lock lock(meta_mu_);
  CatalogWriter writer(this);
  for (int64_t fid : changed) {
    FileEntry& entry = files_[fid - 1];
    if (entry.file_id == 0) continue;
    auto st = mseed::StatFile(entry.path);
    if (!st.ok()) continue;
    if (st->mtime == entry.mtime && st->size == entry.size) {
      continue;  // another query already re-loaded it
    }
    LogOp(LogCategory::kRefresh,
          "lazy refresh at query time: " + entry.path +
              " changed; re-loading its metadata");
    LAZYETL_RETURN_NOT_OK(
        ReloadModifiedFileLocked(&entry, &writer, &report->bytes_read));
  }
  writer.Publish();
  return Status::OK();
}

Result<LoadStats> Warehouse::AttachPersisted(const std::string& persist_dir) {
  if (options_.strategy != LoadStrategy::kEager) {
    return Status::InvalidArgument(
        "AttachPersisted requires the eager strategy");
  }
  Stopwatch timer;
  LogOp(LogCategory::kEagerLoad,
        "re-opening persisted warehouse from " + persist_dir);

  LAZYETL_ASSIGN_OR_RETURN(
      Table files, storage::ReadTable((fs::path(persist_dir) / "files").string()));
  LAZYETL_ASSIGN_OR_RETURN(
      Table records,
      storage::ReadTable((fs::path(persist_dir) / "records").string()));
  LAZYETL_ASSIGN_OR_RETURN(
      Table data, storage::ReadTable((fs::path(persist_dir) / "data").string()));

  std::unique_lock lock(meta_mu_);
  if (!files_.empty()) {
    return Status::InvalidArgument(
        "AttachPersisted requires a fresh warehouse");
  }

  // Rebuild the file registry from the files table.
  LAZYETL_ASSIGN_OR_RETURN(size_t fid_idx, files.ColumnIndex("file_id"));
  LAZYETL_ASSIGN_OR_RETURN(size_t uri_idx, files.ColumnIndex("uri"));
  LAZYETL_ASSIGN_OR_RETURN(size_t size_idx, files.ColumnIndex("file_size"));
  LAZYETL_ASSIGN_OR_RETURN(size_t mtime_idx,
                           files.ColumnIndex("last_modified"));
  const auto& fids = files.column(fid_idx).int64_data();
  int64_t max_id = 0;
  for (int64_t fid : fids) max_id = std::max(max_id, fid);
  files_.assign(static_cast<size_t>(max_id), FileEntry{});  // tombstones
  for (size_t row = 0; row < fids.size(); ++row) {
    FileEntry& entry = files_[fids[row] - 1];
    entry.file_id = fids[row];
    entry.path = files.column(uri_idx).StringAt(row);
    entry.size =
        static_cast<uint64_t>(files.column(size_idx).int64_data()[row]);
    entry.mtime = files.column(mtime_idx).int64_data()[row];
    entry.hydrated = false;  // record metadata reloads on demand (Refresh)
    path_to_file_id_[entry.path] = entry.file_id;
  }

  LoadStats stats;
  stats.files = fids.size();
  stats.records = records.num_rows();
  stats.samples_loaded = data.num_rows();
  LAZYETL_ASSIGN_OR_RETURN(uint64_t disk_bytes,
                           storage::DirectoryBytes(persist_dir));
  stats.bytes_read = disk_bytes;

  catalog_->PutTable(kFilesTable, std::make_shared<Table>(std::move(files)));
  catalog_->PutTable(kRecordsTable,
                     std::make_shared<Table>(std::move(records)));
  catalog_->PutTable(kDataTable, std::make_shared<Table>(std::move(data)));

  // Restore the repository roots for Refresh().
  std::ifstream roots_file(fs::path(persist_dir) / "roots");
  std::string line;
  while (std::getline(roots_file, line)) {
    line = Trim(line);
    if (!line.empty()) roots_.push_back(line);
  }

  result_recycler_->Clear();
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  stats.seconds = timer.ElapsedSeconds();
  LogOp(LogCategory::kEagerLoad,
        "persisted warehouse reopened: " + std::to_string(stats.files) +
            " files, " + std::to_string(stats.samples_loaded) + " samples");
  return stats;
}

Status Warehouse::HydrateForQuery(const sql::BoundQuery& query,
                                  ExecutionReport* report) {
  // Only dataview queries and direct queries on R/D need record metadata.
  bool needs_records = false;
  if (query.view != nullptr) {
    needs_records = true;
  } else if (query.base_table == kRecordsTable ||
             query.base_table == kDataTable) {
    needs_records = true;
  }
  if (!needs_records) return Status::OK();

  LAZYETL_ASSIGN_OR_RETURN(std::vector<int64_t> candidates,
                           CandidateFileIds(query));
  std::vector<int64_t> todo;
  {
    std::shared_lock lock(meta_mu_);
    for (int64_t fid : candidates) {
      if (fid < 1 || static_cast<size_t>(fid) > files_.size()) continue;
      const FileEntry& entry = files_[fid - 1];
      if (entry.file_id == 0 || entry.hydrated) continue;
      todo.push_back(fid);
    }
  }
  if (!todo.empty()) {
    std::unique_lock lock(meta_mu_);
    CatalogWriter writer(this);
    for (int64_t fid : todo) {
      FileEntry& entry = files_[fid - 1];
      if (entry.file_id == 0 || entry.hydrated) continue;
      uint64_t bytes = 0;
      LAZYETL_RETURN_NOT_OK(HydrateFileLocked(&entry, &writer, &bytes));
      report->bytes_read += bytes;
      ++report->files_hydrated;
    }
    writer.Publish();
  }
  if (report->files_hydrated > 0) {
    LogOp(LogCategory::kMetadataLoad,
          "deferred metadata: hydrated " +
              std::to_string(report->files_hydrated) +
              " candidate files for this query");
  }
  return Status::OK();
}

Result<QueryResult> Warehouse::Query(const std::string& sql) {
  return Query(sql, QueryOptions());
}

int64_t Warehouse::ResolveQueueTimeoutMs(int64_t query_timeout_ms) const {
  if (query_timeout_ms > 0) return query_timeout_ms;
  if (query_timeout_ms < 0) return 0;  // explicit "never", beats the default
  return options_.queue_timeout_ms > 0 ? options_.queue_timeout_ms : 0;
}

Result<uint64_t> Warehouse::EstimateColdExtractionBytes(
    const sql::BoundQuery& query) {
  LAZYETL_ASSIGN_OR_RETURN(std::vector<int64_t> candidates,
                           CandidateFileIds(query));
  uint64_t bytes = 0;
  std::shared_lock lock(meta_mu_);
  for (int64_t fid : candidates) {
    if (fid < 1 || static_cast<size_t>(fid) > files_.size()) continue;
    const FileEntry& entry = files_[fid - 1];
    if (entry.file_id == 0) continue;
    uint64_t file_bytes = entry.size;
    if (column_cache_ != nullptr) {
      // Decoded columns already resident in the cache tier are served
      // without extraction: discount them (clamped per file) so a warm
      // query admits for what it will actually extract.
      file_bytes -= std::min(file_bytes,
                             column_cache_->ResidentBytesForFile(fid));
    }
    bytes += file_bytes;
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// The query lifecycle, written once. Prepare() admits, parses and binds,
// refreshes stale candidate files, hydrates, plans, probes the sub-plan and
// result caches and opens the execution cursor. OpenCursor() is Prepare()
// with the backpressure window; Query() is Prepare() with an unbounded
// window, followed by a drain and the cache admissions only a materialized
// result can make: the sub-plan on a miss, and the whole result.
// ---------------------------------------------------------------------------

struct QueryCursor::Impl {
  Stopwatch total;
  Stopwatch exec_phase;
  engine::ExecutionReport report;

  // Execution state, declared in reverse teardown order: the execution
  // cursor joins its drive loop before executor/provider/context go away,
  // and operators hold pointers into `planned.plan`, which must outlive
  // them. `qctx` owns the admission ticket, the carved budget, and the
  // spill directory — resetting it is the exactly-once release point.
  std::unique_ptr<engine::QueryContext> qctx;
  std::unique_ptr<WarehouseDataProvider> provider;
  std::unique_ptr<engine::Executor> executor;
  engine::PlannedQuery planned;
  engine::PlanNodePtr subplan_detached;  // kept alive on a sub-plan hit
  std::unique_ptr<engine::ExecutionCursor> exec;

  // Result-cache hit: the cached table is served instead of executing
  // (the ticket is released at open — a hit needs no execution resources).
  engine::CachedResultPtr cached;
  size_t cached_offset = 0;

  // Cache admission state, used by Query(). On a sub-plan miss of an
  // unbounded-window query, `exec` runs only the subtree at
  // `subplan_to_admit` so its output can be admitted before the rest of
  // the plan runs over it.
  engine::PlanNodePtr* subplan_to_admit = nullptr;
  std::string subplan_fp;
  std::vector<engine::ResultDependency> subplan_deps;  // of a served hit
  uint64_t plan_epoch = 0;
  uint64_t result_epoch = 0;

  size_t batch_rows = engine::kDefaultBatchRows;
  uint64_t rows_streamed = 0;
  uint64_t peak_buffered_bytes = 0;
  bool emitted_first = false;
  bool finished = false;
  bool closed = false;
  bool released = false;

  // Exactly-once teardown: cancel + join the drive loop, close the
  // operator tree (finalizing the report), then release the query
  // context — ticket slot, chained budget reservation, spill temp dir.
  void Release() {
    if (released) return;
    released = true;
    const bool ran = exec != nullptr || cached != nullptr;
    if (exec != nullptr) {
      exec->Close();
      peak_buffered_bytes = exec->peak_buffered_bytes();
      report.execute_seconds = exec_phase.ElapsedSeconds();
    }
    report.result_rows = rows_streamed;
    report.total_seconds = total.ElapsedSeconds();
    exec.reset();
    executor.reset();
    provider.reset();
    qctx.reset();
    cached.reset();
    if (ran) {
      LogOp(LogCategory::kQuery,
            "query done (ticket " + std::to_string(report.ticket_id) +
                "): " + std::to_string(rows_streamed) + " rows in " +
                std::to_string(report.total_seconds) + "s");
    }
  }
};

QueryCursor::QueryCursor() : impl_(std::make_unique<Impl>()) {}

QueryCursor::~QueryCursor() { Close(); }

void QueryCursor::Close() {
  if (impl_ == nullptr || impl_->closed) return;
  impl_->closed = true;
  impl_->Release();
}

const engine::ExecutionReport& QueryCursor::report() const {
  return impl_->report;
}

uint64_t QueryCursor::rows_streamed() const { return impl_->rows_streamed; }

uint64_t QueryCursor::peak_buffered_bytes() const {
  if (impl_->exec != nullptr) return impl_->exec->peak_buffered_bytes();
  return impl_->peak_buffered_bytes;
}

Result<bool> QueryCursor::Next(storage::Table* out) {
  Impl& im = *impl_;
  if (im.closed || im.finished) return false;

  if (im.cached != nullptr) {
    size_t total_rows = im.cached->table.num_rows();
    if (im.emitted_first && im.cached_offset >= total_rows) {
      im.finished = true;
      im.Release();
      return false;
    }
    size_t n = std::min(im.batch_rows, total_rows - im.cached_offset);
    *out = im.cached->table.Slice(im.cached_offset, n).Materialize();
    im.cached_offset += n;
    im.emitted_first = true;
    im.rows_streamed += n;
    return true;
  }

  engine::Batch batch;
  auto more = im.exec->Next(&batch);
  if (!more.ok() || !*more) {
    // End of stream, or a mid-stream failure (extraction I/O, spill
    // breaker): release everything now; an error is sticky.
    im.finished = true;
    im.Release();
    return more;
  }
  *out = batch.view.Materialize();
  im.emitted_first = true;
  im.rows_streamed += batch.num_rows();
  return true;
}

Result<sql::BoundQuery> Warehouse::ParseAndBind(const std::string& sql,
                                                ExecutionReport* report) {
  Stopwatch phase;
  LAZYETL_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::Parse(sql));
  report->parse_seconds = phase.ElapsedSeconds();
  phase.Restart();
  sql::Binder binder(catalog_.get());
  LAZYETL_ASSIGN_OR_RETURN(sql::BoundQuery bound, binder.Bind(stmt));
  report->bind_seconds = phase.ElapsedSeconds();
  return bound;
}

Result<engine::PlannedQuery> Warehouse::PlanBound(const sql::BoundQuery& bound,
                                                  ExecutionReport* report) {
  Stopwatch phase;
  std::set<std::string> lazy_tables;
  if (IsLazyStrategy()) lazy_tables.insert(kDataTable);
  engine::Planner planner(catalog_.get(), lazy_tables,
                          options_.enable_metadata_pruning);
  LAZYETL_ASSIGN_OR_RETURN(engine::PlannedQuery planned, planner.Plan(bound));
  report->plan_before = planned.naive_plan;
  report->plan_after = planned.plan->ToString();
  report->plan_seconds = phase.ElapsedSeconds();
  return planned;
}

bool Warehouse::DepsFresh(
    const std::vector<engine::ResultDependency>& deps) const {
  for (const auto& dep : deps) {
    if (CurrentMtime(dep.path) != dep.mtime) return false;
  }
  return true;
}

Result<std::unique_ptr<QueryCursor>> Warehouse::Prepare(
    const std::string& sql, const QueryOptions& query_options,
    size_t window_batches) {
  auto cursor = std::unique_ptr<QueryCursor>(new QueryCursor());
  QueryCursor::Impl& im = *cursor->impl_;
  ExecutionReport& report = im.report;
  report.sql = sql;
  im.batch_rows = options_.batch_rows == SIZE_MAX ? engine::kDefaultBatchRows
                                                  : options_.batch_rows;

  common::AdmissionRequest request;
  request.priority = query_options.priority;
  request.client_id = query_options.client_id;
  request.client_weight = query_options.client_weight;
  request.queue_timeout_ms =
      ResolveQueueTimeoutMs(query_options.queue_timeout_ms);

  // Admission control: a policy-driven ticket, held (RAII, via the
  // QueryContext) for the query's whole execution. Its budget — carved
  // from the process-global cap — governs breaker state, extraction
  // windows and (via the recycler's governor) cache admissions. Only
  // footprint-aware admission needs the plan before the ticket; otherwise
  // admit first, so the scheduler bound also caps concurrent metadata
  // refresh/hydration work. A queue timeout fails here with
  // DeadlineExceeded before any state is touched.
  const bool footprint = options_.footprint_aware_admission;
  common::QueryTicket ticket;
  auto admit = [&]() -> Status {
    LAZYETL_ASSIGN_OR_RETURN(ticket, scheduler_->Admit(request));
    std::string line = "query (ticket " + std::to_string(ticket.id()) +
                       ", priority " +
                       common::QueryPriorityToString(request.priority);
    if (footprint) {
      line += ", estimated footprint " +
              std::to_string(request.estimated_bytes) + " B";
    }
    LogOp(LogCategory::kQuery, line + "): " + sql);
    return Status::OK();
  };
  if (!footprint) LAZYETL_RETURN_NOT_OK(admit());

  LAZYETL_ASSIGN_OR_RETURN(sql::BoundQuery bound, ParseAndBind(sql, &report));
  if (IsLazyStrategy()) {
    // Lazy refreshment (§3.3): before executing, verify the candidate
    // files' mtimes and re-load metadata of any that changed, so the
    // metadata phase of the plan sees the current repository state.
    LAZYETL_RETURN_NOT_OK(RefreshStaleCandidates(bound, &report));
  }
  if (options_.strategy == LoadStrategy::kLazyFilenameOnly) {
    LAZYETL_RETURN_NOT_OK(HydrateForQuery(bound, &report));
  }
  // Admission epochs, observed against the catalog this query plans on:
  // a publish after this point refuses the query's cache admissions.
  im.result_epoch = result_recycler_->epoch();
  if (plan_cache_ != nullptr) im.plan_epoch = plan_cache_->epoch();
  LAZYETL_ASSIGN_OR_RETURN(im.planned, PlanBound(bound, &report));
  LogOp(LogCategory::kPlan,
        "compile-time reorganisation done (metadata predicates first)");

  // Sub-plan cache: recognize the topmost breaker subtree and, when a
  // still-valid materialization exists, substitute a CachedScan for it —
  // footprint estimation then sees the substituted plan, so a served
  // sub-plan admits near-free. The original subtree is detached (not
  // destroyed): the footprint path re-validates after its queue wait and
  // reverts on staleness.
  engine::PlanNodePtr* sub_slot =
      plan_cache_ != nullptr ? engine::FindCacheableSubPlan(&im.planned.plan)
                             : nullptr;
  if (sub_slot != nullptr) {
    im.subplan_fp = engine::PlanFingerprint(**sub_slot);
    if (im.subplan_fp.empty()) sub_slot = nullptr;
  }
  auto dep_mtime_fn = [this](const engine::ResultDependency& dep) {
    return CurrentMtime(dep.path);
  };
  if (sub_slot != nullptr) {
    engine::CachedSubPlanPtr hit =
        plan_cache_->ValidateAndGet(im.subplan_fp, dep_mtime_fn);
    if (hit != nullptr) {
      im.subplan_detached = std::move(*sub_slot);
      *sub_slot = engine::MakeCachedScan(hit->table, "subplan");
      im.subplan_deps = hit->deps;
    }
  }

  // Whole-result recycling, probed once.
  if (options_.enable_result_cache) {
    im.cached = result_recycler_->ValidateAndGet(sql, dep_mtime_fn);
  }

  if (footprint) {
    // Estimate from the just-built plan, then take the ticket. A
    // still-valid cached whole result needs no execution memory, so the
    // hit is never footprint-gated behind headroom it will not use.
    if (im.cached == nullptr) {
      uint64_t lazy_bytes = 0;
      if (IsLazyStrategy()) {
        auto cold = EstimateColdExtractionBytes(bound);
        if (cold.ok()) lazy_bytes = *cold;
      }
      request.estimated_bytes =
          engine::EstimatePlanFootprint(*im.planned.plan, *catalog_,
                                        lazy_bytes);
    }
    LAZYETL_RETURN_NOT_OK(admit());
    // The hits were validated before queueing; files may have changed
    // while this query waited. Re-validate and fall back to executing —
    // correctness never depends on the cache.
    if (im.cached != nullptr && !DepsFresh(im.cached->deps)) {
      im.cached.reset();
    }
    if (im.subplan_detached != nullptr && !DepsFresh(im.subplan_deps)) {
      *sub_slot = std::move(im.subplan_detached);
      im.subplan_deps.clear();
    }
  }

  if (im.cached != nullptr) {
    result_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    // The executed path gets these from Executor::OpenCursor (via the
    // QueryContext); a cache hit fills them itself.
    report.ticket_id = ticket.id();
    report.queue_wait_seconds = ticket.queue_wait_seconds();
    report.admitted_budget_bytes = ticket.admitted_budget_bytes();
    report.priority = common::QueryPriorityToString(request.priority);
    report.client_id = request.client_id;
    report.estimated_footprint_bytes = request.estimated_bytes;
    report.result_cache_hit = true;
    report.result_rows = im.cached->table.num_rows();
    report.total_seconds = im.total.ElapsedSeconds();
    LogOp(LogCategory::kCache, "query answered from result cache (ticket " +
                                   std::to_string(ticket.id()) + ")");
    return cursor;
  }

  // A sub-plan hit is reported only when the query executes over it; a
  // whole-result hit above answers without it.
  if (im.subplan_detached != nullptr) {
    report.plan_cache_hit = true;
    report.plan_runtime +=
        "sub-plan cache hit: breaker subtree replaced by CachedScan\n" +
        im.planned.plan->ToString();
    LogOp(LogCategory::kCache, "sub-plan served from plan cache (ticket " +
                                   std::to_string(ticket.id()) + ")");
  }

  // Per-query execution state: the context adopts the admission ticket
  // (so the slot is held until execution finishes) and labels its spill
  // directory with the ticket id; the provider carries the query's
  // result-cache dependencies. A materializing caller on a sub-plan miss
  // runs the breaker subtree alone first, to admit its output.
  im.exec_phase.Restart();
  im.qctx = std::make_unique<engine::QueryContext>(std::move(ticket),
                                                   options_.spill_dir);
  im.provider = std::make_unique<WarehouseDataProvider>(this, im.qctx.get());
  engine::ExecutorOptions exec_options;
  exec_options.batch_rows = options_.batch_rows;
  exec_options.query_threads = options_.query_threads;
  im.executor = std::make_unique<engine::Executor>(
      catalog_.get(), im.provider.get(), exec_options);
  if (window_batches == 0 && sub_slot != nullptr &&
      im.subplan_detached == nullptr) {
    im.subplan_to_admit = sub_slot;
  }
  const engine::PlanNode& root = im.subplan_to_admit != nullptr
                                     ? **im.subplan_to_admit
                                     : *im.planned.plan;
  LAZYETL_ASSIGN_OR_RETURN(
      im.exec, im.executor->OpenCursor(root, &report, im.qctx.get(),
                                       window_batches));
  return cursor;
}

Result<QueryResult> Warehouse::Query(const std::string& sql,
                                     const QueryOptions& query_options) {
  LAZYETL_ASSIGN_OR_RETURN(std::unique_ptr<QueryCursor> cursor,
                           Prepare(sql, query_options, /*window_batches=*/0));
  QueryCursor::Impl& im = *cursor->impl_;
  if (im.cached != nullptr) {
    Table result = im.cached->table;
    im.rows_streamed = result.num_rows();
    im.Release();
    return QueryResult{std::move(result), std::move(im.report)};
  }

  LAZYETL_ASSIGN_OR_RETURN(Table result, im.exec->Drain());
  if (im.subplan_to_admit != nullptr) {
    // Sub-plan miss: admit the breaker subtree's materialization together
    // with the dependency set its execution recorded, then run the
    // remainder of the plan over the cached table. Byte-identical to
    // single-phase execution: the breaker's output is deterministic, and
    // the remainder consumes the same rows in the same order.
    auto sub_table = std::make_shared<Table>(std::move(result));
    engine::CachedSubPlan entry;
    entry.table = sub_table;
    entry.deps = im.provider->deps();
    entry.admitted_at = NowNanos();
    plan_cache_->Admit(im.subplan_fp, std::move(entry), im.plan_epoch);
    if (im.subplan_to_admit == &im.planned.plan) {
      result = *sub_table;
    } else {
      *im.subplan_to_admit = engine::MakeCachedScan(sub_table, "subplan");
      LAZYETL_ASSIGN_OR_RETURN(
          im.exec, im.executor->OpenCursor(*im.planned.plan, &im.report,
                                           im.qctx.get(),
                                           /*window_batches=*/0));
      LAZYETL_ASSIGN_OR_RETURN(result, im.exec->Drain());
    }
  }

  engine::CachedResult cached;
  if (options_.enable_result_cache) {
    cached.table = result;
    cached.deps = im.provider->deps();
    // A sub-plan served from cache contributes files this execution never
    // opened; the whole result still depends on them.
    cached.deps.insert(cached.deps.end(), im.subplan_deps.begin(),
                       im.subplan_deps.end());
  }
  im.rows_streamed = result.num_rows();
  im.Release();
  if (options_.enable_result_cache) {
    cached.admitted_at = NowNanos();
    result_recycler_->Admit(sql, std::move(cached), im.result_epoch);
  }
  return QueryResult{std::move(result), std::move(im.report)};
}

Result<std::unique_ptr<QueryCursor>> Warehouse::OpenCursor(
    const std::string& sql) {
  return OpenCursor(sql, QueryOptions());
}

Result<std::unique_ptr<QueryCursor>> Warehouse::OpenCursor(
    const std::string& sql, const QueryOptions& query_options) {
  return Prepare(sql, query_options, options_.cursor_window_batches);
}

Result<engine::ExecutionReport> Warehouse::Explain(const std::string& sql) {
  ExecutionReport report;
  report.sql = sql;
  LAZYETL_ASSIGN_OR_RETURN(sql::BoundQuery bound, ParseAndBind(sql, &report));
  LAZYETL_RETURN_NOT_OK(PlanBound(bound, &report).status());
  report.total_seconds =
      report.parse_seconds + report.bind_seconds + report.plan_seconds;
  return report;
}

Result<RefreshStats> Warehouse::Refresh() {
  Stopwatch timer;
  RefreshStats stats;
  LogOp(LogCategory::kRefresh, "refresh: re-scanning repositories");

  // Pass 1 (no lock): walk the repositories. The directory scan is the
  // bulk of a no-op refresh; keeping it off the registry lock means
  // polling refreshes never stall concurrent queries.
  std::vector<mseed::ScannedFile> scanned_all;
  std::unordered_set<std::string> seen;
  for (const auto& root : repositories()) {
    LAZYETL_ASSIGN_OR_RETURN(auto scanned, mseed::ScanRepository(root));
    for (auto& f : scanned) {
      seen.insert(f.path);
      scanned_all.push_back(std::move(f));
    }
  }

  // Pass 2 (shared lock): classify against the registry.
  std::vector<const mseed::ScannedFile*> new_files;
  std::vector<const mseed::ScannedFile*> modified;
  std::vector<int64_t> deleted;
  {
    std::shared_lock lock(meta_mu_);
    for (const auto& f : scanned_all) {
      auto it = path_to_file_id_.find(f.path);
      if (it == path_to_file_id_.end()) {
        new_files.push_back(&f);
        continue;
      }
      const FileEntry& entry = files_[it->second - 1];
      if (f.mtime != entry.mtime || f.size != entry.size) {
        modified.push_back(&f);
      }
    }
    for (const auto& entry : files_) {
      if (entry.file_id == 0) continue;
      if (!seen.count(entry.path)) deleted.push_back(entry.file_id);
    }
  }

  // Pass 3 (exclusive, only when the repository actually changed):
  // re-check under the lock — a concurrent query's staleness pass or
  // another Refresh may have raced us — and apply in one COW session.
  if (!new_files.empty() || !modified.empty() || !deleted.empty()) {
    std::unique_lock lock(meta_mu_);
    CatalogWriter writer(this);
    for (const mseed::ScannedFile* f : new_files) {
      if (path_to_file_id_.count(f->path)) continue;
      LoadStats ls;
      LAZYETL_RETURN_NOT_OK(AttachFileLocked(f->path, &writer, &ls));
      stats.bytes_read += ls.bytes_read;
      if (ls.files > 0) ++stats.new_files;
    }
    for (const mseed::ScannedFile* f : modified) {
      auto it = path_to_file_id_.find(f->path);
      if (it == path_to_file_id_.end()) continue;
      FileEntry& entry = files_[it->second - 1];
      if (f->mtime == entry.mtime && f->size == entry.size) continue;
      ++stats.modified_files;
      LAZYETL_RETURN_NOT_OK(
          ReloadModifiedFileLocked(&entry, &writer, &stats.bytes_read));
    }
    for (int64_t fid : deleted) {
      FileEntry& entry = files_[fid - 1];
      if (entry.file_id == 0) continue;
      // Re-verify on disk: the lock-free scan races concurrent
      // AttachRepository() calls, so an entry absent from the scan may
      // simply have been attached after the snapshot — a file that still
      // exists is never tombstoned.
      if (mseed::StatFile(entry.path).ok()) continue;
      ++stats.deleted_files;
      recycler_->InvalidateFile(entry.file_id);
      if (column_cache_ != nullptr) {
        column_cache_->InvalidateFile(entry.file_id);
      }
      if (plan_cache_ != nullptr) plan_cache_->InvalidateFile(entry.file_id);
      LAZYETL_ASSIGN_OR_RETURN(Table * files, writer.Mutable(kFilesTable));
      LAZYETL_ASSIGN_OR_RETURN(Table * records,
                               writer.Mutable(kRecordsTable));
      LAZYETL_RETURN_NOT_OK(RemoveFileRows(files, entry.file_id).status());
      LAZYETL_RETURN_NOT_OK(RemoveFileRows(records, entry.file_id).status());
      if (options_.strategy == LoadStrategy::kEager) {
        LAZYETL_ASSIGN_OR_RETURN(Table * data, writer.Mutable(kDataTable));
        LAZYETL_RETURN_NOT_OK(RemoveFileRows(data, entry.file_id).status());
      }
      path_to_file_id_.erase(entry.path);
      entry.file_id = 0;  // tombstone
      entry.metadata.reset();
      entry.hydrated = false;
      entry.seq_to_record.clear();
    }
    writer.Publish();
  }

  result_recycler_->Clear();
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  stats.seconds = timer.ElapsedSeconds();
  LogOp(LogCategory::kRefresh,
        "refresh done: " + std::to_string(stats.new_files) + " new, " +
            std::to_string(stats.modified_files) + " modified, " +
            std::to_string(stats.deleted_files) + " deleted");
  return stats;
}

void Warehouse::ClearCaches() {
  recycler_->Clear();
  recycler_->ResetCounters();
  if (column_cache_ != nullptr) {
    column_cache_->Clear();
    column_cache_->ResetCounters();
  }
  if (plan_cache_ != nullptr) {
    plan_cache_->Clear();
    plan_cache_->ResetCounters();
  }
  result_recycler_->Clear();
}

void Warehouse::ResetCacheCounters() {
  recycler_->ResetCounters();
  if (column_cache_ != nullptr) column_cache_->ResetCounters();
  if (plan_cache_ != nullptr) plan_cache_->ResetCounters();
}

WarehouseStats Warehouse::Stats() const {
  WarehouseStats stats;
  stats.strategy = options_.strategy;
  {
    std::shared_lock lock(meta_mu_);
    for (const auto& entry : files_) {
      if (entry.file_id == 0) continue;
      ++stats.num_files;
      if (entry.hydrated) ++stats.num_hydrated_files;
      stats.repository_bytes += entry.size;
    }
  }
  stats.catalog_bytes = catalog_->MemoryBytes();
  stats.cache = recycler_->stats();
  stats.result_cache_hits = result_cache_hits_.load(std::memory_order_relaxed);
  stats.result_cache_entries = result_recycler_->entries();
  if (column_cache_ != nullptr) stats.column_cache = column_cache_->stats();
  if (plan_cache_ != nullptr) stats.plan_cache = plan_cache_->stats();
  stats.cache_pool = cache_pool_->stats();
  stats.queries_admitted = scheduler_->total_admitted();
  stats.queries_timed_out = scheduler_->total_timed_out();
  stats.queries_bypass_admitted = scheduler_->total_bypass_admissions();
  stats.queries_active = scheduler_->active();
  stats.queries_waiting = scheduler_->waiting();
  return stats;
}

}  // namespace lazyetl::core
