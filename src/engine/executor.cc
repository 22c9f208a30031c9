#include "engine/executor.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/memory_budget.h"
#include "common/spill.h"
#include "common/thread_pool.h"
#include "engine/query_context.h"
#include "engine/operators/batch_cursor.h"
#include "engine/operators/join_build.h"
#include "engine/operators/operator.h"

namespace lazyetl::engine {

using storage::SelectionVector;
using storage::Table;
using storage::TableSlice;

namespace {

// Default streaming adapter: one chunk holding the whole fetched table.
// Providers that can extract incrementally override StreamRecords.
class SingleChunkStream : public RecordStream {
 public:
  explicit SingleChunkStream(Table table) : table_(std::move(table)) {}

  Result<bool> Next(Table* out) override {
    if (done_) return false;
    done_ = true;
    *out = std::move(table_);
    return true;
  }

 private:
  Table table_;
  bool done_ = false;
};

// Cache-aware morsel sizing: LAZYETL_MORSEL_ROWS overrides the default
// rows-per-batch (and thus per-morsel) when the caller did not configure
// one explicitly. Values outside [64, 1M] — or non-numeric ones — are
// ignored; results are identical at any setting, only locality changes.
size_t ResolveMorselRows(size_t configured) {
  if (configured != kDefaultBatchRows) return configured;
  const char* env = std::getenv("LAZYETL_MORSEL_ROWS");
  if (env == nullptr || *env == '\0') return configured;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') return configured;
  if (v < 64 || v > (1ull << 20)) return configured;
  return static_cast<size_t>(v);
}

}  // namespace

Result<std::unique_ptr<RecordStream>> LazyDataProvider::StreamRecords(
    const std::vector<RecordKey>& keys, const std::vector<ScanColumn>& columns,
    size_t batch_rows, ExecutionReport* report) {
  (void)batch_rows;
  LAZYETL_ASSIGN_OR_RETURN(Table data, FetchRecords(keys, columns, report));
  return std::unique_ptr<RecordStream>(
      std::make_unique<SingleChunkStream>(std::move(data)));
}

Result<std::unique_ptr<RecordStream>> LazyDataProvider::StreamAllRecords(
    const std::vector<ScanColumn>& columns, size_t batch_rows,
    ExecutionReport* report) {
  (void)batch_rows;
  LAZYETL_ASSIGN_OR_RETURN(Table data, FetchAllRecords(columns, report));
  return std::unique_ptr<RecordStream>(
      std::make_unique<SingleChunkStream>(std::move(data)));
}

Result<Table> HashJoinTables(const Table& left, const Table& right,
                             const std::vector<std::string>& left_keys,
                             const std::vector<std::string>& right_keys) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return Status::InvalidArgument("join key arity mismatch");
  }
  JoinBuild build;
  LAZYETL_RETURN_NOT_OK(build.Init(&left, left_keys));
  TableSlice probe = right.Slice(0, right.num_rows());
  SelectionVector left_sel;
  SelectionVector right_sel;
  LAZYETL_RETURN_NOT_OK(build.Probe(probe, right_keys, &left_sel, &right_sel));

  Table out = left.Gather(left_sel);
  Table right_rows = right.Gather(right_sel);
  for (size_t i = 0; i < right_rows.num_columns(); ++i) {
    LAZYETL_RETURN_NOT_OK(
        out.AddColumn(right_rows.column_name(i), right_rows.column(i)));
  }
  return out;
}

ExecutionCursor::ExecutionCursor() = default;

ExecutionCursor::~ExecutionCursor() { Close(); }

// Report finalization, exactly once: the drive loop is cancelled/joined,
// the operator tree closed, and the per-operator counters aggregated into
// the report (skipped on error, matching the historical Execute). The
// standalone QueryContext (budget + spill dir) is released here too, so
// an abandoned cursor frees its resources at Close, not at destruction.
void ExecutionCursor::Finalize(bool with_stats) {
  if (finalized_) return;
  finalized_ = true;
  if (cursor_ != nullptr) {
    peak_buffered_batches_ = cursor_->peak_buffered_batches();
    peak_buffered_bytes_ = cursor_->peak_buffered_bytes();
    cursor_->Close();
  }
  if (root_ != nullptr) {
    root_->Close();
    if (report_ != nullptr && with_stats) {
      size_t base = report_->operator_stats.size();
      root_->AppendStats(&report_->operator_stats);
      uint64_t peak = 0;
      for (size_t i = base; i < report_->operator_stats.size(); ++i) {
        const OperatorStats& os = report_->operator_stats[i];
        peak += os.state_bytes + os.peak_batch_bytes;
        report_->spilled_bytes += os.spilled_bytes;
        report_->spill_files += os.spill_files;
        report_->spill_compressed_bytes += os.spill_compressed_bytes;
        report_->spill_write_wait_seconds += os.spill_write_wait_seconds;
        report_->groups_vectorized += os.groups_vectorized;
        report_->morsels_pruned += os.morsels_pruned;
        report_->rows_pruned += os.rows_pruned;
        report_->joins_vectorized += os.joins_vectorized;
        report_->probe_rows_bloom_filtered += os.rows_bloom_filtered;
        report_->join_build_seconds += os.join_build_seconds;
        report_->join_probe_seconds += os.join_probe_seconds;
      }
      report_->peak_intermediate_bytes += peak;
    }
  }
  cursor_.reset();
  root_.reset();
  exec_ctx_.reset();
  local_ctx_.reset();
}

Result<bool> ExecutionCursor::Next(Batch* out) {
  if (closed_ || finished_ || finalized_) return false;
  auto more = cursor_->Next(out);
  if (!more.ok()) {
    finished_ = true;
    Finalize(/*with_stats=*/false);
    return more;
  }
  if (!*more) {
    finished_ = true;
    Finalize(/*with_stats=*/true);
  }
  return more;
}

void ExecutionCursor::Close() {
  if (closed_) return;
  closed_ = true;
  Finalize(/*with_stats=*/true);
}

uint64_t ExecutionCursor::peak_buffered_batches() const {
  return cursor_ != nullptr ? cursor_->peak_buffered_batches()
                            : peak_buffered_batches_;
}

uint64_t ExecutionCursor::peak_buffered_bytes() const {
  return cursor_ != nullptr ? cursor_->peak_buffered_bytes()
                            : peak_buffered_bytes_;
}

Result<std::unique_ptr<ExecutionCursor>> Executor::OpenCursor(
    const PlanNode& plan, ExecutionReport* report, QueryContext* qctx,
    size_t window_batches) {
  size_t threads = options_.query_threads;
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, common::ThreadPool::kMaxThreads);

  // Memory governance: the per-query budget chains to the process-wide
  // budget so a global cap across concurrent queries also holds. An
  // admitted query brings its context (scheduler-carved budget, spill
  // manager labelled with the ticket id); standalone callers get one built
  // here from the options (else the LAZYETL_MEMORY_BUDGET environment
  // variable). Either way the spill directory lives exactly as long as
  // the cursor — released at Close on success, abandon, and error alike.
  std::unique_ptr<ExecutionCursor> cursor(new ExecutionCursor());
  if (qctx == nullptr) {
    cursor->local_ctx_ = std::make_unique<QueryContext>(
        common::ResolvePerQueryBudgetBytes(options_.memory_budget_bytes),
        options_.spill_dir);
    qctx = cursor->local_ctx_.get();
  }
  cursor->qctx_ = qctx;
  cursor->report_ = report;

  size_t batch_rows = ResolveMorselRows(options_.batch_rows);
  cursor->exec_ctx_ = std::make_unique<ExecContext>(
      ExecContext{catalog_, provider_, report, batch_rows, threads,
                  qctx->budget(), qctx->spill()});
  LAZYETL_ASSIGN_OR_RETURN(
      cursor->root_, BuildOperatorTree(plan, cursor->exec_ctx_.get()));
  LAZYETL_RETURN_NOT_OK(cursor->root_->Open());

  // Admission-derived report fields are known now; set them at open so
  // even an abandoned cursor reports them (the materializing path set
  // them after the drain, error or not — same observable result).
  if (report != nullptr) {
    report->query_threads = threads;
    report->morsel_rows = batch_rows == SIZE_MAX ? 0 : batch_rows;
    report->memory_budget_bytes = qctx->admitted_budget_bytes();
    report->ticket_id = qctx->ticket_id();
    report->queue_wait_seconds = qctx->queue_wait_seconds();
    report->admitted_budget_bytes = qctx->admitted_budget_bytes();
    report->priority =
        common::QueryPriorityToString(qctx->admission().priority);
    report->client_id = qctx->admission().client_id;
    report->estimated_footprint_bytes = qctx->admission().estimated_bytes;
  }

  cursor->cursor_ = std::make_unique<BatchCursor>(
      cursor->root_.get(), BatchCursor::Options{threads, window_batches});
  return cursor;
}

Result<Table> ExecutionCursor::Drain() {
  Table result;
  bool first = true;
  Batch batch;
  while (true) {
    LAZYETL_ASSIGN_OR_RETURN(bool more, Next(&batch));
    if (!more) break;
    if (first) {
      result = batch.view.Materialize();
      first = false;
    } else {
      LAZYETL_RETURN_NOT_OK(result.AppendSlice(batch.view));
    }
    batch = Batch();
  }
  Close();
  return result;
}

Result<Table> Executor::Execute(const PlanNode& plan, ExecutionReport* report,
                                QueryContext* qctx) {
  // The materializing path drains the streaming cursor with an unbounded
  // window: when the root pipeline is parallel-safe, `threads` workers
  // pull morsels concurrently and the result table is reassembled in seq
  // order — byte-identical to the serial drain.
  LAZYETL_ASSIGN_OR_RETURN(std::unique_ptr<ExecutionCursor> cursor,
                           OpenCursor(plan, report, qctx,
                                      /*window_batches=*/0));
  return cursor->Drain();
}

}  // namespace lazyetl::engine
