#include "exec/parallel/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>

#include "common/cycleclock.h"
#include "exec/agg_merge.h"
#include "exec/append.h"
#include "prim/bloom.h"

namespace ma {
namespace {

/// Appends all rows of `src` to `dst`, creating columns on first use.
/// (Strings are copied into dst's own heap; the per-morsel partial
/// tables are freed after the merge.)
void AppendTableRows(const Table& src, Table* dst) {
  for (size_t i = 0; i < src.num_columns(); ++i) {
    Column* dst_col = dst->FindMutableColumn(src.column_name(i));
    if (dst_col == nullptr) {
      dst_col = dst->AddColumn(src.column_name(i), src.column(i)->type());
    }
    AppendColumnRows(*src.column(i), dst_col);
  }
  dst->set_row_count(dst->row_count() + src.row_count());
}

}  // namespace

ParallelExecutor::ParallelExecutor(EngineConfig engine_config,
                                   ParallelConfig parallel_config,
                                   PrimitiveDictionary* dict,
                                   ThreadPool* shared_pool)
    : engine_config_(std::move(engine_config)),
      parallel_config_(parallel_config),
      dict_(dict) {
  if (shared_pool != nullptr) {
    pool_ = shared_pool;
  } else {
    int threads = parallel_config_.num_threads;
    if (threads <= 0) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
      if (threads <= 0) threads = 1;
    }
    owned_pool_ = std::make_unique<ThreadPool>(threads);
    pool_ = owned_pool_.get();
  }
  // Prime lazily-initialized singletons on this thread so the parallel
  // regions neither race on first-touch nor absorb the ~20ms frequency
  // calibration into a timed section.
  CycleClock::FrequencyHz();
}

ParallelExecutor::~ParallelExecutor() = default;

void ParallelExecutor::set_context(QueryContext* ctx) {
  context_ = ctx != nullptr ? ctx : &own_context_;
  if (ctx != nullptr) {
    BuildEngines();
  } else {
    // The finished query's engines stay readable (engines(),
    // MergedProfile()) but must not keep its context.
    for (auto& eng : engines_) eng->set_context(nullptr);
  }
}

void ParallelExecutor::BuildEngines() {
  engines_.clear();
  for (int w = 0; w < num_threads(); ++w) {
    engines_.push_back(std::make_unique<Engine>(engine_config_, dict_));
    engines_.back()->set_context(context_);
  }
}

ParallelExecutor::RunStart ParallelExecutor::BeginRun(const char* site) {
  if (context_ == &own_context_) {
    // Unbound: this run is a query of its own.
    own_context_.Reset();
    BuildEngines();
  }
  RunStart start{context_, CycleClock::Now(), TotalPrimitiveCycles()};
  context_->MaybeInjectFault(site);
  return start;
}

RunResult ParallelExecutor::EndRun(const RunStart& start, u64 t_exec,
                                   RunResult r) const {
  r.status = start.ctx->status();
  r.reason = ReasonFromStatus(r.status);
  if (!r.status.ok()) r.table = nullptr;
  const u64 t_end = CycleClock::Now();
  r.stages.execute = t_exec - start.t0;
  r.stages.primitives = TotalPrimitiveCycles() - start.primitives;
  r.stages.postprocess = t_end - t_exec;
  r.total_cycles = t_end - start.t0;
  r.seconds = static_cast<f64>(r.total_cycles) / CycleClock::FrequencyHz();
  return r;
}

void ParallelExecutor::DrainPipelines(
    const Table* table, const std::vector<std::string>& scan_columns,
    const PipelineFactory& factory, MorselQueue* queue, int workers,
    const char* alloc_site, QueryContext* ctx,
    const std::function<void(size_t, const Batch&)>& sink) {
  const bool accounted = ctx->accounting_enabled();
  Status pool_status = pool_->Run([&](int w) {
    if (w >= workers || ctx->ShouldStop()) return;
    Engine* engine = engines_[w].get();
    auto scan = std::make_unique<MorselScanOperator>(engine, table,
                                                     scan_columns, queue, w);
    MorselScanOperator* scan_leaf = scan.get();
    OperatorPtr root = factory(engine, std::move(scan));
    Status open = root->Open();
    if (!open.ok()) {
      ctx->Fail(std::move(open));
      return;
    }
    Batch batch;
    for (;;) {
      batch.Clear();
      if (!root->Next(&batch)) break;
      if (batch.live_count() == 0) continue;
      if (accounted &&
          !ctx->ReserveMemory(alloc_site, ApproxBatchBytes(batch)).ok()) {
        return;
      }
      // The pipeline is pull-based and holds no batches back, so this
      // output belongs to the morsel the scan leaf emitted last.
      sink(scan_leaf->current_morsel(), batch);
    }
  }, task_tag_);
  if (!pool_status.ok()) ctx->Fail(std::move(pool_status));
}

u64 ParallelExecutor::TotalPrimitiveCycles() const {
  u64 total = 0;
  for (const auto& eng : engines_) total += eng->TotalPrimitiveCycles();
  return total;
}

int ParallelExecutor::ResolveWorkers(const StageHints& hints) const {
  if (hints.workers <= 0) return num_threads();
  return std::min(hints.workers, num_threads());
}

std::vector<InstanceProfile> ParallelExecutor::MergedProfile() const {
  std::vector<const PrimitiveInstance*> instances;
  for (const auto& eng : engines_) {
    for (const auto& inst : eng->instances()) instances.push_back(inst.get());
  }
  return MergeInstanceProfiles(instances);
}

RunResult ParallelExecutor::RunPipeline(
    const Table* table, std::vector<std::string> scan_columns,
    const PipelineFactory& factory, const StageHints& hints) {
  auto sink = std::make_unique<Table>("result");
  RunResult result = RunPipelineImpl(table, std::move(scan_columns), factory,
                                     sink.get(), hints);
  if (result.status.ok()) result.table = std::move(sink);
  return result;
}

RunResult ParallelExecutor::RunPipelineInto(
    const Table* table, std::vector<std::string> scan_columns,
    const PipelineFactory& factory, IntermediateTable* out,
    const StageHints& hints) {
  MA_CHECK(out != nullptr);
  RunResult result = RunPipelineImpl(table, std::move(scan_columns), factory,
                                     out->mutable_table(), hints);
  out->EnsureSchema();
  return result;
}

RunResult ParallelExecutor::RunPipelineImpl(
    const Table* table, std::vector<std::string> scan_columns,
    const PipelineFactory& factory, Table* sink, const StageHints& hints) {
  MA_CHECK(table != nullptr);
  const RunStart start = BeginRun("parallel/pipeline");
  QueryContext* ctx = start.ctx;

  const int workers = ResolveWorkers(hints);
  MorselQueue queue(table->row_count(), parallel_config_.morsel_size, workers,
                    parallel_config_.work_stealing);
  // One output slot per morsel; a morsel is processed by exactly one
  // worker, so workers never write the same slot. Merging the slots in
  // index order afterwards makes the result independent of thread count
  // and stealing.
  std::vector<std::unique_ptr<Table>> morsel_out(queue.num_morsels());
  DrainPipelines(table, scan_columns, factory, &queue, workers,
                 "alloc/pipeline", ctx, [&](size_t m, const Batch& batch) {
                   if (morsel_out[m] == nullptr) {
                     morsel_out[m] = std::make_unique<Table>("morsel");
                   }
                   AppendBatchToTable(batch, morsel_out[m].get());
                 });
  const u64 t_exec = CycleClock::Now();

  RunResult result;
  if (ctx->status().ok()) {
    for (const auto& part : morsel_out) {
      if (part != nullptr) AppendTableRows(*part, sink);
    }
    result.rows_emitted = sink->row_count();
  }
  return EndRun(start, t_exec, std::move(result));
}

std::unique_ptr<SharedJoinBuild> ParallelExecutor::BuildJoin(
    const Table* build_table, std::vector<std::string> scan_columns,
    const PipelineFactory& factory, const HashJoinSpec& spec,
    const StageHints& hints) {
  MA_CHECK(build_table != nullptr);
  QueryContext* ctx = BeginRun("parallel/build").ctx;

  const int workers = ResolveWorkers(hints);
  MorselQueue queue(build_table->row_count(), parallel_config_.morsel_size,
                    workers, parallel_config_.work_stealing);
  struct BuildPartial {
    std::vector<i64> keys;
    std::vector<std::unique_ptr<Column>> cols;
  };
  std::vector<BuildPartial> partials(queue.num_morsels());
  DrainPipelines(build_table, scan_columns, factory, &queue, workers,
                 "alloc/build", ctx, [&](size_t m, const Batch& batch) {
                   HashJoinOperator::DrainBuildBatch(
                       batch, spec, &partials[m].keys, &partials[m].cols);
                 });
  // A failed build is useless (and possibly partial): report through
  // the context and hand the caller nothing to probe.
  if (!ctx->status().ok()) return nullptr;

  // Concatenate partials in morsel order: build row ids come out
  // exactly as a single-threaded drain would produce them.
  auto shared = std::make_unique<SharedJoinBuild>();
  for (size_t i = 0; i < spec.build_outputs.size(); ++i) {
    PhysicalType type = PhysicalType::kI64;
    bool found = false;
    // Declared types (plan-compiled joins) beat inference; they keep an
    // empty build side typed the same as a populated one.
    if (i < spec.build_output_types.size()) {
      type = spec.build_output_types[i];
      found = true;
    }
    for (const BuildPartial& part : partials) {
      if (found) break;
      if (i < part.cols.size()) {
        type = part.cols[i]->type();
        found = true;
      }
    }
    if (!found) {
      // Nothing survived the build-side filter; fall back to the source
      // column's type where it names a stored column.
      const Column* src =
          build_table->FindColumn(spec.build_outputs[i].first);
      if (src != nullptr) type = src->type();
    }
    shared->cols.push_back(std::make_unique<Column>(type));
  }
  u64 row0 = 0;
  for (const BuildPartial& part : partials) {
    if (!part.keys.empty()) {
      shared->ht.Append(part.keys.data(), part.keys.size(), nullptr, 0,
                        row0);
      row0 += part.keys.size();
    }
    for (size_t i = 0; i < part.cols.size(); ++i) {
      AppendColumnRows(*part.cols[i], shared->cols[i].get());
    }
  }
  shared->ht.Finalize();
  if (spec.kind == HashJoinSpec::Kind::kLeftOuter) {
    // The miss-payload default row, exactly as the serial drain appends
    // it (deterministic build row ids include the default row's id).
    for (auto& col : shared->cols) AppendDefault(col.get());
  }

  // Left outer never blooms (missed probe rows must be emitted, not
  // discarded); this entry point takes the spec by const ref, so the
  // exclusion HashJoinOperator::Normalize applies lives here too.
  if (spec.use_bloom && spec.kind != HashJoinSpec::Kind::kLeftOuter &&
      engine_config_.join_bloom_filters) {
    shared->bloom = std::make_unique<BloomFilter>(
        BloomFilter::ForKeys(shared->ht.num_rows() + 1));
    const JoinHashTable::View v = shared->ht.view();
    for (size_t i = 0; i < shared->ht.num_rows(); ++i) {
      shared->bloom->Insert(v.keys[i]);
    }
  }
  return shared;
}

RunResult ParallelExecutor::RunAgg(const Table* table,
                                   std::vector<std::string> scan_columns,
                                   const PipelineFactory& factory,
                                   const AggPlan& plan,
                                   const StageHints& hints) {
  MA_CHECK(table != nullptr);
  const RunStart start = BeginRun("parallel/agg");
  QueryContext* ctx = start.ctx;

  const int workers = ResolveWorkers(hints);
  MorselQueue queue(table->row_count(), parallel_config_.morsel_size, workers,
                    parallel_config_.work_stealing);
  std::vector<std::unique_ptr<HashAggOperator>> aggs(num_threads());

  Status pool_status = pool_->Run([&](int w) {
    if (w >= workers || ctx->ShouldStop()) return;
    Engine* engine = engines_[w].get();
    auto scan = std::make_unique<MorselScanOperator>(
        engine, table, scan_columns, &queue, w);
    OperatorPtr child = factory(engine, std::move(scan));
    // Clone the plan: AggSpec holds expression trees, and each worker
    // must own its own (expression nodes anchor primitive instances).
    std::vector<HashAggOperator::AggSpec> specs;
    for (const HashAggOperator::AggSpec& a : plan.aggs) {
      specs.push_back(a.Clone());
    }
    aggs[w] = std::make_unique<HashAggOperator>(
        engine, std::move(child), plan.group_keys, plan.group_outputs,
        std::move(specs), plan.label.empty() ? "parallel/agg" : plan.label);
    // Open() drains this worker's share of the morsels — the
    // thread-local pre-aggregation. It polls the context per batch and
    // charges "alloc/agg" growth itself.
    Status open = aggs[w]->Open();
    if (!open.ok()) ctx->Fail(std::move(open));
  }, task_tag_);
  if (!pool_status.ok()) ctx->Fail(std::move(pool_status));
  const u64 t_exec = CycleClock::Now();
  if (!ctx->status().ok()) return EndRun(start, t_exec, RunResult());

  // --- Two-phase merge of the thread-local partials (agg_merge.h) ----
  // Workers past the hinted count never built an operator; skip them.
  std::vector<HashAggOperator::Partial> parts;
  std::vector<const GroupTable*> tables;
  for (const auto& agg : aggs) {
    if (agg == nullptr) continue;
    parts.push_back(agg->partial());
    tables.push_back(parts.back().groups);
  }
  const PartialMerger merger(std::move(parts), plan.group_outputs);
  KeyPartitions partitions(std::move(tables), workers);
  const size_t num_parts = partitions.num_partitions();
  // Runs task(i, worker) for every i < n, each claimed by the next free
  // worker; inline when one partition (or one worker) leaves nothing to
  // spread. Stops claiming once the query must unwind.
  auto run_tasks = [&](size_t n,
                       const std::function<void(size_t, int)>& task) {
    std::atomic<size_t> next{0};
    auto drain = [&](int w) {
      for (size_t i; (i = next.fetch_add(1)) < n;) {
        if (ctx->ShouldStop()) return;
        task(i, w);
      }
    };
    if (workers == 1 || num_parts <= 1) {
      drain(0);
      return;
    }
    Status s = pool_->Run([&](int w) {
      if (w < workers) drain(w);
    }, task_tag_);
    if (!s.ok()) ctx->Fail(std::move(s));
  };

  // A refused charge fails the query, and every step below then stops.
  if (ctx->accounting_enabled()) {
    (void)ctx->ReserveMemory("alloc/agg", partitions.buffer_bytes());
  }
  run_tasks(partitions.num_tables(),
            [&](size_t t, int) { partitions.Count(t); });
  partitions.Layout();
  run_tasks(partitions.num_tables(),
            [&](size_t t, int) { partitions.Scatter(t); });
  std::vector<std::vector<GroupRef>> scratch(workers);
  std::vector<size_t> row_begin(num_parts + 1, 0);
  run_tasks(num_parts, [&](size_t p, int w) {
    if (!ctx->MaybeInjectFault("parallel/merge").ok()) return;
    partitions.Sort(p, &scratch[w]);
    row_begin[p + 1] =
        PartialMerger::CountKeys(partitions.begin(p), partitions.end(p));
  });
  for (size_t p = 0; p < num_parts; ++p) row_begin[p + 1] += row_begin[p];
  // Partitions are ascending key ranges: written at consecutive row
  // offsets, they come out in packed-key order.
  RunResult result;
  if (ctx->status().ok()) result.table = merger.NewTable(row_begin.back());
  std::vector<PartialMerger::StringCells> strings(num_parts);
  run_tasks(num_parts, [&](size_t p, int) {
    merger.Fold(partitions.begin(p), partitions.end(p), row_begin[p],
                result.table.get(), &strings[p]);
  });
  if (ctx->status().ok()) {
    for (const auto& cells : strings) {
      merger.AppendStrings(cells, result.table.get());
    }
    result.rows_emitted = result.table->row_count();
  }
  return EndRun(start, t_exec, std::move(result));
}

RunResult ParallelExecutor::RunTopN(const Table* table,
                                    const std::vector<std::string>& columns,
                                    const std::vector<SortKey>& keys,
                                    size_t limit, const StageHints& hints) {
  MA_CHECK(table != nullptr);
  MA_CHECK(limit > 0);
  MA_CHECK(!keys.empty());
  const RunStart start = BeginRun("parallel/topn");
  QueryContext* ctx = start.ctx;

  std::vector<const Column*> key_cols;
  for (const SortKey& k : keys) {
    const Column* c = table->FindColumn(k.column);
    MA_CHECK(c != nullptr);
    key_cols.push_back(c);
  }
  // SortRowsLess is a strict total order (row-index tiebreak), so "the
  // best `limit` rows" is a uniquely defined set: every worker's heap
  // retains any global winner it saw (eviction needs a strictly better
  // row, and fewer than `limit` exist), so the merged candidates always
  // contain the exact rows a serial partial_sort would pick.
  auto less = [&](u64 a, u64 b) { return SortRowsLess(key_cols, keys, a, b); };

  const int workers = ResolveWorkers(hints);
  MorselQueue queue(table->row_count(), parallel_config_.morsel_size, workers,
                    parallel_config_.work_stealing);
  // Per-worker bounded max-heaps: front = worst retained row.
  std::vector<std::vector<u64>> heaps(workers);

  Status pool_status = pool_->Run([&](int w) {
    if (w >= workers || ctx->ShouldStop()) return;
    std::vector<u64>& heap = heaps[w];
    heap.reserve(limit);
    Morsel m;
    while (queue.Next(w, &m)) {
      if (ctx->ShouldStop()) return;
      for (u64 r = m.begin; r < m.end; ++r) {
        if (heap.size() < limit) {
          heap.push_back(r);
          std::push_heap(heap.begin(), heap.end(), less);
        } else if (less(r, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), less);
          heap.back() = r;
          std::push_heap(heap.begin(), heap.end(), less);
        }
      }
    }
  }, task_tag_);
  if (!pool_status.ok()) ctx->Fail(std::move(pool_status));
  const u64 t_exec = CycleClock::Now();

  if (!ctx->status().ok()) return EndRun(start, t_exec, RunResult());

  // Ordered merge: the exact rows and order a serial sort+limit yields.
  std::vector<u64> order;
  for (const auto& heap : heaps) {
    order.insert(order.end(), heap.begin(), heap.end());
  }
  std::sort(order.begin(), order.end(), less);
  if (order.size() > limit) order.resize(limit);

  RunResult result;
  result.table = std::make_unique<Table>("result");
  std::vector<sel_t> sel(order.begin(), order.end());
  std::vector<std::string> all_cols;
  const std::vector<std::string>* out_cols = &columns;
  if (columns.empty()) {
    for (size_t i = 0; i < table->num_columns(); ++i) {
      all_cols.push_back(table->column_name(i));
    }
    out_cols = &all_cols;
  }
  if (ctx->accounting_enabled()) {
    Status charge = ctx->ReserveMemory(
        "alloc/sort", (sel.size() + 1) * out_cols->size() * sizeof(u64));
    if (!charge.ok()) {
      ctx->Fail(std::move(charge));
      return EndRun(start, t_exec, std::move(result));
    }
  }
  for (const std::string& name : *out_cols) {
    const Column* src = table->FindColumn(name);
    MA_CHECK(src != nullptr);
    Column* dst = result.table->AddColumn(name, src->type());
    AppendGatherColumn(*src, sel.data(), sel.size(), dst);
  }
  result.table->set_row_count(sel.size());
  result.rows_emitted = sel.size();
  return EndRun(start, t_exec, std::move(result));
}

}  // namespace ma
