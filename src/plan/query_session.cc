#include "plan/query_session.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/cycleclock.h"
#include "exec/op_scan.h"
#include "exec/op_sort.h"
#include "storage/intermediate.h"

namespace ma::plan {
namespace {

/// Below this many input rows a sort+limit runs serially: the fan-out
/// cannot pay for itself, and the serial path's empty-input behavior
/// (a zero-column result table) is preserved exactly.
constexpr u64 kParallelTopNMinRows = 4096;

/// Largest base table any stage scans — the row count that decides
/// whether the morsel fan-out can pay for itself under kAuto.
u64 DrivingRows(const StagePlan& sp) {
  u64 rows = 0;
  auto take = [&rows](const StageInput& in) {
    if (in.scan != nullptr && in.scan->table != nullptr) {
      rows = std::max<u64>(rows, in.scan->table->row_count());
    }
  };
  for (const Stage& s : sp.stages) {
    take(s.input);
    take(s.right);
  }
  return rows;
}

/// True when the i64 column `name` of `t` is ascending (the runtime
/// order proof for merge-join inputs).
bool ColumnIsAscending(const Table* t, const std::string& name) {
  const Column* c = t->FindColumn(name);
  if (c == nullptr || c->type() != PhysicalType::kI64) return false;
  const i64* d = c->Data<i64>();
  for (size_t i = 1; i < c->size(); ++i) {
    if (d[i] < d[i - 1]) return false;
  }
  return true;
}

ParallelExecutor::AggPlan MakeAggPlan(const PlanNode* agg,
                                      const ScalarBindings& scalars) {
  ParallelExecutor::AggPlan plan;
  plan.label = agg->label;
  plan.group_keys = agg->group_keys;
  plan.group_outputs = agg->group_outputs;
  for (const HashAggOperator::AggSpec& a : agg->aggs) {
    plan.aggs.push_back(a.Clone());
    if (plan.aggs.back().arg != nullptr) {
      plan.aggs.back().arg = BindScalarRefs(*a.arg, scalars);
    }
  }
  return plan;
}

std::unique_ptr<IntermediateTable> MakeIntermediate(const Stage& stage) {
  std::vector<IntermediateTable::ColumnSpec> specs;
  specs.reserve(stage.out_schema.size());
  for (const ColumnInfo& c : stage.out_schema) {
    specs.push_back({c.name, c.type});
  }
  return std::make_unique<IntermediateTable>(
      "stage" + std::to_string(stage.id), std::move(specs));
}

}  // namespace

QuerySession::QuerySession(SessionConfig config, PrimitiveDictionary* dict)
    : config_(std::move(config)),
      dict_(dict),
      engine_(config_.engine, dict) {}

namespace {

RunResult FailedResult(QueryContext* ctx) {
  RunResult r;
  r.status = ctx->status();
  if (r.status.ok()) r.status = Status::Internal("query failed");
  r.reason = ReasonFromStatus(r.status);
  return r;
}

/// Rebuilds an empty result from the plan's declared output schema.
/// The serial drain learns column names/types only from emitted
/// batches, so a zero-row query yields a zero-COLUMN table there,
/// while staged materialization emits typed empty columns — the one
/// place the two executors used to disagree. Normalizing every empty
/// result at the Run() boundary keeps the byte-identity contract on
/// degenerate inputs too.
RunResult WithDeclaredSchema(const std::vector<ColumnInfo>& schema,
                             RunResult r) {
  if (!r.status.ok() || r.table == nullptr || r.table->row_count() != 0) {
    return r;
  }
  auto t = std::make_unique<Table>("result");
  for (const ColumnInfo& c : schema) t->AddColumn(c.name, c.type);
  t->set_row_count(0);
  r.table = std::move(t);
  return r;
}

}  // namespace

RunResult QuerySession::Run(const LogicalPlan& plan, ExecMode mode,
                            QueryContext* ctx, const StagePlan* staged) {
  if (ctx == nullptr) {
    own_context_.Reset();
    ctx = &own_context_;
  }
  last_run_parallel_ = false;
  if (!plan.ok()) {
    ctx->Fail(plan.status.ok() ? Status::InvalidArgument("empty plan")
                               : plan.status);
    return FailedResult(ctx);
  }
  if (mode != ExecMode::kSerial) {
    const int threads =
        config_.shared_pool != nullptr ? config_.shared_pool->size()
        : config_.parallel.num_threads > 0
            ? config_.parallel.num_threads
            : static_cast<int>(std::thread::hardware_concurrency());
    auto gate = [&](const StagePlan& sp) {
      if (mode != ExecMode::kAuto) return true;
      return threads > 1 && DrivingRows(sp) >= config_.min_parallel_rows;
    };
    if (staged != nullptr) {
      // Precompiled (plan-cache hit): skip BuildStagePlan entirely.
      if (gate(*staged)) {
        last_run_parallel_ = true;
        return WithDeclaredSchema(plan.root->schema,
                                  RunStaged(*staged, ctx));
      }
    } else {
      StagePlan sp;
      const Status s = Compiler::BuildStagePlan(plan, &sp);
      if (s.ok() && gate(sp)) {
        last_run_parallel_ = true;
        return WithDeclaredSchema(plan.root->schema,
                                  RunStaged(sp, ctx));
      }
    }
  }
  return WithDeclaredSchema(plan.root->schema, RunSerial(plan, ctx));
}

RunResult QuerySession::RunSerial(const LogicalPlan& plan,
                                 QueryContext* ctx) {
  engine_.ResetProfile();
  engine_.set_context(ctx);
  // The clock and the primitive total span compile + run: CompileSerial
  // eagerly executes shared subplans and scalar subqueries on the engine.
  const u64 t0 = CycleClock::Now();
  RunResult r;
  OperatorPtr root = Compiler::CompileSerial(plan, &engine_);
  if (root != nullptr) {
    r = engine_.Run(*root);
  } else {
    r = FailedResult(ctx);  // compile recorded the error on ctx
  }
  r.total_cycles = CycleClock::Now() - t0;
  r.seconds = static_cast<f64>(r.total_cycles) / CycleClock::FrequencyHz();
  r.stages.primitives = engine_.TotalPrimitiveCycles();
  engine_.set_context(nullptr);
  return r;
}

void QuerySession::set_task_tag(std::string tag) {
  task_tag_ = std::move(tag);
  if (parallel_ != nullptr) parallel_->set_task_tag(task_tag_);
}

void QuerySession::set_warm_start(
    std::shared_ptr<const WarmStartSnapshot> priors) {
  // config_.engine seeds the parallel executor if it is created later;
  // the live engines take the snapshot directly.
  config_.engine.warm_start = priors;
  engine_.set_warm_start(priors);
  if (parallel_ != nullptr) parallel_->set_warm_start(std::move(priors));
}

RunResult QuerySession::RunStaged(const StagePlan& sp, QueryContext* ctx) {
  if (parallel_ == nullptr) {
    parallel_ = std::make_unique<ParallelExecutor>(
        config_.engine, config_.parallel, dict_, config_.shared_pool);
    parallel_->set_task_tag(task_tag_);
  }
  engine_.ResetProfile();  // sort/merge stages and the tail run here
  engine_.set_context(ctx);
  parallel_->set_context(ctx);  // fresh worker engines for every stage
  // Whatever way this run ends, the next query must find pristine
  // executors: drop the context bindings on every exit path.
  struct ContextGuard {
    Engine* engine;
    ParallelExecutor* parallel;
    ~ContextGuard() {
      engine->set_context(nullptr);
      parallel->set_context(nullptr);
    }
  } guard{&engine_, parallel_.get()};
  const u64 t0 = CycleClock::Now();

  // Stage outputs: shared join builds keyed by plan node, materialized
  // intermediates (and order-proven aliases) keyed by stage id. An
  // alias of a base table keeps the original scan's column projection;
  // materialized intermediates scan every column (empty list).
  Compiler::BuildMap builds;
  // Scalar values, filled as the producing stages complete (scalar
  // stages precede their consumers in topological order); captured by
  // reference in the fragment factories below.
  ScalarBindings bindings;
  std::vector<std::unique_ptr<SharedJoinBuild>> owned_builds;
  std::vector<std::unique_ptr<IntermediateTable>> mats(sp.stages.size());
  std::vector<const Table*> outs(sp.stages.size(), nullptr);
  std::vector<std::vector<std::string>> out_cols(sp.stages.size());
  auto resolve = [&](const StageInput& in)
      -> std::pair<const Table*, std::vector<std::string>> {
    if (in.from_stage()) {
      MA_CHECK(outs[in.stage] != nullptr);
      return {outs[in.stage], out_cols[in.stage]};
    }
    return {in.scan->table, in.scan->columns};
  };

  StageProfile acc;
  auto account = [&acc](const RunResult& r) {
    acc.execute += r.stages.execute;
    acc.primitives += r.stages.primitives;
    acc.postprocess += r.stages.postprocess;
  };
  RunResult result;
  // Shared stage epilogue: fold the stage's timings into the run
  // profile, then either materialize the output into this stage's
  // intermediate (unless an Into-style runner filled it already) or
  // keep it as the final result.
  auto finish = [&](const Stage& stage, RunResult r) {
    account(r);
    if (!r.status.ok()) return;  // the post-stage status check unwinds
    if (stage.materialize) {
      if (mats[stage.id] == nullptr) {
        mats[stage.id] = MakeIntermediate(stage);
        mats[stage.id]->Adopt(std::move(r.table));
        outs[stage.id] = mats[stage.id]->table();
      }
    } else {
      result = std::move(r);
    }
  };
  // The stages vector is topologically ordered, so running front to
  // back satisfies every dependency edge. A failed/cancelled query
  // breaks out: downstream stages are skipped entirely (their inputs
  // may not exist), and the post-loop check reports the first error.
  for (const Stage& stage : sp.stages) {
    if (!ctx->Poll().ok() ||
        !ctx->MaybeInjectFault("stage/" + std::to_string(stage.id)).ok()) {
      break;
    }
    // Each worker of a fan-out stage compiles its own fragment tree.
    auto factory = [&stage, &builds, &bindings](
                       Engine* engine, OperatorPtr leaf) -> OperatorPtr {
      return Compiler::CompileFragment(stage.root, stage.stop, engine,
                                       std::move(leaf), builds, bindings);
    };
    switch (stage.kind) {
      case Stage::Kind::kJoinBuild: {
        const auto [table, columns] = resolve(stage.input);
        owned_builds.push_back(parallel_->BuildJoin(table, columns, factory,
                                                    stage.join->hash_spec));
        if (owned_builds.back() == nullptr) break;  // ctx holds the error
        builds[stage.join] = owned_builds.back().get();
        break;
      }
      case Stage::Kind::kPipeline:
      case Stage::Kind::kAggregate: {
        const auto [table, columns] = resolve(stage.input);
        RunResult r;
        if (stage.kind == Stage::Kind::kPipeline && stage.materialize) {
          // Per-morsel partials append straight into the intermediate.
          mats[stage.id] = MakeIntermediate(stage);
          r = parallel_->RunPipelineInto(table, columns, factory,
                                         mats[stage.id].get());
          outs[stage.id] = mats[stage.id]->table();
        } else if (stage.kind == Stage::Kind::kAggregate) {
          r = parallel_->RunAgg(table, columns, factory,
                                MakeAggPlan(stage.agg, bindings));
        } else {
          r = parallel_->RunPipeline(table, columns, factory);
        }
        finish(stage, std::move(r));
        break;
      }
      case Stage::Kind::kSort: {
        const auto [table, columns] = resolve(stage.input);
        if (stage.prove_sorted) {
          // Order-proof stage under a merge join: verify the key column
          // is ascending and pass the input through untouched. A
          // violation is the same contract breach the serial
          // MergeJoinOperator aborts on (inputs must arrive sorted;
          // plans sort via an explicit Sort node, which both executors
          // lower) — enforcing it identically here keeps execution mode
          // from changing semantics. The merge's own drain re-asserts
          // per row; this earlier, explicit pass fails the stage before
          // the remaining merge inputs materialize, and goes away once
          // the compiler propagates order properties (ROADMAP).
          if (stage.sort_keys.empty() ||
              !ColumnIsAscending(table, stage.sort_keys[0].column)) {
            ctx->Fail(Status::InvalidArgument(
                "merge join input key '" +
                (stage.sort_keys.empty() ? std::string("?")
                                         : stage.sort_keys[0].column) +
                "' is not sorted ascending"));
            break;
          }
          outs[stage.id] = table;
          out_cols[stage.id] = columns;
          break;
        }
        if (stage.limit > 0 && !stage.sort_keys.empty() &&
            table->row_count() >= kParallelTopNMinRows) {
          // Sort+Limit over a large input: parallel TopN (per-worker
          // bounded heaps + ordered merge) instead of a serial full
          // sort — same comparator, byte-identical output.
          finish(stage, parallel_->RunTopN(table, columns, stage.sort_keys,
                                           stage.limit));
          break;
        }
        auto op = std::make_unique<SortOperator>(
            &engine_,
            std::make_unique<ScanOperator>(&engine_, table, columns),
            stage.sort_keys, stage.limit);
        finish(stage, engine_.Run(*op));
        break;
      }
      case Stage::Kind::kMergeJoin: {
        const auto [left, left_cols] = resolve(stage.input);
        const auto [right, right_cols] = resolve(stage.right);
        MergeJoinOperator op(
            &engine_,
            std::make_unique<ScanOperator>(&engine_, left, left_cols),
            std::make_unique<ScanOperator>(&engine_, right, right_cols),
            stage.merge->merge_spec, stage.merge->label);
        finish(stage, engine_.Run(op));
        break;
      }
    }
    if (ctx->ShouldStop()) break;
    // A scalar stage just completed: read its broadcast value out of
    // the materialized single-row intermediate for every later stage's
    // compiled expressions.
    for (const StagePlan::ScalarStage& sc : sp.scalars) {
      if (sc.stage == stage.id) {
        MA_CHECK(outs[stage.id] != nullptr);
        ScalarValue v;
        Status s = ReadScalarValue(*outs[stage.id], sc.column, sc.type, &v);
        if (!s.ok()) {
          ctx->Fail(std::move(s));
          break;
        }
        bindings[sc.name] = v;
      }
    }
    if (ctx->ShouldStop()) break;
  }

  // Tail: sorts/limits (and post-breaker filters/projects) over the
  // final merged result. A leading Sort+Limit over a large merge goes
  // through the parallel TopN (byte-identical to the serial operator);
  // the rest runs serially.
  if (ctx->status().ok() && !sp.tail.empty()) {
    std::unique_ptr<Table> merged = std::move(result.table);
    size_t tail_start = 0;
    const PlanNode* head = sp.tail[0];
    if (merged != nullptr && head->kind == NodeKind::kSort &&
        head->limit > 0 && !head->sort_keys.empty() &&
        merged->row_count() >= kParallelTopNMinRows) {
      RunResult topn = parallel_->RunTopN(merged.get(), {}, head->sort_keys,
                                          head->limit);
      account(topn);
      result.rows_emitted = topn.rows_emitted;
      merged = std::move(topn.table);
      tail_start = 1;
    }
    if (ctx->status().ok() && tail_start < sp.tail.size()) {
      OperatorPtr op =
          std::make_unique<ScanOperator>(&engine_, merged.get());
      for (size_t i = tail_start; i < sp.tail.size(); ++i) {
        op = Compiler::CompileTailNode(sp.tail[i], &engine_, std::move(op),
                                       bindings);
      }
      result = engine_.Run(*op);
      account(result);
    } else {
      result.table = std::move(merged);
    }
  }

  // Any stage or the tail may have failed; the context holds the first
  // error.
  if (!ctx->status().ok()) result = FailedResult(ctx);
  result.stages = acc;
  // Wall clock over every stage (join builds included).
  result.total_cycles = CycleClock::Now() - t0;
  result.seconds = static_cast<f64>(result.total_cycles) /
                   CycleClock::FrequencyHz();
  return result;
}

std::vector<InstanceProfile> QuerySession::Profile() const {
  // A staged query ran on the worker engines and on the session engine
  // (merge joins, serial sorts, the tail); report both.
  std::vector<const PrimitiveInstance*> instances;
  if (last_run_parallel_ && parallel_ != nullptr) {
    for (const auto& eng : parallel_->engines()) {
      for (const auto& inst : eng->instances()) {
        instances.push_back(inst.get());
      }
    }
  }
  for (const auto& inst : engine_.instances()) {
    instances.push_back(inst.get());
  }
  return MergeInstanceProfiles(instances);
}

}  // namespace ma::plan
