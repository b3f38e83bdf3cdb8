// Query lifecycle governance (exec/query_context.h): cancellation,
// deadlines, memory budgets and fault-injected error paths must
// terminate a run promptly with the right TerminationReason — never
// abort the process — and must leave the session clean: the very next
// query on the same session produces a byte-identical result to a
// fresh session, serially and staged at 1, 2 and 4 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/op_merge_join.h"
#include "exec/op_scan.h"
#include "exec/parallel/parallel_executor.h"
#include "exec/parallel/thread_pool.h"
#include "exec/query_context.h"
#include "plan/compiler.h"
#include "plan/plan_builder.h"
#include "plan/query_session.h"
#include "table_fingerprint.h"

namespace ma::plan {
namespace {

std::unique_ptr<Table> MakeNumbersTable(size_t rows) {
  Rng rng(77);
  auto t = std::make_unique<Table>("numbers");
  Column* a = t->AddColumn("a", PhysicalType::kI64);
  Column* g = t->AddColumn("g", PhysicalType::kI64);
  Column* x = t->AddColumn("x", PhysicalType::kF64);
  Column* s = t->AddColumn("s", PhysicalType::kStr);
  static const char* kNames[8] = {"alpha", "bravo", "charlie", "delta",
                                  "echo",  "fox",   "golf",    "hotel"};
  for (size_t i = 0; i < rows; ++i) {
    const i64 gi = static_cast<i64>(rng.NextBounded(8));
    a->Append<i64>(static_cast<i64>(rng.NextBounded(1000)));
    g->Append<i64>(gi);
    x->Append<f64>(static_cast<f64>(rng.NextRange(-900, 900)) / 7.0);
    s->AppendString(kNames[gi]);  // functionally dependent on g
  }
  t->set_row_count(rows);
  return t;
}

/// Filter → group-by → sort: exercises pipeline, aggregation and a
/// serial sort stage (so staged runs visit several stage kinds).
LogicalPlan AggPlan(const Table* t) {
  std::vector<HashAggOperator::AggSpec> aggs;
  {
    HashAggOperator::AggSpec a;
    a.fn = "sum";
    a.arg = Col("x");
    a.out_name = "sum_x";
    aggs.push_back(std::move(a));
  }
  PlanBuilder b = PlanBuilder::Scan(t, {"a", "g", "x", "s"});
  b.Filter(Lt(Col("a"), Lit(900)))
      .GroupBy({{"g", 8}}, {"g", "s"}, std::move(aggs))
      .Sort({{"g", false}});
  LogicalPlan p = b.Build();
  EXPECT_TRUE(p.ok()) << p.status.ToString();
  return p;
}

/// Filter → project over every row: a wide materialization, the plan
/// whose result charges enough bytes to trip small memory budgets.
LogicalPlan WidePlan(const Table* t) {
  std::vector<ProjectOperator::Output> outs;
  outs.push_back({"y", Mul(Col("x"), Lit(2.0))});
  outs.push_back({"a", Col("a")});
  PlanBuilder b = PlanBuilder::Scan(t, {"a", "x"});
  b.Filter(Lt(Col("a"), Lit(990))).Project(std::move(outs));
  LogicalPlan p = b.Build();
  EXPECT_TRUE(p.ok()) << p.status.ToString();
  return p;
}

SessionConfig Config(int threads) {
  SessionConfig cfg;
  cfg.parallel.num_threads = threads;
  cfg.parallel.morsel_size = 2048;
  return cfg;
}

u64 FreshFingerprint(const LogicalPlan& plan, int threads, ExecMode mode) {
  QuerySession session{Config(threads)};
  const RunResult r = session.Run(plan, mode);
  EXPECT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_NE(r.table, nullptr);
  return ExactFingerprint(*r.table);
}

/// The acceptance property: after `r` failed with `reason`, the same
/// session runs a clean query byte-identical to a fresh session.
void ExpectFailedThenClean(QuerySession& session, const RunResult& r,
                           TerminationReason reason,
                           const LogicalPlan& clean_plan, int threads,
                           ExecMode mode) {
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.reason, reason)
      << TerminationReasonName(r.reason) << ": " << r.status.ToString();
  EXPECT_EQ(r.table, nullptr);
  const RunResult clean = session.Run(clean_plan, mode);
  ASSERT_TRUE(clean.ok()) << clean.status.ToString();
  ASSERT_NE(clean.table, nullptr);
  EXPECT_EQ(ExactFingerprint(*clean.table),
            FreshFingerprint(clean_plan, threads, mode));
}

// ---------------------------------------------------------------------
// Cancellation and deadlines.
// ---------------------------------------------------------------------

TEST(RobustnessTest, CancelBeforeRunTerminatesEveryMode) {
  auto t = MakeNumbersTable(64 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
    for (const int threads : {1, 2, 4}) {
      QuerySession session{Config(threads)};
      QueryContext ctx;
      ctx.Cancel();
      const RunResult r = session.Run(plan, mode, &ctx);
      ExpectFailedThenClean(session, r, TerminationReason::kCancelled,
                            plan, threads, mode);
    }
  }
}

TEST(RobustnessTest, ExpiredDeadlineTerminatesEveryMode) {
  auto t = MakeNumbersTable(64 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
    for (const int threads : {1, 2, 4}) {
      QuerySession session{Config(threads)};
      QueryContext ctx;
      ctx.SetDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
      const RunResult r = session.Run(plan, mode, &ctx);
      ExpectFailedThenClean(session, r,
                            TerminationReason::kDeadlineExceeded, plan,
                            threads, mode);
    }
  }
}

TEST(RobustnessTest, MidRunCancelFromAnotherThread) {
  auto t = MakeNumbersTable(64 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  for (const int threads : {1, 2, 4}) {
    QuerySession session{Config(threads)};
    QueryContext ctx;
    // A delay arm stalls the first morsel/batch long enough for the
    // canceller to land mid-run, deterministically.
    FaultInjector fi;
    fi.ArmDelay("parallel/morsel", 1, 100 * 1000);
    fi.ArmDelay("engine/batch", 1, 100 * 1000);
    ctx.set_fault_injector(&fi);
    std::thread canceller([&] {
      while (fi.total_hits() == 0) std::this_thread::yield();
      ctx.Cancel();
    });
    const RunResult r = session.Run(plan, ExecMode::kParallel, &ctx);
    canceller.join();
    ExpectFailedThenClean(session, r, TerminationReason::kCancelled, plan,
                          threads, ExecMode::kParallel);
  }
}

// ---------------------------------------------------------------------
// Memory budgets.
// ---------------------------------------------------------------------

TEST(RobustnessTest, MemoryBudgetExhaustionTerminatesEveryMode) {
  auto t = MakeNumbersTable(128 * 1024);
  const LogicalPlan plan = WidePlan(t.get());
  for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
    for (const int threads : {1, 2, 4}) {
      QuerySession session{Config(threads)};
      QueryContext ctx;
      ctx.SetMemoryBudget(64 * 1024);  // result is ~2MB: must trip
      const RunResult r = session.Run(plan, mode, &ctx);
      ExpectFailedThenClean(session, r,
                            TerminationReason::kResourceExhausted, plan,
                            threads, mode);
      EXPECT_GT(ctx.memory_peak(), 0u);
    }
  }
}

TEST(RobustnessTest, GenerousBudgetDoesNotChangeResults) {
  auto t = MakeNumbersTable(32 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  const u64 want = FreshFingerprint(plan, 2, ExecMode::kParallel);
  QuerySession session{Config(2)};
  QueryContext ctx;
  ctx.SetMemoryBudget(u64{1} << 32);
  const RunResult r = session.Run(plan, ExecMode::kParallel, &ctx);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(ExactFingerprint(*r.table), want);
  EXPECT_GT(ctx.memory_peak(), 0u);  // accounting actually ran
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

TEST(RobustnessTest, InjectedFaultsSurfaceAtEverySite) {
  auto t = MakeNumbersTable(64 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  struct Case {
    const char* site;
    ExecMode mode;
    StatusCode code;
    TerminationReason reason;
  };
  const Case cases[] = {
      {"engine/batch", ExecMode::kSerial, StatusCode::kInternal,
       TerminationReason::kInternal},
      {"parallel/morsel", ExecMode::kParallel, StatusCode::kInternal,
       TerminationReason::kInternal},
      {"parallel/agg", ExecMode::kParallel, StatusCode::kInternal,
       TerminationReason::kInternal},
      {"stage/", ExecMode::kParallel, StatusCode::kInternal,
       TerminationReason::kInternal},
      {"alloc/", ExecMode::kSerial, StatusCode::kResourceExhausted,
       TerminationReason::kResourceExhausted},
      {"alloc/", ExecMode::kParallel, StatusCode::kResourceExhausted,
       TerminationReason::kResourceExhausted},
  };
  for (const Case& c : cases) {
    for (const int threads : {1, 2, 4}) {
      QuerySession session{Config(threads)};
      QueryContext ctx;
      FaultInjector fi(/*seed=*/42);
      fi.ArmFailure(c.site, /*nth=*/1, c.code, "test fault");
      ctx.set_fault_injector(&fi);
      const RunResult r = session.Run(plan, c.mode, &ctx);
      EXPECT_GT(fi.total_hits(), 0u) << c.site;
      ExpectFailedThenClean(session, r, c.reason, plan, threads, c.mode);
    }
  }
}

TEST(RobustnessTest, SeededRandomFaultsAreDeterministic) {
  auto t = MakeNumbersTable(16 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  auto outcome = [&](u64 seed) {
    QuerySession session{Config(1)};
    QueryContext ctx;
    FaultInjector fi(seed);
    fi.ArmRandomFailure("engine/batch", 0.25, StatusCode::kInternal,
                        "random fault");
    ctx.set_fault_injector(&fi);
    const RunResult r = session.Run(plan, ExecMode::kSerial, &ctx);
    return std::make_pair(r.status.code(), fi.total_hits());
  };
  EXPECT_EQ(outcome(7), outcome(7));  // same seed, same fate
}

// ---------------------------------------------------------------------
// The partitioned aggregation merge under governance: it polls the
// context once per partition and charges its scatter buffer to
// "alloc/agg", so a cancel or an exhausted budget mid-merge ends the run
// with a typed error and no table, and leaves nothing behind.
// ---------------------------------------------------------------------

/// ~150K distinct 30-bit keys: a merge of many partitions.
std::unique_ptr<Table> MakeManyGroupsTable() {
  Rng rng(91);
  auto t = std::make_unique<Table>("many");
  Column* k = t->AddColumn("k", PhysicalType::kI64);
  Column* x = t->AddColumn("x", PhysicalType::kF64);
  constexpr size_t kRows = 160 * 1024;
  for (size_t i = 0; i < kRows; ++i) {
    k->Append<i64>(static_cast<i64>(rng.NextBounded(u64{1} << 30)));
    x->Append<f64>(static_cast<f64>(rng.NextRange(-900, 900)) / 7.0);
  }
  t->set_row_count(kRows);
  return t;
}

std::vector<HashAggOperator::AggSpec> ManyGroupsAggs() {
  std::vector<HashAggOperator::AggSpec> aggs;
  HashAggOperator::AggSpec sum;
  sum.fn = "sum";
  sum.arg = Col("x");
  sum.out_name = "sum_x";
  sum.exact_f64_sum = true;
  aggs.push_back(std::move(sum));
  HashAggOperator::AggSpec count;
  count.fn = "count";
  count.out_name = "n";
  aggs.push_back(std::move(count));
  return aggs;
}

TEST(RobustnessTest, CancelMidMergeLeavesSessionClean) {
  auto t = MakeManyGroupsTable();
  PlanBuilder b = PlanBuilder::Scan(t.get(), {"k", "x"});
  b.GroupBy({{"k", 30}}, {"k"}, ManyGroupsAggs());
  const LogicalPlan plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status.ToString();
  for (const int threads : {1, 2, 4}) {
    QuerySession session{Config(threads)};
    QueryContext ctx;
    // The second partition's merge sees the cancel.
    FaultInjector fi;
    fi.ArmFailure("parallel/merge", 2, StatusCode::kCancelled,
                  "cancelled mid-merge");
    ctx.set_fault_injector(&fi);
    const RunResult r = session.Run(plan, ExecMode::kParallel, &ctx);
    EXPECT_GE(fi.total_hits(), 2u);
    ExpectFailedThenClean(session, r, TerminationReason::kCancelled, plan,
                          threads, ExecMode::kParallel);
  }
}

TEST(RobustnessTest, MergeOverBudgetFailsThenExecutorRunsClean) {
  auto t = MakeManyGroupsTable();
  ParallelExecutor::AggPlan plan;
  plan.group_keys = {{"k", 30}};
  plan.group_outputs = {"k"};
  plan.aggs = ManyGroupsAggs();
  const auto identity = [](Engine*, OperatorPtr scan) { return scan; };
  for (const int threads : {1, 2, 4}) {
    ParallelConfig pcfg;
    pcfg.num_threads = threads;
    pcfg.morsel_size = 4096;
    // Fixed morsel ownership makes every worker's groups, and so every
    // charge, the same from run to run.
    pcfg.work_stealing = false;
    u64 fresh = 0;
    {
      ParallelExecutor exec{EngineConfig(), pcfg};
      const RunResult r = exec.RunAgg(t.get(), {"k", "x"}, identity, plan);
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      fresh = ExactFingerprint(*r.table);
    }
    ParallelExecutor exec{EngineConfig(), pcfg};
    auto run_with_budget = [&](u64 budget, QueryContext* ctx) {
      ctx->SetMemoryBudget(budget);
      exec.set_context(ctx);
      RunResult r = exec.RunAgg(t.get(), {"k", "x"}, identity, plan);
      exec.set_context(nullptr);
      return r;
    };
    QueryContext measured;
    const RunResult full = run_with_budget(u64{1} << 40, &measured);
    ASSERT_TRUE(full.ok()) << full.status.ToString();
    EXPECT_EQ(ExactFingerprint(*full.table), fresh);
    // The merge's scatter buffer is the run's last charge: one byte
    // less than the peak refuses exactly that charge.
    const u64 peak = measured.memory_peak();
    QueryContext tight;
    const RunResult r = run_with_budget(peak - 1, &tight);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.reason, TerminationReason::kResourceExhausted)
        << r.status.ToString();
    EXPECT_EQ(r.table, nullptr);
    QueryContext exact;
    const RunResult at_peak = run_with_budget(peak, &exact);
    ASSERT_TRUE(at_peak.ok()) << at_peak.status.ToString();
    EXPECT_EQ(ExactFingerprint(*at_peak.table), fresh);
    // Reused ungoverned afterwards: the fresh executor's bytes.
    const RunResult clean = exec.RunAgg(t.get(), {"k", "x"}, identity, plan);
    ASSERT_TRUE(clean.ok()) << clean.status.ToString();
    EXPECT_EQ(ExactFingerprint(*clean.table), fresh);
  }
}

// ---------------------------------------------------------------------
// Error-path parity: serial and staged report the same reason.
// ---------------------------------------------------------------------

TEST(RobustnessTest, TerminationReasonParitySerialVsStaged) {
  auto t = MakeNumbersTable(128 * 1024);
  const LogicalPlan plan = WidePlan(t.get());
  auto reason_of = [&](ExecMode mode, auto&& configure) {
    QuerySession session{Config(2)};
    QueryContext ctx;
    configure(ctx);
    return session.Run(plan, mode, &ctx).reason;
  };
  auto cancel = [](QueryContext& c) { c.Cancel(); };
  auto expire = [](QueryContext& c) {
    c.SetDeadline(std::chrono::steady_clock::now());
  };
  auto starve = [](QueryContext& c) { c.SetMemoryBudget(32 * 1024); };
  EXPECT_EQ(reason_of(ExecMode::kSerial, cancel),
            reason_of(ExecMode::kParallel, cancel));
  EXPECT_EQ(reason_of(ExecMode::kSerial, expire),
            reason_of(ExecMode::kParallel, expire));
  EXPECT_EQ(reason_of(ExecMode::kSerial, starve),
            reason_of(ExecMode::kParallel, starve));
}

// ---------------------------------------------------------------------
// Status-based user-error paths (formerly process aborts).
// ---------------------------------------------------------------------

TEST(RobustnessTest, InvalidPlanReturnsStatusNotAbort) {
  auto t = MakeNumbersTable(128);
  PlanBuilder b = PlanBuilder::Scan(t.get(), {"nope"});
  const LogicalPlan bad = b.Build();
  ASSERT_FALSE(bad.ok());
  QuerySession session{Config(2)};
  const RunResult r = session.Run(bad);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  // The session survives an invalid plan.
  const RunResult good = session.Run(AggPlan(t.get()));
  EXPECT_TRUE(good.ok()) << good.status.ToString();
}

TEST(RobustnessTest, MergeJoinRejectsUnsortedInputViaStatus) {
  auto left = std::make_unique<Table>("left");
  Column* lk = left->AddColumn("k", PhysicalType::kI64);
  for (const i64 v : {1, 2, 3, 4}) lk->Append<i64>(v);
  left->set_row_count(4);
  auto right = std::make_unique<Table>("right");
  Column* rk = right->AddColumn("k", PhysicalType::kI64);
  for (const i64 v : {2, 1, 4, 3}) rk->Append<i64>(v);  // NOT sorted
  right->set_row_count(4);

  Engine engine;
  MergeJoinSpec spec;
  spec.left_key = "k";
  spec.right_key = "k";
  spec.left_outputs = {{"k", "lk"}};
  spec.right_outputs = {{"k", "rk"}};
  MergeJoinOperator op(&engine,
                       std::make_unique<ScanOperator>(&engine, left.get()),
                       std::make_unique<ScanOperator>(&engine, right.get()),
                       spec);
  const RunResult r = engine.Run(op);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.reason, TerminationReason::kInternal);
}

TEST(RobustnessTest, ReadScalarValueReportsContractBreaches) {
  // The builder statically forces scalar subqueries into single-row
  // shapes, but ReadScalarValue is a public seam (staged scalar stages,
  // hand-driven compilation) and must report breaches, not abort.
  Table two("two");
  Column* m = two.AddColumn("m", PhysicalType::kF64);
  m->Append<f64>(1.0);
  m->Append<f64>(2.0);
  two.set_row_count(2);
  ScalarValue v;
  Status s = ReadScalarValue(two, "m", PhysicalType::kF64, &v);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  Table one("one");
  one.AddColumn("m", PhysicalType::kF64)->Append<f64>(3.5);
  one.set_row_count(1);
  s = ReadScalarValue(one, "nope", PhysicalType::kF64, &v);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);  // missing column
  s = ReadScalarValue(one, "m", PhysicalType::kI64, &v);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);  // mistyped
  s = ReadScalarValue(one, "m", PhysicalType::kF64, &v);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(v.f, 3.5);

  Table empty("empty");
  empty.AddColumn("m", PhysicalType::kF64);
  s = ReadScalarValue(empty, "m", PhysicalType::kF64, &v);
  ASSERT_TRUE(s.ok());  // empty result = the type's zero (threshold)
  EXPECT_EQ(v.f, 0.0);
}

// ---------------------------------------------------------------------
// ThreadPool containment.
// ---------------------------------------------------------------------

TEST(RobustnessTest, ThreadPoolContainsThrowingTasks) {
  ThreadPool pool(4);
  const Status s = pool.Run([](int w) {
    if (w == 1) throw std::runtime_error("boom");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("boom"), std::string::npos);
  // The pool survives for the next phase (and the destructor's join).
  std::atomic<int> hits{0};
  const Status again = pool.Run([&](int) { hits.fetch_add(1); });
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(hits.load(), 4);
}

TEST(RobustnessTest, ThreadPoolReportsBadAllocAsResourceExhausted) {
  ThreadPool pool(2);
  const Status s = pool.Run([](int w) {
    if (w == 0) throw std::bad_alloc();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------
// Governance stays out of the way: a governed run with no limits set
// produces byte-identical results to an ungoverned one.
// ---------------------------------------------------------------------

TEST(RobustnessTest, UnlimitedGovernanceIsInvisible) {
  auto t = MakeNumbersTable(32 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
    for (const int threads : {1, 2, 4}) {
      const u64 want = FreshFingerprint(plan, threads, mode);
      QuerySession session{Config(threads)};
      QueryContext ctx;  // no deadline, no budget, no injector
      const RunResult r = session.Run(plan, mode, &ctx);
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      EXPECT_EQ(ExactFingerprint(*r.table), want);
      EXPECT_EQ(ctx.memory_peak(), 0u);  // accounting never engaged
    }
  }
}

}  // namespace
}  // namespace ma::plan
