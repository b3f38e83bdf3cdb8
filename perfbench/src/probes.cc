// Layer probes of the traced run: direct calls into the plan compiler,
// the morsel-parallel executor and the adaptive primitive layer on the
// workload's own tables. They isolate one layer each, so a change to
// that layer shows here even when the end-to-end number it feeds is
// dominated by other layers.
#include <cstdio>

#include "exec/op_select.h"
#include "plan/compiler.h"
#include "storage/table_fingerprint.h"
#include "tpch/workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ma::ParallelExecutor;
using ma::StageHints;
using ma::plan::LogicalPlan;

constexpr int kCompileReps = 15;
constexpr int kParallelReps = 5;
/// The many-group aggregation takes about half a second per call.
constexpr int kManyGroupReps = 3;
constexpr int kAdaptivityStreams = 3;

/// plan.compile_ms: BuildStagePlan summed over the 22 plans (median of
/// kCompileReps sums); plan.stage_count: stages of the 22 stage plans.
void ProbeCompile(const std::vector<LogicalPlan>& plans, Tracer* tracer,
                  Report* report) {
  std::vector<f64> sums;
  u64 stages = 0;
  for (int rep = 0; rep < kCompileReps; ++rep) {
    const u64 req = tracer->NewRequest();
    f64 sum = 0;
    for (const LogicalPlan& p : plans) {
      ma::plan::StagePlan sp;
      const f64 t0 = NowSeconds();
      ma::Status st;
      {
        Tracer::Span span =
            tracer->Begin("plan.Compiler::BuildStagePlan", req);
        st = ma::plan::Compiler::BuildStagePlan(p, &sp);
      }
      sum += NowSeconds() - t0;
      if (!st.ok()) report->Fail();
      if (rep == 0) stages += sp.stages.size();
    }
    sums.push_back(sum * 1e3);
  }
  report->Metric("plan.compile_ms", Median(sums), "ms");
  report->Metric("plan.stage_count", static_cast<f64>(stages), "count");
}

/// Runs `call(hints)` with StageHints.workers = 1 and = nproc,
/// alternating, `reps` times each; reports the two medians in ms. Every
/// call's result fingerprint must equal the first one: worker count
/// never changes bytes.
template <typename Call>
void ProbeWorkers(const std::string& name, const char* span_name, int reps,
                  int nproc, Tracer* tracer, Report* report, Call call) {
  std::vector<f64> ms[2];
  u64 expect = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (int side = 0; side < 2; ++side) {
      StageHints hints;
      hints.workers = side == 0 ? 1 : nproc;
      const u64 req = tracer->NewRequest();
      const f64 t0 = NowSeconds();
      u64 fp = 0;
      {
        Tracer::Span span = tracer->Begin(span_name, req, 0,
                                          name + (side ? "_wN" : "_w1"));
        fp = call(hints);
      }
      ms[side].push_back((NowSeconds() - t0) * 1e3);
      if (rep == 0 && side == 0) expect = fp;
      report->Check(fp != 0 && fp == expect);
    }
  }
  report->Metric("parallel." + name + "_w1_ms", Median(ms[0]), "ms");
  report->Metric("parallel." + name + "_wN_ms", Median(ms[1]), "ms");
}

ma::HashAggOperator::AggSpec Agg(const char* fn, ma::ExprPtr arg,
                                 const char* out) {
  ma::HashAggOperator::AggSpec a;
  a.fn = fn;
  a.arg = std::move(arg);
  a.out_name = out;
  a.exact_f64_sum = true;  // as the plan compiler sets it
  return a;
}

u64 Fingerprint(const ma::RunResult& r) {
  return r.ok() && r.table ? ma::ExactFingerprint(*r.table) : 0;
}

void ProbeParallel(const ma::tpch::TpchData& d, Tracer* tracer,
                   Report* report) {
  const int nproc = HardwareThreads();
  ma::ParallelConfig pcfg;
  pcfg.num_threads = nproc;
  ParallelExecutor exec(ma::tpch::AdaptiveConfig(), pcfg);
  auto identity = [](ma::Engine*, ma::OperatorPtr scan) { return scan; };

  // Q21's all_pairs shape: ~1M (orderkey, suppkey) groups.
  ParallelExecutor::AggPlan many;
  many.group_keys = {{"l_orderkey", 36}, {"l_suppkey", 24}};
  many.group_outputs = {"l_orderkey"};
  many.aggs.push_back(Agg("count", nullptr, "n"));
  ProbeWorkers("agg_many_groups", "exec.parallel.RunAgg", kManyGroupReps,
               nproc, tracer, report, [&](const StageHints& h) {
                 return Fingerprint(exec.RunAgg(
                     d.lineitem, {"l_orderkey", "l_suppkey"}, identity,
                     many, h));
               });

  // Q1's shape: four (returnflag, linestatus) groups — the control.
  ParallelExecutor::AggPlan few;
  few.group_keys = {{"l_returnflag_code", 3}, {"l_linestatus_code", 2}};
  few.group_outputs = {"l_returnflag", "l_linestatus"};
  few.aggs.push_back(Agg("sum", ma::Col("l_extendedprice"), "sum_price"));
  few.aggs.push_back(Agg("avg", ma::Col("l_discount"), "avg_disc"));
  few.aggs.push_back(Agg("count", nullptr, "n"));
  const ma::i64 q1_cutoff = ma::tpch::Date(1998, 12, 1) - 90;
  ProbeWorkers(
      "agg_few_groups", "exec.parallel.RunAgg", kParallelReps, nproc, tracer,
      report, [&](const StageHints& h) {
        return Fingerprint(exec.RunAgg(
            d.lineitem,
            {"l_returnflag_code", "l_linestatus_code", "l_returnflag",
             "l_linestatus", "l_extendedprice", "l_discount", "l_shipdate"},
            [q1_cutoff](ma::Engine* e,
                        ma::OperatorPtr scan) -> ma::OperatorPtr {
              return std::make_unique<ma::SelectOperator>(
                  e, std::move(scan),
                  ma::Le(ma::Col("l_shipdate"), ma::Lit(q1_cutoff)),
                  "probe/q1_select");
            },
            few, h));
      });

  // The orders build every lineitem -> orders join probes.
  ma::HashJoinSpec join;
  join.build_key = "o_orderkey";
  join.probe_key = "l_orderkey";
  join.build_outputs = {{"o_custkey", "o_custkey"}};
  join.probe_outputs = {"l_orderkey"};
  ProbeWorkers("join_build", "exec.parallel.BuildJoin", kParallelReps, nproc,
               tracer, report, [&](const StageHints& h) -> u64 {
                 auto build = exec.BuildJoin(
                     d.orders, {"o_orderkey", "o_custkey"}, identity, join, h);
                 return build ? build->ht.num_rows() : 0;
               });

  // A streaming scan -> filter over lineitem, merged in morsel order.
  ProbeWorkers(
      "pipeline", "exec.parallel.RunPipeline", kParallelReps, nproc, tracer,
      report, [&](const StageHints& h) {
        return Fingerprint(exec.RunPipeline(
            d.lineitem, {"l_orderkey", "l_quantity", "l_shipdate"},
            [](ma::Engine* e, ma::OperatorPtr scan) -> ma::OperatorPtr {
              std::vector<ma::ExprPtr> preds;
              preds.push_back(ma::Ge(ma::Col("l_shipdate"),
                                     ma::Lit(ma::tpch::Date(1994, 1, 1))));
              preds.push_back(ma::Lt(ma::Col("l_quantity"), ma::Lit(25)));
              return std::make_unique<ma::SelectOperator>(
                  e, std::move(scan), ma::AndAll(std::move(preds)),
                  "probe/select");
            },
            h));
      });
}

/// adapt.speedup_vs_default and the primitive-layer profile: serial
/// streams with DefaultConfig() and AdaptiveConfig(), alternating, in
/// the same seeded query order.
void ProbeAdaptivity(const std::vector<LogicalPlan>& plans,
                     const std::vector<u64>& baseline, u64 seed,
                     Tracer* tracer, Report* report) {
  ma::plan::SessionConfig dcfg;
  dcfg.engine = ma::tpch::DefaultConfig();
  ma::plan::SessionConfig acfg;
  acfg.engine = ma::tpch::AdaptiveConfig();
  ma::plan::QuerySession def(dcfg);
  ma::plan::QuerySession adaptive(acfg);
  Latencies lat[2];
  RunCounters counters[2];
  counters[1].collect_profile = true;
  for (int rep = 0; rep < kAdaptivityStreams; ++rep) {
    for (int side = 0; side < 2; ++side) {
      ma::Rng order(DeriveSeed(seed, 1000 + rep));
      RunStream(side ? &adaptive : &def, ma::plan::ExecMode::kSerial, plans,
                baseline, &order, tracer, &lat[side], &counters[side],
                report);
    }
  }
  report->Metric("adapt.speedup_vs_default",
                 PowerTotalMs(lat[0]) / PowerTotalMs(lat[1]), "ratio");
  const RunCounters& c = counters[1];
  report->Metric("adapt.winner_call_share",
                 c.calls ? static_cast<f64>(c.winner_calls) /
                               static_cast<f64>(c.calls)
                         : 0,
                 "ratio");
  u64 all_cycles = 0;
  for (const auto& [family, f] : c.families) all_cycles += f.cycles;
  for (const char* family : {"sel", "map", "aggr", "hash", "bloom", "fetch",
                             "mergejoin", "string"}) {
    const auto it = c.families.find(family);
    const RunCounters::Family f =
        it == c.families.end() ? RunCounters::Family() : it->second;
    report->Metric(std::string("prim.") + family + "_cpt",
                   f.tuples ? static_cast<f64>(f.cycles) /
                                  static_cast<f64>(f.tuples)
                            : 0,
                   "cycles");
    report->Metric(std::string("prim.") + family + "_cycle_share",
                   all_cycles ? static_cast<f64>(f.cycles) /
                                    static_cast<f64>(all_cycles)
                              : 0,
                   "ratio");
  }
}

}  // namespace

void RunLayerProbes(const ma::tpch::TpchData& data,
                    const std::vector<LogicalPlan>& plans,
                    const std::vector<u64>& baseline, u64 seed,
                    Tracer* tracer, Report* report) {
  ProbeCompile(plans, tracer, report);
  ProbeParallel(data, tracer, report);
  ProbeAdaptivity(plans, baseline, seed, tracer, report);
}

}  // namespace perfbench
