// power_serial and power_staged: the 22 TPC-H plans as single-client
// streams through one QuerySession with AdaptiveConfig — the paper's
// own setting (serial), and the same stream through the staged
// morsel-parallel executor at nproc workers.
#include <algorithm>
#include <cstdio>

#include "storage/table_fingerprint.h"
#include "tpch/workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Family of a primitive signature, from its prefix (fetches are
/// "map_fetch_*", string kernels carry "_str_" in any position).
std::string Family(const std::string& sig) {
  auto starts = [&sig](const char* p) { return sig.rfind(p, 0) == 0; };
  if (starts("sel_bloom")) return "bloom";
  if (starts("map_fetch")) return "fetch";
  if (sig.find("_str_") != std::string::npos) return "string";
  if (starts("sel_")) return "sel";
  if (starts("map_")) return "map";
  if (starts("aggr_")) return "aggr";
  if (starts("ht_") || starts("hash_")) return "hash";
  if (starts("mergejoin_")) return "mergejoin";
  return "other";
}

void CollectProfile(const ma::plan::QuerySession& session,
                    RunCounters* c) {
  for (const ma::InstanceProfile& p : session.Profile()) {
    RunCounters::Family& f = c->families[Family(p.signature)];
    f.cycles += p.cycles;
    f.tuples += p.tuples;
    c->calls += p.calls;
    u64 best = 0;
    for (const ma::FlavorUsageProfile& u : p.flavors) {
      best = std::max(best, u.calls);
    }
    c->winner_calls += best;
  }
}

}  // namespace

void RunStream(ma::plan::QuerySession* session, ma::plan::ExecMode mode,
               const std::vector<ma::plan::LogicalPlan>& plans,
               const std::vector<u64>& baseline, ma::Rng* order_rng,
               Tracer* tracer, Latencies* lat, RunCounters* counters,
               Report* report) {
  for (const int q : QueryOrder(order_rng)) {
    const u64 req = tracer->NewRequest();
    Tracer::Span root =
        tracer->Begin("bench.query", req, 0, "q" + std::to_string(q));
    ma::RunResult r;
    const f64 t0 = NowSeconds();
    {
      Tracer::Span run =
          tracer->Begin("plan.QuerySession::Run", req, root.id());
      r = session->Run(plans[q - 1], mode);
    }
    const f64 seconds = NowSeconds() - t0;
    Tracer::Span check = tracer->Begin("bench.check", req, root.id());
    const bool ok = r.ok() && r.table != nullptr &&
                    ma::ExactFingerprint(*r.table) == baseline[q - 1];
    report->Check(ok);
    if (!ok) {
      std::fprintf(stderr, "Q%d: %s\n", q,
                   r.ok() ? "result differs from the serial baseline"
                          : r.status.message().c_str());
      continue;
    }
    lat->Add(q, seconds * 1e3);
    lat->wall_s += seconds;
    ++counters->runs;
    if (session->last_run_parallel()) ++counters->staged_runs;
    counters->primitive_cycles += r.stages.primitives;
    counters->run_cycles += r.total_cycles;
    if (counters->collect_profile) CollectProfile(*session, counters);
  }
}

void AddRunLayer(const RunCounters& c, f64 cpu_util, Report* report) {
  report->Metric("plan.staged_frac",
                 c.runs ? static_cast<f64>(c.staged_runs) / c.runs : 0,
                 "ratio");
  report->Metric("exec.primitive_share",
                 c.run_cycles ? static_cast<f64>(c.primitive_cycles) /
                                    static_cast<f64>(c.run_cycles)
                              : 0,
                 "ratio");
  report->Metric("proc.cpu_util", cpu_util, "ratio");
}

void RunPower(const Options& opt, bool staged, Tracer* tracer,
              Report* report) {
  const int nproc = HardwareThreads();
  ma::plan::SessionConfig cfg;
  cfg.engine = ma::tpch::AdaptiveConfig();
  if (staged) cfg.parallel.num_threads = nproc;
  const ma::plan::ExecMode mode =
      staged ? ma::plan::ExecMode::kParallel : ma::plan::ExecMode::kSerial;

  Tracer untraced(false);
  std::unique_ptr<ma::tpch::TpchData> data;
  std::unique_ptr<ma::plan::QuerySession> session;
  const SetupTimes setup =
      SetUp(opt.seed, tracer, &data, &session,
            [&] { return std::make_unique<ma::plan::QuerySession>(cfg); });

  const std::vector<ma::plan::LogicalPlan> plans = TpchPlans(*data);
  const std::vector<u64> baseline = SerialFingerprints(plans);
  CheckGolden(opt, baseline, report);
  report->Meta("pool_threads", std::to_string(staged ? nproc : 1));
  report->Meta("clients", "1");

  // One untimed stream first: lazy set-up (the executor's pool, first
  // touch of the tables) is not what the stream measures.
  ma::Rng order_rng(DeriveSeed(opt.seed, 1));
  {
    Latencies warm;
    RunCounters ignored;
    RunStream(session.get(), mode, plans, baseline, &order_rng, &untraced,
              &warm, &ignored, report);
  }

  // Whole streams until the time is up, so every query has the same
  // number of samples. A traced run alternates untraced and traced
  // streams (at least one of each); the difference is the tracing
  // overhead.
  Latencies lat[2];
  RunCounters counters[2];
  const int min_streams = opt.trace ? 2 : 1;
  const f64 cpu0 = ProcessCpuSeconds();
  const f64 start = NowSeconds();
  for (int i = 0; i < min_streams || NowSeconds() - start < opt.seconds;
       ++i) {
    const int traced = opt.trace ? i % 2 : 0;
    RunStream(session.get(), mode, plans, baseline, &order_rng,
              traced ? tracer : &untraced, &lat[traced], &counters[traced],
              report);
  }
  const f64 wall = NowSeconds() - start;
  const f64 cpu_util = (ProcessCpuSeconds() - cpu0) / (wall * nproc);
  report->Meta("streams", std::to_string(lat[0].per_query_ms[0].size() +
                                         lat[1].per_query_ms[0].size()));
  report->Meta("latency_samples", std::to_string(lat[0].all_ms.size()));

  if (!opt.trace) {
    // Percentiles over the 22 per-query medians, not over every run: a
    // stream holds each query equally often, so the pooled p50 would
    // fall on the gap between two queries' samples and jump between the
    // slowest run of one and the fastest of the next.
    AddEndToEnd(lat[0], PerQueryMedians(lat[0]), setup.setup_s, report);
    return;
  }
  report->Metric("tpch.generate_s", setup.generate_s, "s");
  AddPerQuery(lat[1], report);
  AddRunLayer(counters[1], cpu_util, report);
  AddServeLayer(ServeLayer(), report);
  RunLayerProbes(*data, plans, baseline, opt.seed, tracer, report);
  const f64 untraced_ms = PowerTotalMs(lat[0]);
  report->Metric("trace.overhead_pct",
                 (PowerTotalMs(lat[1]) - untraced_ms) / untraced_ms * 100,
                 "%");
}

}  // namespace perfbench
