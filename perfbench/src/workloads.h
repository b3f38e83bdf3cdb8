// The three workloads and the layer probes the traced run adds. Every
// workload fills the Report with the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run); see perfbench/README.md for
// definitions and the layer -> end-to-end map.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "plan/query_session.h"
#include "trace.h"

namespace perfbench {

/// power_serial (staged = false) and power_staged (staged = true): the
/// 22 TPC-H plans as repeated single-client streams.
void RunPower(const Options& opt, bool staged, Tracer* tracer,
              Report* report);

/// serve_mix: a closed loop of clients driving one WorkloadServer.
void RunServeMix(const Options& opt, Tracer* tracer, Report* report);

/// Counters of a sequence of QuerySession runs.
struct RunCounters {
  u64 runs = 0;
  u64 staged_runs = 0;  // runs where last_run_parallel()
  u64 primitive_cycles = 0;  // Σ RunResult.stages.primitives
  u64 run_cycles = 0;        // Σ RunResult.total_cycles
  /// When set, Profile() is read after every run and summed per
  /// primitive family (signature prefix).
  bool collect_profile = false;
  struct Family {
    u64 cycles = 0;
    u64 tuples = 0;
  };
  std::map<std::string, Family> families;
  u64 winner_calls = 0;  // calls to each instance's most-used flavor
  u64 calls = 0;
};

/// Runs the 22 plans once, in a seeded order, on `session`: each
/// QuerySession::Run is timed from outside, and its result is checked
/// against `baseline` (index q-1) afterwards, outside the timed region.
/// Adds each latency to `lat` (and to lat->wall_s: a serial client's
/// busy time).
void RunStream(ma::plan::QuerySession* session, ma::plan::ExecMode mode,
               const std::vector<ma::plan::LogicalPlan>& plans,
               const std::vector<u64>& baseline, ma::Rng* order_rng,
               Tracer* tracer, Latencies* lat, RunCounters* counters,
               Report* report);

/// Per-layer metrics measured by direct calls into the layers' public
/// API on the workload's own tables; the same in every workload's
/// traced run: plan.compile_ms, plan.stage_count, parallel.*, adapt.*
/// and prim.*.
void RunLayerProbes(const ma::tpch::TpchData& data,
                    const std::vector<ma::plan::LogicalPlan>& plans,
                    const std::vector<u64>& baseline, u64 seed,
                    Tracer* tracer, Report* report);

/// Serving- and knowledge-layer counters of a measured phase. The
/// power workloads bypass both layers and report the zero defaults.
struct ServeLayer {
  f64 plan_cache_hit_rate = 0;
  f64 store_profiles = 0;
  f64 profiles_merged = 0;
  f64 queue_wait_p50_ms = 0;
  f64 queue_wait_p90_ms = 0;
  f64 exec_p50_ms = 0;
  f64 exec_p90_ms = 0;
  f64 degraded_frac = 0;
  f64 attempts_per_query = 0;
  f64 retries = 0;
  f64 rejected = 0;
  f64 tpch_p50_ms = 0;
  f64 adhoc_p50_ms = 0;
};
void AddServeLayer(const ServeLayer& s, Report* report);

/// The per-layer metrics of a measured traced phase that every
/// workload reports in the same way.
void AddRunLayer(const RunCounters& c, f64 cpu_util, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
