// Table 11: overall TPC-H comparison, now as the full 22/22 power run —
// every query expressed as a logical plan (tpch/plans.cc) and timed
// serially and through the staged adaptive parallel engine in
// interleaved pairs. Per-query median times, the parallel improvement
// factor, and the geometric mean (the power-score proxy) print as the
// table and land in BENCH_table11.json.
//
// The run doubles as a differential check: every staged result must be
// byte-identical to the serial one (the stage-DAG determinism
// contract). Any divergence is a hard failure — the binary exits
// non-zero so CI smoke runs (MA_BENCH_SHORT=1) catch it.
#include <cmath>
#include <cstdlib>
#include <thread>

#include "bench_util.h"
#include "plan/query_session.h"
#include "storage/table_fingerprint.h"
#include "tpch/plans.h"
#include "tpch/queries.h"
#include "tpch/workload.h"

namespace ma::tpch {
namespace {

struct QueryTimes {
  f64 serial_sec = 0;  // medians over the interleaved pairs
  f64 staged_sec = 0;
  size_t pairs = 0;
  u64 fingerprint = 0;
  u64 rows = 0;
};

void Run() {
  const bool short_run = bench::ShortMode();
  TpchConfig cfg;
  cfg.scale_factor = short_run ? 0.02 : 0.2;
  auto data = Generate(cfg);
  std::printf("TPC-H SF %.2f: lineitem=%zu orders=%zu\n",
              cfg.scale_factor, data->lineitem->row_count(),
              data->orders->row_count());

  const int threads = short_run
                          ? 2
                          : static_cast<int>(std::min(
                                8u, std::thread::hardware_concurrency()));
  plan::SessionConfig serial_cfg;
  serial_cfg.engine = AdaptiveConfig();
  plan::SessionConfig staged_cfg;
  staged_cfg.engine = AdaptiveConfig();
  staged_cfg.parallel.num_threads = threads;
  plan::QuerySession serial_session{serial_cfg};
  plan::QuerySession staged_session{staged_cfg};

  // Time serial and staged per query in interleaved ab/ba pairs and
  // keep each mode's median: both modes see the same drift of the
  // shared machine, and neither always runs second. Every staged result
  // is checked against the serial one, byte for byte.
  QueryTimes times[kNumQueries];
  for (int q = 1; q <= kNumQueries; ++q) {
    const plan::LogicalPlan plan = PlanForQuery(*data, q);
    QueryTimes& t = times[q - 1];
    auto run = [&](plan::QuerySession& session, plan::ExecMode mode,
                   const char* what) {
      RunResult r = session.Run(plan, mode);
      if (!r.status.ok() || r.table == nullptr) {
        std::fprintf(stderr, "Q%d %s failed: %s\n", q, what,
                     r.status.message().c_str());
        std::exit(1);
      }
      return r;
    };
    const RunResult ref = run(serial_session, plan::ExecMode::kSerial,
                              "serial");
    t.fingerprint = ExactFingerprint(*ref.table);
    t.rows = ref.rows_emitted;
    const bench::AbSamples s = bench::Interleaved(
        [&] {
          return run(serial_session, plan::ExecMode::kSerial, "serial")
              .seconds;
        },
        [&] {
          const RunResult p =
              run(staged_session, plan::ExecMode::kParallel, "staged");
          if (ExactFingerprint(*p.table) != t.fingerprint) {
            std::fprintf(stderr,
                         "Q%d DIVERGED: staged result is not byte-identical "
                         "to serial (%d threads)\n",
                         q, threads);
            std::exit(1);
          }
          return p.seconds;
        });
    t.serial_sec = bench::Quantile(s.a, 0.5);
    t.staged_sec = bench::Quantile(s.b, 0.5);
    t.pairs = s.a.size();
  }

  bench::PrintHeader(
      "Table 11: TPC-H power run — serial vs staged adaptive parallel",
      "All 22 queries as logical plans; staged results verified "
      "byte-identical to serial. Median seconds over interleaved "
      "serial/staged pairs; factor = serial / staged (>1 means the "
      "staged parallel engine is faster).");
  std::printf("%-28s %14s %14s %8s %6s\n", "query", "serial (sec)",
              "staged (sec)", "factor", "pairs");
  f64 geo = 0;
  bench::BenchJson json("table11");
  json.set_pool_threads(threads);
  for (int q = 1; q <= kNumQueries; ++q) {
    const QueryTimes& t = times[q - 1];
    const f64 factor = t.serial_sec / t.staged_sec;
    geo += std::log(factor);
    std::printf("%-28s %14.4f %14.4f %8.2f %6zu\n", QueryName(q),
                t.serial_sec, t.staged_sec, factor, t.pairs);
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(t.fingerprint));
    json.AddRow()
        .Num("query", q)
        .Str("name", QueryName(q))
        .Num("serial_sec", t.serial_sec)
        .Num("staged_sec", t.staged_sec)
        .Num("factor", factor)
        .Num("pairs", static_cast<f64>(t.pairs))
        .Num("rows", static_cast<f64>(t.rows))
        .Str("fingerprint", fp);
  }
  const f64 geomean = std::exp(geo / kNumQueries);
  std::printf("%-28s %14s %14s %8.2f\n", "GeoAvg", "", "", geomean);
  json.AddRow().Str("name", "geomean").Num("factor", geomean);
  json.Write();
  std::printf("\nAll 22 staged results byte-identical to serial.\n");
}

}  // namespace
}  // namespace ma::tpch

int main() {
  ma::tpch::Run();
  return 0;
}
