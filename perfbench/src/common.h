// Shared pieces of the repo benchmark: run options, the result report
// (the JSON line every run ends with), statistics over
// latency samples, process counters and the data/baseline set-up every
// workload starts from.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "plan/logical_plan.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "trace.h"

namespace perfbench {

using ma::f64;
using ma::u64;

/// TPC-H scale factor of every workload: large enough that the
/// parallel layer has work to split (lineitem ~1.2M rows), small
/// enough that one 22-query stream takes about a second.
inline constexpr f64 kScaleFactor = 0.2;
/// The benchmark seed that reproduces dbgen's own default data, the
/// data BENCH_table11.json was recorded on; runs at this seed also
/// check results against the committed golden fingerprints.
inline constexpr u64 kDefaultSeed = 19940401;
/// Set-up is repeated and its median reported, so that work moved
/// into set-up shows without one slow repetition deciding the number.
inline constexpr int kSetupRepeats = 3;
inline constexpr int kNumQueries = ma::tpch::kNumQueries;

struct Options {
  std::string workload;
  u64 seed = kDefaultSeed;
  f64 seconds = 10;
  bool trace = false;
  /// Committed fingerprints checked when seed == kDefaultSeed.
  std::string golden_path;
  /// Where a traced run writes its spans (Chrome trace-event JSON).
  std::string trace_out;
};

/// Collects the run's metrics, metadata and correctness counts and
/// prints them: metadata as one JSON line, then the result line
/// {"correct", "attempted", "failed", "metrics"} last.
class Report {
 public:
  void Metric(std::string name, f64 value, std::string unit);
  /// `json_value` is already-encoded JSON (number, string or object).
  void Meta(std::string key, std::string json_value);
  /// Counts one checked result; a false `ok` marks the run incorrect.
  void Check(bool ok);
  /// Counts a failure that is not tied to a timed request (a golden
  /// fingerprint that no longer matches, a plan that fails to stage).
  void Fail();
  bool correct() const { return failed_ == 0; }
  void Print() const;

 private:
  struct Entry {
    std::string name;
    f64 value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
};

/// Per-query and overall latency samples of one measured phase.
struct Latencies {
  std::array<std::vector<f64>, kNumQueries> per_query_ms;
  std::vector<f64> all_ms;
  /// Denominator of throughput: the phase's wall time.
  f64 wall_s = 0;
  void Add(int query, f64 ms);  // query 1..22, or 0 for ad-hoc
};

f64 Median(std::vector<f64> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
f64 Quantile(std::vector<f64> v, f64 q);
/// Each TPC-H query's median latency in ms, index q-1.
std::vector<f64> PerQueryMedians(const Latencies& l);
/// Sum over the 22 queries of each query's median latency, in ms.
f64 PowerTotalMs(const Latencies& l);
/// Geometric mean of the 22 per-query medians, in ms.
f64 PowerGeomeanMs(const Latencies& l);
/// The end-to-end metrics every workload reports (BENCHMARK.json);
/// latency_p50_ms and latency_p90_ms are taken over `latency_sample`.
void AddEndToEnd(const Latencies& l, const std::vector<f64>& latency_sample,
                 f64 setup_s, Report* report);
/// query.qNN_ms: per-query median latency.
void AddPerQuery(const Latencies& l, Report* report);

/// A sub-seed for one independent random stream of a run.
u64 DeriveSeed(u64 seed, u64 stream);
/// Fisher-Yates shuffle driven by `rng`.
void Shuffle(std::vector<int>* v, ma::Rng* rng);
/// A seeded permutation of 1..22.
std::vector<int> QueryOrder(ma::Rng* rng);

f64 NowSeconds();
f64 ProcessCpuSeconds();
f64 PeakRssMb();
int HardwareThreads();

struct SetupTimes {
  f64 setup_s = 0;     // median of generate + system construction
  f64 generate_s = 0;  // median of tpch::Generate alone
};

ma::tpch::TpchConfig DataConfig(u64 seed);

/// Generates the database and constructs the system under test with
/// `make()` kSetupRepeats times, keeping the last pair. The old
/// system goes first (it borrows the old tables), and neither teardown
/// is timed.
template <typename System, typename Make>
SetupTimes SetUp(u64 seed, Tracer* tracer,
                 std::unique_ptr<ma::tpch::TpchData>* data,
                 std::unique_ptr<System>* system, Make make) {
  std::vector<f64> setup, generate;
  for (int i = 0; i < kSetupRepeats; ++i) {
    system->reset();
    data->reset();
    const u64 req = tracer->NewRequest();
    Tracer::Span span = tracer->Begin("bench.setup", req);
    const f64 t0 = NowSeconds();
    {
      Tracer::Span gen = tracer->Begin("tpch.Generate", req, span.id());
      *data = ma::tpch::Generate(DataConfig(seed));
    }
    const f64 t1 = NowSeconds();
    {
      Tracer::Span build = tracer->Begin("bench.construct", req, span.id());
      *system = make();
    }
    const f64 t2 = NowSeconds();
    setup.push_back(t2 - t0);
    generate.push_back(t1 - t0);
  }
  return {Median(setup), Median(generate)};
}

/// The 22 TPC-H plans over `d`, index q-1.
std::vector<ma::plan::LogicalPlan> TpchPlans(const ma::tpch::TpchData& d);
/// ExactFingerprint of each plan's result under a fresh serial
/// QuerySession — the reference every timed result must reproduce.
/// Computed outside any timed region. A plan that fails gets 0.
std::vector<u64> SerialFingerprints(
    const std::vector<ma::plan::LogicalPlan>& plans);
/// At kDefaultSeed, checks `fingerprints` (index q-1) against the
/// golden file (one "<query> <16-hex fingerprint>" line per query); a
/// mismatch or an unreadable file counts as a failure.
void CheckGolden(const Options& opt, const std::vector<u64>& fingerprints,
                 Report* report);

/// Metadata every result carries.
void AddRunMeta(const Options& opt, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
