// Shared helpers for the paper-reproduction benchmark binaries. Each
// binary regenerates one table or figure of "Micro Adaptivity in
// Vectorwise" (SIGMOD'13) and prints it in a comparable layout.
#ifndef MA_BENCH_BENCH_UTIL_H_
#define MA_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/cycleclock.h"
#include "common/rng.h"
#include "prim/prim_call.h"

namespace ma::bench {

/// Median cycles/tuple of `fn` over `reps` timed calls on the same
/// PrimCall (after one warmup call). `tuples` = live tuples per call.
inline f64 MeasureCyclesPerTuple(PrimFn fn, PrimCall& call, u64 tuples,
                                 int reps = 31) {
  fn(call);  // warmup (page-in, I-cache)
  std::vector<u64> samples;
  samples.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const u64 t0 = CycleClock::Now();
    fn(call);
    samples.push_back(CycleClock::Now() - t0);
  }
  std::nth_element(samples.begin(), samples.begin() + reps / 2,
                   samples.end());
  return static_cast<f64>(samples[reps / 2]) / static_cast<f64>(tuples);
}

/// CI smoke mode: MA_BENCH_SHORT=1 shrinks scale factor and reps so
/// the bench finishes in seconds with all hard guards still armed.
inline bool ShortMode() {
  static const bool v = std::getenv("MA_BENCH_SHORT") != nullptr;
  return v;
}

/// Seconds of interleaved A/B runs; pair i is (a[i], b[i]).
struct AbSamples {
  std::vector<f64> a;
  std::vector<f64> b;
};

/// Interleaved A/B timing: after one warmup of each, runs pairs of `a`
/// and `b` (each returns its run's seconds) until there are at least
/// `min_pairs` pairs and the pairs have taken at least `min_wall`
/// seconds in all. Pairs alternate their order (ab, ba, ab, ...), so
/// both sides see the same machine drift and neither always runs
/// second; the wall-time floor keeps millisecond queries from being
/// decided on a handful of samples.
template <typename A, typename B>
AbSamples Interleaved(A&& a, B&& b) {
  const size_t min_pairs = ShortMode() ? 41 : 61;
  const f64 min_wall = ShortMode() ? 1.0 : 2.0;
  a();  // warmups
  b();
  AbSamples s;
  f64 wall = 0;
  while (s.a.size() < min_pairs || wall < min_wall) {
    if (s.a.size() % 2 == 0) {
      s.a.push_back(a());
      s.b.push_back(b());
    } else {
      s.b.push_back(b());
      s.a.push_back(a());
    }
    wall += s.a.back() + s.b.back();
  }
  return s;
}

/// The q-quantile (0..1) of `v` by nearest rank.
inline f64 Quantile(std::vector<f64> v, f64 q) {
  const size_t k = static_cast<size_t>(q * static_cast<f64>(v.size() - 1) +
                                       0.5);
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

inline void PrintHeader(const std::string& what, const std::string& why) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf("%s\n", why.c_str());
  std::printf("================================================================\n");
}

/// Makes a selection vector covering a fraction of [0, n).
inline std::vector<sel_t> MakeSel(size_t n, f64 density, Rng* rng) {
  std::vector<sel_t> sel;
  for (size_t i = 0; i < n; ++i) {
    if (rng->NextBool(density)) sel.push_back(static_cast<sel_t>(i));
  }
  return sel;
}

/// Machine-readable benchmark output: collects flat rows of string/number
/// fields and writes them as `BENCH_<name>.json` in the working
/// directory, so the perf trajectory of a kernel can be tracked across
/// PRs by diffing or plotting the files.
///
///   bench::BenchJson json("fig1");
///   json.AddRow().Num("selectivity", 50).Str("flavor", "avx2")
///       .Num("cycles_per_tuple", 0.29);
///   json.Write();   // -> BENCH_fig1.json
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  class Row {
   public:
    Row& Str(const char* key, std::string v) {
      fields_.emplace_back(key, std::move(v));
      return *this;
    }
    Row& Num(const char* key, f64 v) {
      fields_.emplace_back(key, v);
      return *this;
    }

   private:
    friend class BenchJson;
    std::vector<std::pair<std::string, std::variant<std::string, f64>>>
        fields_;
  };

  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Worker threads the benchmark actually used (0 = serial binary).
  /// Recorded in the meta header so numbers from differently sized
  /// hosts are never compared as if they came from the same machine.
  void set_pool_threads(int n) { pool_threads_ = n; }

  /// True when any section of this run seeded bandit priors from a
  /// cross-query knowledge store (knowledge/profile_store.h). Recorded
  /// in the meta header so warm numbers are never diffed against cold
  /// ones as if they measured the same thing.
  void set_warm_start(bool on) { warm_start_ = on; }

  /// Writes BENCH_<name>.json; prints the path so runs are discoverable.
  /// Every file carries a meta header with the host's hardware
  /// concurrency and the pool width used, ahead of the data rows.
  void Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f,
                 "{\"bench\": \"%s\", \"meta\": "
                 "{\"hardware_concurrency\": %u, \"pool_threads\": %d, "
                 "\"warm_start\": %s}, "
                 "\"rows\": [",
                 name_.c_str(), std::thread::hardware_concurrency(),
                 pool_threads_, warm_start_ ? "true" : "false");
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "%s\n  {", r == 0 ? "" : ",");
      const auto& fields = rows_[r].fields_;
      for (size_t i = 0; i < fields.size(); ++i) {
        std::fprintf(f, "%s\"%s\": ", i == 0 ? "" : ", ",
                     fields[i].first.c_str());
        if (const auto* s = std::get_if<std::string>(&fields[i].second)) {
          std::fprintf(f, "\"%s\"", s->c_str());
        } else {
          std::fprintf(f, "%.6g", std::get<f64>(fields[i].second));
        }
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  std::string name_;
  int pool_threads_ = 0;
  bool warm_start_ = false;
  std::vector<Row> rows_;
};

}  // namespace ma::bench

#endif  // MA_BENCH_BENCH_UTIL_H_
