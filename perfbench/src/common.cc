#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "plan/query_session.h"
#include "storage/table_fingerprint.h"
#include "tpch/plans.h"
#include "tpch/workload.h"

namespace perfbench {

void Report::Metric(std::string name, f64 value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::Meta(std::string key, std::string json_value) {
  meta_.emplace_back(std::move(key), std::move(json_value));
}

void Report::Check(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::Fail() { ++failed_; }

void Report::Print() const {
  std::printf("{\"meta\": {");
  for (size_t i = 0; i < meta_.size(); ++i) {
    std::printf("%s\"%s\": %s", i ? ", " : "", meta_[i].first.c_str(),
                meta_[i].second.c_str());
  }
  std::printf("}}\n");
  // The result line: last on stdout, every value with all its digits.
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct() ? "true" : "false", attempted_, failed_);
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Latencies::Add(int query, f64 ms) {
  if (query >= 1) per_query_ms[query - 1].push_back(ms);
  all_ms.push_back(ms);
}

f64 Median(std::vector<f64> v) { return Quantile(std::move(v), 0.5); }

f64 Quantile(std::vector<f64> v, f64 q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const f64 pos = q * static_cast<f64>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<f64>(lo));
}

std::vector<f64> PerQueryMedians(const Latencies& l) {
  std::vector<f64> medians;
  for (const auto& q : l.per_query_ms) medians.push_back(Median(q));
  return medians;
}

f64 PowerTotalMs(const Latencies& l) {
  f64 total = 0;
  for (const f64 m : PerQueryMedians(l)) total += m;
  return total;
}

f64 PowerGeomeanMs(const Latencies& l) {
  f64 log_sum = 0;
  for (const f64 m : PerQueryMedians(l)) log_sum += std::log(m);
  return std::exp(log_sum / kNumQueries);
}

void AddEndToEnd(const Latencies& l, const std::vector<f64>& latency_sample,
                 f64 setup_s, Report* report) {
  report->Metric("setup_s", setup_s, "s");
  report->Metric("power_total_s", PowerTotalMs(l) / 1e3, "s");
  report->Metric("power_geomean_ms", PowerGeomeanMs(l), "ms");
  report->Metric("throughput_qps",
                 l.wall_s > 0 ? static_cast<f64>(l.all_ms.size()) / l.wall_s
                              : 0,
                 "1/s");
  report->Metric("latency_p50_ms", Quantile(latency_sample, 0.5), "ms");
  report->Metric("latency_p90_ms", Quantile(latency_sample, 0.9), "ms");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

void AddPerQuery(const Latencies& l, Report* report) {
  for (int q = 1; q <= kNumQueries; ++q) {
    char name[32];
    std::snprintf(name, sizeof(name), "query.q%02d_ms", q);
    report->Metric(name, Median(l.per_query_ms[q - 1]), "ms");
  }
}

u64 DeriveSeed(u64 seed, u64 stream) {
  // splitmix64 finalizer over (seed, stream): independent streams from
  // one benchmark seed.
  u64 z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Shuffle(std::vector<int>* v, ma::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBounded(i)]);
  }
}

std::vector<int> QueryOrder(ma::Rng* rng) {
  std::vector<int> order(kNumQueries);
  for (int q = 0; q < kNumQueries; ++q) order[q] = q + 1;
  Shuffle(&order, rng);
  return order;
}

f64 NowSeconds() {
  return std::chrono::duration<f64>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

f64 ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<f64>(t.tv_sec) + static_cast<f64>(t.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

f64 PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ma::tpch::TpchConfig DataConfig(u64 seed) {
  ma::tpch::TpchConfig cfg;
  cfg.scale_factor = kScaleFactor;
  cfg.seed = seed;
  return cfg;
}

std::vector<ma::plan::LogicalPlan> TpchPlans(const ma::tpch::TpchData& d) {
  std::vector<ma::plan::LogicalPlan> plans;
  plans.reserve(kNumQueries);
  for (int q = 1; q <= kNumQueries; ++q) {
    plans.push_back(ma::tpch::PlanForQuery(d, q));
  }
  return plans;
}

std::vector<u64> SerialFingerprints(
    const std::vector<ma::plan::LogicalPlan>& plans) {
  ma::plan::SessionConfig cfg;
  cfg.engine = ma::tpch::AdaptiveConfig();
  ma::plan::QuerySession session(cfg);
  std::vector<u64> out;
  out.reserve(plans.size());
  for (const ma::plan::LogicalPlan& p : plans) {
    const ma::RunResult r = session.Run(p, ma::plan::ExecMode::kSerial);
    out.push_back(r.ok() && r.table ? ma::ExactFingerprint(*r.table) : 0);
  }
  return out;
}

void CheckGolden(const Options& opt, const std::vector<u64>& fingerprints,
                 Report* report) {
  if (opt.seed != kDefaultSeed) return;
  std::ifstream in(opt.golden_path);
  int checked = 0;
  std::string line;
  while (in && std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    int q = 0;
    std::string hex;
    if (!(fields >> q >> hex) || q < 1 ||
        q > static_cast<int>(fingerprints.size())) {
      break;
    }
    ++checked;
    char got[32];
    std::snprintf(got, sizeof(got), "%016" PRIx64, fingerprints[q - 1]);
    if (hex != got) {
      std::fprintf(stderr, "golden mismatch Q%d: committed %s, got %s\n", q,
                   hex.c_str(), got);
      report->Fail();
    }
  }
  if (checked != static_cast<int>(fingerprints.size())) {
    std::fprintf(stderr, "golden file %s unreadable or incomplete\n",
                 opt.golden_path.c_str());
    report->Fail();
  }
}

void AddRunMeta(const Options& opt, Report* report) {
  auto q = [](const std::string& s) { return "\"" + s + "\""; };
  report->Meta("workload", q(opt.workload));
  report->Meta("seed", std::to_string(opt.seed));
  report->Meta("dbgen_seed", std::to_string(DataConfig(opt.seed).seed));
  report->Meta("scale_factor", std::to_string(kScaleFactor));
  report->Meta("seconds", std::to_string(opt.seconds));
  report->Meta("trace", opt.trace ? "true" : "false");
  report->Meta("nproc", std::to_string(HardwareThreads()));
  // __builtin_cpu_supports takes only a literal, hence the table.
  const std::pair<const char*, bool> cpu[] = {
      {"avx2", __builtin_cpu_supports("avx2")},
      {"avx512f", __builtin_cpu_supports("avx512f")},
      {"avx512bw", __builtin_cpu_supports("avx512bw")},
      {"avx512dq", __builtin_cpu_supports("avx512dq")},
      {"avx512vl", __builtin_cpu_supports("avx512vl")},
  };
  std::string flags = "[";
  for (const auto& [name, has] : cpu) {
    if (has) flags += std::string(flags.size() > 1 ? ", " : "") + q(name);
  }
  report->Meta("cpu_flags", flags + "]");
}

}  // namespace perfbench
