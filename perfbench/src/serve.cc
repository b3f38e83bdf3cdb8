// serve_mix: a closed loop of min(nproc, kMaxClients) clients with no
// think time, driving one WorkloadServer at its defaults. Each client
// works through seeded rounds of 33 requests: the 22 fixed TPC-H plans
// once each (they hit the plan cache and use warm-start priors) and 11
// ad-hoc Q6-shaped scan -> filter -> aggregate plans whose predicate
// constants are drawn from the seed (each misses the cache, and their
// selectivities, about 1% to 90%, push the selection primitives across
// the range where flavor choice matters). Rounds are stratified rather
// than drawn independently: with iid draws the count of Q21 — the
// slowest query — swings with the seed and moves throughput with it.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "plan/plan_builder.h"
#include "serve/workload_server.h"
#include "storage/table_fingerprint.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ma::plan::LogicalPlan;
using ma::plan::PlanBuilder;

/// Requests in flight never exceed the server's 2 drivers plus its
/// default admission queue of 8, so no request is shed for depth.
constexpr int kMaxClients = 8;
constexpr int kAdhocPerRound = 11;

/// Predicate constants of one ad-hoc plan.
struct Adhoc {
  ma::i64 ship_lo = 0;
  ma::i64 ship_hi = 0;  // exclusive
  f64 disc_lo = 0;
  f64 disc_hi = 0;
  ma::i64 qty_below = 0;
};

/// Draws a target selectivity log-uniformly from stratum `stratum` of
/// kAdhocPerRound equal slices of [1%, 90%], and gives each of the three
/// predicates about its cube root. One round covers every stratum once,
/// so the selectivity mix barely moves with the seed.
Adhoc DrawAdhoc(int stratum, ma::Rng* rng) {
  const f64 u = (stratum + rng->NextDouble()) / kAdhocPerRound;
  const f64 sel = std::exp(std::log(0.01) + u * std::log(0.9 / 0.01));
  const f64 keep = std::cbrt(sel);
  Adhoc a;
  const ma::i64 first = ma::tpch::Date(1992, 1, 2);
  const ma::i64 days = ma::tpch::Date(1998, 12, 1) - first;
  const ma::i64 span = std::max<ma::i64>(1, std::llround(keep * days));
  a.ship_lo = first + rng->NextRange(0, days - span);
  a.ship_hi = a.ship_lo + span;
  // l_discount takes the 11 values 0.00 .. 0.10; bounds sit between
  // them so no comparison depends on the last bit of a decimal.
  const int n = std::max(1, static_cast<int>(std::lround(keep * 11)));
  const int lo = static_cast<int>(rng->NextRange(0, 11 - n));
  a.disc_lo = lo * 0.01 - 0.005;
  a.disc_hi = (lo + n - 1) * 0.01 + 0.005;
  // l_quantity takes 1 .. 50.
  a.qty_below = 1 + std::max<ma::i64>(1, std::llround(keep * 50));
  return a;
}

LogicalPlan AdhocPlan(const ma::tpch::TpchData& d, const Adhoc& a) {
  std::vector<ma::ExprPtr> preds;
  preds.push_back(ma::Ge(ma::Col("l_shipdate"), ma::Lit(a.ship_lo)));
  preds.push_back(ma::Lt(ma::Col("l_shipdate"), ma::Lit(a.ship_hi)));
  preds.push_back(ma::Ge(ma::Col("l_discount"), ma::Lit(a.disc_lo)));
  preds.push_back(ma::Le(ma::Col("l_discount"), ma::Lit(a.disc_hi)));
  preds.push_back(ma::Lt(ma::Col("l_quantity"), ma::Lit(a.qty_below)));
  std::vector<ma::ProjectOperator::Output> outs;
  outs.push_back({"revenue", ma::Mul(ma::Col("l_extendedprice"),
                                     ma::Col("l_discount"))});
  std::vector<ma::HashAggOperator::AggSpec> aggs(2);
  aggs[0].fn = "sum";
  aggs[0].arg = ma::Col("revenue");
  aggs[0].out_name = "revenue";
  aggs[1].fn = "count";
  aggs[1].out_name = "n";
  return PlanBuilder::Scan(d.lineitem,
                           {"l_shipdate", "l_discount", "l_quantity",
                            "l_extendedprice"},
                           "adhoc/scan")
      .Filter(ma::AndAll(std::move(preds)), "adhoc/select")
      .Project(std::move(outs), "adhoc/project")
      .GroupBy({}, {}, std::move(aggs), "adhoc/agg")
      .Build();
}

/// One completed request.
struct Request {
  int phase = 0;
  int query = 0;  // 1..22, 0 = ad-hoc
  Adhoc adhoc;
  bool ok = false;  // executed OK (bytes are checked separately)
  u64 fingerprint = 0;
  f64 latency_ms = 0;  // Submit -> Wait returning
  f64 queue_ms = 0;
  f64 exec_ms = 0;  // QuerySession::Run inside the server
  int attempts = 0;
  bool degraded = false;
  ma::u64 primitive_cycles = 0;
  ma::u64 run_cycles = 0;
};

class Client {
 public:
  Client(int id, u64 seed, const ma::tpch::TpchData& d)
      : data_(d),
        order_rng_(DeriveSeed(seed, 100 + id)),
        adhoc_rng_(DeriveSeed(seed, 200 + id)),
        plans_(TpchPlans(d)) {}

  /// Closed loop until `deadline` (or `max_requests` requests).
  void Run(ma::serve::WorkloadServer* server, int phase, f64 deadline,
           size_t max_requests, const std::vector<u64>& baseline,
           Tracer* tracer) {
    for (size_t n = 0; n < max_requests && NowSeconds() < deadline; ++n) {
      Request req;
      req.phase = phase;
      const int slot = NextSlot();
      req.query = std::max(slot, 0);
      LogicalPlan adhoc_plan;
      if (req.query == 0) {
        req.adhoc = DrawAdhoc(-slot - 1, &adhoc_rng_);
        adhoc_plan = AdhocPlan(data_, req.adhoc);
      }
      const LogicalPlan* plan =
          req.query == 0 ? &adhoc_plan : &plans_[req.query - 1];
      const std::string label =
          req.query == 0 ? "adhoc" : "q" + std::to_string(req.query);
      const u64 id = tracer->NewRequest();
      Tracer::Span root = tracer->Begin("bench.request", id, 0, label);
      const f64 t0 = NowSeconds();
      ma::serve::QueryHandle handle;
      {
        Tracer::Span s = tracer->Begin("serve.Submit", id, root.id());
        handle = server->Submit(plan, label);
      }
      const ma::serve::QueryResult* result = nullptr;
      {
        Tracer::Span s = tracer->Begin("serve.Wait", id, root.id());
        result = &handle.Wait();
      }
      req.latency_ms = (NowSeconds() - t0) * 1e3;
      const ma::serve::QueryResult& r = *result;
      Tracer::Span check = tracer->Begin("bench.check", id, root.id());
      req.ok = r.run.ok() && r.run.table != nullptr;
      req.fingerprint = req.ok ? ma::ExactFingerprint(*r.run.table) : 0;
      if (req.query != 0 && req.fingerprint != baseline[req.query - 1]) {
        req.ok = false;
      }
      req.queue_ms =
          std::chrono::duration<f64, std::milli>(r.queue_wait).count();
      req.exec_ms = r.run.seconds * 1e3;
      req.attempts = r.attempts;
      req.degraded = r.degraded_to_serial;
      req.primitive_cycles = r.run.stages.primitives;
      req.run_cycles = r.run.total_cycles;
      log_.push_back(req);
    }
  }

  std::vector<Request>& log() { return log_; }

 private:
  /// The next slot of the current stratified round, reshuffled per
  /// round: TPC-H queries 1..22 once each, and ad-hoc selectivity
  /// strata -1..-kAdhocPerRound once each.
  int NextSlot() {
    if (next_ == round_.size()) {
      round_.clear();
      for (int q = 1; q <= kNumQueries; ++q) round_.push_back(q);
      for (int s = 1; s <= kAdhocPerRound; ++s) round_.push_back(-s);
      Shuffle(&round_, &order_rng_);
      next_ = 0;
    }
    return round_[next_++];
  }

  const ma::tpch::TpchData& data_;
  ma::Rng order_rng_;
  ma::Rng adhoc_rng_;
  std::vector<LogicalPlan> plans_;
  std::vector<int> round_;
  size_t next_ = 0;
  std::vector<Request> log_;
};

/// Runs every client in its own thread for one phase; returns the
/// phase's wall time.
f64 RunPhase(std::vector<std::unique_ptr<Client>>* clients,
             ma::serve::WorkloadServer* server, int phase, f64 seconds,
             size_t max_requests, const std::vector<u64>& baseline,
             Tracer* tracer) {
  const f64 start = NowSeconds();
  std::vector<std::thread> threads;
  for (auto& c : *clients) {
    threads.emplace_back([&, client = c.get()] {
      client->Run(server, phase, start + seconds, max_requests, baseline,
                  tracer);
    });
  }
  for (std::thread& t : threads) t.join();
  return NowSeconds() - start;
}

/// Checks every ad-hoc result against a serial run of the same plan,
/// outside the timed phases; one serial session per thread.
void VerifyAdhoc(const ma::tpch::TpchData& d,
                 std::vector<Request*> adhoc) {
  const int nthreads = HardwareThreads();
  std::vector<std::thread> threads;
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      ma::plan::QuerySession session;
      for (size_t i = t; i < adhoc.size(); i += nthreads) {
        Request* req = adhoc[i];
        const ma::RunResult r =
            session.Run(AdhocPlan(d, req->adhoc), ma::plan::ExecMode::kSerial);
        const u64 expect =
            r.ok() && r.table ? ma::ExactFingerprint(*r.table) : 0;
        if (expect == 0 || expect != req->fingerprint) req->ok = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

void AddServeLayer(const ServeLayer& s, Report* report) {
  report->Metric("knowledge.plan_cache_hit_rate", s.plan_cache_hit_rate,
                 "ratio");
  report->Metric("knowledge.store_profiles", s.store_profiles, "count");
  report->Metric("knowledge.profiles_merged", s.profiles_merged, "count");
  report->Metric("serve.queue_wait_p50_ms", s.queue_wait_p50_ms, "ms");
  report->Metric("serve.queue_wait_p90_ms", s.queue_wait_p90_ms, "ms");
  report->Metric("serve.exec_p50_ms", s.exec_p50_ms, "ms");
  report->Metric("serve.exec_p90_ms", s.exec_p90_ms, "ms");
  report->Metric("serve.degraded_frac", s.degraded_frac, "ratio");
  report->Metric("serve.attempts_per_query", s.attempts_per_query, "count");
  report->Metric("serve.retries", s.retries, "count");
  report->Metric("serve.rejected", s.rejected, "count");
  report->Metric("serve.tpch_p50_ms", s.tpch_p50_ms, "ms");
  report->Metric("serve.adhoc_p50_ms", s.adhoc_p50_ms, "ms");
}

void RunServeMix(const Options& opt, Tracer* tracer, Report* report) {
  const int nproc = HardwareThreads();
  const int nclients = std::min(nproc, kMaxClients);
  Tracer untraced(false);
  std::unique_ptr<ma::tpch::TpchData> data;
  std::unique_ptr<ma::serve::WorkloadServer> server;
  const SetupTimes setup =
      SetUp(opt.seed, tracer, &data, &server, [] {
        return std::make_unique<ma::serve::WorkloadServer>(
            ma::serve::ServerConfig());
      });
  const std::vector<u64> baseline = SerialFingerprints(TpchPlans(*data));
  CheckGolden(opt, baseline, report);
  report->Meta("pool_threads", std::to_string(server->pool()->size()));
  report->Meta("clients", std::to_string(nclients));

  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < nclients; ++c) {
    clients.push_back(std::make_unique<Client>(c, opt.seed, *data));
  }
  // Warm-up: one stratified round per client fills the plan cache and
  // the knowledge store before anything is timed.
  RunPhase(&clients, server.get(), 0, 1e9, 22 + kAdhocPerRound, baseline,
           &untraced);

  // Measured phases: one of `seconds` untraced; a traced run alternates
  // untraced and traced phases of seconds/4, twice each.
  const std::vector<bool> traced_phase =
      opt.trace ? std::vector<bool>{false, true, false, true}
                : std::vector<bool>{false};
  const f64 phase_seconds = opt.seconds / traced_phase.size();
  std::vector<f64> wall(traced_phase.size() + 1, 0);
  ma::serve::ServerStats traced_delta;
  f64 traced_cpu = 0, traced_wall = 0;
  for (size_t p = 0; p < traced_phase.size(); ++p) {
    const bool traced = traced_phase[p];
    const ma::serve::ServerStats s0 = server->stats();
    const f64 cpu0 = ProcessCpuSeconds();
    wall[p + 1] = RunPhase(&clients, server.get(), static_cast<int>(p + 1),
                           phase_seconds, SIZE_MAX, baseline,
                           traced ? tracer : &untraced);
    if (!traced) continue;
    const ma::serve::ServerStats s1 = server->stats();
    traced_cpu += ProcessCpuSeconds() - cpu0;
    traced_wall += wall[p + 1];
    traced_delta.plan_cache_hits += s1.plan_cache_hits - s0.plan_cache_hits;
    traced_delta.plan_cache_misses +=
        s1.plan_cache_misses - s0.plan_cache_misses;
    traced_delta.profiles_merged += s1.profiles_merged - s0.profiles_merged;
    traced_delta.executed += s1.executed - s0.executed;
    traced_delta.degraded_to_serial +=
        s1.degraded_to_serial - s0.degraded_to_serial;
    traced_delta.retries += s1.retries - s0.retries;
    traced_delta.rejected += s1.rejected - s0.rejected;
  }
  server->Shutdown();
  const ma::serve::ServerStats final_stats = server->stats();

  // Every result is checked: fixed plans against the serial baseline
  // as they complete, ad-hoc plans here against their own serial runs.
  std::vector<Request*> adhoc;
  std::vector<Request*> all;
  for (auto& c : clients) {
    for (Request& r : c->log()) {
      all.push_back(&r);
      if (r.query == 0 && r.ok) adhoc.push_back(&r);
    }
  }
  VerifyAdhoc(*data, adhoc);

  // Per phase kind (0 = untraced, 1 = traced): samples of requests that
  // passed every check. Failed and diverged requests count in `failed`.
  Latencies lat[2];
  std::vector<f64> queue_ms, exec_ms, tpch_ms, adhoc_ms;
  std::array<std::vector<f64>, kNumQueries> run_ms;
  RunCounters counters;
  u64 attempts = 0, traced_requests = 0;
  for (const Request* r : all) {
    report->Check(r->ok);
    if (!r->ok) {
      std::fprintf(stderr, "serve_mix: %s request failed or diverged\n",
                   r->query ? ("q" + std::to_string(r->query)).c_str()
                            : "ad-hoc");
    }
    if (r->phase == 0 || !r->ok) continue;
    const int kind = traced_phase[r->phase - 1] ? 1 : 0;
    lat[kind].Add(r->query, r->latency_ms);
    if (kind == 0) continue;
    ++traced_requests;
    attempts += r->attempts;
    queue_ms.push_back(r->queue_ms);
    exec_ms.push_back(r->exec_ms);
    (r->query ? tpch_ms : adhoc_ms).push_back(r->latency_ms);
    if (r->query) run_ms[r->query - 1].push_back(r->exec_ms);
    ++counters.runs;
    if (!r->degraded) ++counters.staged_runs;
    counters.primitive_cycles += r->primitive_cycles;
    counters.run_cycles += r->run_cycles;
  }
  for (size_t p = 0; p < traced_phase.size(); ++p) {
    lat[traced_phase[p] ? 1 : 0].wall_s += wall[p + 1];
  }
  report->Meta("latency_samples", std::to_string(lat[0].all_ms.size()));
  report->Meta("tpch_samples_min", [&] {
    size_t m = SIZE_MAX;
    for (const auto& q : lat[0].per_query_ms) m = std::min(m, q.size());
    return std::to_string(m);
  }());

  if (!opt.trace) {
    AddEndToEnd(lat[0], lat[0].all_ms, setup.setup_s, report);
    return;
  }
  report->Meta("traced_requests", std::to_string(traced_requests));
  report->Metric("tpch.generate_s", setup.generate_s, "s");
  Latencies run_lat;
  for (int q = 0; q < kNumQueries; ++q) run_lat.per_query_ms[q] = run_ms[q];
  AddPerQuery(run_lat, report);
  AddRunLayer(counters, traced_cpu / (traced_wall * nproc), report);
  ServeLayer s;
  const u64 lookups =
      traced_delta.plan_cache_hits + traced_delta.plan_cache_misses;
  s.plan_cache_hit_rate =
      lookups ? static_cast<f64>(traced_delta.plan_cache_hits) / lookups : 0;
  s.store_profiles = static_cast<f64>(final_stats.store_profiles);
  s.profiles_merged = static_cast<f64>(traced_delta.profiles_merged);
  s.queue_wait_p50_ms = Quantile(queue_ms, 0.5);
  s.queue_wait_p90_ms = Quantile(queue_ms, 0.9);
  s.exec_p50_ms = Quantile(exec_ms, 0.5);
  s.exec_p90_ms = Quantile(exec_ms, 0.9);
  s.degraded_frac =
      traced_delta.executed
          ? static_cast<f64>(traced_delta.degraded_to_serial) /
                static_cast<f64>(traced_delta.executed)
          : 0;
  s.attempts_per_query =
      traced_requests ? static_cast<f64>(attempts) / traced_requests : 0;
  s.retries = static_cast<f64>(traced_delta.retries);
  s.rejected = static_cast<f64>(traced_delta.rejected);
  s.tpch_p50_ms = Quantile(tpch_ms, 0.5);
  s.adhoc_p50_ms = Quantile(adhoc_ms, 0.5);
  AddServeLayer(s, report);
  RunLayerProbes(*data, TpchPlans(*data), baseline, opt.seed, tracer, report);
  const f64 untraced_ms = PowerTotalMs(lat[0]);
  report->Metric("trace.overhead_pct",
                 (PowerTotalMs(lat[1]) - untraced_ms) / untraced_ms * 100,
                 "%");
}

}  // namespace perfbench
