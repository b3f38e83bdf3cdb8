// WorkloadServer: concurrent multi-query serving on ONE shared
// ThreadPool. The single-query stack underneath (QuerySession →
// staged compiler → ParallelExecutor) is unchanged; this layer adds
// what serving many tenants at once requires:
//
//   submit ──► AdmissionController ──► bounded queue ──► driver threads
//                (reject: queue full)   (reject: queue     │
//                                        deadline)         ▼
//                                               MemoryBroker lease
//                                               (FIFO-fair budgets)
//                                                          │
//                                               RetryPolicy loop
//                                               (transient failures)
//                                                          │
//                                               QuerySession::Run on
//                                               the SHARED ThreadPool
//                                               (degrade to serial
//                                                under saturation)
//
// Contracts (tested in tests/serve_test.cc, spec in docs/ROBUSTNESS.md):
//
//   - Shedding is kRejected-only: a rejected query returns kUnavailable
//     status, TerminationReason::kRejected, a null table, attempts == 0
//     — it never executed and never held a lease.
//   - Concurrent results are byte-identical to a serial baseline run of
//     the same plans (the repo-wide determinism contract survives
//     multi-tenancy, including degrade-to-serial).
//   - Retry heals transient failures (injected faults, lease pressure)
//     with byte-identical results on the healed attempt; the backoff
//     schedule is deterministic for a fixed RetryConfig::seed.
//   - Lease accounting balances: MemoryBroker::leased_bytes() == 0
//     once every submitted query has completed.
//
// Plans are borrowed: the caller keeps each submitted LogicalPlan (and
// the tables it scans) alive until that query's Wait() returns. The
// plan cache (knowledge/plan_cache.h) keeps that contract unchanged by
// deep-cloning plans on cache misses — with one extension: base tables
// scanned by cached plans must outlive the server, since a later query
// with an equal fingerprint may re-execute the cached stage-DAG (the
// fingerprint embeds the table pointer + schema, so a reused address
// with a different schema misses instead of dangling).
//
// Cross-query knowledge (ServerConfig::knowledge): after each
// successful query the session's merged flavor profile is folded into a
// ProfileStore; before each attempt the store's snapshot seeds bandit
// priors of the fresh instances. Priors are reward state only — warm
// and cold runs produce byte-identical tables (tests/knowledge_test.cc).
// With store_path set, the store is loaded at construction (missing or
// corrupt file = cold start, the server still serves) and saved once on
// Shutdown after the drivers drain.
#ifndef MA_SERVE_WORKLOAD_SERVER_H_
#define MA_SERVE_WORKLOAD_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel/thread_pool.h"
#include "exec/query_context.h"
#include "knowledge/plan_cache.h"
#include "knowledge/profile_store.h"
#include "plan/query_session.h"
#include "serve/admission.h"
#include "serve/memory_broker.h"
#include "serve/retry_policy.h"

namespace ma::serve {

struct ServerConfig {
  /// Shared pool width. 0 = std::thread::hardware_concurrency().
  int pool_threads = 0;
  /// Driver threads = queries executing at once. Queued submissions
  /// beyond this wait (bounded by admission.max_queue_depth).
  int max_concurrent = 2;
  /// How many of the executing queries may use the staged-parallel
  /// path at once. When the slots are taken, further queries degrade
  /// to serial ExecMode instead of piling more fan-out onto the pool —
  /// graceful degradation under saturation.
  int max_parallel_queries = 1;
  AdmissionConfig admission;
  RetryConfig retry;
  /// Global memory pool the broker leases from. 0 = unpooled (every
  /// lease granted, budget unlimited).
  u64 memory_pool_bytes = 0;
  /// Default per-query lease when SubmitOptions doesn't override it.
  u64 default_query_budget = 0;
  /// How long a query may wait on its memory lease before the attempt
  /// fails kResourceExhausted (and becomes retry-eligible).
  std::chrono::milliseconds lease_max_wait{1000};
  /// Base per-driver session config; shared_pool is overwritten.
  plan::SessionConfig session;
  /// Cross-query knowledge: plan cache, profile learning, warm-start
  /// seeding, persistence (see knowledge/profile_store.h).
  knowledge::KnowledgeConfig knowledge;
};

struct SubmitOptions {
  /// Memory lease for this query; ~0 = ServerConfig default.
  u64 budget_bytes = ~0ull;
  /// Preferred execution mode; saturation may degrade it to kSerial.
  plan::ExecMode mode = plan::ExecMode::kAuto;
  /// Per-attempt timeout; 0 = none. Re-armed on every retry.
  std::chrono::nanoseconds timeout{0};
  /// Optional fault injector (tests); installed on the query context.
  FaultInjector* injector = nullptr;
};

/// Everything a completed query reports.
struct QueryResult {
  RunResult run;
  /// Execution attempts made; 0 = shed by admission, never ran.
  int attempts = 0;
  /// True when saturation forced this query from staged-parallel down
  /// to serial on at least one attempt.
  bool degraded_to_serial = false;
  /// Time spent queued before dispatch.
  std::chrono::microseconds queue_wait{0};
};

/// Aggregate serving counters (monotonic since construction).
struct ServerStats {
  u64 submitted = 0;
  u64 rejected = 0;  // all shed queries (submit + dispatch + shutdown)
  u64 executed = 0;  // reached the execution loop
  u64 retries = 0;   // extra attempts beyond the first
  u64 degraded_to_serial = 0;
  u64 completed_ok = 0;
  u64 failed = 0;    // executed but terminally failed
  // Knowledge-layer counters, so benches and drivers read them here
  // instead of recomputing ad hoc.
  u64 plan_cache_hits = 0;
  u64 plan_cache_misses = 0;
  u64 profiles_merged = 0;  // query profiles folded into the store
  u64 store_profiles = 0;   // distinct (site, signature) rows held
};

class WorkloadServer;

/// Handle to one submitted query. Cheap to copy (shared state).
class QueryHandle {
 public:
  QueryHandle() = default;
  bool valid() const { return state_ != nullptr; }
  u64 id() const;

  /// Blocks until the query completes (or was shed) and returns its
  /// result. The reference stays valid while any handle copy lives —
  /// which is why calling this on a temporary handle
  /// (`server.Submit(...).Wait()`) is deleted: the returned reference
  /// would dangle the moment the temporary died.
  const QueryResult& Wait() const&;
  const QueryResult& Wait() const&& = delete;

  /// Requests cooperative cancellation: mid-flight the run unwinds at
  /// its next poll point; between retry attempts the next attempt is
  /// never started. Cancelling one query never perturbs another.
  void Cancel();

 private:
  friend class WorkloadServer;
  struct State;
  explicit QueryHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

class WorkloadServer {
 public:
  explicit WorkloadServer(ServerConfig config);
  /// Drains queued queries, then joins the drivers (Shutdown()).
  ~WorkloadServer();
  WorkloadServer(const WorkloadServer&) = delete;
  WorkloadServer& operator=(const WorkloadServer&) = delete;

  /// Submits `plan` for execution. Never blocks on execution — returns
  /// a handle immediately; a shed query's handle completes at once
  /// with kUnavailable/kRejected. `label` tags the query's pool phases
  /// and error messages.
  QueryHandle Submit(const plan::LogicalPlan* plan, std::string label,
                     SubmitOptions opts = SubmitOptions());

  /// Runs every queued query to completion, then stops the drivers.
  /// Submissions after (or racing) shutdown are shed kRejected.
  /// Idempotent.
  void Shutdown();

  ServerStats stats() const;
  ThreadPool* pool() { return &pool_; }
  MemoryBroker* broker() { return &broker_; }
  const AdmissionController* admission() const { return &admission_; }
  /// The knowledge store this server learns into — the external one
  /// from KnowledgeConfig::store, or the server-private one. Never null.
  knowledge::ProfileStore* knowledge_store() { return store_.get(); }
  /// True when construction loaded a persisted store from
  /// KnowledgeConfig::store_path (false = cold start).
  bool warm_started() const { return store_loaded_; }

 private:
  void DriverLoop();
  /// The admitted query's full lifecycle: lease, retry loop, degrade
  /// decision. Fills state->result.run and attempt bookkeeping.
  void Execute(QueryHandle::State* q, plan::QuerySession* session);
  /// Completes a query that was shed without executing.
  void FinishRejected(const std::shared_ptr<QueryHandle::State>& q,
                      Status why);
  /// Marks the state done and wakes waiters.
  static void Finish(const std::shared_ptr<QueryHandle::State>& q);
  bool TryAcquireParallelSlot();
  void ReleaseParallelSlot();

  const ServerConfig config_;
  ThreadPool pool_;
  AdmissionController admission_;
  MemoryBroker broker_;
  RetryPolicy retry_;
  std::shared_ptr<knowledge::ProfileStore> store_;
  knowledge::PlanCache plan_cache_;
  bool store_loaded_ = false;
  /// Shutdown() saves the store at most once (guarded by queue_mu_).
  bool store_saved_ = false;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<QueryHandle::State>> queue_;
  bool shutdown_ = false;

  std::atomic<int> active_parallel_{0};
  std::atomic<u64> next_query_id_{1};
  std::atomic<u64> submitted_{0};
  std::atomic<u64> rejected_{0};
  std::atomic<u64> executed_{0};
  std::atomic<u64> retries_{0};
  std::atomic<u64> degraded_{0};
  std::atomic<u64> completed_ok_{0};
  std::atomic<u64> failed_{0};

  std::vector<std::thread> drivers_;
};

}  // namespace ma::serve

#endif  // MA_SERVE_WORKLOAD_SERVER_H_
