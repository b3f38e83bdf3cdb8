// QueryContext: per-query lifecycle governance, threaded through every
// execution path (serial Engine::Run, morsel-driven pipeline fragments,
// and QuerySession::RunStaged). One context governs ONE run; it carries
//
//   - a cooperative cancellation token (Cancel() from any thread),
//   - a deadline (SetDeadline / SetTimeout, checked at poll points),
//   - a memory budget (atomic reservation; overruns terminate the query
//     with kResourceExhausted instead of OOM-ing the process),
//   - a first-error slot (Fail() is first-error-wins; every later
//     failure is dropped and every execution path sees the stop flag),
//   - an optional, deterministic FaultInjector for error-path tests.
//
// Cancellation points sit at morsel/chunk boundaries — one relaxed
// atomic load per batch (ShouldStop) and one deadline read per morsel
// or every ~32 batches (Poll) — so the vectorized primitive loops stay
// untouched and the governed/ungoverned delta stays under ~1% (the
// bench_scaling guard measures it).
//
// Operators reach the context through their Engine (engine->context());
// an Engine that was not handed an external context uses a private
// fallback context that Engine::Run resets per run, so hand-built trees
// keep working ungoverned and one query's failure can never leak into
// the next.
#ifndef MA_EXEC_QUERY_CONTEXT_H_
#define MA_EXEC_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace ma {

/// Why a run ended — RunResult carries this next to its Status.
enum class TerminationReason : u8 {
  kOk = 0,
  kCancelled,
  kDeadlineExceeded,
  kResourceExhausted,
  kRejected,  // shed by admission control before executing (serve/)
  kInternal,  // any other failure (injected faults, contract breaches)
};

const char* TerminationReasonName(TerminationReason r);
TerminationReason ReasonFromStatus(const Status& s);

/// Deterministic, site-keyed fault injection for error-path tests. Off
/// by default (a QueryContext holds a null injector and the inline
/// check costs one pointer load); when armed, the Nth hit of a site
/// whose name contains the armed substring fires a failure or a delay.
/// Hits are counted per arm under a mutex — injection sites are
/// per-batch/per-morsel cold paths, never inside primitive loops.
///
/// Sites currently wired (see docs/ROBUSTNESS.md):
///   engine/open, engine/batch            serial pull loop
///   parallel/morsel                      every morsel claim
///   parallel/pipeline, parallel/build,
///   parallel/agg                         worker phase entry
///   parallel/merge                       each aggregation-merge partition
///   alloc/result, alloc/agg, alloc/build,
///   alloc/sort, alloc/merge, alloc/pipeline   memory-reservation sites
///   stage/<id>                           staged-executor stage entry
class FaultInjector {
 public:
  explicit FaultInjector(u64 seed = 0) : seed_(seed) {}

  /// The `nth` matching hit of a site containing `site_substr` fails
  /// with (code, message). nth is 1-based.
  void ArmFailure(std::string site_substr, u64 nth, StatusCode code,
                  std::string message);

  /// The `nth` matching hit sleeps `micros` before continuing — widens
  /// race windows (e.g. a stage mid-flight while another errors).
  void ArmDelay(std::string site_substr, u64 nth, u64 micros);

  /// Every matching hit fails with `probability`, decided by a hash of
  /// (seed, site, hit index): deterministic for a fixed seed.
  void ArmRandomFailure(std::string site_substr, f64 probability,
                        StatusCode code, std::string message);

  /// Called by instrumented sites. Returns the armed failure when one
  /// fires, OK otherwise (possibly after an armed delay).
  Status Hit(std::string_view site);

  /// Total hits observed (all sites) — lets tests assert a site was
  /// actually exercised.
  u64 total_hits() const;

 private:
  struct Arm {
    std::string site_substr;
    u64 nth = 0;  // 0 = probabilistic
    f64 probability = 0;
    StatusCode code = StatusCode::kInternal;
    std::string message;
    u64 delay_micros = 0;  // nonzero = delay instead of failure
    u64 hits = 0;
  };

  const u64 seed_;
  mutable std::mutex mu_;
  std::vector<Arm> arms_;
  u64 total_hits_ = 0;
};

class QueryContext {
 public:
  QueryContext() = default;
  ~QueryContext() { ReleaseBudgetLease(); }
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // --- Governance configuration (set before the run) -----------------

  /// Absolute deadline; a poll past it terminates the query with
  /// kDeadlineExceeded.
  void SetDeadline(std::chrono::steady_clock::time_point tp);
  /// Deadline relative to now.
  void SetTimeout(std::chrono::nanoseconds d) {
    SetDeadline(std::chrono::steady_clock::now() + d);
  }
  /// Total bytes the query may reserve across intermediates, join
  /// builds and aggregation state. 0 = unlimited.
  void SetMemoryBudget(u64 bytes) {
    budget_.store(bytes, std::memory_order_relaxed);
  }
  /// Installs a fault injector (not owned; null disables). Only tests
  /// should arm one.
  void set_fault_injector(FaultInjector* fi) { injector_ = fi; }
  FaultInjector* fault_injector() const { return injector_; }

  // --- Cancellation / failure (any thread) ---------------------------

  /// Requests cooperative cancellation; the run unwinds at its next
  /// poll point and reports kCancelled.
  void Cancel() { Fail(Status::Cancelled("query cancelled")); }

  /// Records `s` as the query's terminal status, first-error-wins, and
  /// raises the stop flag every execution path polls. Returns true when
  /// this call installed the error (false: an earlier error stands).
  bool Fail(Status s);

  // --- Poll points (hot-ish paths; see header comment) ---------------

  /// One relaxed load: true once the query must unwind.
  bool ShouldStop() const {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Full liveness check: stop flag plus deadline. Call once per morsel
  /// (parallel) or every ~32 batches (serial). Returns the terminal
  /// status when the query is stopping.
  Status Poll();

  /// Reserves `bytes` against the memory budget and runs the
  /// alloc-fault site `site`. Returns kResourceExhausted (and fails the
  /// query) on overrun. Zero-cost shape when ungoverned: callers gate
  /// on accounting_enabled().
  Status ReserveMemory(std::string_view site, u64 bytes);

  /// Runs injection site `site`; one pointer load when no injector is
  /// installed. A fired failure is recorded via Fail().
  Status MaybeInjectFault(std::string_view site) {
    if (injector_ == nullptr) return Status::OK();
    Status s = injector_->Hit(site);
    if (!s.ok()) Fail(s);
    return s;
  }

  /// True when memory accounting has observers (a budget or an
  /// injector) — callers skip byte-size estimation entirely otherwise.
  bool accounting_enabled() const {
    return budget_.load(std::memory_order_relaxed) != 0 ||
           injector_ != nullptr;
  }

  // --- Budget leases (serve/memory_broker.h) -------------------------

  /// Adopts a budget leased from a global pool: sets the memory budget
  /// to `bytes` and runs `release` exactly once when the lease is
  /// dropped — via ReleaseBudgetLease() or destruction. Reset() keeps
  /// the lease (it is configuration, like the budget itself), so one
  /// lease can span several retry attempts of the same query.
  void AdoptBudgetLease(u64 bytes, std::function<void()> release);

  /// Runs the adopted lease's release callback (idempotent) and clears
  /// the memory budget.
  void ReleaseBudgetLease();

  // --- Results -------------------------------------------------------

  /// Terminal status: OK while the query is healthy, the first recorded
  /// error once it is not.
  Status status() const;
  TerminationReason reason() const { return ReasonFromStatus(status()); }

  u64 memory_reserved() const {
    return reserved_.load(std::memory_order_relaxed);
  }
  u64 memory_peak() const {
    return peak_.load(std::memory_order_relaxed);
  }
  u64 memory_budget() const {
    return budget_.load(std::memory_order_relaxed);
  }

  /// Clears error/stop/memory state (configuration — deadline, budget,
  /// injector — stays). Engines reset their private fallback context
  /// per run; external contexts are one-per-run by contract, so user
  /// code rarely needs this outside tests.
  void Reset();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<i64> deadline_ns_{0};  // steady_clock ns; 0 = none
  std::atomic<u64> budget_{0};
  std::atomic<u64> reserved_{0};
  std::atomic<u64> peak_{0};
  FaultInjector* injector_ = nullptr;
  mutable std::mutex mu_;
  Status first_error_;        // guarded by mu_
  std::function<void()> lease_release_;  // guarded by mu_
};

}  // namespace ma

#endif  // MA_EXEC_QUERY_CONTEXT_H_
