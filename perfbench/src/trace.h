// In-memory spans recorded by the benchmark around its calls into each
// layer's public API (tpch::Generate, Compiler::BuildStagePlan,
// QuerySession::Run, ParallelExecutor::RunAgg/BuildJoin/RunPipeline,
// WorkloadServer::Submit, QueryHandle::Wait). Each span has a name,
// start, end, the span that caused it, and a request id shared by all
// spans of one query. Spans stay in memory and are written out once,
// as Chrome trace-event JSON, when the run ends.
//
// A disabled tracer records nothing; Span objects are then inert, so
// the measured code path is the same with tracing on or off apart from
// the recording itself.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

class Tracer {
 public:
  /// One recorded interval; ids start at 1, parent 0 is "no parent".
  struct Record {
    const char* name;
    std::string detail;
    ma::u64 id;
    ma::u64 parent;
    ma::u64 request;
    ma::i64 start_ns;
    ma::i64 end_ns;
    int thread;
  };

  /// RAII span: recorded when it goes out of scope.
  class Span {
   public:
    Span(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span& operator=(Span&&) = delete;
    ~Span();
    ma::u64 id() const { return rec_.id; }

   private:
    friend class Tracer;
    Span(Tracer* tracer, Record rec) : tracer_(tracer), rec_(std::move(rec)) {}
    Tracer* tracer_;  // null when inert
    Record rec_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A fresh request id (0 when disabled).
  ma::u64 NewRequest();
  Span Begin(const char* name, ma::u64 request, ma::u64 parent = 0,
             std::string detail = {});

  size_t span_count() const;
  /// Writes every recorded span; false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  void Finish(Record rec);
  static ma::i64 NowNs();
  /// Small integer naming the calling thread in the written trace.
  static int ThreadIndex();

  const bool enabled_;
  std::atomic<ma::u64> next_id_{1};
  std::atomic<ma::u64> next_request_{1};
  mutable std::mutex mu_;
  std::vector<Record> records_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
