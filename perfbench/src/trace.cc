#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

Tracer::Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_), rec_(std::move(other.rec_)) {
  other.tracer_ = nullptr;
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  rec_.end_ns = NowNs();
  tracer_->Finish(std::move(rec_));
}

ma::u64 Tracer::NewRequest() {
  return enabled_ ? next_request_.fetch_add(1, std::memory_order_relaxed)
                  : 0;
}

Tracer::Span Tracer::Begin(const char* name, ma::u64 request,
                           ma::u64 parent, std::string detail) {
  if (!enabled_) return Span(nullptr, Record{name, {}, 0, 0, 0, 0, 0, 0});
  Record rec{name,
             std::move(detail),
             next_id_.fetch_add(1, std::memory_order_relaxed),
             parent,
             request,
             NowNs(),
             0,
             ThreadIndex()};
  return Span(this, std::move(rec));
}

int Tracer::ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void Tracer::Finish(Record rec) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(rec));
}

ma::i64 Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  ma::i64 t0 = records_.empty() ? 0 : records_.front().start_ns;
  for (const Record& r : records_) t0 = std::min(t0, r.start_ns);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    // Chrome trace-event "complete" events, microsecond timestamps.
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"detail\": \"%s\"}}%s\n",
                 r.name, r.thread, (r.start_ns - t0) / 1e3,
                 (r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request),
                 r.detail.c_str(), i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
