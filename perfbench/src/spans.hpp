// In-memory span tracer for the traced run. Spans are recorded only from
// the benchmark's own files, around its calls into each library layer:
// name, start, end, parent span and a record/verdict id. Each thread keeps
// its own buffer and open-span stack, so recording takes no lock; a
// layer's self time (duration minus the time its direct children cover)
// is folded per span name as spans close. Raw spans are kept up to a cap
// and written out when the run ends.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  // string literal
  std::uint64_t id = 0;        // (thread index << 40) | per-thread sequence
  std::uint64_t parent = 0;    // 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t subject = 0;   // record index / verdict id / pass number
};

struct SpanTotals {
  const char* name = nullptr;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class Tracer {
 public:
  /// Raw spans kept per thread; totals keep counting past the cap.
  static constexpr std::size_t kMaxRawPerThread = 1u << 16;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Open a span on the calling thread; returns its id (0 when disabled).
  std::uint64_t open(const char* name, std::uint64_t subject);
  /// Close the calling thread's innermost open span.
  void close();

  /// Per-name totals merged across threads (sorted by name).
  std::vector<SpanTotals> totals() const;
  /// Write every kept raw span as JSON lines; false on I/O failure.
  bool write_jsonl(const std::string& path) const;
  std::uint64_t raw_spans_dropped() const;

 private:
  struct Open {
    SpanRecord rec;
    std::uint64_t child_ns = 0;
  };
  struct ThreadBuf {
    std::uint64_t index = 0;
    std::uint64_t seq = 0;
    std::vector<Open> stack;
    std::vector<SpanRecord> raw;
    std::uint64_t raw_dropped = 0;
    std::vector<SpanTotals> totals;  // few names; linear lookup
  };

  ThreadBuf& local();

  bool enabled_ = false;
  mutable droppkt::util::Mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_ DROPPKT_GUARDED_BY(mutex_);
};

/// RAII span: records nothing when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t subject = 0)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->open(name, subject);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
