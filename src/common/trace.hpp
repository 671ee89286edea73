// Scoped trace spans with parent links and a ring-buffer sink.
//
// A Span is an RAII guard around one protocol phase ("client.query",
// "cloud.prove", ...). Spans opened while another span is live on the same
// thread record it as their parent, and ThreadPool helpers adopt the
// caller's live span (AdoptParent), so a drained trace reconstructs the
// call tree of a query across pool lanes: client.query → client.tokens /
// cloud.search → cloud.fetch / cloud.prove → verify.token.
//
// The sink is a fixed-capacity ring buffer: the newest kTraceCapacity
// completed spans are kept, older ones are overwritten (dropped spans are
// counted). Like common/metrics, tracing is off by default — a disabled
// Span construction is one relaxed atomic load — and is switched on by the
// SLICER_TRACE environment variable (a flag knob: any non-empty value
// except "0") or trace::set_enabled().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace slicer::trace {

/// Ring-buffer capacity: the newest completed spans kept for drain().
inline constexpr std::size_t kTraceCapacity = 4096;

/// True when span recording is on — the only check on the hot path.
bool enabled();
void set_enabled(bool on);

/// One completed span as stored in the ring buffer.
struct SpanRecord {
  std::uint64_t id = 0;         ///< unique per process run, 1-based
  std::uint64_t parent_id = 0;  ///< 0 = root span
  std::string name;
  std::uint64_t start_ns = 0;  ///< steady-clock offset from process start
  std::uint64_t duration_ns = 0;
};

/// RAII scoped span. Cheap no-op when tracing is disabled at construction;
/// otherwise assigns an id, links to the innermost live span on this
/// thread, and pushes a SpanRecord into the ring buffer on destruction.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Nanoseconds since this span opened (0 when tracing is disabled) —
  /// lets instrumented code reuse the span's clock reads for per-item
  /// latency reporting instead of timing twice.
  std::uint64_t elapsed_ns() const;

  /// This span's id (0 when tracing is disabled).
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_ = 0;  // 0 = disabled, records nothing
  std::uint64_t parent_id_ = 0;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

/// The innermost live span on this thread (0 when none): the parent a
/// Span opened here now would record.
std::uint64_t current_span_id();

/// RAII guard making `parent` the innermost live span on this thread for
/// its scope, so spans opened inside link to a span that lives on another
/// thread. ThreadPool helpers use it to adopt the caller's span.
class AdoptParent {
 public:
  explicit AdoptParent(std::uint64_t parent);
  ~AdoptParent();
  AdoptParent(const AdoptParent&) = delete;
  AdoptParent& operator=(const AdoptParent&) = delete;

 private:
  std::uint64_t previous_;
};

/// Copies out the buffered spans (oldest kept first) and clears the
/// buffer. `dropped` (optional) receives the number of spans overwritten
/// since the last drain.
std::vector<SpanRecord> drain(std::uint64_t* dropped = nullptr);

/// Drains the buffer into deterministic JSON:
///   {"dropped": n, "spans": [{"id": i, "parent": p, "name": "...",
///                             "start_ns": s, "duration_ns": d}, ...]}
std::string drain_json();

/// RAII enable guard: turns tracing on (draining stale spans) for the
/// scope, restores the previous state on exit.
class ScopedTrace {
 public:
  ScopedTrace() : previous_(enabled()) {
    set_enabled(true);
    drain();
  }
  ~ScopedTrace() { set_enabled(previous_); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  bool previous_;
};

}  // namespace slicer::trace
