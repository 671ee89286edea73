#include "common/trace.hpp"

#include <mutex>

#include "common/env.hpp"

namespace slicer::trace {

namespace {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env::flag_knob("SLICER_TRACE")};
  return flag;
}

/// Innermost live span on this thread — the parent link for new spans.
thread_local std::uint64_t innermost_span = 0;

std::atomic<std::uint64_t> next_id{1};

/// All spans share one clock origin so start_ns values are comparable
/// across threads.
std::chrono::steady_clock::time_point clock_origin() {
  static const auto origin = std::chrono::steady_clock::now();
  return origin;
}

/// The ring-buffer sink. Mutex-protected: spans close at phase granularity
/// (microseconds to milliseconds), so sink contention is never on a hot
/// path. Leaked like the metrics registry to dodge static-destruction
/// order.
struct Sink {
  std::mutex mutex;
  std::vector<SpanRecord> ring;  // capacity kTraceCapacity, write_pos wraps
  std::size_t write_pos = 0;
  std::uint64_t total_pushed = 0;
  std::uint64_t dropped = 0;

  void push(SpanRecord record) {
    std::lock_guard<std::mutex> lock(mutex);
    if (ring.size() < kTraceCapacity) {
      ring.push_back(std::move(record));
    } else {
      dropped += 1;
      ring[write_pos] = std::move(record);
      write_pos = (write_pos + 1) % kTraceCapacity;
    }
    total_pushed += 1;
  }
};

Sink& sink() {
  static Sink* s = new Sink();
  return *s;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

Span::Span(std::string_view name) {
  if (!enabled()) return;
  id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  parent_id_ = innermost_span;
  innermost_span = id_;
  name_ = name;
  // Pin the shared origin no later than the first span's start, so
  // start_ns offsets never go negative (the origin is created on first
  // use; without this it would be created by the first *destructor*).
  clock_origin();
  start_ = std::chrono::steady_clock::now();
}

std::uint64_t Span::elapsed_ns() const {
  if (id_ == 0) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

Span::~Span() {
  if (id_ == 0) return;
  const auto end = std::chrono::steady_clock::now();
  innermost_span = parent_id_;
  SpanRecord record;
  record.id = id_;
  record.parent_id = parent_id_;
  record.name = std::move(name_);
  const auto start_offset =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start_ -
                                                           clock_origin())
          .count();
  record.start_ns =
      start_offset < 0 ? 0 : static_cast<std::uint64_t>(start_offset);
  record.duration_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count());
  sink().push(std::move(record));
}

std::uint64_t current_span_id() { return innermost_span; }

AdoptParent::AdoptParent(std::uint64_t parent)
    : previous_(innermost_span) {
  innermost_span = parent;
}

AdoptParent::~AdoptParent() { innermost_span = previous_; }

std::vector<SpanRecord> drain(std::uint64_t* dropped) {
  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mutex);
  // Unwrap the ring so the oldest retained span comes first.
  std::vector<SpanRecord> out;
  out.reserve(s.ring.size());
  for (std::size_t i = 0; i < s.ring.size(); ++i)
    out.push_back(std::move(s.ring[(s.write_pos + i) % s.ring.size()]));
  s.ring.clear();
  s.write_pos = 0;
  if (dropped != nullptr) *dropped = s.dropped;
  s.dropped = 0;
  return out;
}

std::string drain_json() {
  std::uint64_t dropped = 0;
  const std::vector<SpanRecord> spans = drain(&dropped);
  std::string out = "{\"dropped\": " + std::to_string(dropped) +
                    ", \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i != 0) out += ", ";
    out += "{\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent_id) + ", \"name\": \"";
    for (const char c : s.name) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\", \"start_ns\": " + std::to_string(s.start_ns) +
           ", \"duration_ns\": " + std::to_string(s.duration_ns) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace slicer::trace
