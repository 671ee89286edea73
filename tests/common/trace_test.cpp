// common/trace: span ids and parent links, ring-buffer capacity and drop
// accounting, JSON drain, and cross-thread parenting rules.
#include "common/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"

namespace slicer::trace {
namespace {

TEST(TraceTest, DisabledSpansRecordNothing) {
  set_enabled(false);
  drain();
  {
    const Span s("test.disabled");
    EXPECT_EQ(s.id(), 0u);
    EXPECT_EQ(s.elapsed_ns(), 0u);
  }
  EXPECT_TRUE(drain().empty());
}

TEST(TraceTest, NestedSpansLinkToParent) {
  const ScopedTrace guard;
  std::uint64_t outer_id = 0, inner_id = 0;
  {
    const Span outer("test.outer");
    outer_id = outer.id();
    {
      const Span inner("test.inner");
      inner_id = inner.id();
    }
  }
  ASSERT_NE(outer_id, 0u);
  ASSERT_NE(inner_id, 0u);
  EXPECT_NE(outer_id, inner_id);

  const auto spans = drain();
  ASSERT_EQ(spans.size(), 2u);
  // Spans complete innermost-first.
  EXPECT_EQ(spans[0].name, "test.inner");
  EXPECT_EQ(spans[0].id, inner_id);
  EXPECT_EQ(spans[0].parent_id, outer_id);
  EXPECT_EQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[1].id, outer_id);
  EXPECT_EQ(spans[1].parent_id, 0u);
}

TEST(TraceTest, SiblingSpansShareParent) {
  const ScopedTrace guard;
  {
    const Span parent("test.parent");
    { const Span a("test.a"); }
    { const Span b("test.b"); }
  }
  const auto spans = drain();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "test.a");
  EXPECT_EQ(spans[1].name, "test.b");
  EXPECT_EQ(spans[0].parent_id, spans[2].id);
  EXPECT_EQ(spans[1].parent_id, spans[2].id);
  // Start offsets share one clock origin, so siblings are ordered.
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
}

TEST(TraceTest, ParentLinksAreThreadLocal) {
  const ScopedTrace guard;
  {
    const Span main_span("test.main");
    // A span on another thread must NOT adopt this thread's live span.
    std::thread([] { const Span other("test.other_thread"); }).join();
  }
  const auto spans = drain();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "test.other_thread");
  EXPECT_EQ(spans[0].parent_id, 0u);
}

/// Runs a two-index parallel_for on a two-lane pool whose bodies each open
/// a span and hold their lane until both have arrived, so index 1 runs on
/// the worker while the caller sits in index 0. Returns the lane count.
std::size_t span_on_both_lanes(ThreadPool& pool, const char* name) {
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> lanes;
  pool.parallel_for(2, [&](std::size_t) {
    const Span span(name);
    std::unique_lock lock(mu);
    lanes.insert(std::this_thread::get_id());
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(10),
                [&] { return lanes.size() == 2; });
  });
  return lanes.size();
}

TEST(TraceTest, PoolHelpersAdoptCallersSpan) {
  ThreadPool::ScopedPool pool(2);
  const ScopedTrace guard;
  std::uint64_t caller_id = 0;
  {
    const Span caller("test.pool.caller");
    caller_id = caller.id();
    ASSERT_EQ(span_on_both_lanes(pool.pool(), "test.pool.child"), 2u);
  }
  // The worker restores its own (empty) parent after the helper returns.
  ASSERT_EQ(span_on_both_lanes(pool.pool(), "test.pool.root"), 2u);

  std::size_t children = 0, roots = 0;
  for (const SpanRecord& s : drain()) {
    if (s.name == "test.pool.child") {
      ++children;
      EXPECT_EQ(s.parent_id, caller_id);
    } else if (s.name == "test.pool.root") {
      ++roots;
      EXPECT_EQ(s.parent_id, 0u);
    }
  }
  EXPECT_EQ(children, 2u);
  EXPECT_EQ(roots, 2u);
}

TEST(TraceTest, RingBufferDropsOldestAndCounts) {
  const ScopedTrace guard;
  constexpr std::size_t kExtra = 100;
  for (std::size_t i = 0; i < kTraceCapacity + kExtra; ++i) {
    const Span s("test.ring");
  }
  std::uint64_t dropped = 0;
  const auto spans = drain(&dropped);
  EXPECT_EQ(spans.size(), kTraceCapacity);
  EXPECT_EQ(dropped, kExtra);
  // Oldest-first: the survivors are the newest kTraceCapacity spans in
  // completion order (strictly increasing ids).
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_LT(spans[i - 1].id, spans[i].id);
}

TEST(TraceTest, DrainClearsTheBuffer) {
  const ScopedTrace guard;
  { const Span s("test.once"); }
  EXPECT_EQ(drain().size(), 1u);
  EXPECT_TRUE(drain().empty());
}

TEST(TraceTest, DrainJsonShape) {
  const ScopedTrace guard;
  {
    const Span outer("test.json.outer");
    { const Span inner("test.json.inner"); }
  }
  const std::string json = drain_json();
  EXPECT_EQ(json.find("{\"dropped\": 0, \"spans\": ["), 0u);
  EXPECT_NE(json.find("\"name\": \"test.json.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test.json.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"duration_ns\""), std::string::npos);
  // Draining consumed the spans.
  EXPECT_NE(drain_json().find("\"spans\": []"), std::string::npos);
}

TEST(TraceTest, ElapsedNsIsMonotone) {
  const ScopedTrace guard;
  {
    const Span s("test.elapsed");
    const std::uint64_t first = s.elapsed_ns();
    const std::uint64_t second = s.elapsed_ns();
    EXPECT_GE(second, first);
  }
  drain();
}

}  // namespace
}  // namespace slicer::trace
