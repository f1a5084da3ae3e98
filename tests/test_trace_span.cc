// Span timeline contracts (common/trace_span.h): RAII recording, flush
// ordering (monotonic ts, parents before children), null-collector
// no-ops, and deterministic-mode byte stability.
#include "common/trace_span.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace stagedcmp {
namespace {

TEST(TraceSpan, RecordsOneCompleteEvent) {
  TraceCollector tc;
  {
    TraceSpan span(&tc, "cat", "work", "{\"k\": 1}");
  }
  ASSERT_EQ(tc.event_count(), 1u);
  const auto events = tc.SortedEvents();
  EXPECT_EQ(events[0].name, "work");
  EXPECT_STREQ(events[0].cat, "cat");
  EXPECT_GE(events[0].dur, 1u);
  EXPECT_EQ(events[0].args, "{\"k\": 1}");
}

TEST(TraceSpan, NullCollectorIsNoOp) {
  TraceSpan span(nullptr, "cat", "ignored");
  span.set_args("{}");
  span.End();  // must not crash; nothing to record into
  TraceSpan def;
  def.End();
}

TEST(TraceSpan, EndIsIdempotentAndMoveTransfersOwnership) {
  TraceCollector tc;
  {
    TraceSpan a(&tc, "cat", "moved");
    TraceSpan b(std::move(a));
    a.End();  // moved-from: no-op
    b.End();
    b.End();  // second End: no-op
  }
  EXPECT_EQ(tc.event_count(), 1u);
}

TEST(TraceCollector, FlushOrderIsMonotonicAndNested) {
  TraceCollector tc;
  {
    TraceSpan outer(&tc, "cat", "outer");
    {
      TraceSpan inner(&tc, "cat", "inner");
    }
  }
  {
    TraceSpan later(&tc, "cat", "later");
  }
  const auto events = tc.SortedEvents();
  ASSERT_EQ(events.size(), 3u);
  // Monotonic start times in flush order.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts, events[i - 1].ts);
  }
  // The parent precedes its child, and the child nests within it.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_GE(events[1].ts, events[0].ts);
  EXPECT_LE(events[1].ts + events[1].dur, events[0].ts + events[0].dur);
  EXPECT_EQ(events[2].name, "later");
}

// Regression for child spans ending after their parent: a zero-length
// child that starts one clock tick after its parent used to be clamped
// to 1us past the parent's end. Driven through SpanMicros with fixed
// nanosecond stamps, so the check does not depend on scheduling.
TEST(TraceCollector, SpanMicrosNestsEveryChildInsideItsParent) {
  // The reproducing case: parent [999, 1500]ns, child [1000, 1000]ns.
  const auto [pts, pdur] = TraceCollector::SpanMicros(999, 1500);
  const auto [cts, cdur] = TraceCollector::SpanMicros(1000, 1000);
  EXPECT_GE(cts, pts);
  EXPECT_LE(cts + cdur, pts + pdur);
  EXPECT_GE(cdur, 1u);

  // Every nesting over stamps around microsecond boundaries.
  const uint64_t ns[] = {0, 1, 499, 999, 1000, 1001, 1500, 1999, 2000, 2001};
  for (uint64_t ps : ns) {
    for (uint64_t pe : ns) {
      if (pe < ps) continue;
      const auto [p_ts, p_dur] = TraceCollector::SpanMicros(ps, pe);
      EXPECT_GE(p_dur, 1u);
      for (uint64_t cs : ns) {
        for (uint64_t ce : ns) {
          if (cs < ps || ce < cs || ce > pe) continue;
          const auto [c_ts, c_dur] = TraceCollector::SpanMicros(cs, ce);
          EXPECT_GE(c_dur, 1u);
          EXPECT_GE(c_ts, p_ts);
          EXPECT_LE(c_ts + c_dur, p_ts + p_dur)
              << "parent [" << ps << ", " << pe << "]ns, child [" << cs
              << ", " << ce << "]ns";
        }
      }
    }
  }
}

TEST(TraceCollector, AssignsTidsAndNames) {
  TraceCollector tc;
  tc.NameThisThread("main");
  tc.NameThisThread("ignored");  // first call wins
  {
    TraceSpan span(&tc, "cat", "on-main");
  }
  std::thread worker([&tc] {
    tc.NameThisThread("worker");
    TraceSpan span(&tc, "cat", "on-worker");
  });
  worker.join();
  const auto names = tc.ThreadNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "main");
  EXPECT_EQ(names[1], "worker");
  const auto events = tc.SortedEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(TraceCollector, WriteJsonIsLoadableShape) {
  TraceCollector tc;
  tc.NameThisThread("main");
  {
    TraceSpan span(&tc, "cat", "work \"quoted\"");
  }
  std::ostringstream os;
  tc.WriteJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);  // thread name
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("work \\\"quoted\\\""), std::string::npos);
  // Balanced braces/brackets — cheap structural validity proxy (check.sh
  // parses the real output with python).
  int depth = 0;
  bool in_str = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
    } else if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceCollector, EmptyCollectorWritesValidDocument) {
  TraceCollector tc(/*deterministic=*/true);
  std::ostringstream os;
  tc.WriteJson(os);
  EXPECT_NE(os.str().find("\"traceEvents\": []"), std::string::npos);
}

// The deterministic contract the sweep relies on: the same logical span
// set recorded in different orders, from different threads, with
// different wall durations flushes to byte-identical JSON.
TEST(TraceCollector, DeterministicModeIsByteStable) {
  auto flush = [](const std::vector<std::string>& order) {
    TraceCollector tc(/*deterministic=*/true);
    std::vector<std::thread> threads;
    for (const std::string& name : order) {
      threads.emplace_back([&tc, name] {
        tc.NameThisThread("worker-" + name);  // must not leak into output
        TraceSpan span(&tc, "cat", name);
      });
      threads.back().join();
    }
    std::ostringstream os;
    tc.WriteJson(os);
    return os.str();
  };
  const std::string a = flush({"cell:0", "cell:1", "build:x"});
  const std::string b = flush({"build:x", "cell:1", "cell:0"});
  EXPECT_EQ(a, b);
  // Synthetic timestamps: rank order, unit durations, single track.
  EXPECT_NE(a.find("\"ts\": 0"), std::string::npos);
  EXPECT_NE(a.find("\"ts\": 2"), std::string::npos);
  EXPECT_EQ(a.find("\"ph\": \"M\""), std::string::npos);
}

}  // namespace
}  // namespace stagedcmp
