// Unit tests for the observability layer: metric handles, shard folding,
// histogram buckets, span parentage, and clock-injected determinism.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace cloudia::obs {
namespace {

// ---------------------------------------------------------------------------
// Metrics

TEST(MetricsTest, DetachedHandlesAreNoOps) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  EXPECT_FALSE(counter.attached());
  EXPECT_FALSE(gauge.attached());
  EXPECT_FALSE(histogram.attached());
  // Must not crash; this is the disabled path every instrumented call site
  // takes when no registry is configured.
  counter.Add();
  counter.Add(17);
  gauge.Set(3.5);
  gauge.Add(-1.0);
  histogram.Observe(0.25);
}

TEST(MetricsTest, CounterAccumulatesAcrossHandleCopies) {
  MetricsRegistry registry;
  Counter a = registry.counter("test.hits");
  Counter b = registry.counter("test.hits");  // same cell, find-or-create
  a.Add();
  b.Add(4);
  std::vector<MetricValue> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "test.hits");
  EXPECT_DOUBLE_EQ(snap[0].value, 5.0);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge g = registry.gauge("test.depth");
  g.Set(10.0);
  g.Add(-3.0);
  g.Add(1.0);
  std::vector<MetricValue> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap[0].value, 8.0);
}

TEST(MetricsTest, LogSpacedBoundsLayout) {
  HistogramOptions options;
  options.min_bound = 1.0;
  options.growth = 2.0;
  options.buckets = 4;
  std::vector<double> bounds = LogSpacedBounds(options);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 2.0);
  EXPECT_DOUBLE_EQ(bounds[2], 4.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  MetricsRegistry registry;
  HistogramOptions options;
  options.min_bound = 1.0;
  options.growth = 2.0;
  options.buckets = 3;  // bounds 1, 2, 4 + overflow
  Histogram h = registry.histogram("test.latency", options);
  // A value exactly on a bound lands in that bound's bucket (lower_bound:
  // bucket i covers (prev, bounds[i]]).
  h.Observe(0.5);   // bucket 0
  h.Observe(1.0);   // bucket 0 (== bound)
  h.Observe(1.5);   // bucket 1
  h.Observe(4.0);   // bucket 2
  h.Observe(100.0); // overflow
  HistogramSnapshot snap = registry.histogram_snapshot("test.latency");
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
}

TEST(MetricsTest, SnapshotExpandsHistogramsSorted) {
  MetricsRegistry registry;
  registry.counter("b.count").Add(2);
  registry.gauge("a.level").Set(1.0);
  Histogram h = registry.histogram("c.time");
  h.Observe(2.0);
  h.Observe(4.0);
  std::vector<MetricValue> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 5u);
  EXPECT_EQ(snap[0].name, "a.level");
  EXPECT_EQ(snap[1].name, "b.count");
  EXPECT_EQ(snap[2].name, "c.time.count");
  EXPECT_EQ(snap[3].name, "c.time.max");
  EXPECT_EQ(snap[4].name, "c.time.mean");
  EXPECT_DOUBLE_EQ(snap[2].value, 2.0);
  EXPECT_DOUBLE_EQ(snap[3].value, 4.0);
  EXPECT_DOUBLE_EQ(snap[4].value, 3.0);
}

TEST(MetricsTest, SnapshotLineIsSortedKeyValue) {
  MetricsRegistry registry;
  registry.counter("z.last").Add();
  registry.counter("a.first").Add(3);
  EXPECT_EQ(registry.SnapshotLine(), "a.first=3 z.last=1");
}

// Many threads hammering the same counter/histogram must (a) be TSan-clean
// and (b) fold to exact totals: sharding may split writes, never lose them.
TEST(MetricsTest, ConcurrentWritersFoldToExactTotals) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  Counter counter = registry.counter("hammer.count");
  Gauge gauge = registry.gauge("hammer.depth");
  Histogram histogram = registry.histogram("hammer.obs");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add();
        gauge.Add(1.0);
        gauge.Add(-1.0);
        histogram.Observe(1e-4 * static_cast<double>(t + 1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  HistogramSnapshot h = registry.histogram_snapshot("hammer.obs");
  EXPECT_EQ(h.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.max, 1e-4 * kThreads);
  std::vector<MetricValue> snap = registry.Snapshot();
  for (const MetricValue& m : snap) {
    if (m.name == "hammer.count") {
      EXPECT_DOUBLE_EQ(m.value, static_cast<double>(kThreads) * kPerThread);
    }
    if (m.name == "hammer.depth") {
      EXPECT_DOUBLE_EQ(m.value, 0.0);
    }
  }
}

// Folding is in fixed shard order, so two registries fed the same totals
// from different thread interleavings serialize identically.
TEST(MetricsTest, SnapshotDeterministicAcrossInterleavings) {
  auto run = [](int threads) {
    MetricsRegistry registry;
    Counter c = registry.counter("d.count");
    Histogram h = registry.histogram("d.time");
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (int i = 0; i < 300; ++i) {
          c.Add();
          h.Observe(0.5);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    return registry.SnapshotLine();
  };
  // 1 writer vs 6 writers recording the same 1800 observations.
  const std::string single = [&] {
    MetricsRegistry registry;
    Counter c = registry.counter("d.count");
    Histogram h = registry.histogram("d.time");
    for (int i = 0; i < 1800; ++i) {
      c.Add();
      h.Observe(0.5);
    }
    return registry.SnapshotLine();
  }();
  EXPECT_EQ(run(6), single);
}

// ---------------------------------------------------------------------------
// Tracing

TEST(TraceTest, SpanParentageAndNesting) {
  VirtualClock clock;
  Tracer tracer(&clock);
  SpanId root = tracer.BeginSpan("root", "test");
  clock.AdvanceNs(1000);
  SpanId child = tracer.BeginSpan("child", "test", root);
  clock.AdvanceNs(500);
  tracer.EndSpan(child);
  tracer.Instant("ping", "test", root, {Arg("k", 1.0)});
  clock.AdvanceNs(500);
  tracer.EndSpan(root);

  std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "root");
  EXPECT_EQ(events[0].parent, 0);
  EXPECT_EQ(events[0].start_ns, 0);
  EXPECT_EQ(events[0].duration_ns, 2000);
  EXPECT_EQ(events[1].name, "child");
  EXPECT_EQ(events[1].parent, root);
  EXPECT_EQ(events[1].start_ns, 1000);
  EXPECT_EQ(events[1].duration_ns, 500);
  EXPECT_EQ(events[2].name, "ping");
  EXPECT_EQ(events[2].kind, TraceEvent::Kind::kInstant);
  EXPECT_EQ(events[2].parent, root);
}

TEST(TraceTest, RaiiSpanNoopOnNullTracer) {
  Span nothing(nullptr, "never", "test");
  EXPECT_EQ(nothing.id(), 0);
  nothing.End();  // must not crash

  VirtualClock clock;
  Tracer tracer(&clock);
  {
    Span outer(&tracer, "outer", "test");
    EXPECT_NE(outer.id(), 0);
    Span inner(&tracer, "inner", "test", outer.id());
    clock.AdvanceNs(100);
  }  // both closed by RAII, inner first
  std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].duration_ns, 100);
  EXPECT_EQ(events[1].duration_ns, 100);
}

TEST(TraceTest, VirtualClockTraceIsByteIdentical) {
  auto run = [] {
    VirtualClock clock(42);
    Tracer tracer(&clock);
    Span a(&tracer, "alpha", "test");
    clock.AdvanceNs(12345);
    tracer.Instant("mark", "test", a.id(), {Arg("cost", 1.25)});
    Span b(&tracer, "beta", "test", a.id());
    clock.AdvanceNs(678);
    b.End();
    a.End();
    return tracer.ToChromeTraceJson();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // byte-for-byte
  EXPECT_NE(first.find("\"alpha\""), std::string::npos);
  EXPECT_NE(first.find("\"parent\""), std::string::npos);
}

TEST(TraceTest, ChromeExportClosesOpenSpans) {
  VirtualClock clock;
  Tracer tracer(&clock);
  SpanId open = tracer.BeginSpan("open", "test");
  clock.AdvanceNs(2000);
  const std::string json = tracer.ToChromeTraceJson();
  // The export closes the span at "now"...
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
  // ...but the tracer still considers it open.
  std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].duration_ns, -1);
  tracer.EndSpan(open);
}

TEST(TraceTest, NonFiniteArgsExportAsNull) {
  VirtualClock clock;
  Tracer tracer(&clock);
  tracer.Instant("bounds", "test", 0,
                 {Arg("pos", std::numeric_limits<double>::infinity()),
                  Arg("neg", -std::numeric_limits<double>::infinity()),
                  Arg("nan", std::numeric_limits<double>::quiet_NaN()),
                  Arg("finite", 0.5)});
  const std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("\"pos\":null"), std::string::npos);
  EXPECT_NE(json.find("\"neg\":null"), std::string::npos);
  EXPECT_NE(json.find("\"nan\":null"), std::string::npos);
  EXPECT_NE(json.find("\"finite\":0.5"), std::string::npos);
  for (const char* bare : {":inf", ":-inf", ":nan", ":-nan", ":INF", ":NAN"}) {
    EXPECT_EQ(json.find(bare), std::string::npos) << bare;
  }
}

TEST(TraceTest, ConcurrentSpansAreRecordedCompletely) {
  Tracer tracer;  // real clock; checks thread safety, not byte stability
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span(&tracer, "work", "test");
        tracer.Instant("tick", "test", span.id());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(tracer.event_count(),
            static_cast<size_t>(kThreads) * kSpansPerThread * 2);
  // Every span closed, every id unique.
  std::vector<TraceEvent> events = tracer.Snapshot();
  std::vector<SpanId> ids;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEvent::Kind::kSpan) continue;
    EXPECT_GE(e.duration_ns, 0);
    ids.push_back(e.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

// ---------------------------------------------------------------------------
// ObsConfig plumbing

TEST(ObsConfigTest, DefaultIsDisabled) {
  ObsConfig config;
  EXPECT_FALSE(config.enabled());
}

TEST(ObsConfigTest, UnderRerootsParentOnly) {
  MetricsRegistry registry;
  Tracer tracer;
  ObsConfig config;
  config.metrics = &registry;
  config.tracer = &tracer;
  EXPECT_TRUE(config.enabled());
  ObsConfig child = config.Under(7);
  EXPECT_EQ(child.metrics, &registry);
  EXPECT_EQ(child.tracer, &tracer);
  EXPECT_EQ(child.parent, 7);
  EXPECT_EQ(config.parent, 0);  // original untouched
}

}  // namespace
}  // namespace cloudia::obs
