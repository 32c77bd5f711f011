// Flight recorder: ring overwrite semantics, disarmed-mode guarantees,
// per-worker tracks under the parallel router (the TSan job runs this), the
// Chrome trace-event exporter, and the per-subscription latency series the
// evaluators feed.

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/multi_engine.h"
#include "core/parallel_router.h"
#include "gtest/gtest.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "xml/sax_parser.h"

namespace xaos::obs::flight {
namespace {

// The exporter operates on hand-built traces, so it works (and is tested)
// even in a -DXAOS_OBS_ENABLED=0 build where recording is compiled out.
TEST(ChromeTraceTest, ExportsSpansAndPerThreadCounters) {
  ThreadTrace main_thread;
  main_thread.track = 1;
  main_thread.name = "main";
  Span parse;
  parse.kind = SpanKind::kParse;
  parse.begin_ns = 1000;
  parse.end_ns = 2000;
  parse.value = 4096;
  main_thread.spans.push_back(parse);

  ThreadTrace worker;
  worker.track = 2;
  worker.name = "worker/0";
  Span replay;
  replay.kind = SpanKind::kReplay;
  replay.begin_ns = 2500;
  replay.end_ns = 4000;
  replay.batch = 7;
  replay.doc = 1;
  replay.value = 128;
  worker.spans.push_back(replay);
  Span counter;
  counter.kind = SpanKind::kCounter;
  counter.begin_ns = 4000;
  counter.end_ns = 4000;
  counter.value = 5;     // buffered candidates
  counter.value2 = 640;  // arena bytes
  worker.spans.push_back(counter);

  std::string json = ToChromeTraceJson({main_thread, worker});
  EXPECT_TRUE(JsonValid(json)) << json;
  // Complete events for both spans on distinct tracks.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"replay\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\":7"), std::string::npos);
  // Thread-name metadata.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"main\""), std::string::npos);
  EXPECT_NE(json.find("\"worker/0\""), std::string::npos);
  // Counter samples, on tracks named after the recording thread.
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"buffered_candidates/worker/0\""), std::string::npos);
  EXPECT_NE(json.find("\"arena_bytes/worker/0\""), std::string::npos);
}

TEST(ChromeTraceTest, EmptyTracesStillValidJson) {
  std::string json = ToChromeTraceJson({});
  EXPECT_TRUE(JsonValid(json)) << json;
}

#if XAOS_OBS_ENABLED

TEST(FlightRecorderTest, RingOverwritesOldestAndCountsDrops) {
  Arm(/*ring_capacity=*/4);
  SetCurrentThreadName("ring-overwrite-test");
  for (int i = 0; i < 10; ++i) {
    Span span;
    span.kind = SpanKind::kParse;
    span.begin_ns = static_cast<uint64_t>(i + 1);
    span.end_ns = static_cast<uint64_t>(i + 1);
    span.value = i;
    Emit(span);
  }
  Disarm();

  std::vector<ThreadTrace> traces = Collect();
  const ThreadTrace* mine = nullptr;
  for (const ThreadTrace& trace : traces) {
    if (trace.name == "ring-overwrite-test") mine = &trace;
  }
  ASSERT_NE(mine, nullptr);
  ASSERT_EQ(mine->spans.size(), 4u);
  EXPECT_EQ(mine->dropped, 6u);
  // Newest window, oldest first: values 6, 7, 8, 9.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(mine->spans[i].value, static_cast<int64_t>(6 + i));
  }
  Reset();
}

TEST(FlightRecorderTest, DisarmedEmitCreatesNoRing) {
  ASSERT_FALSE(Active());
  size_t rings_before = ring_count();
  // A brand-new thread emitting while disarmed must not allocate a ring
  // (that is the "zero cost when disabled" contract for threads that never
  // record).
  std::thread t([] {
    Span span;
    span.kind = SpanKind::kReplay;
    Emit(span);
    SetCurrentThreadName("never-recorded");
  });
  t.join();
  EXPECT_EQ(ring_count(), rings_before);
}

TEST(FlightRecorderTest, ScopedSpanInactiveWhenDisarmed) {
  ASSERT_FALSE(Active());
  ScopedSpan span(SpanKind::kParse);
  EXPECT_FALSE(span.active());
}

// A ParallelRouter run records each document's spans on the track of the
// worker that routed it: every document span sits on a "worker/<n>" track,
// and each worker's documents land on that worker's track only. Runs under
// TSan in CI: the collection point (after Drain) must be race-free.
TEST(FlightRecorderTest, RouterWorkersRecordOnTheirOwnTracks) {
  auto q1 = core::Query::Compile("//a/b");
  auto q2 = core::Query::Compile("//c");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  std::string doc = "<r>";
  for (int i = 0; i < 32; ++i) doc += "<a><b>x</b></a><c/>";
  doc += "</r>";

  Arm();
  // Which worker routed each document, by evaluator identity.
  std::vector<const core::MultiQueryEvaluator*> routed_by;
  {
    core::ParallelRouter router(
        2, [&](size_t, const core::MultiQueryEvaluator& evaluator) {
          routed_by.push_back(&evaluator);
        });
    router.AddQuery(*q1, "sub-a");
    router.AddQuery(*q2, "sub-c");
    for (int d = 0; d < 8; ++d) router.Submit(doc);
    router.Drain();
    // Drained: every worker's ring writes are ordered before this point.
    Disarm();
  }
  std::vector<ThreadTrace> traces = Collect();
  Reset();
  ASSERT_EQ(routed_by.size(), 8u);

  size_t document_spans = 0;
  std::set<std::string> tracks_with_documents;
  for (const ThreadTrace& trace : traces) {
    size_t documents = 0;
    for (const Span& span : trace.spans) {
      if (span.kind != SpanKind::kDocument) continue;
      ++documents;
      // A worker numbers its own documents 1, 2, ...
      EXPECT_EQ(span.doc, documents) << trace.name;
    }
    if (documents == 0) continue;
    EXPECT_EQ(trace.name.rfind("worker/", 0), 0u) << trace.name;
    tracks_with_documents.insert(trace.name);
    document_spans += documents;
  }
  EXPECT_EQ(document_spans, 8u);
  // Each worker thread that routed documents has a track of its own: as
  // many distinct tracks as distinct evaluators routed documents.
  const std::set<const core::MultiQueryEvaluator*> workers(routed_by.begin(),
                                                           routed_by.end());
  EXPECT_EQ(tracks_with_documents.size(), workers.size());

  // The full trace renders to loadable Chrome trace JSON.
  EXPECT_TRUE(JsonValid(ToChromeTraceJson(traces)));
}

TEST(FlightRecorderTest, WriteChromeTraceRoundTrip) {
  Arm();
  SetCurrentThreadName("round-trip");
  {
    ScopedSpan span(SpanKind::kParse);
    ASSERT_TRUE(span.active());
    span.span()->value = 42;
  }
  Disarm();

  std::string path = testing::TempDir() + "/flight_round_trip.json";
  ASSERT_TRUE(WriteChromeTrace(path).ok());
  Reset();

  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(file);
  std::remove(path.c_str());

  EXPECT_TRUE(obs::JsonValid(contents)) << contents;
  EXPECT_NE(contents.find("\"round-trip\""), std::string::npos);
  EXPECT_NE(contents.find("\"parse\""), std::string::npos);
}

TEST(FlightRecorderTest, WriteChromeTraceReportsUnwritablePath) {
  EXPECT_FALSE(WriteChromeTrace("/nonexistent-dir/trace.json").ok());
}

TEST(SubscriptionLatencyTest, MatchedSubscriptionsRecordLatencySeries) {
  SetEnabled(true);
  MetricsRegistry registry;
  core::EngineOptions options;
  options.metrics_registry = &registry;
  core::MultiQueryEvaluator evaluator(options);
  auto hit = core::Query::Compile("//a/b");
  auto miss = core::Query::Compile("//nope");
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(miss.ok());
  evaluator.AddQuery(*hit, "alice");
  evaluator.AddQuery(*miss);  // default label "q1"
  ASSERT_TRUE(xml::ParseString("<r><a><b>x</b></a></r>", &evaluator).ok());
  SetEnabled(false);

  EXPECT_TRUE(evaluator.Matched(0));
  EXPECT_FALSE(evaluator.Matched(1));
  Histogram* latency = registry.GetHistogram(
      "xaos_sub_match_latency_ns{subscription=\"alice\"}");
  EXPECT_EQ(latency->Count(), 1u);
  Histogram* first = registry.GetHistogram(
      "xaos_sub_first_match_ns{subscription=\"alice\"}");
  EXPECT_EQ(first->Count(), 1u);
  // Time-to-first-match never exceeds end-of-document latency.
  EXPECT_LE(first->Sum(), latency->Sum());
  // The unmatched subscription contributes no samples.
  Histogram* unmatched = registry.GetHistogram(
      "xaos_sub_match_latency_ns{subscription=\"q1\"}");
  EXPECT_EQ(unmatched->Count(), 0u);
}

#endif  // XAOS_OBS_ENABLED

}  // namespace
}  // namespace xaos::obs::flight
