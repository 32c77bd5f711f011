// Microbenchmarks for the χαoς engine: per-event cost for different query
// shapes. The paper's complexity claim (Section 6) is that each event is
// processed in constant time for a fixed query, so events/second should be
// roughly independent of document size and degrade only mildly with query
// complexity.
//
// This binary also replaces the global allocator with a counting shim so it
// can report heap allocations per element event. With the interning + arena
// hot path, steady-state passes (evaluator and parser reused across
// documents) should amortize to ~0 allocations per event: matching
// structures come from the evaluator's pool arena, attribute views alias the
// parser buffer, and candidate lookup is an integer-indexed table.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "xaos.h"

// --- global allocation counter -------------------------------------------
// Counts every path into the heap; reads are taken before/after the timed
// region, so reporter/setup allocations never pollute the measurement.

namespace {
std::atomic<uint64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* ptr = nullptr;
  if (posix_memalign(&ptr, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return ptr;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}

// -------------------------------------------------------------------------

int main(int argc, char** argv) {
  using namespace xaos;
  bench::Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 0.02);
  int repetitions = flags.GetInt("repetitions", 5);
  std::string json_out = flags.GetString("json-out", "");
  flags.FailOnUnknown();

  bench::BenchReporter reporter("micro_engine");
  reporter.SetParam("scale", scale);
  reporter.SetParam("repetitions", repetitions);

  gen::XMarkOptions doc_options;
  doc_options.scale = scale;
  const std::string doc = gen::GenerateXMark(doc_options);
  const double megabytes = static_cast<double>(doc.size()) / (1 << 20);

  struct Shape {
    const char* label;
    const char* expression;
  };
  const Shape shapes[] = {
      {"forward_shallow", "/site/categories/category/name"},
      {"forward_descendant", "//category//name"},
      {"backward_paper_query", gen::kXMarkPaperQuery},
      {"branching_predicates",
       "//item[payment and shipping]/description//listitem[text]"},
      // listitem is recursive in XMark; ancestor::listitem forces deep
      // optimistic matching.
      {"heavy_recursive_match", "//listitem/ancestor::listitem"},
      {"attribute_tests", "//item[@id]/incategory[@category]"},
      {"union_of_four", "//name | //price | //listitem | //edge"},
      // Deferred-completion machinery: every name is followed by a
      // description sibling in items/categories.
      {"sibling_axes", "//name[following-sibling::description]"},
      {"following_axis_desugared", "//catgraph/following::person/name"},
  };

  std::printf("Engine micro: XMark scale %.3f (%.1f MB), %d repetitions\n\n",
              scale, megabytes, repetitions);
  std::printf("%-26s %-10s %-12s %-12s %-12s %-12s\n", "query shape",
              "time(s)", "elems/s", "allocs/event", "arena KB", "items");
  bench::Rule(7);

  for (const Shape& shape : shapes) {
    StatusOr<core::Query> query = core::Query::Compile(shape.expression);
    if (!query.ok()) {
      std::fprintf(stderr, "%s: compile failed: %s\n", shape.label,
                   query.status().ToString().c_str());
      return 1;
    }
    // One evaluator reused across all passes: after the warmup the arena
    // slabs, parser buffers and dispatch scratch are all retained, so the
    // measured passes show the steady-state allocation behavior.
    core::StreamingEvaluator evaluator(*query, {});
    for (int warm = 0; warm < 2; ++warm) {
      if (!xml::ParseString(doc, &evaluator).ok() ||
          !evaluator.status().ok()) {
        std::fprintf(stderr, "%s: warmup parse failed\n", shape.label);
        return 1;
      }
    }
    uint64_t elements = evaluator.AggregateStats().elements_total;

    std::vector<double> times;
    uint64_t allocs = 0;
    size_t items = 0;
    for (int rep = 0; rep < repetitions; ++rep) {
      uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
      double seconds = bench::TimeSeconds([&] {
        if (!xml::ParseString(doc, &evaluator).ok()) std::abort();
      });
      allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
      times.push_back(seconds);
      items = evaluator.Result().items.size();  // outside the counter read
    }

    bench::Series series = bench::Summarize(times);
    uint64_t events = elements * static_cast<uint64_t>(repetitions);
    double allocs_per_event =
        events == 0 ? 0.0
                    : static_cast<double>(allocs) / static_cast<double>(events);
    core::EngineStats stats = evaluator.AggregateStats();
    std::printf("%-26s %-10.4f %-12.0f %-12.4f %-12.1f %-12zu\n", shape.label,
                series.mean,
                series.mean > 0 ? static_cast<double>(elements) / series.mean
                                : 0.0,
                allocs_per_event,
                static_cast<double>(stats.arena_bytes_allocated) / 1024.0,
                items);

    reporter.AddResult(shape.label, series, megabytes);
    reporter.AddResultMetric(
        "elements_per_s",
        series.mean > 0 ? static_cast<double>(elements) / series.mean : 0.0);
    reporter.AddResultMetric("allocations_per_event", allocs_per_event);
    reporter.AddResultMetric("result_items", static_cast<double>(items));
    bench::AddEngineStats(&reporter, stats);
  }

  // --- dispatch-only row -----------------------------------------------------
  // A pool of never-matching subscriptions: the label index wakes no engine
  // for any event, so the measured cost is pure dispatch — parse, record
  // capture (every element is elided), batch replay and cursor upkeep.
  {
    constexpr int kZeroMatchSubs = 512;
    const char* const label = "dispatch_batched";
    std::vector<core::Query> queries;
    for (int i = 0; i < kZeroMatchSubs; ++i) {
      std::string expression =
          "//inbox_rule_" + std::to_string(i) + "/name";
      StatusOr<core::Query> query = core::Query::Compile(expression);
      if (!query.ok()) {
        std::fprintf(stderr, "dispatch_only: compile failed: %s\n",
                     query.status().ToString().c_str());
        return 1;
      }
      queries.push_back(std::move(*query));
    }
    core::EngineOptions options;
    options.enable_shared_index = false;
    core::MultiQueryEvaluator batched(options);
    for (const core::Query& query : queries) batched.AddQuery(query);
    // Warmup retains parser buffers, dispatch scratch and the batch pool.
    if (!xml::ParseString(doc, &batched).ok()) {
      std::fprintf(stderr, "dispatch_only: warmup parse failed\n");
      return 1;
    }
    // The pool is zero-match, so engine stats stay flat; count document
    // elements once via a throwaway matching evaluator instead.
    uint64_t elements = 0;
    {
      StatusOr<core::Query> probe = core::Query::Compile("//site");
      core::StreamingEvaluator counter(*probe, {});
      if (!xml::ParseString(doc, &counter).ok()) std::abort();
      elements = counter.AggregateStats().elements_total;
    }

    std::vector<double> times;
    uint64_t allocs = 0;
    for (int rep = 0; rep < repetitions; ++rep) {
      uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
      times.push_back(bench::TimeSeconds([&] {
        if (!xml::ParseString(doc, &batched).ok()) std::abort();
      }));
      allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    }
    for (int q = 0; q < kZeroMatchSubs; ++q) {
      if (batched.Matched(static_cast<size_t>(q))) {
        std::fprintf(stderr, "%s: zero-match pool matched query %d\n", label,
                     q);
        return 1;
      }
    }
    bench::Series series = bench::Summarize(times);
    uint64_t events = elements * static_cast<uint64_t>(repetitions);
    double allocs_per_event =
        events == 0 ? 0.0
                    : static_cast<double>(allocs) / static_cast<double>(events);
    std::printf("%-26s %-10.4f %-12.0f %-12.4f %-12s %-12d\n", label,
                series.mean,
                series.mean > 0 ? static_cast<double>(elements) / series.mean
                                : 0.0,
                allocs_per_event, "-", 0);
    reporter.AddResult(label, series, megabytes);
    reporter.AddResultMetric(
        "elements_per_s",
        series.mean > 0 ? static_cast<double>(elements) / series.mean : 0.0);
    reporter.AddResultMetric("allocations_per_event", allocs_per_event);
    reporter.AddResultMetric("subscriptions", kZeroMatchSubs);
  }

  if (!json_out.empty() && !reporter.WriteJson(json_out)) return 1;

  std::printf("\nShape check: elements/s roughly flat across shapes "
              "(constant per-event cost, Section 6); allocs/event ~0 in "
              "steady state — structures live in the pool arena and "
              "attribute views alias the parse buffer.\n");
  return 0;
}
