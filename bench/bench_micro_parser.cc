// Microbenchmarks for the streaming XML parser substrate (supporting
// infrastructure; no paper counterpart): throughput in MB/s, chunked
// feeding overhead, DOM construction cost.
//
// `--json-out=DIR` (handled before google-benchmark sees the argv) writes a
// BENCH_micro_parser.json in the shared BenchReporter schema, so the
// regression gate can compare these rows like the table benches'.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dom/dom_builder.h"
#include "gen/xmark_generator.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"
#include "xml/skip_scanner.h"

namespace {

const std::string& Document() {
  static const std::string* doc = [] {
    xaos::gen::XMarkOptions options;
    options.scale = 0.02;
    return new std::string(xaos::gen::GenerateXMark(options));
  }();
  return *doc;
}

// Sink that forces event materialization without storing anything.
class CountingHandler : public xaos::xml::ContentHandler {
 public:
  void StartElement(const xaos::xml::QName& name,
                    xaos::xml::AttributeSpan attrs) override {
    count_ += name.text.size() + attrs.size();
  }
  void Characters(std::string_view text) override { count_ += text.size(); }
  size_t count() const { return count_; }

 private:
  size_t count_ = 0;
};

void BM_ParseOneShot(benchmark::State& state) {
  const std::string& doc = Document();
  for (auto _ : state) {
    CountingHandler handler;
    xaos::Status status = xaos::xml::ParseString(doc, &handler);
    if (!status.ok()) state.SkipWithError("parse failed");
    benchmark::DoNotOptimize(handler.count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_ParseOneShot);

void BM_ParseChunked(benchmark::State& state) {
  const std::string& doc = Document();
  size_t chunk = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    CountingHandler handler;
    xaos::xml::SaxParser parser(&handler);
    for (size_t i = 0; i < doc.size(); i += chunk) {
      if (!parser.Feed(std::string_view(doc).substr(i, chunk)).ok()) {
        state.SkipWithError("feed failed");
        break;
      }
    }
    if (!parser.Finish().ok()) state.SkipWithError("finish failed");
    benchmark::DoNotOptimize(handler.count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_ParseChunked)->Arg(4096)->Arg(65536);

// Raw skip-scan throughput ceiling: every subtree below the root is
// declared irrelevant, so the whole document body runs through the
// SkipScanner's memchr race instead of the full tokenizer. The gap to
// BM_ParseOneShot is the per-byte work projection removes.
void BM_ParseSkipAll(benchmark::State& state) {
  const std::string& doc = Document();
  class SkipBelowRoot : public xaos::xml::ProjectionFilter {
   public:
    bool ShouldSkipSubtree(const xaos::xml::QName&,
                           size_t open_depth) override {
      return open_depth > 0;
    }
  };
  SkipBelowRoot filter;
  for (auto _ : state) {
    CountingHandler handler;
    xaos::xml::ParserOptions options;
    options.projection_filter = &filter;
    xaos::Status status = xaos::xml::ParseString(doc, &handler, options);
    if (!status.ok()) state.SkipWithError("parse failed");
    benchmark::DoNotOptimize(handler.count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_ParseSkipAll);

void BM_BuildDom(benchmark::State& state) {
  const std::string& doc = Document();
  for (auto _ : state) {
    xaos::StatusOr<xaos::dom::Document> built =
        xaos::dom::ParseToDocument(doc);
    if (!built.ok()) state.SkipWithError("build failed");
    benchmark::DoNotOptimize(built->node_count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_BuildDom);

// Console output plus a captured row per benchmark for the JSON report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double seconds_per_iteration = 0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      Row row;
      row.name = run.benchmark_name();
      row.seconds_per_iteration =
          run.real_accumulated_time / static_cast<double>(run.iterations);
      rows.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Row> rows;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip our flags before google-benchmark's flag parser rejects them.
  std::string json_out;
  std::vector<char*> remaining;
  remaining.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_out = argv[i] + 11;
    } else {
      remaining.push_back(argv[i]);
    }
  }
  int remaining_argc = static_cast<int>(remaining.size());
  benchmark::Initialize(&remaining_argc, remaining.data());
  if (benchmark::ReportUnrecognizedArguments(remaining_argc,
                                             remaining.data())) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_out.empty()) {
    // Every benchmark above processes the same document once per iteration,
    // so megabytes/iteration is uniform and throughput_mb_per_s derives
    // from the per-iteration time.
    const double megabytes = static_cast<double>(Document().size()) / (1 << 20);
    xaos::bench::BenchReporter out("micro_parser");
    out.SetParam("scale", 0.02);
    out.SetParam("document_mb", megabytes);
    for (const CapturingReporter::Row& row : reporter.rows) {
      xaos::bench::Series series;
      series.mean = row.seconds_per_iteration;
      series.min = row.seconds_per_iteration;
      series.max = row.seconds_per_iteration;
      out.AddResult(row.name, series, megabytes);
    }
    if (!out.WriteJson(json_out)) return 1;
  }
  return 0;
}
