// xaos_grep — command-line streaming XPath over XML files.
//
//   xaos_grep [options] '<xpath>' [file.xml ...]
//
// Evaluates the expression over each file (or standard input) in a single
// streaming pass with constant memory, and prints the selected nodes.
// Backward axes (parent/ancestor) work, unlike in forward-only streaming
// tools.
//
// Options:
//   --count        print only the number of selected nodes per file
//   --match        print only whether each file matches (exit code 1 if
//                  nothing matched anywhere); stops reading each file as
//                  soon as a match is guaranteed
//   --xml          print each selected element's subtree as XML
//   --tuples       print output tuples (for $-marked multi-output queries)
//   --stats        print engine statistics per file (--stats=json for a
//                  structured JSON object on stderr instead of text)
//   --explain      print the compiled x-tree/x-dag, the document projection
//                  and the capture-time element elision, and exit
//   --trace        print a Table-2-style event trace while evaluating
//   --trace-json   like --trace but one JSON object per event (JSON lines)
//   --metrics-json=FILE
//                  enable instrumentation and write the full metrics
//                  registry (phase timings, parser/engine counters, peak
//                  structure bytes) as JSON to FILE ("-" for stdout)
//   --flight-trace=FILE
//                  arm the flight recorder and write the run's span trace
//                  as Chrome trace-event JSON to FILE ("-" for stdout);
//                  load it in Perfetto or chrome://tracing. Implies
//                  instrumentation (like --metrics-json)
//   --no-projection
//                  disable document projection. By default the parser
//                  skip-scans subtrees the query provably cannot touch
//                  (query/projection.h); results are identical either way,
//                  so this is a debugging/benchmarking switch
//
// Parser guardrails (see xml::ParserLimits; a file that exceeds a bound is
// reported and skipped, exit code 2). N is a plain decimal integer; a sign,
// an overflow or a value above the limit's type maximum (INT_MAX for
// --max-depth) is a usage error (exit 2):
//   --max-depth=N             element nesting depth
//   --max-attrs=N             attributes per start tag
//   --max-attr-value-bytes=N  decoded size of one attribute value
//   --max-name-bytes=N        element/attribute/PI name length
//   --max-token-bytes=N       bytes buffered for one incomplete token
//   --max-entity-refs=N       references decoded per document (0 = off)
//   --max-total-bytes=N       total document size (0 = off)
//
// --count, --match, --xml and --tuples are mutually exclusive output modes;
// combining them is an error (exit 2).

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "xaos.h"
#include "xml/file_source.h"

namespace {

struct Options {
  xaos::xml::ParserLimits limits;
  bool count = false;
  bool match_only = false;
  bool capture = false;
  bool tuples = false;
  bool stats = false;
  bool stats_json = false;
  bool explain = false;
  bool no_projection = false;
  bool trace = false;
  bool trace_json = false;
  std::string metrics_json_path;
  std::string flight_trace_path;
  std::string expression;
  std::vector<std::string> files;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: xaos_grep [--count|--match|--xml|--tuples] [--stats[=json]] "
      "[--explain] [--trace|--trace-json] [--metrics-json=FILE] "
      "[--flight-trace=FILE] [--no-projection] "
      "[--max-depth=N] [--max-attrs=N] [--max-attr-value-bytes=N] "
      "[--max-name-bytes=N] [--max-token-bytes=N] [--max-entity-refs=N] "
      "[--max-total-bytes=N] '<xpath>' [file.xml ...]\n"
      "reads standard input when no file is given (or for '-')\n");
  return 2;
}

// Matches "--NAME=N"; on a match parses N into *value, returning false (after
// diagnosing) unless N is all decimal digits and at most `max` — a sign, an
// empty value or an overflow are all rejected. *consumed says whether the
// flag matched.
bool MatchLimitFlag(const std::string& arg, const char* name, uint64_t max,
                    uint64_t* value, bool* consumed) {
  std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return true;
  *consumed = true;
  const char* text = arg.c_str() + prefix.size();
  const char* last = arg.c_str() + arg.size();
  uint64_t parsed = 0;
  const std::from_chars_result result = std::from_chars(text, last, parsed);
  if (result.ec != std::errc() || result.ptr != last || parsed > max) {
    std::fprintf(stderr, "%s: expects an integer from 0 to %llu\n",
                 arg.c_str(), static_cast<unsigned long long>(max));
    return false;
  }
  *value = parsed;
  return true;
}

// Applies every --max-* flag to `limits`. Returns false (after diagnosing)
// on a malformed value; *consumed says whether `arg` was a limits flag.
bool MatchLimitsFlags(const std::string& arg, xaos::xml::ParserLimits* limits,
                      bool* consumed) {
  *consumed = false;
  uint64_t depth = 0;
  bool depth_consumed = false;
  if (!MatchLimitFlag(arg, "max-depth", INT_MAX, &depth, &depth_consumed)) {
    return false;
  }
  if (depth_consumed) {
    limits->max_depth = static_cast<int>(depth);
    *consumed = true;
    return true;
  }
  struct {
    const char* name;
    uint64_t* target;
  } flags[] = {
      {"max-entity-refs", &limits->max_entity_references},
      {"max-total-bytes", &limits->max_total_bytes},
  };
  for (auto& flag : flags) {
    if (!MatchLimitFlag(arg, flag.name, UINT64_MAX, flag.target, consumed)) {
      return false;
    }
    if (*consumed) return true;
  }
  struct {
    const char* name;
    size_t* target;
  } size_flags[] = {
      {"max-attrs", &limits->max_attribute_count},
      {"max-attr-value-bytes", &limits->max_attribute_value_bytes},
      {"max-name-bytes", &limits->max_name_bytes},
      {"max-token-bytes", &limits->max_token_bytes},
  };
  for (auto& flag : size_flags) {
    uint64_t value = 0;
    if (!MatchLimitFlag(arg, flag.name, SIZE_MAX, &value, consumed)) {
      return false;
    }
    if (*consumed) {
      *flag.target = static_cast<size_t>(value);
      return true;
    }
  }
  return true;
}

void PrintItem(const xaos::core::OutputItem& item, const Options& options) {
  if (options.capture && !item.captured_xml.empty()) {
    std::printf("%s\n", item.captured_xml.c_str());
    return;
  }
  std::printf("%s\n", item.info.ToString().c_str());
}

// Prints one file's aggregated engine statistics to stderr, as text or as
// a single JSON object.
void PrintStats(const xaos::core::EngineStats& stats, const char* prefix,
                const char* sep, bool as_json) {
  if (as_json) {
    xaos::obs::MetricsRegistry registry;
    stats.ToMetrics(&registry);
    std::string json = xaos::obs::ToJson(registry);
    std::fprintf(stderr, "%s%s%s\n", prefix, sep, json.c_str());
    return;
  }
  std::fprintf(stderr,
               "%s%s%llu elements, %.2f%% discarded, %llu structures, "
               "peak %llu (%llu bytes)\n",
               prefix, sep,
               static_cast<unsigned long long>(stats.elements_total),
               100.0 * stats.DiscardedFraction(),
               static_cast<unsigned long long>(stats.structures_created),
               static_cast<unsigned long long>(stats.structures_live_peak),
               static_cast<unsigned long long>(
                   stats.structure_memory.peak_bytes));
}

// The elision line of --explain: the element names batched capture keeps
// a record for, or why it captures every event.
std::string DescribeElision(xaos::core::StreamingEvaluator* evaluator) {
  if (const char* reason = evaluator->elision_off_reason()) {
    return std::string("off (") + reason + ")";
  }
  const xaos::xml::ElementInterest& interest = *evaluator->element_interest();
  std::string names;
  for (size_t s = 0; s < interest.size(); ++s) {
    if (interest[s] == 0) continue;
    if (!names.empty()) names += ", ";
    names += xaos::util::SymbolTable::Global().Name(
        static_cast<xaos::util::Symbol>(s));
  }
  return "keeps {" + names + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--count") {
      options.count = true;
    } else if (arg == "--match") {
      options.match_only = true;
    } else if (arg == "--xml") {
      options.capture = true;
    } else if (arg == "--tuples") {
      options.tuples = true;
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (arg == "--stats=json") {
      options.stats = true;
      options.stats_json = true;
    } else if (arg == "--explain") {
      options.explain = true;
    } else if (arg == "--no-projection") {
      options.no_projection = true;
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--trace-json") {
      options.trace = true;
      options.trace_json = true;
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      options.metrics_json_path = arg.substr(std::strlen("--metrics-json="));
      if (options.metrics_json_path.empty()) {
        std::fprintf(stderr, "--metrics-json needs a file path\n");
        return Usage();
      }
    } else if (arg.rfind("--flight-trace=", 0) == 0) {
      options.flight_trace_path = arg.substr(std::strlen("--flight-trace="));
      if (options.flight_trace_path.empty()) {
        std::fprintf(stderr, "--flight-trace needs a file path\n");
        return Usage();
      }
    } else if (arg.rfind("--", 0) == 0) {
      bool consumed = false;
      if (!MatchLimitsFlags(arg, &options.limits, &consumed)) return Usage();
      if (consumed) continue;
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return Usage();
    } else if (options.expression.empty()) {
      options.expression = arg;
    } else {
      options.files.push_back(arg);
    }
  }
  if (options.expression.empty()) return Usage();
  int output_modes = static_cast<int>(options.count) +
                     static_cast<int>(options.match_only) +
                     static_cast<int>(options.capture) +
                     static_cast<int>(options.tuples);
  if (output_modes > 1) {
    std::fprintf(stderr,
                 "conflicting output modes: --count, --match, --xml and "
                 "--tuples are mutually exclusive\n");
    return 2;
  }
  if (options.files.empty()) options.files.push_back("-");

  // Instrumentation must be on before compilation so the query-compile
  // phase and the parser/engine counters reach the default registry.
  bool collect_metrics =
      !options.metrics_json_path.empty() || !options.flight_trace_path.empty();
  xaos::obs::PhaseTimers timers;
  if (collect_metrics) xaos::obs::SetEnabled(true);
  if (!options.flight_trace_path.empty()) {
    xaos::obs::flight::Arm();
    xaos::obs::flight::SetCurrentThreadName("main");
  }

  uint64_t compile_start = collect_metrics ? xaos::obs::NowNs() : 0;
  xaos::StatusOr<xaos::core::Query> query =
      xaos::core::Query::Compile(options.expression);
  if (collect_metrics) {
    timers.Add(xaos::obs::Phase::kCompile,
               xaos::obs::NowNs() - compile_start);
  }
  if (!query.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 query.status().ToString().c_str());
    return 2;
  }

  xaos::core::EngineOptions engine_options;
  engine_options.capture_output_subtrees = options.capture;
  engine_options.stop_after_confirmed_match = options.match_only;

  if (options.explain) {
    for (const xaos::query::XTree& tree : query->trees()) {
      std::printf("x-tree: %s\n", tree.ToString().c_str());
      std::printf("x-dag:  %s\n", xaos::query::XDag(tree).ToString().c_str());
    }
    std::printf("projection: %s\n",
                xaos::query::ProjectionSpec::Analyze(query->trees())
                    .ToString()
                    .c_str());
    xaos::core::StreamingEvaluator evaluator(*query, engine_options);
    std::printf("elision: %s\n", DescribeElision(&evaluator).c_str());
    return 0;
  }

  xaos::xml::ParserOptions parser_options;
  parser_options.limits = options.limits;
  if (collect_metrics) parser_options.phase_timers = &timers;

  if (options.trace) {
    if (query->trees().size() != 1) {
      std::fprintf(stderr, "--trace requires a single-disjunct query\n");
      return 2;
    }
    xaos::core::XaosEngine engine(&query->trees().front());
    xaos::core::TraceHandler tracer(
        &engine,
        [](std::string_view line) {
          std::fwrite(line.data(), 1, line.size(), stdout);
        },
        options.trace_json ? xaos::core::TraceFormat::kJsonLines
                           : xaos::core::TraceFormat::kTable2);
    for (const std::string& path : options.files) {
      xaos::Status status =
          xaos::xml::ParseFile(path, &tracer, 1 << 16, parser_options);
      if (!status.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     status.ToString().c_str());
        return 2;
      }
    }
    return 0;
  }

  xaos::core::StreamingEvaluator evaluator(*query, engine_options);
  xaos::core::BatchedDispatcher dispatcher(&evaluator);
  if (!options.no_projection) {
    parser_options.projection_filter = evaluator.projection_filter();
  }

  bool multiple_files = options.files.size() > 1;
  bool any_match = false;
  bool any_error = false;
  for (const std::string& path : options.files) {
    xaos::Status status =
        xaos::xml::ParseFile(path, &dispatcher, 1 << 16, parser_options);
    if (!status.ok()) {
      // Close out the abandoned document so the evaluator is clean for the
      // remaining files; one bad input must not mask the others.
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   status.ToString().c_str());
      dispatcher.AbortDocument(status);
      any_error = true;
      continue;
    }
    if (!evaluator.status().ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   evaluator.status().ToString().c_str());
      any_error = true;
      continue;
    }

    xaos::core::QueryResult result = evaluator.Result();
    any_match = any_match || result.matched;
    const char* prefix = multiple_files ? path.c_str() : "";
    const char* sep = multiple_files ? ": " : "";

    if (options.match_only) {
      std::printf("%s%s%s\n", prefix, sep,
                  result.matched ? "match" : "no match");
    } else if (options.count) {
      std::printf("%s%s%zu\n", prefix, sep, result.items.size());
    } else if (options.tuples) {
      for (const auto& engine : evaluator.engines()) {
        for (const xaos::core::OutputTuple& tuple :
             engine->OutputTuples().tuples) {
          std::string line;
          for (size_t i = 0; i < tuple.size(); ++i) {
            if (i > 0) line += "\t";
            line += tuple[i].ToString();
          }
          std::printf("%s%s%s\n", prefix, sep, line.c_str());
        }
      }
    } else {
      for (const xaos::core::OutputItem& item : result.items) {
        if (multiple_files) std::printf("%s: ", path.c_str());
        PrintItem(item, options);
      }
    }

    if (options.stats) {
      PrintStats(evaluator.AggregateStats(), prefix, sep, options.stats_json);
    }
  }

  if (collect_metrics && !options.metrics_json_path.empty()) {
    xaos::obs::MetricsRegistry& registry =
        xaos::obs::MetricsRegistry::Default();
    timers.ExportTo(&registry);
    evaluator.ExportMetrics(&registry);
    xaos::Status status =
        xaos::obs::WriteMetricsJson(registry, options.metrics_json_path);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics: %s\n", status.ToString().c_str());
      return 2;
    }
  }
  if (!options.flight_trace_path.empty()) {
    // All parsing happened on this thread, so the rings are quiescent here.
    xaos::obs::flight::Disarm();
    xaos::Status status =
        xaos::obs::flight::WriteChromeTrace(options.flight_trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "flight trace: %s\n", status.ToString().c_str());
      return 2;
    }
  }
  if (any_error) return 2;
  return any_match ? 0 : 1;
}
