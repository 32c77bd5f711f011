// Shared helpers for the paper-reproduction benchmark binaries: flag
// parsing (with unknown-flag detection), wall-clock timing, mean/stddev,
// table formatting, and a JSON reporter producing machine-readable
// BENCH_<name>.json files for CI and regression tracking.

#ifndef XAOS_BENCH_BENCH_UTIL_H_
#define XAOS_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_stats.h"
#include "obs/json.h"
#include "util/cpu_features.h"
#include "xml/structural_scanner.h"

namespace xaos::bench {

// Minimal --key=value flag reader. Every Get* call registers the flag name;
// call FailOnUnknown() after the last Get* to reject mistyped flags and
// stray positional arguments with a clear error instead of silently
// falling back to defaults.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  // All Get* parsers reject malformed or out-of-range values with the
  // offending flag named on stderr and exit status 2 (the same contract as
  // FailOnUnknown) instead of silently reading 0/garbage via atoi/atof.
  double GetDouble(const std::string& name, double fallback) const {
    std::string value;
    if (!Lookup(name, &value)) return fallback;
    // strtod with a full-consumption check: FP from_chars is still spotty
    // across standard libraries.
    const char* text = value.c_str();
    char* end = nullptr;
    errno = 0;
    double parsed = std::strtod(text, &end);
    if (value.empty() || end != text + value.size() || errno == ERANGE) {
      std::fprintf(stderr, "error: --%s=%s is not a valid number\n",
                   name.c_str(), value.c_str());
      PrintKnownAndExit();
    }
    return parsed;
  }
  int GetInt(const std::string& name, int fallback) const {
    std::string value;
    if (!Lookup(name, &value)) return fallback;
    int parsed = 0;
    auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(),
                                     parsed);
    if (ec != std::errc() || ptr != value.data() + value.size()) {
      std::fprintf(stderr,
                   "error: --%s=%s is not a valid integer (or out of range)\n",
                   name.c_str(), value.c_str());
      PrintKnownAndExit();
    }
    return parsed;
  }
  bool GetBool(const std::string& name, bool fallback) const {
    std::string value;
    if (!Lookup(name, &value)) return fallback;
    if (value == "1" || value == "true") return true;
    if (value == "0" || value == "false") return false;
    std::fprintf(stderr, "error: --%s=%s is not a boolean (0/1/true/false)\n",
                 name.c_str(), value.c_str());
    PrintKnownAndExit();
    return fallback;  // unreachable; PrintKnownAndExit does not return
  }
  std::string GetString(const std::string& name,
                        const std::string& fallback) const {
    std::string value;
    return Lookup(name, &value) ? value : fallback;
  }

  // Exits with status 2 if any argument is not `--name=value` for a `name`
  // some Get* call asked about. Must run after all Get* calls.
  void FailOnUnknown() const {
    for (const std::string& arg : args_) {
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "error: unexpected positional argument '%s'\n",
                     arg.c_str());
        PrintKnownAndExit();
      }
      size_t eq = arg.find('=');
      std::string name = arg.substr(2, eq == std::string::npos
                                           ? std::string::npos
                                           : eq - 2);
      if (accessed_.count(name) == 0) {
        std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
        PrintKnownAndExit();
      }
    }
  }

 private:
  bool Lookup(const std::string& name, std::string* value) const {
    accessed_.insert(name);
    std::string prefix = "--" + name + "=";
    for (const std::string& arg : args_) {
      if (arg.rfind(prefix, 0) == 0) {
        *value = arg.substr(prefix.size());
        return true;
      }
    }
    return false;
  }

  void PrintKnownAndExit() const {
    std::fprintf(stderr, "known flags:");
    for (const std::string& name : accessed_) {
      std::fprintf(stderr, " --%s=...", name.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

  std::vector<std::string> args_;
  // Names queried via Get*; mutable so the const getters can record them.
  mutable std::set<std::string> accessed_;
};

// Returns the wall-clock seconds taken by fn().
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Series {
  double mean = 0;
  double stddev = 0;
  double min = 0;
  double max = 0;
};

inline Series Summarize(const std::vector<double>& samples) {
  Series s;
  if (samples.empty()) return s;
  double sum = 0;
  s.min = samples[0];
  s.max = samples[0];
  for (double v : samples) {
    sum += v;
    if (v < s.min) s.min = v;
    if (v > s.max) s.max = v;
  }
  s.mean = sum / static_cast<double>(samples.size());
  double var = 0;
  for (double v : samples) var += (v - s.mean) * (v - s.mean);
  s.stddev = samples.size() > 1
                 ? std::sqrt(var / static_cast<double>(samples.size() - 1))
                 : 0.0;
  return s;
}

// Prints a horizontal rule sized for `width` columns of 12 chars.
inline void Rule(int width) {
  for (int i = 0; i < width * 13; ++i) std::putchar('-');
  std::putchar('\n');
}

// Collects benchmark parameters and per-configuration results and writes
// them as BENCH_<name>.json, the machine-readable companion to the printed
// tables. Schema (version 1):
//   {"benchmark": "...", "schema_version": 1,
//    "params": {"max-scale": 0.32, ...},
//    "results": [{"label": "scale=0.01", "mean_s": ..., "stddev_s": ...,
//                 "min_s": ..., "max_s": ..., "throughput_mb_per_s": ...,
//                 "metrics": {"elements_total": ..., ...}}, ...]}
class BenchReporter {
 public:
  explicit BenchReporter(std::string name) : name_(std::move(name)) {
    // Hardware/backend provenance, recorded into every BENCH_*.json so the
    // regression gate (tools/check_bench_regression.py) can tell when a
    // baseline and a candidate ran with different vector capabilities or a
    // different compiled scanner kernel — those comparisons warn instead of
    // failing.
    SetParam("cpu_features", util::CpuFeatureSummary());
    SetParam("hardware_concurrency",
             static_cast<double>(util::DetectCpuFeatures().hardware_concurrency));
    SetParam("scanner_backend",
             xml::ScannerBackendName(xml::DefaultScannerBackend()));
  }

  void SetParam(const std::string& key, double value) {
    params_.emplace_back(key, obs::JsonNumber(value));
  }
  void SetParam(const std::string& key, const std::string& value) {
    params_.emplace_back(key, "\"" + obs::JsonEscape(value) + "\"");
  }

  // Starts a result row. `megabytes` is the data volume one iteration
  // processes; when > 0 a throughput_mb_per_s field is derived from it.
  void AddResult(const std::string& label, const Series& series,
                 double megabytes = 0) {
    results_.push_back(Result{label, series, megabytes, {}});
  }

  // Attaches a named metric to the most recent AddResult row.
  void AddResultMetric(const std::string& key, double value) {
    if (!results_.empty()) results_.back().metrics.emplace_back(key, value);
  }

  const std::string& name() const { return name_; }

  std::string ToJson() const {
    std::string out = "{\"benchmark\":\"" + obs::JsonEscape(name_) + "\"";
    out += ",\"schema_version\":1,\"params\":{";
    bool first = true;
    for (const auto& [key, value] : params_) {
      if (!first) out += ",";
      first = false;
      out += "\"" + obs::JsonEscape(key) + "\":" + value;
    }
    out += "},\"results\":[";
    first = true;
    for (const Result& r : results_) {
      if (!first) out += ",";
      first = false;
      out += "{\"label\":\"" + obs::JsonEscape(r.label) + "\"";
      out += ",\"mean_s\":" + obs::JsonNumber(r.series.mean);
      out += ",\"stddev_s\":" + obs::JsonNumber(r.series.stddev);
      out += ",\"min_s\":" + obs::JsonNumber(r.series.min);
      out += ",\"max_s\":" + obs::JsonNumber(r.series.max);
      if (r.megabytes > 0 && r.series.mean > 0) {
        out += ",\"throughput_mb_per_s\":" +
               obs::JsonNumber(r.megabytes / r.series.mean);
      }
      out += ",\"metrics\":{";
      bool first_metric = true;
      for (const auto& [key, value] : r.metrics) {
        if (!first_metric) out += ",";
        first_metric = false;
        out += "\"" + obs::JsonEscape(key) + "\":" + obs::JsonNumber(value);
      }
      out += "}}";
    }
    out += "]}";
    return out;
  }

  // Writes BENCH_<name>.json into `dir`. Returns false (with a message on
  // stderr) if the file cannot be written.
  bool WriteJson(const std::string& dir = ".") const {
    std::string path = dir + "/BENCH_" + name_ + ".json";
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    std::string json = ToJson();
    json += "\n";
    size_t written = std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
    if (written != json.size()) {
      std::fprintf(stderr, "error: short write to %s\n", path.c_str());
      return false;
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Result {
    std::string label;
    Series series;
    double megabytes;
    std::vector<std::pair<std::string, double>> metrics;
  };

  std::string name_;
  // Values are pre-rendered JSON fragments (number or quoted string).
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<Result> results_;
};

// Flattens the engine counters into the reporter's most recent result row.
inline void AddEngineStats(BenchReporter* reporter,
                           const core::EngineStats& stats) {
  reporter->AddResultMetric("elements_total",
                            static_cast<double>(stats.elements_total));
  reporter->AddResultMetric("elements_discarded",
                            static_cast<double>(stats.elements_discarded));
  reporter->AddResultMetric("structures_created",
                            static_cast<double>(stats.structures_created));
  reporter->AddResultMetric("structures_undone",
                            static_cast<double>(stats.structures_undone));
  reporter->AddResultMetric("structures_live_peak",
                            static_cast<double>(stats.structures_live_peak));
  reporter->AddResultMetric(
      "structure_bytes_peak",
      static_cast<double>(stats.structure_memory.peak_bytes));
  reporter->AddResultMetric("propagations",
                            static_cast<double>(stats.propagations));
  reporter->AddResultMetric(
      "optimistic_propagations",
      static_cast<double>(stats.optimistic_propagations));
  reporter->AddResultMetric(
      "arena_bytes_allocated",
      static_cast<double>(stats.arena_bytes_allocated));
  reporter->AddResultMetric(
      "candidates_emitted_early",
      static_cast<double>(stats.candidates_emitted_early));
  reporter->AddResultMetric("candidates_reclaimed",
                            static_cast<double>(stats.candidates_reclaimed));
}

}  // namespace xaos::bench

#endif  // XAOS_BENCH_BENCH_UTIL_H_
