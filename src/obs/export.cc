#include "obs/export.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/json.h"

namespace xaos::obs {

namespace {

// Splits `name{key="v"}` into base name and label body (`key="v"`); the
// label body is empty for unlabelled metrics.
std::pair<std::string_view, std::string_view> SplitName(
    std::string_view name) {
  size_t brace = name.find('{');
  if (brace == std::string_view::npos || name.back() != '}') {
    return {name, {}};
  }
  return {name.substr(0, brace),
          name.substr(brace + 1, name.size() - brace - 2)};
}

std::string SeriesName(std::string_view base, std::string_view labels,
                       std::string_view suffix,
                       std::string_view extra_label = {}) {
  std::string out(base);
  out += suffix;
  if (labels.empty() && extra_label.empty()) return out;
  out += '{';
  out += labels;
  if (!labels.empty() && !extra_label.empty()) out += ',';
  out += extra_label;
  out += '}';
  return out;
}

void AppendFamilyHeader(std::string* out, std::string_view base,
                        std::string_view type) {
  out->append("# HELP ").append(base).append(" ");
  out->append(MetricHelpText(base));
  out->append("\n# TYPE ").append(base).append(" ").append(type).append(
      "\n");
}

constexpr std::pair<std::string_view, double> kQuantileSuffixes[] = {
    {"_p50", 0.50}, {"_p90", 0.90}, {"_p99", 0.99}};

}  // namespace

std::string_view MetricHelpText(std::string_view base) {
  struct Entry {
    std::string_view base;
    std::string_view help;
  };
  // Help strings for the families the library itself emits; anything else
  // (tool-local metrics, tests) falls through to the generic line.
  static constexpr Entry kEntries[] = {
      {"xaos_parser_bytes_total", "Bytes consumed by the SAX parser."},
      {"xaos_parser_elements_total", "Start-element events parsed."},
      {"xaos_parser_attributes_total", "Attributes parsed."},
      {"xaos_parser_text_events_total", "Text events delivered."},
      {"xaos_parser_errors_total", "Documents rejected by the parser."},
      {"xaos_projection_subtrees_skipped_total",
       "Subtrees bypassed by the static-projection skip scanner."},
      {"xaos_projection_bytes_skipped_total",
       "Bytes bypassed by the static-projection skip scanner."},
      {"xaos_scanner_bytes_classified_total",
       "Bytes run through the structural scanner's block classifier."},
      {"xaos_scanner_backend",
       "Active structural-scanner backend (1 for the selected kernel)."},
      {"xaos_engine_event_ns",
       "Sampled per-event dispatch latency in nanoseconds."},
      {"xaos_engine_elements_total", "Elements dispatched to engines."},
      {"xaos_engine_elements_discarded_total",
       "Elements discarded by label-index dispatch before any engine."},
      {"xaos_engine_structures_created_total",
       "Matching structures created (optimistic candidates)."},
      {"xaos_engine_structures_undone_total",
       "Matching structures undone when backward constraints failed."},
      {"xaos_engine_structures_live", "Matching structures currently live."},
      {"xaos_engine_structures_live_peak",
       "High-water mark of live matching structures."},
      {"xaos_engine_structure_bytes", "Bytes held by matching structures."},
      {"xaos_engine_structure_bytes_peak",
       "High-water mark of matching-structure bytes."},
      {"xaos_engine_propagations_total", "Slot propagation steps."},
      {"xaos_engine_optimistic_propagations_total",
       "Propagations performed before backward constraints resolved."},
      {"xaos_arena_bytes_allocated",
       "Bytes served by matching arenas in place of heap allocations."},
      {"xaos_arena_bytes_reserved",
       "Heap bytes the matching arenas hold in slabs (one arena per "
       "evaluator)."},
      {"xaos_symbols_interned",
       "Names in the global symbol table; bounded by the compiled query "
       "vocabulary plus one reserved unknown-name symbol."},
      {"xaos_sub_match_latency_ns",
       "Per-subscription match latency: document start to EndDocument, "
       "nanoseconds, recorded once per matching document."},
      {"xaos_sub_first_match_ns",
       "Per-subscription time to first confirmed match within a document, "
       "nanoseconds."},
      {"xaos_buffered_candidates_peak",
       "High-water mark of buffered optimistic candidates, sampled at "
       "document span boundaries."},
      {"xaos_arena_bytes_peak",
       "High-water mark of matching-structure arena bytes, sampled at "
       "document span boundaries."},
      {"xaos_parallel_workers", "Worker shards in the parallel fleet."},
      {"xaos_parallel_documents_total",
       "Documents fully processed by the parallel fleet."},
      {"xaos_parallel_documents_aborted",
       "Documents abandoned mid-stream by the parallel fleet."},
      {"xaos_parallel_documents_aborted_total",
       "Documents abandoned mid-stream by the parallel fleet."},
      {"xaos_parallel_batches_published",
       "Event batches published to shards."},
      {"xaos_parallel_publish_stalls",
       "Producer stalls on a full shard ring."},
      {"xaos_parallel_publish_stall_ns",
       "Nanoseconds the producer spent stalled on full shard rings."},
      {"xaos_parallel_shard_queries", "Subscriptions assigned to the shard."},
      {"xaos_parallel_shard_batches_total",
       "Event batches the shard replayed."},
      {"xaos_parallel_shard_events_total", "Events the shard replayed."},
      {"xaos_parallel_shard_cost_estimate",
       "Sharding heuristic's load estimate for the shard."},
      {"xaos_parallel_shard_publish_stall_ns",
       "Nanoseconds the producer spent stalled on this shard's full ring."},
      {"xaos_parallel_shard_park_wait_ns",
       "Nanoseconds the shard's worker parked on an empty ring (includes "
       "idle gaps between documents)."},
      {"xaos_parallel_shard_parks", "Park episodes on the shard's ring."},
  };
  for (const Entry& entry : kEntries) {
    if (entry.base == base) return entry.help;
  }
  // Suffix families derived from histograms share one description.
  for (const auto& [suffix, q] : kQuantileSuffixes) {
    (void)q;
    if (base.size() > suffix.size() &&
        base.substr(base.size() - suffix.size()) == suffix) {
      return "Estimated quantile derived from the matching histogram.";
    }
  }
  return "xaos metric (no specific help registered).";
}

std::string ToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": " + std::to_string(value);
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": " + std::to_string(value);
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": {\"count\": " +
           std::to_string(h.count) + ", \"sum\": " + std::to_string(h.sum) +
           ", \"max\": " + std::to_string(h.max) +
           ", \"p50\": " + JsonNumber(h.Quantile(0.50)) +
           ", \"p90\": " + JsonNumber(h.Quantile(0.90)) +
           ", \"p99\": " + JsonNumber(h.Quantile(0.99)) + ", \"buckets\": [";
    bool first_bucket = true;
    for (const auto& [bound, count] : h.buckets) {
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out += "{\"le\": " + std::to_string(bound) +
             ", \"count\": " + std::to_string(count) + "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string ToJson(const MetricsRegistry& registry) {
  return ToJson(registry.Snapshot());
}

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  // Labelled variants of one metric sort adjacently, so emitting the
  // HELP/TYPE header only when the base name changes yields one per family.
  std::string_view previous_base;
  for (const auto& [name, value] : snapshot.counters) {
    std::string_view base = SplitName(name).first;
    if (base != previous_base) {
      AppendFamilyHeader(&out, base, "counter");
      previous_base = base;
    }
    out.append(name).append(" ").append(std::to_string(value)).append("\n");
  }
  previous_base = {};
  for (const auto& [name, value] : snapshot.gauges) {
    std::string_view base = SplitName(name).first;
    if (base != previous_base) {
      AppendFamilyHeader(&out, base, "gauge");
      previous_base = base;
    }
    out.append(name).append(" ").append(std::to_string(value)).append("\n");
  }
  // Histograms: group the sorted map into runs sharing a base name so each
  // family gets one header, then derive one quantile gauge family per
  // suffix covering every labelled member.
  for (auto it = snapshot.histograms.begin();
       it != snapshot.histograms.end();) {
    std::string_view family = SplitName(it->first).first;
    auto family_end = it;
    while (family_end != snapshot.histograms.end() &&
           SplitName(family_end->first).first == family) {
      ++family_end;
    }
    AppendFamilyHeader(&out, family, "histogram");
    for (auto member = it; member != family_end; ++member) {
      auto [base, labels] = SplitName(member->first);
      const HistogramSnapshot& h = member->second;
      uint64_t cumulative = 0;
      for (const auto& [bound, count] : h.buckets) {
        cumulative += count;
        out.append(SeriesName(base, labels, "_bucket",
                              "le=\"" + std::to_string(bound) + "\""))
            .append(" ")
            .append(std::to_string(cumulative))
            .append("\n");
      }
      out.append(SeriesName(base, labels, "_bucket", "le=\"+Inf\""))
          .append(" ")
          .append(std::to_string(h.count))
          .append("\n");
      out.append(SeriesName(base, labels, "_sum"))
          .append(" ")
          .append(std::to_string(h.sum))
          .append("\n");
      out.append(SeriesName(base, labels, "_count"))
          .append(" ")
          .append(std::to_string(h.count))
          .append("\n");
    }
    for (const auto& [suffix, q] : kQuantileSuffixes) {
      std::string derived(family);
      derived += suffix;
      AppendFamilyHeader(&out, derived, "gauge");
      for (auto member = it; member != family_end; ++member) {
        auto [base, labels] = SplitName(member->first);
        out.append(SeriesName(base, labels, suffix))
            .append(" ")
            .append(JsonNumber(member->second.Quantile(q)))
            .append("\n");
      }
    }
    it = family_end;
  }
  return out;
}

std::string ToPrometheusText(const MetricsRegistry& registry) {
  return ToPrometheusText(registry.Snapshot());
}

namespace {

bool ValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_' &&
      name[0] != ':') {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != ':') {
      return false;
    }
  }
  return true;
}

// Validates `key="value",...` label syntax (value escapes: \\ \" \n).
bool ValidLabelBody(std::string_view body) {
  size_t i = 0;
  while (i < body.size()) {
    size_t key_start = i;
    while (i < body.size() && body[i] != '=') ++i;
    if (i == body.size() || i == key_start) return false;
    if (!ValidMetricName(body.substr(key_start, i - key_start))) return false;
    ++i;  // '='
    if (i >= body.size() || body[i] != '"') return false;
    ++i;
    while (i < body.size() && body[i] != '"') {
      if (body[i] == '\\') {
        if (i + 1 >= body.size()) return false;
        char esc = body[i + 1];
        if (esc != '\\' && esc != '"' && esc != 'n') return false;
        ++i;
      }
      ++i;
    }
    if (i >= body.size()) return false;
    ++i;  // closing quote
    if (i < body.size()) {
      if (body[i] != ',') return false;
      ++i;
      if (i == body.size()) return false;  // trailing comma
    }
  }
  return true;
}

bool ValidSampleValue(std::string_view value) {
  if (value.empty()) return false;
  if (value == "+Inf" || value == "-Inf" || value == "NaN") return true;
  char* end = nullptr;
  std::string buffer(value);
  std::strtod(buffer.c_str(), &end);
  return end != nullptr && *end == '\0' && end != buffer.c_str();
}

bool SampleNameInFamily(std::string_view sample, std::string_view family,
                        std::string_view family_type) {
  if (sample == family) return true;
  if (family_type != "histogram") return false;
  for (std::string_view suffix : {"_bucket", "_sum", "_count"}) {
    if (sample.size() == family.size() + suffix.size() &&
        sample.substr(0, family.size()) == family &&
        sample.substr(family.size()) == suffix) {
      return true;
    }
  }
  return false;
}

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

bool PrometheusTextValid(std::string_view text, std::string* error) {
  std::string current_family;
  std::string current_type;
  bool have_help = false;
  bool have_type = false;
  size_t line_number = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = eol == std::string_view::npos
                                ? text.substr(pos)
                                : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    ++line_number;
    if (line.empty()) continue;
    std::string where = "line " + std::to_string(line_number) + ": " +
                        std::string(line.substr(0, 120));
    if (line[0] == '#') {
      bool is_help = line.substr(0, 7) == "# HELP ";
      bool is_type = line.substr(0, 7) == "# TYPE ";
      if (!is_help && !is_type) continue;  // plain comment
      std::string_view rest = line.substr(7);
      size_t space = rest.find(' ');
      if (space == std::string_view::npos || space == 0) {
        SetError(error, "malformed HELP/TYPE line, " + where);
        return false;
      }
      std::string_view name = rest.substr(0, space);
      if (!ValidMetricName(name)) {
        SetError(error, "invalid metric name in header, " + where);
        return false;
      }
      if (name != current_family) {
        // New family begins; HELP must come first.
        if (!is_help) {
          SetError(error, "TYPE before HELP for family, " + where);
          return false;
        }
        current_family.assign(name);
        current_type.clear();
        have_help = true;
        have_type = false;
        continue;
      }
      if (is_help) {
        if (have_help) {
          SetError(error, "duplicate HELP for family, " + where);
          return false;
        }
        have_help = true;
      } else {
        if (have_type) {
          SetError(error, "duplicate TYPE for family, " + where);
          return false;
        }
        std::string_view type = rest.substr(space + 1);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          SetError(error, "unknown metric type, " + where);
          return false;
        }
        current_type.assign(type);
        have_type = true;
      }
      continue;
    }
    // Sample line: name[{labels}] value
    size_t name_end = line.find_first_of(" {");
    if (name_end == std::string_view::npos || name_end == 0) {
      SetError(error, "malformed sample line, " + where);
      return false;
    }
    std::string_view name = line.substr(0, name_end);
    if (!ValidMetricName(name)) {
      SetError(error, "invalid sample metric name, " + where);
      return false;
    }
    std::string_view rest = line.substr(name_end);
    if (!rest.empty() && rest[0] == '{') {
      size_t close = rest.find('}');
      if (close == std::string_view::npos) {
        SetError(error, "unterminated label set, " + where);
        return false;
      }
      if (!ValidLabelBody(rest.substr(1, close - 1))) {
        SetError(error, "malformed labels, " + where);
        return false;
      }
      rest = rest.substr(close + 1);
    }
    if (rest.empty() || rest[0] != ' ') {
      SetError(error, "missing sample value, " + where);
      return false;
    }
    if (!ValidSampleValue(rest.substr(1))) {
      SetError(error, "non-numeric sample value, " + where);
      return false;
    }
    if (current_family.empty() || !have_help || !have_type) {
      SetError(error, "sample without preceding HELP/TYPE, " + where);
      return false;
    }
    if (!SampleNameInFamily(name, current_family, current_type)) {
      SetError(error,
               "sample name outside declared family '" + current_family +
                   "', " + where);
      return false;
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

Status WriteMetricsJson(const MetricsRegistry& registry,
                        const std::string& path) {
  std::string json = ToJson(registry) + "\n";
  if (path == "-") {
    std::fwrite(json.data(), 1, json.size(), stdout);
    return Status::Ok();
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return InvalidArgumentError("cannot open metrics file: " + path);
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return InternalError("short write to metrics file: " + path);
  }
  return Status::Ok();
}

}  // namespace xaos::obs
