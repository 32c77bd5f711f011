// Repository benchmark harness: generates one workload from a seed, checks
// every output against an independent oracle, and times the production
// paths of `xaos_grep` (StreamingEvaluator) and `pubsub_router`
// (MultiQueryEvaluator) as a single-threaded closed loop. With --trace 1 it
// instead times the same documents layer by layer from outside the library
// and writes the spans as Chrome trace-event JSON. perfbench/run.py builds
// and drives this binary; see perfbench/NOTES.md for the workloads.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--small] [--trace-file PATH] [--fingerprint-only]
//                     [--expect-fingerprint SEED:BYTES:HASH]...
//
// The last line of standard output is one JSON object (see PrintReport).

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_random_workload.h"
#include "xaos.h"

namespace {

using xaos::Status;
using xaos::StatusCode;
namespace core = xaos::core;
namespace xml = xaos::xml;

constexpr size_t kChunkBytes = 64 * 1024;

uint64_t NowNs() { return xaos::obs::NowNs(); }

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Heap bytes in use (glibc). Single-threaded with fixed inputs, this
// repeats exactly from run to run; RSS does not.
uint64_t HeapInUse() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<uint64_t>(info.uordblks) +
         static_cast<uint64_t>(info.hblkhd);
}

// FNV-1a over length-prefixed strings: byte count plus hash of a workload's
// documents and subscriptions.
struct Fingerprint {
  uint64_t bytes = 0;
  uint64_t hash = 1469598103934665603ull;

  void Mix(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= p[i];
      hash *= 1099511628211ull;
    }
  }
  void Add(std::string_view s) {
    uint64_t size = s.size();
    Mix(&size, sizeof(size));
    Mix(s.data(), s.size());
    bytes += s.size();
  }
  std::string ToString() const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ":%016" PRIx64, bytes, hash);
    return buf;
  }
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Document {
  std::string text;
  // route-hostile: offsets of the fixed-width decimal fields that make
  // every element/attribute name in this document's slots new.
  std::vector<size_t> slots;
  // The status the document must end with (kOk = accepted).
  StatusCode expect = StatusCode::kOk;
};

struct Workload {
  std::string name;
  bool multi = false;  // MultiQueryEvaluator (route) vs StreamingEvaluator
  std::vector<std::string> expressions;
  std::vector<Document> docs;  // docs[0] doubles as the warm-up document
  xml::ParserLimits limits;
  // Timed documents per requested second: fixes the amount of work in a
  // run (chosen so a run on the reference host lasts about that long).
  double docs_per_second = 0;
  int setups = 31;  // set-up repetitions per run (setup_s is their best)

  Fingerprint ComputeFingerprint() const {
    Fingerprint fp;
    for (const std::string& e : expressions) fp.Add(e);
    for (const Document& d : docs) fp.Add(d.text);
    return fp;
  }
};

constexpr int kSlotsPerDoc = 4;
constexpr int kSlotDigits = 10;
constexpr int kHostileMaxDepth = 128;

// One leaf element per slot, e.g. <s0_0000000000 t0_0000000000="1"/>; the
// digits are rewritten before each document is fed.
std::string SlotElements(std::vector<size_t>* offsets, size_t base) {
  std::string out;
  for (int k = 0; k < kSlotsPerDoc; ++k) {
    std::string digits(kSlotDigits, '0');
    out += "<s" + std::to_string(k) + "_";
    offsets->push_back(base + out.size());
    out += digits + " t" + std::to_string(k) + "_";
    offsets->push_back(base + out.size());
    out += digits + "=\"1\"/>";
  }
  return out;
}

void WriteCounter(Document* doc, uint64_t counter) {
  char digits[kSlotDigits + 1];
  std::snprintf(digits, sizeof(digits), "%0*" PRIu64, kSlotDigits,
                static_cast<uint64_t>(counter % 10000000000u));
  for (size_t offset : doc->slots) {
    std::memcpy(&doc->text[offset], digits, kSlotDigits);
  }
}

Workload MakeGrepXMark(uint64_t seed, bool small) {
  Workload w;
  w.name = "grep-xmark";
  w.expressions = {xaos::gen::kXMarkPaperQuery};
  int docs = small ? 3 : 24;
  for (int i = 0; i < docs; ++i) {
    xaos::gen::XMarkOptions options;
    options.scale = 0.01;
    options.seed = SplitMix(seed * 1000003u + static_cast<uint64_t>(i));
    w.docs.push_back({xaos::gen::GenerateXMark(options), {}, StatusCode::kOk});
  }
  w.docs_per_second = 340;
  return w;
}

Workload MakeRouteZipf(uint64_t seed, bool small) {
  Workload w;
  w.name = "route-zipf";
  w.multi = true;
  xaos::bench::ZipfPoolOptions pool;
  pool.subs = small ? 500 : 10000;
  pool.seed = seed;
  w.expressions = xaos::bench::MakeZipfSubscriptionPool(pool);
  int docs = small ? 4 : 128;
  for (int i = 0; i < docs; ++i) {
    xaos::gen::XMarkOptions options;
    options.scale = 0.001;
    options.seed = SplitMix(seed * 2000003u + static_cast<uint64_t>(i));
    w.docs.push_back({xaos::gen::GenerateXMark(options), {}, StatusCode::kOk});
  }
  w.docs_per_second = 2300;
  return w;
}

Workload MakeRouteHostile(uint64_t seed, bool small) {
  Workload w;
  w.name = "route-hostile";
  w.multi = true;
  w.limits.max_depth = kHostileMaxDepth;
  std::mt19937_64 rng(SplitMix(seed ^ 0x686f7374696c65ull));
  // The paper's 6-node-test expressions, over 26 tag names so that the
  // label index has something to skip.
  xaos::gen::RandomQueryOptions query_options;
  query_options.alphabet = 26;
  std::vector<xaos::xpath::LocationPath> paths;
  std::set<std::string> seen;
  size_t subs = small ? 100 : 300;
  while (w.expressions.size() < subs) {
    xaos::xpath::LocationPath path =
        xaos::gen::GenerateRandomPath(query_options, rng);
    std::string expression = xaos::xpath::ToString(path);
    if (!seen.insert(expression).second) continue;  // no aliases
    w.expressions.push_back(std::move(expression));
    paths.push_back(std::move(path));
  }
  int docs = 16;
  xaos::gen::RandomDocOptions doc_options;
  doc_options.alphabet = query_options.alphabet;
  doc_options.target_elements = 100;
  for (int i = 0; i < docs; ++i) {
    const auto& path = paths[SplitMix(seed + static_cast<uint64_t>(i)) %
                             paths.size()];
    auto text = xaos::gen::GenerateDocumentForPath(path, doc_options, rng);
    if (!text.ok()) {
      std::fprintf(stderr, "document generation failed: %s\n",
                   text.status().ToString().c_str());
      std::exit(2);
    }
    Document doc;
    // Name slots go right after the <doc> root start tag.
    size_t root_end = text->find('>') + 1;
    doc.text = text->substr(0, root_end);
    doc.text += SlotElements(&doc.slots, root_end);
    doc.text += text->substr(root_end);
    if (i % 16 == 5) {
      // Malformed: an end tag three quarters of the way in no longer
      // matches its start tag.
      size_t at = doc.text.find("</", doc.text.size() * 3 / 4);
      doc.text[at + 2] = '_';  // no generated name starts with '_'
      doc.expect = StatusCode::kParseError;
    } else if (i % 16 == 13) {
      // Over the depth limit: a run of unclosed elements in mid-document.
      size_t at = doc.text.find('<', doc.text.size() / 2);
      std::string deep;
      for (int d = 0; d < 2 * kHostileMaxDepth; ++d) deep += "<deep>";
      doc.text.insert(at, deep);
      doc.expect = StatusCode::kResourceExhausted;
    }
    w.docs.push_back(std::move(doc));
  }
  w.docs_per_second = 420;
  return w;
}

bool MakeWorkload(const std::string& name, uint64_t seed, bool small,
                  Workload* out) {
  if (name == "grep-xmark") {
    *out = MakeGrepXMark(seed, small);
  } else if (name == "route-zipf") {
    *out = MakeRouteZipf(seed, small);
  } else if (name == "route-hostile") {
    *out = MakeRouteHostile(seed, small);
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Oracles: independent algorithms already in the tree.
// ---------------------------------------------------------------------------

struct Expected {
  std::vector<std::vector<uint32_t>> items;    // grep: item ordinals per doc
  std::vector<std::vector<uint8_t>> verdicts;  // route: per doc, per sub
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

// Navigational engine on the DOM (grep-xmark and route-hostile) or the
// per-engine χαoς path with the shared automaton off (route-zipf).
Expected ComputeExpected(const Workload& w) {
  Expected expected;
  const size_t docs = w.docs.size();
  expected.items.resize(docs);
  expected.verdicts.resize(docs);
  if (w.name == "route-zipf") {
    core::EngineOptions options;
    options.enable_shared_index = false;
    core::MultiQueryEvaluator oracle(options);
    for (const std::string& e : w.expressions) {
      auto query = core::Query::Compile(e);
      if (!query.ok()) Die("compile: " + query.status().ToString());
      oracle.AddQuery(*query);
    }
    xml::ParserOptions parser_options;
    parser_options.limits = w.limits;
    for (size_t d = 0; d < docs; ++d) {
      Status status = xml::ParseString(w.docs[d].text, &oracle, parser_options);
      if (!status.ok()) Die("oracle parse: " + status.ToString());
      std::vector<uint8_t>& v = expected.verdicts[d];
      v.resize(w.expressions.size());
      // Result() merges the engines' own results, a read-out path apart
      // from the Matched() the timed runs call.
      for (size_t q = 0; q < v.size(); ++q) {
        v[q] = oracle.Result(q).matched ? 1 : 0;
      }
    }
    return expected;
  }
  xml::ParserOptions parser_options;
  parser_options.limits = w.limits;
  for (size_t d = 0; d < docs; ++d) {
    auto doc = xaos::dom::ParseToDocument(w.docs[d].text, parser_options);
    StatusCode code = doc.ok() ? StatusCode::kOk : doc.status().code();
    if (code != w.docs[d].expect) {
      Die("oracle: document " + std::to_string(d) + " parses as " +
          std::string(xaos::StatusCodeToString(code)));
    }
    if (!doc.ok()) continue;
    xaos::baseline::NavigationalEngine nav(&*doc);
    if (!w.multi) {
      auto refs = nav.Evaluate(w.expressions.front());
      if (!refs.ok()) Die("oracle: " + refs.status().ToString());
      for (const auto& item : xaos::baseline::CanonicalFromRefs(*doc, *refs)) {
        expected.items[d].push_back(item.ordinal);
      }
      continue;
    }
    std::vector<uint8_t>& v = expected.verdicts[d];
    v.resize(w.expressions.size());
    for (size_t q = 0; q < v.size(); ++q) {
      auto refs = nav.Evaluate(w.expressions[q]);
      if (!refs.ok()) Die("oracle: " + refs.status().ToString());
      v[q] = refs->empty() ? 0 : 1;
    }
  }
  return expected;
}

// ---------------------------------------------------------------------------
// The system under test, wired the way xaos_grep / pubsub_router wire it.
// ---------------------------------------------------------------------------

struct Outcome {
  StatusCode code = StatusCode::kOk;
  std::vector<uint32_t> items;
  std::vector<uint8_t> verdicts;
  uint64_t latency_ns = 0;
  uint64_t ttfm_ns = 0;  // 0 = no match seen
};

// Spans recorded by the traced run (kept in memory, written at the end).
struct SpanRecord {
  const char* name;
  const char* layer;
  uint64_t id;
  uint64_t parent;
  uint64_t doc;
  uint64_t begin_ns;
  uint64_t end_ns;
};

class Tracer {
 public:
  bool on = false;
  std::vector<SpanRecord> spans;

  // Opens a span and returns its index (or SIZE_MAX when off).
  size_t Begin(const char* name, const char* layer, size_t parent,
               uint64_t doc) {
    if (!on) return SIZE_MAX;
    uint64_t parent_id = parent == SIZE_MAX ? 0 : spans[parent].id;
    uint64_t id = spans.size() + 1;
    spans.push_back({name, layer, id, parent_id, doc, NowNs(), 0});
    return spans.size() - 1;
  }
  void End(size_t span) {
    if (span != SIZE_MAX) spans[span].end_ns = NowNs();
  }
};

class System {
 public:
  // Compiles every expression, registers it, fetches the projection gate
  // and builds the batched dispatcher. `compile_ns` / `add_ns`, when
  // non-null, receive per-call durations.
  System(const Workload& w, std::vector<uint64_t>* compile_ns,
         std::vector<uint64_t>* add_ns)
      : workload_(w) {
    parser_options_.limits = w.limits;
    std::vector<core::Query> queries;
    queries.reserve(w.expressions.size());
    for (const std::string& e : w.expressions) {
      uint64_t t0 = NowNs();
      auto query = core::Query::Compile(e);
      if (compile_ns != nullptr) compile_ns->push_back(NowNs() - t0);
      if (!query.ok()) Die("compile " + e + ": " + query.status().ToString());
      queries.push_back(std::move(*query));
    }
    if (w.multi) {
      router_ = std::make_unique<core::MultiQueryEvaluator>();
      for (const core::Query& q : queries) {
        uint64_t t0 = NowNs();
        router_->AddQuery(q);
        if (add_ns != nullptr) add_ns->push_back(NowNs() - t0);
      }
      parser_options_.projection_filter = router_->projection_filter();
      dispatcher_ = std::make_unique<core::BatchedDispatcher>(router_.get());
    } else {
      core::EngineOptions options;
      options.early_item_sink = [this](const core::OutputItem&) {
        if (first_item_ns_ == 0) first_item_ns_ = NowNs();
      };
      uint64_t t0 = NowNs();
      grep_ = std::make_unique<core::StreamingEvaluator>(queries.front(),
                                                         options);
      if (add_ns != nullptr) add_ns->push_back(NowNs() - t0);
      parser_options_.projection_filter = grep_->projection_filter();
      dispatcher_ = std::make_unique<core::BatchedDispatcher>(grep_.get());
    }
  }
  // The early-item sink holds `this`.
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // One document through the production path: Feed in 64 KB chunks,
  // Finish, then read items / every verdict, or AbortDocument on a
  // rejection. `out` receives the outcome; latency covers first Feed to
  // results read. Spans go to `tracer` under `parent` when it is on.
  void Run(std::string_view text, Outcome* out, Tracer* tracer = nullptr,
           size_t parent = SIZE_MAX, uint64_t doc = 0) {
    static Tracer off;
    Tracer& t = tracer != nullptr ? *tracer : off;
    xml::SaxParser parser(dispatcher_.get(), parser_options_);
    first_item_ns_ = 0;
    out->ttfm_ns = 0;
    uint64_t start = NowNs();
    Status status;
    for (size_t at = 0; at < text.size() && status.ok(); at += kChunkBytes) {
      size_t s = t.Begin("SaxParser::Feed", "pipeline", parent, doc);
      status = parser.Feed(text.substr(at, kChunkBytes));
      t.End(s);
    }
    if (status.ok()) {
      size_t s = t.Begin("SaxParser::Finish", "pipeline", parent, doc);
      status = parser.Finish();
      t.End(s);
    }
    out->code = status.code();
    if (!status.ok()) {
      size_t s = t.Begin("BatchedDispatcher::AbortDocument", "core", parent,
                         doc);
      dispatcher_->AbortDocument(status);
      t.End(s);
      out->latency_ns = NowNs() - start;
      abort_ns_ = t.on ? t.spans[s].end_ns - t.spans[s].begin_ns : 0;
      return;
    }
    size_t s = t.Begin(workload_.multi ? "Matched" : "Result", "core", parent,
                       doc);
    ReadResults(out);
    t.End(s);
    uint64_t end = NowNs();
    out->latency_ns = end - start;
    if (!workload_.multi && first_item_ns_ != 0) {
      out->ttfm_ns = first_item_ns_ - start;
    } else if (out->ttfm_ns != 0) {
      out->ttfm_ns -= start;
    }
    if (!evaluator_status().ok()) out->code = evaluator_status().code();
  }

  // Reads the finished document's items (grep) or every verdict (route);
  // for route, ttfm_ns is stamped when the first delivery is known.
  void ReadResults(Outcome* out) {
    if (workload_.multi) {
      out->verdicts.resize(router_->query_count());
      for (size_t q = 0; q < out->verdicts.size(); ++q) {
        bool m = router_->Matched(q);
        out->verdicts[q] = m ? 1 : 0;
        if (m && out->ttfm_ns == 0) out->ttfm_ns = NowNs();
      }
    } else {
      result_ = grep_->Result();
      out->items.clear();
      for (const core::OutputItem& item : result_.items) {
        out->items.push_back(item.info.ordinal);
      }
    }
  }

  Status evaluator_status() const {
    return workload_.multi ? router_->status() : grep_->status();
  }
  core::EngineStats stats() const {
    return workload_.multi ? router_->AggregateStats()
                           : grep_->AggregateStats();
  }
  uint64_t engines_skipped() const {
    return workload_.multi ? router_->engines_skipped()
                           : grep_->engines_skipped();
  }
  size_t engine_count() const {
    return workload_.multi ? router_->engine_count() : grep_->engines().size();
  }
  size_t shared_states() const {
    return workload_.multi ? router_->shared_state_count() : 0;
  }
  bool wants_text_events() {
    return workload_.multi ? router_->wants_text_events()
                           : grep_->wants_text_events();
  }
  void ReplayBatch(const xml::EventBatch& batch) {
    if (workload_.multi) {
      router_->ReplayBatch(batch, &attr_scratch_);
    } else {
      grep_->ReplayBatch(batch, &attr_scratch_);
    }
  }
  size_t result_items() const {
    if (!workload_.multi) return result_.items.size();
    size_t items = 0;
    for (size_t q = 0; q < router_->query_count(); ++q) {
      items += router_->Result(q).items.size();
    }
    return items;
  }
  const xml::ParserOptions& parser_options() const { return parser_options_; }
  uint64_t last_abort_ns() const { return abort_ns_; }

 private:
  const Workload& workload_;
  xml::ParserOptions parser_options_;
  std::unique_ptr<core::StreamingEvaluator> grep_;
  std::unique_ptr<core::MultiQueryEvaluator> router_;
  std::unique_ptr<core::BatchedDispatcher> dispatcher_;
  std::vector<xml::AttributeView> attr_scratch_;
  core::QueryResult result_;
  uint64_t first_item_ns_ = 0;
  uint64_t abort_ns_ = 0;
};

// Compares an outcome with the oracle; false counts in error_rate.
bool Check(const Workload& w, const Expected& e, size_t d, const Outcome& o) {
  if (o.code != w.docs[d].expect) return false;
  if (o.code != StatusCode::kOk) return true;
  return w.multi ? o.verdicts == e.verdicts[d] : o.items == e.items[d];
}

// ---------------------------------------------------------------------------
// Statistics and report
// ---------------------------------------------------------------------------

double Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  auto rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;  // printed as strings
  std::vector<std::pair<std::string, double>> counts;     // repeat exactly
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintReport(const Report& r) {
  std::string out = "{\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) +
                    ",\"metrics\":{";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(r.metrics[i].name) + ":{\"value\":" +
           JsonNumber(r.metrics[i].value) +
           ",\"unit\":" + JsonString(r.metrics[i].unit) + "}";
  }
  out += "},\"counts\":{";
  for (size_t i = 0; i < r.counts.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(r.counts[i].first) + ":" + JsonNumber(r.counts[i].second);
  }
  out += "},\"info\":{";
  for (size_t i = 0; i < r.info.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(r.info[i].first) + ":" + JsonString(r.info[i].second);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void AddProvenance(Report* r) {
  r->info.push_back({"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))});
  r->info.push_back({"cpu_model", CpuModel()});
  r->info.push_back(
      {"scanner_backend",
       xml::ScannerBackendName(xml::DefaultScannerBackend())});
  r->info.push_back({"build_type", PERFBENCH_BUILD_TYPE});
  r->info.push_back({"obs_compiled_in", XAOS_OBS_ENABLED ? "yes" : "no"});
}

// ---------------------------------------------------------------------------
// Timing: best of repeats
// ---------------------------------------------------------------------------
//
// The reference host alternates between a fast phase and a phase in which
// the same code runs about half as fast (memory-system interference from
// other tenants), each lasting from a fraction of a second to tens of
// seconds. Any figure that averages over time measures how long the run
// happened to sit in each phase. Every run therefore cycles through a small
// corpus many times, and each wall-clock figure is taken from each distinct
// document's fastest repeat: interference only ever adds time, so the best
// repeat converges on the program's own cost. Figures averaged over all
// repeats are reported too (all_*), but not gated.

// Per-distinct-document minimum of a duration.
class BestOf {
 public:
  explicit BestOf(size_t docs) : best_(docs, UINT64_MAX) {}
  void Add(size_t doc, uint64_t ns) { best_[doc] = std::min(best_[doc], ns); }
  // Durations of the documents that were seen at least once.
  std::vector<uint64_t> Values() const {
    std::vector<uint64_t> out;
    for (uint64_t v : best_) {
      if (v != UINT64_MAX) out.push_back(v);
    }
    return out;
  }
  uint64_t Sum() const {
    uint64_t sum = 0;
    for (uint64_t v : Values()) sum += v;
    return sum;
  }
  size_t Count() const { return Values().size(); }
  // The best duration of document `doc`, or 0 if it was never seen.
  uint64_t at(size_t doc) const {
    return best_[doc] == UINT64_MAX ? 0 : best_[doc];
  }

 private:
  std::vector<uint64_t> best_;
};

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0)
// ---------------------------------------------------------------------------

uint64_t g_counter = 0;  // route-hostile: per-document name counter

void Prepare(Document* doc) {
  if (!doc->slots.empty()) WriteCounter(doc, ++g_counter);
}

// Builds a system and feeds it the warm-up document, timing both
// together: compile, AddQuery, the projection gate and whatever the
// evaluator builds lazily on its first document.
std::unique_ptr<System> TimedSetup(Workload& w, const Expected& e,
                                   Outcome* outcome, uint64_t* ns,
                                   Report* r) {
  Prepare(&w.docs[0]);
  uint64_t t0 = NowNs();
  auto system = std::make_unique<System>(w, nullptr, nullptr);
  system->Run(w.docs[0].text, outcome);
  *ns = NowNs() - t0;
  ++r->attempted;
  if (!Check(w, e, 0, *outcome)) ++r->failed;
  return system;
}

void RunEndToEnd(Workload& w, const Expected& e, size_t timed_docs,
                 Report* r) {
  const size_t docs = w.docs.size();
  BestOf latency(docs);
  BestOf ttfm(docs);
  std::vector<uint64_t> all_latency;
  std::vector<uint64_t> setup;
  all_latency.reserve(timed_docs);
  setup.reserve(static_cast<size_t>(w.setups));
  Outcome outcome;
  outcome.items.reserve(1 << 16);
  outcome.verdicts.reserve(w.expressions.size());
  Outcome scratch = outcome;
  size_t setups = static_cast<size_t>(w.setups);

  uint64_t heap_before = HeapInUse();
  uint64_t ns = 0;
  std::unique_ptr<System> system = TimedSetup(w, e, &outcome, &ns, r);
  setup.push_back(ns);

  uint64_t bytes = 0;
  uint64_t busy_ns = 0;
  uint64_t items = 0;
  uint64_t deliveries = 0;
  for (size_t i = 0; i < timed_docs; ++i) {
    // The other set-ups are spread evenly through the run, so their best
    // sees the same phases the documents see.
    if (setup.size() < setups && i * setups >= setup.size() * timed_docs) {
      TimedSetup(w, e, &scratch, &ns, r);
      setup.push_back(ns);
    }
    size_t d = i % docs;
    Prepare(&w.docs[d]);
    system->Run(w.docs[d].text, &outcome);
    bytes += w.docs[d].text.size();
    busy_ns += outcome.latency_ns;
    all_latency.push_back(outcome.latency_ns);
    latency.Add(d, outcome.latency_ns);
    if (outcome.ttfm_ns != 0) ttfm.Add(d, outcome.ttfm_ns);
    ++r->attempted;
    if (!Check(w, e, d, outcome)) ++r->failed;
    items += outcome.items.size();
    deliveries += static_cast<uint64_t>(
        std::count(outcome.verdicts.begin(), outcome.verdicts.end(), 1));
  }
  uint64_t heap_after = HeapInUse();

  uint64_t corpus_bytes = 0;
  for (const Document& doc : w.docs) corpus_bytes += doc.text.size();
  double best_s = static_cast<double>(latency.Sum()) / 1e9;
  std::vector<uint64_t> best = latency.Values();
  std::vector<uint64_t> best_ttfm = ttfm.Values();
  r->Add("throughput_mb_s", static_cast<double>(corpus_bytes) / 1e6 / best_s,
         "MB/s");
  r->Add("docs_per_s", static_cast<double>(docs) / best_s, "1/s");
  r->Add("doc_latency_ms_p50", Percentile(best, 0.50) / 1e6, "ms");
  r->Add("doc_latency_ms_p99", Percentile(best, 0.99) / 1e6, "ms");
  r->Add("ttfm_ms_p50", Percentile(best_ttfm, 0.50) / 1e6, "ms");
  r->Add("ttfm_ms_p99", Percentile(best_ttfm, 0.99) / 1e6, "ms");
  r->Add("setup_s", *std::min_element(setup.begin(), setup.end()) / 1e9,
         "s");
  r->Add("held_mb",
         (static_cast<double>(heap_after) - static_cast<double>(heap_before)) /
             1e6,
         "MB");
  r->Add("error_rate", Ratio(r->failed, r->attempted), "ratio");
  double busy_s = static_cast<double>(busy_ns) / 1e9;
  r->Add("all_throughput_mb_s", static_cast<double>(bytes) / 1e6 / busy_s,
         "MB/s");
  r->Add("all_doc_latency_ms_p50", Percentile(all_latency, 0.50) / 1e6, "ms");
  r->Add("all_doc_latency_ms_p99", Percentile(all_latency, 0.99) / 1e6, "ms");
  r->Add("all_setup_s_p50", Percentile(setup, 0.50) / 1e9, "s");
  r->counts.push_back({"timed_docs", static_cast<double>(timed_docs)});
  r->counts.push_back({"latency_samples", static_cast<double>(best.size())});
  r->counts.push_back({"ttfm_samples", static_cast<double>(best_ttfm.size())});
  r->counts.push_back({"setup_samples", static_cast<double>(setup.size())});
  r->counts.push_back({"held_bytes", static_cast<double>(heap_after) -
                                         static_cast<double>(heap_before)});
  r->counts.push_back({"bytes_fed", static_cast<double>(bytes)});
  r->counts.push_back({"items", static_cast<double>(items)});
  r->counts.push_back({"deliveries", static_cast<double>(deliveries)});
  r->info.push_back({"busy_s", JsonNumber(busy_s)});
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1): the same documents, layer by layer.
// ---------------------------------------------------------------------------

class NoopHandler : public xml::ContentHandler {};

class CountingHandler : public xml::ContentHandler {
 public:
  uint64_t events = 0;
  void StartDocument() override { ++events; }
  void EndDocument() override { ++events; }
  void StartElement(const xml::QName&, xml::AttributeSpan) override {
    ++events;
  }
  void EndElement(std::string_view) override { ++events; }
  void Characters(std::string_view) override { ++events; }
  void SkippedSubtree(const xml::SkipReport&) override { ++events; }
};

// Keeps one document's published batches for replay; recycles them after.
class CollectSink : public xml::EventBatcher::Sink {
 public:
  xml::EventBatch* AcquireBatch() override {
    if (free_.empty()) {
      pool_.push_back(std::make_unique<xml::EventBatch>());
      free_.push_back(pool_.back().get());
    }
    xml::EventBatch* batch = free_.back();
    free_.pop_back();
    batch->Clear();
    return batch;
  }
  void PublishBatch(xml::EventBatch* batch) override {
    published.push_back(batch);
  }
  void Recycle() {
    free_.insert(free_.end(), published.begin(), published.end());
    published.clear();
  }
  std::vector<xml::EventBatch*> published;

 private:
  std::vector<std::unique_ptr<xml::EventBatch>> pool_;
  std::vector<xml::EventBatch*> free_;
};

// Feeds `text` through a fresh parser into `handler` in 64 KB chunks.
Status FeedAll(std::string_view text, xml::ContentHandler* handler,
               const xml::ParserOptions& options, uint64_t* elements) {
  xml::SaxParser parser(handler, options);
  Status status;
  for (size_t at = 0; at < text.size() && status.ok(); at += kChunkBytes) {
    status = parser.Feed(text.substr(at, kChunkBytes));
  }
  if (status.ok()) status = parser.Finish();
  if (elements != nullptr) *elements = parser.element_count();
  return status;
}

uint64_t SpanNs(const Tracer& t, size_t s) {
  return t.spans[s].end_ns - t.spans[s].begin_ns;
}

// Chrome trace-event JSON (loads in Perfetto and chrome://tracing), the
// format obs::flight writes: one "X" event per span on one track. Only the
// set-up and the first kTraceFileDocs documents are written, which keeps
// the file small; the metrics use every span.
constexpr uint64_t kTraceFileDocs = 64;

void WriteChromeTrace(const Tracer& t, const std::string& path,
                      const std::string& workload) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  uint64_t origin = t.spans.empty() ? 0 : t.spans.front().begin_ns;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":%s}}",
               JsonString("perfbench " + workload).c_str());
  for (const SpanRecord& s : t.spans) {
    if (s.doc > kTraceFileDocs) continue;
    std::fprintf(f,
                 ",\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"layer\":%s,"
                 "\"doc\":%" PRIu64 ",\"span\":%" PRIu64 ",\"parent\":%" PRIu64
                 "}}",
                 JsonString(s.name).c_str(), JsonString(s.layer).c_str(),
                 static_cast<double>(s.begin_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
                 JsonString(s.layer).c_str(), s.doc, s.id, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// Self time per span name (duration minus the time its children cover),
// summed over the run.
std::vector<std::pair<std::string, uint64_t>> SelfTimes(const Tracer& t) {
  std::vector<uint64_t> child_ns(t.spans.size(), 0);
  for (const SpanRecord& s : t.spans) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.begin_ns;
  }
  std::vector<std::pair<std::string, uint64_t>> self;
  for (size_t k = 0; k < t.spans.size(); ++k) {
    const SpanRecord& s = t.spans[k];
    uint64_t dur = s.end_ns - s.begin_ns;
    uint64_t own = dur > child_ns[k] ? dur - child_ns[k] : 0;
    auto it = std::find_if(self.begin(), self.end(), [&](const auto& p) {
      return p.first == s.name;
    });
    if (it == self.end()) {
      self.push_back({s.name, own});
    } else {
      it->second += own;
    }
  }
  return self;
}

void RunTraced(Workload& w, const Expected& e, size_t timed_docs,
               const std::string& trace_file, Report* r) {
  const size_t docs = w.docs.size();
  Tracer tracer;
  tracer.on = true;
  tracer.spans.reserve(timed_docs * 64 + w.expressions.size() * 2 + 16);

  // Set-up, with per-call compile / AddQuery durations.
  std::vector<uint64_t> compile_ns;
  std::vector<uint64_t> add_ns;
  Outcome outcome;
  Prepare(&w.docs[0]);
  size_t setup_span = tracer.Begin("setup", "bench", SIZE_MAX, 0);
  System system(w, &compile_ns, &add_ns);
  size_t first = tracer.Begin("first document", "core", setup_span, 0);
  system.Run(w.docs[0].text, &outcome);
  tracer.End(first);
  tracer.End(setup_span);
  ++r->attempted;
  if (!Check(w, e, 0, outcome)) ++r->failed;

  const xml::ParserOptions& options = system.parser_options();
  NoopHandler noop;
  CollectSink sink;
  core::BatchedDispatchOptions budgets;
  xml::EventBatcher batcher(&sink, budgets.max_batch_events,
                            budgets.max_batch_text_bytes);
  auto& symbols = xaos::util::SymbolTable::Global();

  // Best-of-repeats per distinct document, per layer (see BestOf).
  BestOf untraced(docs), traced(docs), parse(docs), capture(docs);
  BestOf replay(docs), result(docs), abort(docs);
  std::vector<uint64_t> doc_bytes(docs), doc_events(docs), doc_batches(docs);
  std::vector<uint64_t> doc_replayed_events(docs);
  uint64_t new_symbols = 0, skipped = 0, engine_elements = 0, items = 0;
  uint64_t elements_total = 0, discarded = 0, created = 0, undone = 0;
  uint64_t live_peak = 0, early = 0, replayed_docs = 0;
  const uint64_t engines = system.engine_count();

  for (size_t i = 0; i < timed_docs; ++i) {
    size_t d = i % docs;
    Document& doc = w.docs[d];
    Prepare(&doc);
    const uint64_t id = i + 1;
    size_t symbols_before = symbols.size();
    doc_bytes[d] = doc.text.size();

    // Production path twice, untraced and traced, alternating the order.
    size_t root = tracer.Begin("document", "bench", SIZE_MAX, id);
    for (int pass = 0; pass < 2; ++pass) {
      if ((pass == 0) == (i % 2 == 0)) {
        size_t prod = tracer.Begin("production path", "pipeline", root, id);
        system.Run(doc.text, &outcome, &tracer, prod, id);
        tracer.End(prod);
        traced.Add(d, outcome.latency_ns);
        if (outcome.code != StatusCode::kOk) {
          abort.Add(d, system.last_abort_ns());
        }
      } else {
        // One span around the whole pass: nothing is recorded inside it.
        size_t prod = tracer.Begin("production path, untraced", "pipeline",
                                   root, id);
        system.Run(doc.text, &outcome);
        tracer.End(prod);
        untraced.Add(d, outcome.latency_ns);
      }
      ++r->attempted;
      if (!Check(w, e, d, outcome)) ++r->failed;
    }

    // xml: count events (this pass also brings the parser back into the
    // cache after the production path), then scan, tokenize and intern
    // into a no-op handler.
    CountingHandler counter;
    size_t s = tracer.Begin("xml.count", "xml", root, id);
    FeedAll(doc.text, &counter, options, nullptr);
    tracer.End(s);
    doc_events[d] = counter.events;
    uint64_t elements = 0;
    s = tracer.Begin("xml.parse", "xml", root, id);
    Status parsed = FeedAll(doc.text, &noop, options, &elements);
    tracer.End(s);
    parse.Add(d, SpanNs(tracer, s));

    // xml: capture into recycled batches (lean when no engine reads text).
    batcher.set_lean_payload(!system.wants_text_events());
    s = tracer.Begin("xml.capture", "xml", root, id);
    Status captured = FeedAll(doc.text, &batcher, options, nullptr);
    tracer.End(s);
    capture.Add(d, SpanNs(tracer, s));
    doc_batches[d] = sink.published.size();
    if (!parsed.ok() || !captured.ok()) {
      sink.Recycle();
      tracer.End(root);
      new_symbols += symbols.size() - symbols_before;
      continue;
    }

    // core: replay the captured batches (parse-free).
    uint64_t skipped_before = system.engines_skipped();
    size_t rs = tracer.Begin("core.replay", "core", root, id);
    uint64_t events = 0;
    for (xml::EventBatch* batch : sink.published) {
      size_t b = tracer.Begin("ReplayBatch", "core", rs, id);
      system.ReplayBatch(*batch);
      tracer.End(b);
      events += batch->event_count();
    }
    tracer.End(rs);
    replay.Add(d, SpanNs(tracer, rs));
    doc_replayed_events[d] = events;
    skipped += system.engines_skipped() - skipped_before;
    engine_elements += engines * elements;
    sink.Recycle();

    // core: result read-out.
    s = tracer.Begin("core.result", "core", root, id);
    system.ReadResults(&outcome);
    tracer.End(s);
    result.Add(d, SpanNs(tracer, s));
    outcome.code = system.evaluator_status().code();
    ++r->attempted;
    if (!Check(w, e, d, outcome)) ++r->failed;
    tracer.End(root);

    core::EngineStats stats = system.stats();
    elements_total += stats.elements_total;
    discarded += stats.elements_discarded;
    created += stats.structures_created;
    undone += stats.structures_undone;
    live_peak += stats.structures_live_peak;
    early += stats.candidates_emitted_early;
    items += system.result_items();
    ++replayed_docs;
    new_symbols += symbols.size() - symbols_before;
  }

  // Per-document means of the best repeats; accepted documents only for
  // the layers that run only on them.
  auto per_doc = [](const BestOf& b, double unit) {
    return Ratio(static_cast<double>(b.Sum()), b.Count() * unit);
  };
  uint64_t bytes = 0, events = 0, batches = 0, replayed_events = 0;
  uint64_t accepted_untraced = 0;
  for (size_t d = 0; d < docs; ++d) {
    bytes += doc_bytes[d];
    events += doc_events[d];
    batches += doc_batches[d];
    replayed_events += doc_replayed_events[d];
    if (w.docs[d].expect == StatusCode::kOk) {
      accepted_untraced += untraced.at(d);
    }
  }
  r->Add("query.compile_us", Percentile(compile_ns, 0.5) / 1e3, "us");
  r->Add("core.add_query_us", Percentile(add_ns, 0.5) / 1e3, "us");
  r->Add("core.first_doc_ms", SpanNs(tracer, first) / 1e6, "ms");
  r->Add("core.shared_states", static_cast<double>(system.shared_states()),
         "count");
  r->Add("core.engines", static_cast<double>(engines), "count");
  r->Add("xml.parse_us_per_doc", per_doc(parse, 1e3), "us");
  r->Add("xml.parse_mb_s", Ratio(bytes, parse.Sum()) * 1e3, "MB/s");
  r->Add("xml.events_per_doc", Ratio(events, docs), "count");
  r->Add("xml.capture_us_per_doc", per_doc(capture, 1e3), "us");
  r->Add("xml.batches_per_doc", Ratio(batches, docs), "count");
  r->Add("util.new_symbols_per_doc", Ratio(new_symbols, timed_docs), "count");
  r->Add("core.replay_us_per_doc", per_doc(replay, 1e3), "us");
  r->Add("core.replay_ns_per_event", Ratio(replay.Sum(), replayed_events),
         "ns");
  r->Add("core.dispatch_skip_ratio", Ratio(skipped, engine_elements),
         "ratio");
  r->Add("core.discarded_ratio", Ratio(discarded, elements_total), "ratio");
  r->Add("core.undone_ratio", Ratio(undone, created), "ratio");
  r->Add("core.structures_live_peak", Ratio(live_peak, replayed_docs),
         "count");
  r->Add("core.early_emit_ratio", Ratio(early, items), "ratio");
  r->Add("core.result_us_per_doc", per_doc(result, 1e3), "us");
  r->Add("core.abort_us", per_doc(abort, 1e3), "us");
  r->Add("trace.explained_ratio",
         Ratio(capture.Sum() + replay.Sum() + result.Sum(), accepted_untraced),
         "ratio");
  r->Add("trace.overhead_pct", (Ratio(traced.Sum(), untraced.Sum()) - 1) * 100,
         "%");

  for (const auto& [name, ns] : SelfTimes(tracer)) {
    r->info.push_back({"self_us_per_doc." + name,
                       JsonNumber(Ratio(ns, timed_docs * 1e3))});
  }
  r->counts.push_back({"timed_docs", static_cast<double>(timed_docs)});
  r->counts.push_back({"xml.events_per_doc", Ratio(events, docs)});
  r->counts.push_back({"xml.batches_per_doc", Ratio(batches, docs)});
  r->counts.push_back({"util.new_symbols_per_doc",
                       Ratio(new_symbols, timed_docs)});
  r->counts.push_back({"core.shared_states",
                       static_cast<double>(system.shared_states())});
  r->counts.push_back({"core.engines", static_cast<double>(engines)});
  r->counts.push_back({"result_items", static_cast<double>(items)});
  r->counts.push_back({"spans", static_cast<double>(tracer.spans.size())});
  if (!trace_file.empty()) WriteChromeTrace(tracer, trace_file, w.name);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool small = false;
  bool fingerprint_only = false;
  std::string trace_file;
  std::vector<std::string> expect;  // SEED:BYTES:HASH
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N --seconds S "
               "--trace 0|1 [--small] [--trace-file PATH] "
               "[--fingerprint-only] [--expect-fingerprint SEED:BYTES:HASH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(Usage());
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atoi(value().c_str());
    } else if (a == "--trace") {
      args.trace = value() == "1";
    } else if (a == "--small") {
      args.small = true;
    } else if (a == "--fingerprint-only") {
      args.fingerprint_only = true;
    } else if (a == "--trace-file") {
      args.trace_file = value();
    } else if (a == "--expect-fingerprint") {
      args.expect.push_back(value());
    } else {
      return Usage();
    }
  }
  if (args.seconds < 1) return Usage();

  Workload w;
  if (!MakeWorkload(args.workload, args.seed, args.small, &w)) return Usage();
  std::string fingerprint = w.ComputeFingerprint().ToString();

  // Pinned inputs: every recorded fingerprint must still reproduce.
  for (const std::string& expect : args.expect) {
    size_t colon = expect.find(':');
    if (colon == std::string::npos) return Usage();
    uint64_t seed = std::strtoull(expect.substr(0, colon).c_str(), nullptr, 10);
    std::string got = fingerprint;
    if (seed != args.seed || args.small) {
      Workload pinned;
      MakeWorkload(args.workload, seed, /*small=*/false, &pinned);
      got = pinned.ComputeFingerprint().ToString();
    }
    if (got != expect.substr(colon + 1)) {
      std::fprintf(stderr,
                   "perfbench: %s inputs for seed %" PRIu64
                   " changed: fingerprint %s, recorded %s; refusing to "
                   "report numbers\n",
                   args.workload.c_str(), seed, got.c_str(),
                   expect.substr(colon + 1).c_str());
      return 3;
    }
  }
  if (args.fingerprint_only) {
    std::printf("{\"fingerprint\":\"%s\"}\n", fingerprint.c_str());
    return 0;
  }
  if (xaos::obs::Enabled() || xaos::obs::flight::Active()) {
    Die("obs must be disabled and the flight recorder unarmed");
  }

  Expected expected = ComputeExpected(w);
  size_t timed = static_cast<size_t>(w.docs_per_second * args.seconds);
  if (args.small) timed = 2 * w.docs.size();
  timed = std::max(timed, w.docs.size());

  Report report;
  AddProvenance(&report);
  report.info.push_back({"workload", w.name});
  report.info.push_back({"seed", std::to_string(args.seed)});
  report.info.push_back({"fingerprint", fingerprint});
  report.counts.push_back({"subscriptions",
                           static_cast<double>(w.expressions.size())});
  report.counts.push_back(
      {"distinct_docs", static_cast<double>(w.docs.size())});
  if (args.trace) {
    RunTraced(w, expected, std::max(w.docs.size(), timed / 4),
              args.trace_file, &report);
  } else {
    RunEndToEnd(w, expected, timed, &report);
  }
  PrintReport(report);
  return report.failed == 0 ? 0 : 1;
}
