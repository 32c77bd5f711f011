// Document-parallel routing throughput: a stream of documents routed
// through core::ParallelRouter at 1, 2 and 4 workers, against the
// sequential production path — one MultiQueryEvaluator, projection on —
// over the same stream. Three pool
// shapes, one per regime the pub/sub path meets:
//
//   xmark   1k label-driven templates + never-matching synthetic
//           subscriptions over XMark documents at scale 0.01;
//   zipf    a 10k Zipf-popularity pool (shared automaton) over XMark
//           documents at scale 0.001;
//   random  300 distinct random 6-node-test queries over a 26-name
//           alphabet (per-engine dispatch) over documents generated for
//           them.
//
// Every routed document's verdicts and items are checked against the
// sequential run; any divergence fails the run (exit 1). Per row: docs/s
// over the timed passes (median, quartiles and best), set-up time
// (construction plus AddQuery), the untimed first pass (each worker builds
// its indices on its first document), and held heap: heap in use
// (mallinfo2) with the router still alive after the run, minus before it
// was built. Scaling needs real cores: the run records the cores it may
// use (sched_getaffinity) next to hardware_concurrency.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "bench_random_workload.h"
#include "bench_util.h"
#include "xaos.h"

namespace {

using namespace xaos;

// Same template pool as bench_multi_query: label-driven templates over the
// XMark vocabulary interleaved with never-matching synthetic subscriptions.
const char* const kTemplates[] = {
    "/site/regions//item/name",
    "//person/name",
    "//open_auction/bidder/personref",
    "//category/description",
    "//item[payment]/name",
    "//closed_auction/seller",
    "//listitem/text",
    "//catgraph/edge",
    "//mail/text",
    "//item/incategory",
    "//watches/watch",
    "//annotation/description",
};

struct Pool {
  std::string name;
  std::vector<std::string> expressions;
  std::vector<std::string> documents;
};

std::vector<std::string> XMarkDocuments(double scale, int count) {
  std::vector<std::string> documents;
  for (int i = 0; i < count; ++i) {
    gen::XMarkOptions options;
    options.scale = scale;
    options.seed = 1000 + static_cast<uint64_t>(i);
    documents.push_back(gen::GenerateXMark(options));
  }
  return documents;
}

Pool MakeTemplatePool(int subs, int docs) {
  Pool pool{"xmark", {}, XMarkDocuments(0.01, docs)};
  constexpr int kNumTemplates =
      static_cast<int>(sizeof(kTemplates) / sizeof(kTemplates[0]));
  for (int i = 0; i < subs; ++i) {
    pool.expressions.push_back(
        i % 2 == 0 ? std::string(kTemplates[(i / 2) % kNumTemplates])
                   : "//inbox_rule_" + std::to_string(i) + "/name");
  }
  return pool;
}

Pool MakeZipfPool(int subs, int docs) {
  bench::ZipfPoolOptions options;
  options.subs = subs;
  return Pool{"zipf", bench::MakeZipfSubscriptionPool(options),
              XMarkDocuments(0.001, docs)};
}

Pool MakeRandomPool(int subs, int docs) {
  Pool pool{"random", {}, {}};
  std::mt19937_64 rng(42);
  gen::RandomQueryOptions query_options;
  query_options.alphabet = 26;
  std::vector<xpath::LocationPath> paths;
  std::set<std::string> seen;
  while (static_cast<int>(pool.expressions.size()) < subs) {
    xpath::LocationPath path = gen::GenerateRandomPath(query_options, rng);
    std::string expression = xpath::ToString(path);
    if (!seen.insert(expression).second) continue;  // no aliases
    pool.expressions.push_back(std::move(expression));
    paths.push_back(std::move(path));
  }
  gen::RandomDocOptions doc_options;
  doc_options.alphabet = query_options.alphabet;
  doc_options.target_elements = 2000;
  for (int i = 0; i < docs; ++i) {
    StatusOr<std::string> text = gen::GenerateDocumentForPath(
        paths[static_cast<size_t>(i) % paths.size()], doc_options, rng);
    if (!text.ok()) {
      std::fprintf(stderr, "document generation failed: %s\n",
                   text.status().ToString().c_str());
      std::exit(1);
    }
    pool.documents.push_back(std::move(*text));
  }
  return pool;
}

// Heap bytes in use, summed over every malloc arena (glibc).
uint64_t HeapInUse() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<uint64_t>(info.uordblks) +
         static_cast<uint64_t>(info.hblkhd);
}

// FNV-1a digest of one document's outcome: its status, the matched queries
// and every matched query's result items.
uint64_t Digest(const core::MultiQueryEvaluator& evaluator) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  mix(static_cast<uint64_t>(evaluator.status().code()));
  if (!evaluator.status().ok()) return hash;
  for (size_t q : evaluator.MatchedQueries()) {
    mix(q);
    for (const core::OutputItem& item : evaluator.Result(q).items) {
      mix(item.info.id);
    }
  }
  return hash;
}

using Outcome =
    std::function<void(size_t document, const core::MultiQueryEvaluator&)>;

// An execution mode, set up over a pool: Pass routes every document once
// and hands each outcome to `outcome` in document order.
class Mode {
 public:
  virtual ~Mode() = default;
  virtual void Pass(const std::vector<std::string>& documents,
                    const Outcome& outcome) = 0;
};

// The sequential production path.
class Sequential : public Mode {
 public:
  explicit Sequential(const std::vector<core::Query>& queries) {
    for (const core::Query& query : queries) evaluator_.AddQuery(query);
    options_.projection_filter = evaluator_.projection_filter();
  }

  void Pass(const std::vector<std::string>& documents,
            const Outcome& outcome) override {
    for (size_t d = 0; d < documents.size(); ++d) {
      Status status = xml::ParseString(documents[d], &evaluator_, options_);
      if (!status.ok()) evaluator_.AbortDocument(status);
      outcome(d, evaluator_);
    }
  }

 private:
  core::MultiQueryEvaluator evaluator_;
  xml::ParserOptions options_;
};

// The document-parallel router.
class Routed : public Mode {
 public:
  Routed(const std::vector<core::Query>& queries, int workers)
      : router_(workers,
                [this](size_t d, const core::MultiQueryEvaluator& e) {
                  (*outcome_)(d - base_, e);
                }) {
    for (const core::Query& query : queries) router_.AddQuery(query);
  }

  void Pass(const std::vector<std::string>& documents,
            const Outcome& outcome) override {
    outcome_ = &outcome;
    for (const std::string& document : documents) {
      router_.Submit(document);
    }
    router_.Drain();
    base_ += documents.size();
  }

  size_t workers() const { return router_.worker_count(); }

 private:
  const Outcome* outcome_ = nullptr;
  size_t base_ = 0;  // submission index of this pass's first document
  core::ParallelRouter router_;
};

struct Measurement {
  std::vector<double> docs_per_s;  // one per timed pass
  double setup_s = 0;
  double first_pass_s = 0;
  double held_mb = 0;
  uint64_t matched = 0;  // deliveries per pass
};

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = at - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// Sets a mode up with `make`, runs one untimed pass that records (or, with
// `expected` filled, checks) each document's digest, then `repetitions`
// timed passes. Returns false on a digest mismatch.
bool Measure(const Pool& pool, int repetitions,
             const std::function<std::unique_ptr<Mode>()>& make,
             std::vector<uint64_t>* expected, Measurement* out,
             const std::string& label) {
  const uint64_t heap_before = HeapInUse();
  std::unique_ptr<Mode> mode;
  out->setup_s = bench::TimeSeconds([&] { mode = make(); });

  const bool record = expected->empty();
  bool ok = true;
  const Outcome check = [&](size_t d, const core::MultiQueryEvaluator& e) {
    const uint64_t digest = Digest(e);
    if (record) {
      expected->push_back(digest);
    } else if (digest != (*expected)[d]) {
      if (ok) {
        std::fprintf(stderr, "OUTCOME MISMATCH: %s, document %zu\n",
                     label.c_str(), d);
      }
      ok = false;
    }
  };
  out->first_pass_s =
      bench::TimeSeconds([&] { mode->Pass(pool.documents, check); });

  // Timed passes read what a router delivers: the matched queries.
  uint64_t matched = 0;
  const Outcome deliver = [&](size_t, const core::MultiQueryEvaluator& e) {
    matched += e.MatchedQueries().size();
  };
  const double docs = static_cast<double>(pool.documents.size());
  for (int rep = 0; rep < repetitions; ++rep) {
    matched = 0;
    const double seconds =
        bench::TimeSeconds([&] { mode->Pass(pool.documents, deliver); });
    out->docs_per_s.push_back(docs / seconds);
  }
  out->matched = matched;
  out->held_mb =
      static_cast<double>(static_cast<int64_t>(HeapInUse() - heap_before)) /
      (1 << 20);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  int repetitions = flags.GetInt("repetitions", 10);
  int docs = flags.GetInt("docs", 16);
  int max_subs = flags.GetInt("max-subs", 10000);
  int max_workers = flags.GetInt("max-workers", 4);
  std::string json_out = flags.GetString("json-out", "");
  flags.FailOnUnknown();
  repetitions = std::max(repetitions, 1);
  docs = std::max(docs, 1);

  bench::BenchReporter reporter("parallel_fleet");
  reporter.SetParam("repetitions", repetitions);
  reporter.SetParam("docs", docs);
  reporter.SetParam("max-subs", max_subs);
  reporter.SetParam("max-workers", max_workers);
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const int cpus =
      sched_getaffinity(0, sizeof(allowed), &allowed) == 0 ? CPU_COUNT(&allowed)
                                                           : 0;
  reporter.SetParam("cpus_allowed", cpus);

  std::printf("Document-parallel routing: %d documents per pool, %d timed "
              "passes per row, %d CPUs allowed\n\n",
              docs, repetitions, cpus);
  std::printf("%-28s %-8s %-10s %-18s %-9s %-9s %-8s %-8s\n", "configuration",
              "workers", "docs/s", "q1..q3", "setup(s)", "first(s)",
              "held MB", "speedup");
  bench::Rule(7);

  const std::vector<Pool> pools = {
      MakeTemplatePool(std::min(max_subs, 1000), docs),
      MakeZipfPool(std::min(max_subs, 10000), docs),
      MakeRandomPool(std::min(max_subs, 300), docs),
  };
  for (const Pool& pool : pools) {
    std::vector<core::Query> queries;
    for (const std::string& expression : pool.expressions) {
      StatusOr<core::Query> query = core::Query::Compile(expression);
      if (!query.ok()) {
        std::fprintf(stderr, "compile failed: %s\n",
                     query.status().ToString().c_str());
        return 1;
      }
      queries.push_back(std::move(*query));
    }
    double megabytes = 0;
    for (const std::string& document : pool.documents) {
      megabytes += static_cast<double>(document.size()) / (1 << 20);
    }

    std::vector<uint64_t> expected;
    double sequential_median = 0;
    for (int workers : {0, 1, 2, 4}) {
      if (workers > max_workers) break;
      char label[64];
      if (workers == 0) {
        std::snprintf(label, sizeof(label), "%s/subs=%zu/sequential",
                      pool.name.c_str(), queries.size());
      } else {
        std::snprintf(label, sizeof(label), "%s/subs=%zu/w=%d",
                      pool.name.c_str(), queries.size(), workers);
      }
      size_t actual_workers = 1;
      Measurement m;
      const bool ok = Measure(
          pool, repetitions,
          [&]() -> std::unique_ptr<Mode> {
            if (workers == 0) return std::make_unique<Sequential>(queries);
            auto routed = std::make_unique<Routed>(queries, workers);
            actual_workers = routed->workers();
            return routed;
          },
          &expected, &m, label);
      if (!ok) return 1;

      const double median = Quantile(m.docs_per_s, 0.5);
      if (workers == 0) sequential_median = median;
      const double speedup =
          sequential_median > 0 ? median / sequential_median : 0.0;
      char spread[32];
      std::snprintf(spread, sizeof(spread), "%.0f..%.0f",
                    Quantile(m.docs_per_s, 0.25), Quantile(m.docs_per_s, 0.75));
      std::printf("%-28s %-8zu %-10.1f %-18s %-9.4f %-9.4f %-8.2f %-8.2f\n",
                  label, actual_workers, median, spread, m.setup_s,
                  m.first_pass_s, m.held_mb, speedup);

      std::vector<double> pass_s;
      for (double rate : m.docs_per_s) {
        pass_s.push_back(static_cast<double>(pool.documents.size()) / rate);
      }
      reporter.AddResult(label, bench::Summarize(pass_s), megabytes);
      reporter.AddResultMetric("subscriptions",
                               static_cast<double>(queries.size()));
      reporter.AddResultMetric("documents",
                               static_cast<double>(pool.documents.size()));
      reporter.AddResultMetric(
          "workers", static_cast<double>(workers == 0 ? 0 : actual_workers));
      reporter.AddResultMetric("docs_per_s_median", median);
      reporter.AddResultMetric("docs_per_s_q1", Quantile(m.docs_per_s, 0.25));
      reporter.AddResultMetric("docs_per_s_q3", Quantile(m.docs_per_s, 0.75));
      reporter.AddResultMetric("docs_per_s_best", Quantile(m.docs_per_s, 1.0));
      reporter.AddResultMetric("setup_s", m.setup_s);
      reporter.AddResultMetric("first_pass_s", m.first_pass_s);
      reporter.AddResultMetric("held_mb", m.held_mb);
      reporter.AddResultMetric("matched_per_pass",
                               static_cast<double>(m.matched));
      reporter.AddResultMetric("speedup_vs_sequential", speedup);
    }
  }

  if (!json_out.empty() && !reporter.WriteJson(json_out)) return 1;

  std::printf("\nShape check: every routed document's verdicts and items "
              "equal the sequential run's; docs/s grows with workers up to "
              "the allowed CPUs.\n");
  return 0;
}
