#include "core/multi_engine.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <new>
#include <unordered_set>
#include <utility>

#include "dom/dom_replayer.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/timer.h"
#include "query/xtree_builder.h"
#include "util/check.h"
#include "xml/sax_parser.h"

namespace xaos::core {
namespace {

// Unions the results of the engines in [begin, end): document order,
// deduplicated by node id (disjuncts of one query can select the same node;
// ids are comparable across engines because the fleet numbers nodes with
// one shared cursor).
QueryResult MergeResults(const std::vector<std::unique_ptr<XaosEngine>>& engines,
                         size_t begin, size_t end) {
  QueryResult merged;
  std::unordered_set<ElementId> seen;
  for (size_t i = begin; i < end; ++i) {
    const QueryResult& result = engines[i]->result();
    merged.matched = merged.matched || result.matched;
    for (const OutputItem& item : result.items) {
      if (seen.insert(item.info.id).second) {
        merged.items.push_back(item);
      }
    }
  }
  std::sort(merged.items.begin(), merged.items.end(),
            [](const OutputItem& a, const OutputItem& b) {
              return a.info.id < b.info.id;
            });
  return merged;
}

Status FirstError(const std::vector<std::unique_ptr<XaosEngine>>& engines) {
  for (const auto& engine : engines) {
    if (!engine->status().ok()) return engine->status();
  }
  return Status::Ok();
}

// Sums per-engine statistics. Per-document event counts are identical
// across engines (the fleet back-fills filtered elements as discarded);
// report them once. An element counts as discarded if every engine
// discarded it — approximated by the minimum. Structure counts accumulate.
// The arena figures come from the evaluator's shared `arena`: its traffic
// since `arena_baseline` and its slab footprint.
EngineStats SumStats(const std::vector<std::unique_ptr<XaosEngine>>& engines,
                     const util::PoolArena& arena, uint64_t arena_baseline) {
  EngineStats total;
  total.arena_bytes_allocated = arena.bytes_allocated() - arena_baseline;
  total.arena_bytes_reserved = arena.bytes_reserved();
  bool first = true;
  for (const auto& engine : engines) {
    const EngineStats& s = engine->stats();
    total.elements_total = s.elements_total;
    total.elements_discarded =
        first ? s.elements_discarded
              : std::min(total.elements_discarded, s.elements_discarded);
    first = false;
    total.structures_created += s.structures_created;
    total.structures_undone += s.structures_undone;
    total.structures_live += s.structures_live;
    total.structures_live_peak += s.structures_live_peak;
    total.structure_memory.live_bytes += s.structure_memory.live_bytes;
    total.structure_memory.peak_bytes += s.structure_memory.peak_bytes;
    total.propagations += s.propagations;
    total.optimistic_propagations += s.optimistic_propagations;
    total.candidates_emitted_early += s.candidates_emitted_early;
    total.candidates_reclaimed += s.candidates_reclaimed;
  }
  return total;
}

// A one-query evaluator's options: the shared automaton off (see
// StreamingEvaluator).
EngineOptions WithoutSharedIndex(EngineOptions options) {
  options.enable_shared_index = false;
  return options;
}

}  // namespace

// The immutable compiled form every handle to one expression shares.
struct Query::Compiled : std::enable_shared_from_this<Compiled> {
  Compiled() = default;
  // The table links each form by address.
  Compiled(const Compiled&) = delete;
  Compiled& operator=(const Compiled&) = delete;
  ~Compiled();  // leaves the compile table (Compile forms only)

  std::string expression;
  int max_paths = 0;
  bool in_table = false;  // false: built by FromTrees
  size_t hash = 0;  // of expression and max_paths
  Compiled* next = nullptr;  // the compile table's bucket chain
  // Shared so evaluators can keep the trees alive independently of the
  // compiled form's lifetime.
  std::shared_ptr<const std::vector<query::XTree>> trees;
};

// The process-wide compile table: every live compiled form, chained
// through `Compiled::next` from a power-of-two bucket array. A form is
// linked from its compile until its destructor unlinks it, so the table
// holds no reference: the callers' handles own the forms. One mutex
// guards it (queries may compile on several threads); no form is ever
// destroyed while it is held, since a form's destructor takes it.
struct Query::CompileTable {
  // The first bucket array: 256 pointers (2 KB), so growth starts at a
  // useful size and the arrays it frees are too large for glibc's
  // per-thread cache (1,032 bytes at most), where freed blocks would
  // still read as in use.
  static constexpr size_t kMinBuckets = 256;

  // Built in static storage and never destroyed: a handle may outlive
  // static destruction, and an empty table then holds no heap at all.
  static CompileTable& Get() {
    alignas(CompileTable) static unsigned char storage[sizeof(CompileTable)];
    static CompileTable* table = new (storage) CompileTable();
    return *table;
  }

  static size_t Hash(std::string_view expression, int max_paths) {
    return std::hash<std::string_view>()(expression) ^
           static_cast<size_t>(max_paths);
  }

  Compiled** Head(size_t hash) {
    return &buckets[hash & (buckets.size() - 1)];
  }

  // A live form of the key, or null. A form whose last handle is gone
  // (its destructor waits for the lock) is skipped.
  std::shared_ptr<const Compiled> Find(std::string_view expression,
                                       int max_paths, size_t hash) {
    if (buckets.empty()) return nullptr;
    for (Compiled* c = *Head(hash); c != nullptr; c = c->next) {
      if (c->hash != hash || c->max_paths != max_paths ||
          c->expression != expression) {
        continue;
      }
      if (std::shared_ptr<const Compiled> live = c->weak_from_this().lock()) {
        return live;
      }
    }
    return nullptr;
  }

  // Links a new form, doubling the bucket array first when the load
  // would pass one form per bucket.
  void Link(Compiled* c) {
    if (size == buckets.size()) {
      std::vector<Compiled*> old = std::exchange(
          buckets, std::vector<Compiled*>(std::max(kMinBuckets, 2 * size)));
      for (Compiled* chain : old) {
        while (chain != nullptr) {
          Compiled* next = chain->next;
          Compiled** head = Head(chain->hash);
          chain->next = *head;
          *head = chain;
          chain = next;
        }
      }
    }
    Compiled** head = Head(c->hash);
    c->next = *head;
    *head = c;
    ++size;
  }

  void Unlink(Compiled* c) {
    Compiled** link = Head(c->hash);
    while (*link != c) link = &(*link)->next;
    *link = c->next;
    // Hand the bucket array back once nothing is compiled.
    if (--size == 0) std::vector<Compiled*>().swap(buckets);
  }

  std::mutex mutex;
  std::vector<Compiled*> buckets;
  size_t size = 0;
};

StatusOr<Query> Query::Compile(std::string_view xpath, int max_paths) {
  // A miss compiles under the lock, so concurrent compiles of one text
  // build it once.
  const size_t hash = CompileTable::Hash(xpath, max_paths);
  CompileTable& table = CompileTable::Get();
  std::lock_guard<std::mutex> lock(table.mutex);
  if (std::shared_ptr<const Compiled> live =
          table.Find(xpath, max_paths, hash)) {
    return Query(std::move(live));
  }
  XAOS_ASSIGN_OR_RETURN(std::vector<query::XTree> trees,
                        query::CompileToXTrees(xpath, max_paths));
  auto compiled = std::make_shared<Compiled>();
  compiled->expression.assign(xpath);
  compiled->max_paths = max_paths;
  compiled->hash = hash;
  compiled->trees =
      std::make_shared<const std::vector<query::XTree>>(std::move(trees));
  table.Link(compiled.get());
  // Only now: a form dropped while the lock is held (Link failing to
  // grow the buckets) must not take the lock again.
  compiled->in_table = true;
  return Query(std::move(compiled));
}

Query::Compiled::~Compiled() {
  if (!in_table) return;
  CompileTable& table = CompileTable::Get();
  std::lock_guard<std::mutex> lock(table.mutex);
  table.Unlink(this);
}

const std::string& Query::expression() const {
  return compiled_->expression;
}

const std::vector<query::XTree>& Query::trees() const {
  return *compiled_->trees;
}

Query Query::FromTrees(std::vector<query::XTree> trees,
                       std::string expression) {
  auto compiled = std::make_shared<Compiled>();
  compiled->expression = std::move(expression);
  compiled->trees =
      std::make_shared<const std::vector<query::XTree>>(std::move(trees));
  return Query(std::move(compiled));
}

MultiQueryEvaluator::MultiQueryEvaluator(EngineOptions options,
                                         BatchedDispatchOptions batching)
    : xml::EventBatcher(this, batching.max_batch_events,
                        batching.max_batch_text_bytes),
      options_(options),
      // Subtree capture and live-structure limits are per-engine semantics
      // the merged automaton does not reproduce; such pools stay on the
      // per-engine path wholesale.
      shared_enabled_(options.enable_shared_index &&
                      !options.capture_output_subtrees &&
                      options.max_live_structures == 0) {}

size_t MultiQueryEvaluator::AddQuery(const Query& query,
                                     std::string_view label) {
  const uint32_t q = static_cast<uint32_t>(routes_.size());
  XAOS_CHECK(q < kEngineRoute) << "too many queries for a route word";
  if (!label.empty()) labels_.emplace_back(q, label);

  // Byte-identical repeat of an earlier expression: alias its verdicts, add
  // no matching state and hold no trees. Compositions without an expression
  // (FromTrees) can have distinct trees behind an empty string, so they
  // never alias.
  if (!query.expression().empty()) {
    auto [it, inserted] = by_expression_.try_emplace(query.expression(), q);
    if (!inserted) {
      const size_t canonical = it->second;
      const uint32_t route = routes_[canonical];
      ++alias_subscriptions_;
      if ((route & kEngineRoute) == 0) ++shared_subscriptions_;
      routes_.push_back(route);
      next_alias_.push_back(next_alias_[canonical]);
      next_alias_[canonical] = q;
      return q;
    }
  }

  // The shared builder copies a chain into its trie, so a shared query
  // holds no trees either; only engines point into a query's trees.
  const std::vector<query::XTree>& trees = query.trees();
  if (shared_enabled_ && SharedIndexBuilder::Shareable(trees)) {
    const uint32_t shared_id = shared_builder_.AddSubscription(trees);
    shared_queries_.push_back(q);
    ++shared_subscriptions_;
    routes_.push_back(shared_id);
    next_alias_.push_back(kNoQuery);
    return q;
  }

  const uint32_t begin = static_cast<uint32_t>(engines_.size());
  for (const query::XTree& tree : trees) {
    engines_.push_back(
        std::make_unique<XaosEngine>(&tree, options_, &arena_));
    fleet_.AddEngine(engines_.back().get());
  }
  const uint32_t record = static_cast<uint32_t>(engine_records_.size());
  engine_records_.push_back(EngineRecord{
      q, begin, static_cast<uint32_t>(engines_.size()),
      query.compiled_->trees});
  routes_.push_back(kEngineRoute | record);
  next_alias_.push_back(kNoQuery);
  return q;
}

std::string MultiQueryEvaluator::query_label(size_t q) const {
  auto it = std::lower_bound(
      labels_.begin(), labels_.end(), q,
      [](const std::pair<uint32_t, std::string>& entry, size_t query) {
        return entry.first < query;
      });
  if (it != labels_.end() && it->first == q) return it->second;
  return "q" + std::to_string(q);
}

void MultiQueryEvaluator::EnsureSharedIndex() {
  if (shared_built_for_ == shared_builder_.subscription_count()) return;
  shared_built_for_ = shared_builder_.subscription_count();
  shared_index_ = shared_builder_.Build();
  shared_matcher_ = std::make_unique<SharedMatcher>(
      shared_index_.get(), options_.stop_after_confirmed_match);
  fleet_.AttachSharedMatcher(shared_matcher_.get());
}

void MultiQueryEvaluator::StartDocument() {
  writer_.set_lean_payload(!wants_text_events());
  writer_.set_element_interest(element_interest());
  writer_.StartDocument();
  elided_base_ = writer_.events_elided();
}

void MultiQueryEvaluator::EndDocument() {
  writer_.EndDocument();
  ExportElided();
}

void MultiQueryEvaluator::AbortDocument(const Status& cause) {
  // Publishes the current batch with the abort marker (discarded by
  // PublishBatch), then resets the dispatch state. Order matters: the
  // writer must let go of its in-flight batch before the next document
  // starts filling a new one.
  writer_.AbortDocument();
  abort_status_ =
      cause.ok() ? InternalError("document aborted without a cause") : cause;
  fleet_.AbortDocument();
  ExportElided();
}

void MultiQueryEvaluator::ExportElided() {
  if (!obs::Enabled()) return;
  const uint64_t elided = writer_.events_elided();
  static obs::Counter* counter = obs::MetricsRegistry::Default().GetCounter(
      "xaos_capture_events_elided_total");
  counter->Increment(elided - elided_base_);
  elided_base_ = elided;
}

xml::EventBatch* MultiQueryEvaluator::AcquireBatch() {
  if (free_.empty()) {
    pool_.push_back(std::make_unique<xml::EventBatch>());
    return pool_.back().get();
  }
  xml::EventBatch* batch = free_.back();
  free_.pop_back();
  return batch;
}

void MultiQueryEvaluator::ReleaseToPool(xml::EventBatch* batch) {
  // Guard against double-release: an AbortDocument firing while the batch
  // is mid-publish (abort cause raised by replay-side observers) would
  // publish the same pointer again; a duplicate free-list entry would hand
  // one batch to two writers later.
  if (std::find(free_.begin(), free_.end(), batch) != free_.end()) return;
  batch->Clear();
  free_.push_back(batch);
}

void MultiQueryEvaluator::PublishBatch(xml::EventBatch* batch) {
  if (batch->aborts_document()) {
    // Partial capture of an abandoned document: never replay it.
    // AbortDocument, our caller, does the bookkeeping.
    ReleaseToPool(batch);
    return;
  }
  batch->set_sequence(++sequence_);
  ReplayBatch(*batch, &attr_scratch_);
  ++batches_replayed_;
  ReleaseToPool(batch);
}

void MultiQueryEvaluator::BeginDocument() {
  abort_status_ = Status::Ok();
  if (obs::Enabled() || obs::flight::Active()) {
    ++doc_ordinal_;
    doc_begin_ns_ = obs::NowNs();
  }
  EnsureSharedIndex();
  live_queries_ = routes_.size();
  // Before the engines reset: their Root structures count as this
  // document's traffic.
  arena_baseline_ = arena_.bytes_allocated();
  fleet_.StartDocument();
}

void MultiQueryEvaluator::FinishDocument() {
  fleet_.EndDocument();
  if (obs::Enabled() || obs::flight::Active()) FinishDocumentObservability();
}

obs::MetricsRegistry& MultiQueryEvaluator::metrics_registry() const {
  return options_.metrics_registry != nullptr
             ? *options_.metrics_registry
             : obs::MetricsRegistry::Default();
}

bool MultiQueryEvaluator::MatchedWithConfirm(size_t q,
                                             uint64_t* confirm_ns) const {
  const uint32_t route = routes_[q];
  if ((route & kEngineRoute) == 0) {
    if (!shared_matcher_->Matched(route)) return false;
    *confirm_ns = shared_matcher_->confirm_ns(route);
    return true;
  }
  // Earliest confirmation across the query's disjunct engines; a query
  // matched if any healthy engine matched.
  const EngineRecord& record = engine_records_[route & ~kEngineRoute];
  uint64_t confirm = 0;
  bool matched = false;
  for (size_t i = record.begin; i < record.end; ++i) {
    const XaosEngine& engine = *engines_[i];
    if (!engine.status().ok() || !engine.result().matched) continue;
    matched = true;
    uint64_t c = engine.match_confirm_ns();
    if (c != 0 && (confirm == 0 || c < confirm)) confirm = c;
  }
  *confirm_ns = confirm;
  return matched;
}

void MultiQueryEvaluator::ExportSharedMetrics(
    obs::MetricsRegistry* registry) const {
  if (shared_index_ == nullptr) return;
  registry->GetGauge("xaos_shared_states_total")
      ->Set(static_cast<int64_t>(shared_index_->state_count()));
  registry->GetGauge("xaos_shared_subscriptions_total")
      ->Set(static_cast<int64_t>(shared_subscriptions_));
  // Per-mille of per-subscription chain nodes that survived as distinct
  // states (gauges are integral): 1000 = nothing shared.
  registry->GetGauge("xaos_shared_state_ratio_permille")
      ->Set(shared_index_->SharingRatioPermille());
  if (shared_matcher_ != nullptr) {
    // Engine deliveries a per-subscription fan-out would have performed
    // minus the automaton states actually touched, cumulative.
    const uint64_t fanout = shared_matcher_->elements_total() *
                            shared_index_->subscription_count();
    const uint64_t touched = shared_matcher_->states_entered_total();
    const uint64_t saved = fanout > touched ? fanout - touched : 0;
    if (saved > dispatch_saved_exported_) {
      registry->GetCounter("xaos_shared_dispatch_saved_total")
          ->Increment(saved - dispatch_saved_exported_);
      dispatch_saved_exported_ = saved;
    }
  }
}

void MultiQueryEvaluator::FinishDocumentObservability() {
  const uint64_t end_ns = obs::NowNs();
  const EngineStats stats = AggregateStats();
  if (obs::Enabled()) {
    obs::MetricsRegistry& registry = metrics_registry();
    ExportSharedMetrics(&registry);
    for (const size_t q : MatchedQueries()) {
      uint64_t confirm = 0;
      if (!MatchedWithConfirm(q, &confirm)) continue;
      auto [it, inserted] =
          latency_series_.try_emplace(static_cast<uint32_t>(q));
      LatencySeries& series = it->second;
      if (inserted) {
        std::string labels =
            "{subscription=\"" + obs::JsonEscape(query_label(q)) + "\"}";
        series.match_latency =
            registry.GetHistogram("xaos_sub_match_latency_ns" + labels);
        series.first_match =
            registry.GetHistogram("xaos_sub_first_match_ns" + labels);
      }
      uint64_t latency = end_ns > doc_begin_ns_ ? end_ns - doc_begin_ns_ : 0;
      series.match_latency->Record(latency);
      series.first_match->Record(confirm > doc_begin_ns_
                                     ? confirm - doc_begin_ns_
                                     : latency);
    }
    registry.GetGauge("xaos_buffered_candidates_peak")
        ->SetMax(static_cast<int64_t>(stats.structures_live_peak));
    registry.GetGauge("xaos_arena_bytes_peak")
        ->SetMax(static_cast<int64_t>(stats.structure_memory.peak_bytes));
  }
  if (obs::flight::Active()) {
    obs::flight::Span span;
    span.kind = obs::flight::SpanKind::kDocument;
    span.begin_ns = doc_begin_ns_ != 0 ? doc_begin_ns_ : end_ns;
    span.end_ns = end_ns;
    span.doc = doc_ordinal_;
    span.value = static_cast<int64_t>(engines_.size());
    obs::flight::Emit(span);
    obs::flight::Span sample;
    sample.kind = obs::flight::SpanKind::kCounter;
    sample.begin_ns = end_ns;
    sample.end_ns = end_ns;
    sample.doc = doc_ordinal_;
    sample.value = static_cast<int64_t>(stats.structures_live_peak);
    sample.value2 = static_cast<int64_t>(stats.structure_memory.peak_bytes);
    obs::flight::Emit(sample);
  }
}

// Document-boundary records run the per-document reset and finalization;
// maximal interior runs go through the fleet's ReplayRun loop. One kReplay
// flight span covers the whole batch, and the batch counts into
// xaos_dispatch_batches_total.
void MultiQueryEvaluator::ReplayBatch(
    const xml::EventBatch& batch,
    std::vector<xml::AttributeView>* attr_scratch) {
  const std::vector<xml::BatchedEvent>& events = batch.events();
  obs::flight::ScopedSpan replay_span(obs::flight::SpanKind::kReplay);
  if (replay_span.active()) {
    replay_span.span()->batch = batch.sequence();
    // A batch opening a document belongs to the document it opens.
    uint64_t doc = doc_ordinal_;
    if (!events.empty() &&
        events.front().kind == xml::BatchedEvent::Kind::kStartDocument) {
      ++doc;
    }
    replay_span.span()->doc = doc;
    replay_span.span()->value = static_cast<int64_t>(batch.event_count());
  }
  const size_t n = events.size();
  size_t i = 0;
  while (i < n) {
    const xml::BatchedEvent::Kind kind = events[i].kind;
    if (kind == xml::BatchedEvent::Kind::kStartDocument) {
      BeginDocument();
      ++i;
      continue;
    }
    if (kind == xml::BatchedEvent::Kind::kEndDocument) {
      FinishDocument();
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < n &&
           events[j].kind != xml::BatchedEvent::Kind::kStartDocument &&
           events[j].kind != xml::BatchedEvent::Kind::kEndDocument) {
      ++j;
    }
    fleet_.ReplayRun(batch, i, j, attr_scratch);
    i = j;
  }
  if (obs::Enabled()) {
    static obs::Counter* batches = obs::MetricsRegistry::Default().GetCounter(
        "xaos_dispatch_batches_total");
    batches->Increment();
  }
}

xml::ProjectionFilter* MultiQueryEvaluator::projection_filter() {
  return projection_spec().keep_all ? nullptr : &gate_;
}

const query::ProjectionSpec& MultiQueryEvaluator::projection_spec() const {
  if (gate_built_for_ != routes_.size()) {
    gate_built_for_ = routes_.size();
    query::ProjectionSpec spec;
    if (options_.capture_output_subtrees) {
      spec =
          query::ProjectionSpec::KeepAll("subtree capture needs every event");
    } else {
      // One trie walk covers every shared subscription; aliases need no
      // projection of their own (their canonical query contributes it).
      if (shared_builder_.subscription_count() > 0) {
        spec.UnionWith(shared_builder_.AnalyzeProjection());
      }
      for (const EngineRecord& record : engine_records_) {
        if (spec.keep_all) break;
        spec.UnionWith(query::ProjectionSpec::Analyze(*record.trees));
      }
    }
    // Counted per analysis of a query set, so evaluators that adopt the
    // spec (AdoptProjectionSpec) do not count it again.
    if (spec.keep_all && obs::Enabled()) {
      obs::MetricsRegistry::Default()
          .GetCounter("xaos_projection_disabled_total")
          ->Increment();
    }
    gate_.SetSpec(std::move(spec));
  }
  return gate_.spec();
}

void MultiQueryEvaluator::AdoptProjectionSpec(
    const MultiQueryEvaluator& other) {
  XAOS_CHECK_EQ(other.query_count(), routes_.size())
      << "an adopted projection must cover the same query set";
  gate_.SetSpec(other.projection_spec());
  gate_built_for_ = routes_.size();
}

Status MultiQueryEvaluator::status() const {
  if (!abort_status_.ok()) return abort_status_;
  return FirstError(engines_);
}

bool MultiQueryEvaluator::EngineMatched(uint32_t record) const {
  const EngineRecord& r = engine_records_[record];
  for (size_t i = r.begin; i < r.end; ++i) {
    if (engines_[i]->result().matched) return true;
  }
  return false;
}

bool MultiQueryEvaluator::EngineConfirmed(uint32_t record) const {
  const EngineRecord& r = engine_records_[record];
  for (size_t i = r.begin; i < r.end; ++i) {
    if (engines_[i]->match_confirmed()) return true;
  }
  return false;
}

QueryResult MultiQueryEvaluator::Result(size_t q) const {
  if (q >= live_queries_) return QueryResult{};
  const uint32_t route = routes_[q];
  if ((route & kEngineRoute) == 0) return shared_matcher_->Result(route);
  const EngineRecord& record = engine_records_[route & ~kEngineRoute];
  return MergeResults(engines_, record.begin, record.end);
}

void MultiQueryEvaluator::AppendWithAliases(uint32_t canonical,
                                            std::vector<size_t>* out) const {
  for (uint32_t q = canonical; q != kNoQuery; q = next_alias_[q]) {
    if (q < live_queries_) out->push_back(q);
  }
}

std::vector<size_t> MultiQueryEvaluator::MatchedQueries() const {
  std::vector<size_t> matched;
  if (shared_matcher_ != nullptr) {
    for (const uint32_t sub : shared_matcher_->confirmed_subs()) {
      if (shared_matcher_->Matched(sub)) {
        AppendWithAliases(shared_queries_[sub], &matched);
      }
    }
  }
  for (uint32_t r = 0; r < engine_records_.size(); ++r) {
    const uint32_t q = engine_records_[r].query;
    if (q < live_queries_ && EngineMatched(r)) AppendWithAliases(q, &matched);
  }
  std::sort(matched.begin(), matched.end());
  return matched;
}

EngineStats MultiQueryEvaluator::AggregateStats() const {
  return SumStats(engines_, arena_, arena_baseline_);
}

void MultiQueryEvaluator::ExportMetrics(obs::MetricsRegistry* registry) const {
  AggregateStats().ToMetrics(registry);
  ExportSharedMetrics(registry);
}

StreamingEvaluator::StreamingEvaluator(const Query& query,
                                       EngineOptions options)
    : MultiQueryEvaluator(WithoutSharedIndex(options)) {
  AddQuery(query);
}

StatusOr<QueryResult> EvaluateStreaming(std::string_view xpath,
                                        std::string_view xml_text,
                                        EngineOptions options) {
  XAOS_ASSIGN_OR_RETURN(Query query, Query::Compile(xpath));
  StreamingEvaluator evaluator(query, options);
  XAOS_RETURN_IF_ERROR(xml::ParseString(xml_text, &evaluator));
  XAOS_RETURN_IF_ERROR(evaluator.status());
  return evaluator.Result();
}

StatusOr<QueryResult> EvaluateOnDocument(std::string_view xpath,
                                         const dom::Document& document,
                                         EngineOptions options) {
  XAOS_ASSIGN_OR_RETURN(Query query, Query::Compile(xpath));
  StreamingEvaluator evaluator(query, options);
  dom::ReplayDocument(document, &evaluator);
  XAOS_RETURN_IF_ERROR(evaluator.status());
  return evaluator.Result();
}

}  // namespace xaos::core
