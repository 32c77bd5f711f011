#include "core/multi_engine.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/batched_dispatch.h"

#include "dom/dom_replayer.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "query/xtree_builder.h"
#include "util/check.h"
#include "xml/sax_parser.h"

namespace xaos::core {
namespace {

// Shared end-of-document observability: folds candidate/arena high-water
// marks into `registry` (null = metrics off) and emits the flight
// recorder's document span plus a counter sample at its boundary.
void RecordDocumentBoundary(obs::MetricsRegistry* registry,
                            const EngineStats& stats, uint64_t doc,
                            int shard, uint64_t begin_ns, uint64_t end_ns,
                            size_t engine_count) {
  if (registry != nullptr) {
    registry->GetGauge("xaos_buffered_candidates_peak")
        ->SetMax(static_cast<int64_t>(stats.structures_live_peak));
    registry->GetGauge("xaos_arena_bytes_peak")
        ->SetMax(static_cast<int64_t>(stats.structure_memory.peak_bytes));
  }
  if (obs::flight::Active()) {
    obs::flight::Span span;
    span.kind = obs::flight::SpanKind::kDocument;
    span.begin_ns = begin_ns != 0 ? begin_ns : end_ns;
    span.end_ns = end_ns;
    span.doc = doc;
    span.shard = shard;
    span.value = static_cast<int64_t>(engine_count);
    obs::flight::Emit(span);
    obs::flight::Span sample;
    sample.kind = obs::flight::SpanKind::kCounter;
    sample.begin_ns = end_ns;
    sample.end_ns = end_ns;
    sample.doc = doc;
    sample.shard = shard;
    sample.value = static_cast<int64_t>(stats.structures_live_peak);
    sample.value2 = static_cast<int64_t>(stats.structure_memory.peak_bytes);
    obs::flight::Emit(sample);
  }
}

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

// Replays `batch` through `fleet`: document-boundary events go through the
// evaluator's virtual handlers (they carry per-document setup/teardown);
// maximal interior runs go through the non-virtual ReplayRun loop. One
// kReplay flight span covers the whole batch, and the batch counts into
// xaos_dispatch_batches_total. Per-event cost sampling (TimedDispatch) only
// covers events fed one at a time through the ContentHandler interface.
template <typename Evaluator>
void ReplayBatchImpl(Evaluator* evaluator, EngineFleet* fleet,
                     const xml::EventBatch& batch,
                     std::vector<xml::AttributeView>* attr_scratch,
                     int shard, uint64_t doc) {
  const std::vector<xml::BatchedEvent>& events = batch.events();
  obs::flight::ScopedSpan replay_span(obs::flight::SpanKind::kReplay);
  if (replay_span.active()) {
    replay_span.span()->batch = batch.sequence();
    replay_span.span()->shard = shard;
    // A batch opening a document belongs to the document it opens.
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
      evaluator->StartDocument();
      ++i;
      continue;
    }
    if (kind == xml::BatchedEvent::Kind::kEndDocument) {
      evaluator->EndDocument();
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < n &&
           events[j].kind != xml::BatchedEvent::Kind::kStartDocument &&
           events[j].kind != xml::BatchedEvent::Kind::kEndDocument) {
      ++j;
    }
    fleet->ReplayRun(batch, i, j, attr_scratch);
    i = j;
  }
  if (obs::Enabled()) {
    static obs::Counter* batches = obs::MetricsRegistry::Default().GetCounter(
        "xaos_dispatch_batches_total");
    batches->Increment();
  }
}

}  // namespace

StatusOr<Query> Query::Compile(std::string_view xpath, int max_paths) {
  XAOS_ASSIGN_OR_RETURN(std::vector<query::XTree> trees,
                        query::CompileToXTrees(xpath, max_paths));
  Query query;
  query.expression_.assign(xpath);
  query.trees_ = std::make_shared<const std::vector<query::XTree>>(
      std::move(trees));
  return query;
}

Query Query::FromTrees(std::vector<query::XTree> trees,
                       std::string expression) {
  Query query;
  query.expression_ = std::move(expression);
  query.trees_ =
      std::make_shared<const std::vector<query::XTree>>(std::move(trees));
  return query;
}

StreamingEvaluator::StreamingEvaluator(const Query& query,
                                       EngineOptions options)
    : trees_(query.trees_),
      registry_(options.metrics_registry != nullptr
                    ? options.metrics_registry
                    : &obs::MetricsRegistry::Default()) {
  engines_.reserve(trees_->size());
  for (const query::XTree& tree : *trees_) {
    engines_.push_back(std::make_unique<XaosEngine>(&tree, options, &arena_));
    fleet_.AddEngine(engines_.back().get());
  }
  if (obs::Enabled()) {
    sampler_ = obs::EventCostSampler(
        obs::MetricsRegistry::Default().GetHistogram("xaos_engine_event_ns"));
    sample_events_ = true;
  }
  gate_.SetSpec(options.capture_output_subtrees
                    ? query::ProjectionSpec::KeepAll(
                          "subtree capture needs every event")
                    : query::ProjectionSpec::Analyze(*trees_));
}

void StreamingEvaluator::StartDocument() {
  abort_status_ = Status::Ok();
  if (obs::Enabled() || obs::flight::Active()) {
    ++doc_ordinal_;
    doc_begin_ns_ = obs::NowNs();
  }
  // Before the engines reset: their Root structures count as this
  // document's traffic.
  arena_baseline_ = arena_.bytes_allocated();
  fleet_.StartDocument();
}

void StreamingEvaluator::EndDocument() {
  fleet_.EndDocument();
  if (obs::Enabled() || obs::flight::Active()) {
    RecordDocumentBoundary(obs::Enabled() ? registry_ : nullptr,
                           AggregateStats(), doc_ordinal_, /*shard=*/-1,
                           doc_begin_ns_, obs::NowNs(), engines_.size());
  }
}

void StreamingEvaluator::AbortDocument(const Status& cause) {
  abort_status_ =
      cause.ok() ? InternalError("document aborted without a cause") : cause;
  fleet_.AbortDocument();
}

void StreamingEvaluator::StartElement(const xml::QName& name,
                                      xml::AttributeSpan attributes) {
  TimedDispatch([&] { fleet_.StartElement(name, attributes); });
}

void StreamingEvaluator::EndElement(std::string_view name) {
  TimedDispatch([&] { fleet_.EndElement(name); });
}

void StreamingEvaluator::Characters(std::string_view text) {
  fleet_.Characters(text);
}

void StreamingEvaluator::SkippedSubtree(const xml::SkipReport& report) {
  fleet_.SkipSubtree(report);
}

void StreamingEvaluator::ReplayBatch(
    const xml::EventBatch& batch,
    std::vector<xml::AttributeView>* attr_scratch) {
  ReplayBatchImpl(this, &fleet_, batch, attr_scratch, /*shard=*/-1,
                  doc_ordinal_);
}

bool StreamingEvaluator::MatchConfirmed() const {
  for (const auto& engine : engines_) {
    if (engine->match_confirmed()) return true;
  }
  return false;
}

Status StreamingEvaluator::status() const {
  if (!abort_status_.ok()) return abort_status_;
  return FirstError(engines_);
}

QueryResult StreamingEvaluator::Result() const {
  return MergeResults(engines_, 0, engines_.size());
}

EngineStats StreamingEvaluator::AggregateStats() const {
  return SumStats(engines_, arena_, arena_baseline_);
}

void StreamingEvaluator::ExportMetrics(obs::MetricsRegistry* registry) const {
  AggregateStats().ToMetrics(registry);
}

MultiQueryEvaluator::MultiQueryEvaluator(EngineOptions options)
    : options_(options),
      // Subtree capture and live-structure limits are per-engine semantics
      // the merged automaton does not reproduce; such pools stay on the
      // per-engine path wholesale.
      shared_enabled_(options.enable_shared_index &&
                      !options.capture_output_subtrees &&
                      options.max_live_structures == 0) {
  if (obs::Enabled()) {
    sampler_ = obs::EventCostSampler(
        obs::MetricsRegistry::Default().GetHistogram("xaos_engine_event_ns"));
    sample_events_ = true;
  }
}

size_t MultiQueryEvaluator::AddQuery(const Query& query,
                                     std::string_view label) {
  const uint32_t q = static_cast<uint32_t>(queries_.size());
  XAOS_CHECK(q < kEngineRoute) << "too many queries for a route word";
  QuerySlot slot;
  slot.trees = query.trees_;
  slot.begin = engines_.size();
  slot.end = slot.begin;
  slot.label = label.empty() ? "q" + std::to_string(q) : std::string(label);

  // Byte-identical repeat of an earlier expression: alias its verdicts, add
  // no matching state. Compositions without an expression (FromTrees) can
  // have distinct trees behind an empty string, so they never alias.
  if (!query.expression().empty()) {
    auto [it, inserted] = by_expression_.try_emplace(query.expression(), q);
    if (!inserted) {
      QuerySlot& canonical = queries_[it->second];
      slot.next_alias = canonical.next_alias;
      canonical.next_alias = q;
      const uint32_t route = routes_[it->second];
      ++alias_subscriptions_;
      if ((route & kEngineRoute) == 0) ++shared_subscriptions_;
      queries_.push_back(std::move(slot));
      routes_.push_back(route);
      return q;
    }
  }

  if (shared_enabled_ && SharedIndexBuilder::Shareable(*slot.trees)) {
    const uint32_t shared_id = shared_builder_.AddSubscription(*slot.trees);
    shared_queries_.push_back(q);
    ++shared_subscriptions_;
    queries_.push_back(std::move(slot));
    routes_.push_back(shared_id);
    return q;
  }

  for (const query::XTree& tree : *slot.trees) {
    engines_.push_back(
        std::make_unique<XaosEngine>(&tree, options_, &arena_));
    fleet_.AddEngine(engines_.back().get());
  }
  slot.end = engines_.size();
  engine_queries_.push_back(q);
  queries_.push_back(std::move(slot));
  routes_.push_back(kEngineRoute | q);
  return q;
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
  abort_status_ = Status::Ok();
  if (obs::Enabled() || obs::flight::Active()) {
    ++doc_ordinal_;
    doc_begin_ns_ = obs::NowNs();
  }
  EnsureSharedIndex();
  live_queries_ = queries_.size();
  arena_baseline_ = arena_.bytes_allocated();
  fleet_.StartDocument();
}

void MultiQueryEvaluator::EndDocument() {
  fleet_.EndDocument();
  if (obs::Enabled() || obs::flight::Active()) FinishDocumentObservability();
}

obs::MetricsRegistry& MultiQueryEvaluator::metrics_registry() const {
  return options_.metrics_registry != nullptr
             ? *options_.metrics_registry
             : obs::MetricsRegistry::Default();
}

bool MultiQueryEvaluator::SlotMatched(size_t q, uint64_t* confirm_ns) const {
  const uint32_t route = routes_[q];
  if ((route & kEngineRoute) == 0) {
    if (!shared_matcher_->Matched(route)) return false;
    *confirm_ns = shared_matcher_->confirm_ns(route);
    return true;
  }
  // Earliest confirmation across the query's disjunct engines; a query
  // matched if any healthy engine matched.
  const QuerySlot& slot = queries_[route & ~kEngineRoute];
  uint64_t confirm = 0;
  bool matched = false;
  for (size_t i = slot.begin; i < slot.end; ++i) {
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
  if (obs::Enabled()) {
    obs::MetricsRegistry& registry = metrics_registry();
    ExportSharedMetrics(&registry);
    for (const size_t q : MatchedQueries()) {
      QuerySlot& slot = queries_[q];
      uint64_t confirm = 0;
      if (!SlotMatched(q, &confirm)) continue;
      if (slot.match_latency == nullptr) {
        std::string labels =
            "{subscription=\"" + obs::JsonEscape(slot.label) + "\"}";
        slot.match_latency =
            registry.GetHistogram("xaos_sub_match_latency_ns" + labels);
        slot.first_match =
            registry.GetHistogram("xaos_sub_first_match_ns" + labels);
      }
      uint64_t latency = end_ns > doc_begin_ns_ ? end_ns - doc_begin_ns_ : 0;
      slot.match_latency->Record(latency);
      slot.first_match->Record(confirm > doc_begin_ns_
                                   ? confirm - doc_begin_ns_
                                   : latency);
    }
  }
  RecordDocumentBoundary(obs::Enabled() ? &metrics_registry() : nullptr,
                         AggregateStats(), doc_ordinal_, flight_shard_,
                         doc_begin_ns_, end_ns, engines_.size());
}

void MultiQueryEvaluator::AbortDocument(const Status& cause) {
  abort_status_ =
      cause.ok() ? InternalError("document aborted without a cause") : cause;
  fleet_.AbortDocument();
}

void MultiQueryEvaluator::StartElement(const xml::QName& name,
                                       xml::AttributeSpan attributes) {
  TimedDispatch([&] { fleet_.StartElement(name, attributes); });
}

void MultiQueryEvaluator::EndElement(std::string_view name) {
  TimedDispatch([&] { fleet_.EndElement(name); });
}

void MultiQueryEvaluator::Characters(std::string_view text) {
  fleet_.Characters(text);
}

void MultiQueryEvaluator::SkippedSubtree(const xml::SkipReport& report) {
  fleet_.SkipSubtree(report);
}

void MultiQueryEvaluator::ReplayBatch(
    const xml::EventBatch& batch,
    std::vector<xml::AttributeView>* attr_scratch) {
  ReplayBatchImpl(this, &fleet_, batch, attr_scratch, flight_shard_,
                  doc_ordinal_);
}

xml::ProjectionFilter* MultiQueryEvaluator::projection_filter() {
  if (gate_built_for_ != queries_.size()) {
    gate_built_for_ = queries_.size();
    if (options_.capture_output_subtrees) {
      gate_.SetSpec(
          query::ProjectionSpec::KeepAll("subtree capture needs every event"));
    } else {
      query::ProjectionSpec spec;
      // One trie walk covers every shared subscription; aliases need no
      // projection of their own (their canonical slot contributes it).
      if (shared_builder_.subscription_count() > 0) {
        spec.UnionWith(shared_builder_.AnalyzeProjection());
      }
      for (const uint32_t q : engine_queries_) {
        if (spec.keep_all) break;
        spec.UnionWith(query::ProjectionSpec::Analyze(*queries_[q].trees));
      }
      gate_.SetSpec(std::move(spec));
    }
  }
  return gate_.spec().keep_all ? nullptr : &gate_;
}

Status MultiQueryEvaluator::status() const {
  if (!abort_status_.ok()) return abort_status_;
  return FirstError(engines_);
}

bool MultiQueryEvaluator::EngineMatched(size_t canonical) const {
  const QuerySlot& slot = queries_[canonical];
  for (size_t i = slot.begin; i < slot.end; ++i) {
    if (engines_[i]->result().matched) return true;
  }
  return false;
}

bool MultiQueryEvaluator::Matched(size_t q) const {
  if (q >= live_queries_) return false;
  const uint32_t route = routes_[q];
  if ((route & kEngineRoute) == 0) return shared_matcher_->Matched(route);
  return EngineMatched(route & ~kEngineRoute);
}

bool MultiQueryEvaluator::MatchConfirmed(size_t q) const {
  if (q >= live_queries_) return false;
  const uint32_t route = routes_[q];
  if ((route & kEngineRoute) == 0) {
    return shared_matcher_->MatchConfirmed(route);
  }
  const QuerySlot& slot = queries_[route & ~kEngineRoute];
  for (size_t i = slot.begin; i < slot.end; ++i) {
    if (engines_[i]->match_confirmed()) return true;
  }
  return false;
}

QueryResult MultiQueryEvaluator::Result(size_t q) const {
  if (q >= live_queries_) return QueryResult{};
  const uint32_t route = routes_[q];
  if ((route & kEngineRoute) == 0) return shared_matcher_->Result(route);
  const QuerySlot& slot = queries_[route & ~kEngineRoute];
  return MergeResults(engines_, slot.begin, slot.end);
}

void MultiQueryEvaluator::AppendWithAliases(uint32_t canonical,
                                            std::vector<size_t>* out) const {
  for (uint32_t q = canonical; q != kNoQuery; q = queries_[q].next_alias) {
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
  for (const uint32_t q : engine_queries_) {
    if (q < live_queries_ && EngineMatched(q)) AppendWithAliases(q, &matched);
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

StatusOr<QueryResult> EvaluateStreaming(std::string_view xpath,
                                        std::string_view xml_text,
                                        EngineOptions options) {
  XAOS_ASSIGN_OR_RETURN(Query query, Query::Compile(xpath));
  StreamingEvaluator evaluator(query, options);
  BatchedDispatcher dispatcher(&evaluator);
  XAOS_RETURN_IF_ERROR(xml::ParseString(xml_text, &dispatcher));
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
