#include "core/engine_fleet.h"

#include <algorithm>

#include "core/shared_index.h"
#include "obs/metrics.h"

namespace xaos::core {

void EngineFleet::AddEngine(XaosEngine* engine) {
  engines_.push_back(engine);
  finalized_ = false;
}

void EngineFleet::Finalize() {
  if (finalized_) return;
  always_dispatch_.clear();
  text_engines_.clear();
  any_early_item_sink_ = false;
  by_symbol_.clear();
  elision_off_ = nullptr;
  for (size_t i = 0; i < engines_.size(); ++i) {
    XaosEngine* engine = engines_[i];
    any_early_item_sink_ =
        any_early_item_sink_ || engine->has_early_item_sink();
    int idx = static_cast<int>(i);
    // Wildcard tests match any name; sibling axes rely on a dense stack
    // (every element delivered); capture mode records whole subtrees.
    bool always = engine->has_any_element_candidates() ||
                  engine->has_any_attribute_candidates() ||
                  engine->wants_siblings() || engine->captures_subtrees();
    if (always) {
      always_dispatch_.push_back(idx);
      if (elision_off_ == nullptr) {
        elision_off_ = engine->wants_siblings()      ? "sibling axis"
                       : engine->captures_subtrees() ? "subtree capture"
                                                     : "wildcard step";
      }
    } else {
      for (util::Symbol s : engine->mentioned_symbols()) {
        if (static_cast<size_t>(s) >= by_symbol_.size()) {
          by_symbol_.resize(static_cast<size_t>(s) + 1);
        }
        by_symbol_[static_cast<size_t>(s)].push_back(idx);
      }
    }
    if (engine->wants_text() || engine->captures_subtrees()) {
      text_engines_.push_back(idx);
      if (elision_off_ == nullptr) elision_off_ = "text test";
    }
  }
  interest_.assign(by_symbol_.size(), 0);
  for (size_t s = 0; s < by_symbol_.size(); ++s) {
    interest_[s] = by_symbol_[s].empty() ? 0 : 1;
  }
  stamps_.assign(engines_.size(), 0);
  stamp_ = 0;
  run_count_.assign(engines_.size(), 0);
  finalized_ = true;
}

void EngineFleet::AddSymbolTargets(util::Symbol symbol,
                                   std::string_view name) {
  util::Symbol s = symbol;
  if (s == util::kInvalidSymbol) {
    // A producer without symbols (DOM replay). A name the table has never
    // seen cannot be mentioned by any engine.
    s = util::SymbolTable::Global().Lookup(name);
  }
  if (s < 0 || static_cast<size_t>(s) >= by_symbol_.size()) return;
  for (int idx : by_symbol_[static_cast<size_t>(s)]) Deliver(idx);
}

void EngineFleet::StartDocument() {
  Finalize();
  cursor_.Reset();
  depth_ = 0;
  engines_skipped_document_ = 0;
  // The memo holds an inert-filtered candidate set; inertness resets per
  // document, so a stale memo would under-deliver.
  memo_valid_ = false;
  BreakRun();
  if (matcher_ != nullptr) matcher_->StartDocument();
  for (XaosEngine* engine : engines_) engine->StartDocument();
}

namespace {
using Kind = xml::BatchedEvent::Kind;
}  // namespace

// Events [0, n) are the records of a captured batch. Attribute views are
// decoded into caller-provided scratch, valid until the next call.
class EngineFleet::BatchSource {
 public:
  BatchSource(const xml::EventBatch& batch,
              std::vector<xml::AttributeView>* attr_scratch)
      : batch_(batch), attr_scratch_(attr_scratch) {}

  Kind kind(uint32_t e) const { return batch_.events()[e].kind; }
  const xml::BatchedEvent& record(uint32_t e) const {
    return batch_.events()[e];
  }
  // Element name (start-element) or character data.
  std::string_view text(uint32_t e) const {
    const xml::BatchedEvent& event = batch_.events()[e];
    return batch_.text_slice(event.text_offset, event.text_size);
  }
  xml::QName name(uint32_t e) const {
    return xml::QName(text(e), batch_.events()[e].symbol);
  }
  xml::AttributeSpan attributes(uint32_t e) const {
    const xml::BatchedEvent& event = batch_.events()[e];
    if (event.attr_count == 0) return {};
    attr_scratch_->clear();
    for (uint32_t a = 0; a < event.attr_count; ++a) {
      const xml::BatchedAttribute& attr =
          batch_.attribute(event.attr_begin + a);
      attr_scratch_->push_back(xml::AttributeView{
          batch_.text_slice(attr.name_offset, attr.name_size),
          batch_.text_slice(attr.value_offset, attr.value_size),
          attr.symbol});
    }
    return xml::AttributeSpan(*attr_scratch_);
  }

 private:
  const xml::EventBatch& batch_;
  std::vector<xml::AttributeView>* attr_scratch_;
};

void EngineFleet::BreakRun() {
  if (run_length_ > 0 && obs::Enabled()) {
    static obs::Histogram* hist =
        obs::MetricsRegistry::Default().GetHistogram(
            "xaos_dispatch_run_length");
    hist->Record(run_length_);
  }
  run_length_ = 0;
}

void EngineFleet::CollectStartTargets(const xml::QName& name,
                                      xml::AttributeSpan attributes) {
  // Attribute names can widen the candidate set, so only attribute-free
  // elements with a resolved symbol are memoizable.
  const bool memoizable =
      attributes.empty() && name.symbol != util::kInvalidSymbol;
  delivered_scratch_.clear();
  if (memoizable && memo_valid_ && name.symbol == memo_symbol_) {
    // Same candidate set as the previous start-element: re-filter the
    // memoized set by inert() (inertness is monotone within a document, so
    // this equals a fresh index walk) and skip the walk.
    ++run_length_;
    for (int idx : memo_delivered_) {
      if (!engines_[static_cast<size_t>(idx)]->inert()) {
        delivered_scratch_.push_back(idx);
      }
    }
    return;
  }
  BreakRun();
  run_length_ = 1;
  if (++stamp_ == 0) {
    // Stamp wrap: invalidate all marks and restart.
    std::fill(stamps_.begin(), stamps_.end(), 0);
    stamp_ = 1;
  }
  for (int idx : always_dispatch_) Deliver(idx);
  AddSymbolTargets(name.symbol, name.text);
  for (const xml::AttributeView& attr : attributes) {
    AddSymbolTargets(attr.symbol, attr.name);
  }
  memo_valid_ = memoizable;
  if (memoizable) {
    memo_symbol_ = name.symbol;
    memo_delivered_ = delivered_scratch_;  // reuses capacity
  }
}

void EngineFleet::ReplayRun(const xml::EventBatch& batch, size_t begin_index,
                            size_t end_index,
                            std::vector<xml::AttributeView>* attr_scratch) {
  const BatchSource source(batch, attr_scratch);
  const uint32_t begin = static_cast<uint32_t>(begin_index);
  const uint32_t end = static_cast<uint32_t>(end_index);
  // Pass 1: event order. The cursor, the shared matcher and the dispatch
  // state advance here; engines only get recorded deliveries.
  for (uint32_t e = begin; e < end; ++e) {
    switch (source.kind(e)) {
      case Kind::kStartElement: {
        const xml::QName name = source.name(e);
        const xml::AttributeSpan attributes = source.attributes(e);
        cursor_.StartElement(attributes.size());
        const NodePosition& node = cursor_.top();
        if (matcher_ != nullptr) {
          matcher_->StartElement(name.symbol, name.text, node);
        }
        CollectStartTargets(name, attributes);
        CountSkipped(engines_.size() - delivered_scratch_.size());
        if (depth_ == delivered_stack_.size()) delivered_stack_.emplace_back();
        delivered_stack_[depth_] = delivered_scratch_;  // reuses capacity
        ++depth_;
        if (!delivered_scratch_.empty()) {
          RecordDeliveries(source, Kind::kStartElement, e, node,
                           delivered_scratch_);
        }
        break;
      }
      case Kind::kEndElement: {
        XAOS_CHECK(depth_ > 0) << "unbalanced events";
        --depth_;
        const std::vector<int>& targets = delivered_stack_[depth_];
        if (!targets.empty()) {
          RecordDeliveries(source, Kind::kEndElement, e, NodePosition{},
                           targets);
        }
        if (matcher_ != nullptr) matcher_->EndElement();
        cursor_.EndElement();
        break;
      }
      case Kind::kCharacters:
        cursor_.Characters();
        if (!text_engines_.empty()) {
          RecordDeliveries(source, Kind::kCharacters, e, cursor_.text_node(),
                           text_engines_);
        }
        break;
      case Kind::kElidedStart:
        // An elided ancestor of a kept element: on the spine so the kept
        // element gets its true parent and level, delivered to nobody.
        cursor_.StartElement(source.record(e).attr_count);
        CountSkipped(engines_.size());
        if (depth_ == delivered_stack_.size()) delivered_stack_.emplace_back();
        delivered_stack_[depth_].clear();
        ++depth_;
        break;
      case Kind::kGap: {
        // A projection skip and/or elided events (xml::RecordWriter).
        const xml::BatchedEvent& gap = source.record(e);
        cursor_.SkipSubtree(gap.gap_node_ids(), gap.gap_elements());
        CountSkipped(uint64_t{gap.gap_elided()} * engines_.size());
        break;
      }
      default:
        XAOS_CHECK(false) << "document boundary inside a replay run";
    }
  }
  // Pass 2: engine order.
  if (!run_records_.empty()) FlushRun(source);
}

void EngineFleet::RecordDeliveries(const BatchSource& source, Kind kind,
                                   uint32_t event, const NodePosition& node,
                                   const std::vector<int>& targets) {
  if (engines_.size() == 1) {
    // Engine-major and event-major order coincide for a single engine: it
    // is fed at once and the run records nothing.
    DeliverEvent(engines_[0], source, kind, event, node);
    return;
  }
  if (!run_records_.empty() &&
      run_engines_.size() + targets.size() > kMaxRunDeliveries) {
    FlushRun(source);
  }
  run_records_.push_back(
      RunRecord{event, static_cast<uint32_t>(run_engines_.size()), node, kind});
  for (int target : targets) {
    const uint32_t idx = static_cast<uint32_t>(target);
    if (run_count_[idx]++ == 0) run_touched_.push_back(idx);
    run_engines_.push_back(idx);
  }
}

void EngineFleet::FlushRun(const BatchSource& source) {
  run_deliveries_peak_ = std::max(run_deliveries_peak_, run_engines_.size());
  // Group record indices by engine with a counting sort over the touched
  // engines: segments follow first-delivery order, and each keeps its
  // engine's events in document order.
  uint32_t offset = 0;
  for (uint32_t idx : run_touched_) {
    const uint32_t count = run_count_[idx];
    run_count_[idx] = offset;
    offset += count;
  }
  run_order_.resize(run_engines_.size());
  const uint32_t records = static_cast<uint32_t>(run_records_.size());
  for (uint32_t r = 0; r < records; ++r) {
    const uint32_t last = r + 1 < records
                              ? run_records_[r + 1].first
                              : static_cast<uint32_t>(run_engines_.size());
    for (uint32_t p = run_records_[r].first; p < last; ++p) {
      run_order_[run_count_[run_engines_[p]]++] = r;
    }
  }
  // Pass 2 proper. After the scatter run_count_[idx] is the end of engine
  // idx's segment; the segment begins where the previous one ended.
  const bool buffer_early_items =
      any_early_item_sink_ && run_touched_.size() > 1;
  uint32_t segment_begin = 0;
  for (uint32_t idx : run_touched_) {
    const uint32_t segment_end = run_count_[idx];
    run_count_[idx] = 0;
    FeedEngine(source, idx, segment_begin, segment_end, buffer_early_items);
    segment_begin = segment_end;
  }
  if (buffer_early_items) ReleaseEarlyItems();
  run_records_.clear();
  run_engines_.clear();
  run_touched_.clear();
}

void EngineFleet::FeedEngine(const BatchSource& source, uint32_t idx,
                             uint32_t begin, uint32_t end,
                             bool buffer_early_items) {
  XaosEngine* engine = engines_[idx];
  if (buffer_early_items) engine->set_early_item_buffer(&early_items_);
  for (uint32_t q = begin; q < end; ++q) {
    const RunRecord& record = run_records_[run_order_[q]];
    if (record.kind == Kind::kStartElement && engine->inert()) {
      // Per-event delivery would have skipped this start and every later
      // one of the run (inertness is monotone within a document).
      uint64_t skipped = 0;
      for (uint32_t rest = q; rest < end; ++rest) {
        if (run_records_[run_order_[rest]].kind == Kind::kStartElement) {
          ++skipped;
        }
      }
      CountSkipped(skipped);
      break;
    }
    DeliverEvent(engine, source, record.kind, record.event, record.node);
    if (buffer_early_items) {
      // Key the items this delivery emitted by its position in the run's
      // delivery lists, which orders them by (event, rank in the event).
      while (early_keys_.size() < early_items_.size()) {
        uint32_t p = record.first;
        while (run_engines_[p] != idx) ++p;
        early_keys_.push_back(EarlyItemKey{
            p, idx, static_cast<uint32_t>(early_keys_.size())});
      }
    }
  }
  if (buffer_early_items) engine->set_early_item_buffer(nullptr);
}

void EngineFleet::DeliverEvent(XaosEngine* engine, const BatchSource& source,
                               Kind kind, uint32_t event,
                               const NodePosition& node) {
  switch (kind) {
    case Kind::kStartElement:
      // Attribute views are decoded only for engines that read them.
      engine->DeliverStartElement(source.name(event),
                                  engine->reads_attributes()
                                      ? source.attributes(event)
                                      : xml::AttributeSpan(),
                                  node);
      break;
    case Kind::kEndElement:
      engine->DeliverEndElement();
      break;
    default:  // kCharacters: the only other delivered kind
      engine->DeliverCharacters(source.text(event), node);
      break;
  }
}

void EngineFleet::ReleaseEarlyItems() {
  std::sort(early_keys_.begin(), early_keys_.end(),
            [](const EarlyItemKey& a, const EarlyItemKey& b) {
              return a.delivery != b.delivery ? a.delivery < b.delivery
                                              : a.item < b.item;
            });
  for (const EarlyItemKey& key : early_keys_) {
    engines_[key.engine]->SendToEarlyItemSink(early_items_[key.item]);
  }
  early_keys_.clear();
  early_items_.clear();
}

void EngineFleet::AbortDocument() {
  depth_ = 0;
  cursor_.Reset();
  memo_valid_ = false;
  BreakRun();
  if (matcher_ != nullptr) matcher_->AbortDocument();
  if (obs::Enabled()) {
    obs::MetricsRegistry::Default()
        .GetCounter("xaos_dispatch_engines_skipped_total")
        ->Increment(engines_skipped_document_);
  }
  engines_skipped_document_ = 0;
}

void EngineFleet::EndDocument() {
  memo_valid_ = false;
  BreakRun();
  if (matcher_ != nullptr) matcher_->EndDocument();
  const uint64_t total = cursor_.elements_total();
  for (XaosEngine* engine : engines_) {
    engine->EndDocument();
    // The engine only counted the elements it was shown; fold the filtered
    // ones in as discarded so per-document stats still describe the whole
    // document. (For engines that went inert mid-stream this also covers
    // the post-confirmation tail, same as before dispatch filtering.)
    const uint64_t seen = engine->stats().elements_total;
    if (total > seen) engine->AccountSkippedElements(total - seen);
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    registry.GetCounter("xaos_dispatch_engines_skipped_total")
        ->Increment(engines_skipped_document_);
    // Bounded by the compiled vocabulary plus kUnknownSymbol: the parser
    // only resolves names, so documents never grow the table.
    registry.GetGauge("xaos_symbols_interned")
        ->Set(static_cast<int64_t>(util::SymbolTable::Global().size()));
  }
}

}  // namespace xaos::core
