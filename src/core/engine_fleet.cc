#include "core/engine_fleet.h"

#include <algorithm>
#include <cstring>

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
  by_symbol_.clear();
  for (size_t i = 0; i < engines_.size(); ++i) {
    XaosEngine* engine = engines_[i];
    engine->AttachCursor(&cursor_);
    int idx = static_cast<int>(i);
    // Wildcard tests match any name; sibling axes rely on a dense stack
    // (every element delivered); capture mode records whole subtrees.
    bool always = engine->has_any_element_candidates() ||
                  engine->has_any_attribute_candidates() ||
                  engine->wants_siblings() || engine->captures_subtrees();
    if (always) {
      always_dispatch_.push_back(idx);
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
    }
  }
  stamps_.assign(engines_.size(), 0);
  stamp_ = 0;
  finalized_ = true;
}

void EngineFleet::AddSymbolTargets(util::Symbol symbol,
                                   std::string_view name) {
  util::Symbol s = symbol;
  if (s == util::kInvalidSymbol) {
    // Event source without symbols (replay paths). A name the table has
    // never seen cannot be mentioned by any engine.
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

void EngineFleet::StartElement(const xml::QName& name,
                               xml::AttributeSpan attributes) {
  cursor_.StartElement(attributes.size());
  if (matcher_ != nullptr) {
    matcher_->StartElement(name.symbol, name.text, cursor_.top());
  }

  // Attribute names can widen the candidate set, so only attribute-free
  // elements with a resolved symbol are memoizable.
  const bool memoizable =
      attributes.empty() && name.symbol != util::kInvalidSymbol;
  if (memoizable && memo_valid_ && name.symbol == memo_symbol_) {
    // Same candidate set as the previous start-element: re-filter the
    // memoized set by inert() (inertness is monotone within a document, so
    // this equals a fresh index walk) and skip the walk.
    ++run_length_;
    delivered_scratch_.clear();
    for (int idx : memo_delivered_) {
      if (!engines_[static_cast<size_t>(idx)]->inert()) {
        delivered_scratch_.push_back(idx);
      }
    }
  } else {
    BreakRun();
    run_length_ = 1;
    if (++stamp_ == 0) {
      // Stamp wrap: invalidate all marks and restart.
      std::fill(stamps_.begin(), stamps_.end(), 0);
      stamp_ = 1;
    }
    delivered_scratch_.clear();
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

  uint64_t skipped = engines_.size() - delivered_scratch_.size();
  engines_skipped_ += skipped;
  engines_skipped_document_ += skipped;

  for (int idx : delivered_scratch_) {
    engines_[static_cast<size_t>(idx)]->StartElement(name, attributes);
  }

  if (depth_ == delivered_stack_.size()) delivered_stack_.emplace_back();
  delivered_stack_[depth_] = delivered_scratch_;  // reuses capacity
  ++depth_;
}

void EngineFleet::EndElement(std::string_view name) {
  XAOS_CHECK(depth_ > 0) << "unbalanced events";
  --depth_;
  for (int idx : delivered_stack_[depth_]) {
    engines_[static_cast<size_t>(idx)]->EndElement(name);
  }
  if (matcher_ != nullptr) matcher_->EndElement();
  cursor_.EndElement();
}

void EngineFleet::Characters(std::string_view text) {
  cursor_.Characters();
  for (int idx : text_engines_) {
    engines_[static_cast<size_t>(idx)]->Characters(text);
  }
}

void EngineFleet::BreakRun() {
  if (run_length_ > 0 && obs::Enabled()) {
    static obs::Histogram* hist =
        obs::MetricsRegistry::Default().GetHistogram(
            "xaos_dispatch_run_length");
    hist->Record(run_length_);
  }
  run_length_ = 0;
}

// `flatten` inlines the per-event members into the decode loop: without it
// every start-element pays an out-of-line call, measurably slower replay.
__attribute__((flatten)) void EngineFleet::ReplayRun(
    const xml::EventBatch& batch, size_t begin, size_t end,
    std::vector<xml::AttributeView>* attr_scratch) {
  const std::vector<xml::BatchedEvent>& events = batch.events();
  for (size_t e = begin; e < end; ++e) {
    const xml::BatchedEvent& event = events[e];
    switch (event.kind) {
      case xml::BatchedEvent::Kind::kStartElement: {
        attr_scratch->clear();
        for (uint32_t a = 0; a < event.attr_count; ++a) {
          const xml::BatchedAttribute& attr =
              batch.attribute(event.attr_begin + a);
          attr_scratch->push_back(xml::AttributeView{
              batch.text_slice(attr.name_offset, attr.name_size),
              batch.text_slice(attr.value_offset, attr.value_size),
              attr.symbol});
        }
        StartElement(
            xml::QName(batch.text_slice(event.text_offset, event.text_size),
                       event.symbol),
            xml::AttributeSpan(*attr_scratch));
        break;
      }
      case xml::BatchedEvent::Kind::kEndElement:
        EndElement(batch.text_slice(event.text_offset, event.text_size));
        break;
      case xml::BatchedEvent::Kind::kCharacters:
        Characters(batch.text_slice(event.text_offset, event.text_size));
        break;
      case xml::BatchedEvent::Kind::kSkipSubtree: {
        xml::SkipReport report;
        std::memcpy(
            &report,
            batch.text_slice(event.text_offset, event.text_size).data(),
            sizeof(report));
        SkipSubtree(report);
        break;
      }
      default:
        XAOS_CHECK(false) << "document boundary inside a replay run";
    }
  }
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
  for (XaosEngine* engine : engines_) {
    engine->EndDocument();
    // The engine only counted the elements it was shown; fold the filtered
    // ones in as discarded so per-document stats still describe the whole
    // document. (For engines that went inert mid-stream this also covers
    // the post-confirmation tail, same as before dispatch filtering.)
    uint64_t seen = engine->stats().elements_total;
    if (cursor_.elements_total() > seen) {
      engine->AccountSkippedElements(cursor_.elements_total() - seen);
    }
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
