#include "xml/event_batch.h"

#include <algorithm>
#include <limits>

#include "obs/timer.h"

namespace xaos::xml {

void EventBatch::AddEndElement(std::string_view name, bool copy_payload) {
  BatchedEvent event;
  event.kind = BatchedEvent::Kind::kEndElement;
  if (copy_payload) {
    event.text_offset = AppendText(name);
    event.text_size = static_cast<uint32_t>(name.size());
  }
  events_.push_back(event);
}

void EventBatch::AddCharacters(std::string_view text) {
  BatchedEvent event;
  event.kind = BatchedEvent::Kind::kCharacters;
  event.text_offset = AppendText(text);
  event.text_size = static_cast<uint32_t>(text.size());
  events_.push_back(event);
}

void EventBatch::AddElidedStart(uint32_t attr_count) {
  BatchedEvent event;
  event.kind = BatchedEvent::Kind::kElidedStart;
  event.attr_count = attr_count;
  events_.push_back(event);
}

void EventBatch::AddGap(uint32_t node_ids, uint32_t elements,
                        uint32_t elided, uint32_t bytes) {
  BatchedEvent event;
  event.kind = BatchedEvent::Kind::kGap;
  event.text_offset = node_ids;
  event.text_size = bytes;
  event.attr_begin = elements;
  event.attr_count = elided;
  events_.push_back(event);
}

void EventBatch::Replay(ContentHandler* handler,
                        std::vector<AttributeView>* attr_scratch) const {
  for (const BatchedEvent& e : events_) {
    switch (e.kind) {
      case BatchedEvent::Kind::kStartDocument:
        handler->StartDocument();
        break;
      case BatchedEvent::Kind::kEndDocument:
        handler->EndDocument();
        break;
      case BatchedEvent::Kind::kStartElement: {
        attr_scratch->clear();
        for (uint32_t a = 0; a < e.attr_count; ++a) {
          const BatchedAttribute& attr = attributes_[e.attr_begin + a];
          attr_scratch->push_back({Slice(attr.name_offset, attr.name_size),
                                   Slice(attr.value_offset, attr.value_size),
                                   attr.symbol});
        }
        handler->StartElement(QName(Slice(e.text_offset, e.text_size),
                                    e.symbol),
                              AttributeSpan(*attr_scratch));
        break;
      }
      case BatchedEvent::Kind::kEndElement:
        handler->EndElement(Slice(e.text_offset, e.text_size));
        break;
      case BatchedEvent::Kind::kCharacters:
        handler->Characters(Slice(e.text_offset, e.text_size));
        break;
      case BatchedEvent::Kind::kGap:
        handler->SkippedSubtree(
            SkipReport{e.gap_elements(), e.gap_node_ids(), e.gap_bytes()});
        break;
      case BatchedEvent::Kind::kElidedStart:
        // Written only under an element interest, which plain handlers
        // never install.
        break;
    }
  }
}

void RecordWriter::StartDocument() {
  // A batch still open here holds records of a document that failed
  // without AbortDocument; they must never reach the consumer.
  if (current_ != nullptr) current_->Clear();
  interest_ = next_interest_;
  ResetElision();
  Current()->AddStartDocument();
  PublishIfFull();
}

void RecordWriter::EndDocument() {
  FlushPending();
  ResetElision();
  Current()->AddEndDocument();
  PublishCurrent();
}

void RecordWriter::StartElement(const QName& name, AttributeSpan attributes) {
  bool keep = interest_ == nullptr || Keeps(name.symbol);
  for (size_t a = 0; !keep && a < attributes.size(); ++a) {
    keep = Keeps(attributes[a].symbol);
  }
  if (!keep) {
    ElidedStart(static_cast<uint32_t>(attributes.size()));
    return;
  }
  EventBatch* batch = BeginStart(name.symbol, name.text);
  for (const AttributeView& attr : attributes) {
    batch->AddAttribute(attr.name, attr.value, attr.symbol);
  }
  EndRecord();
}

EventBatch* RecordWriter::BeginStart(util::Symbol symbol,
                                     std::string_view name) {
  if (interest_ != nullptr) {
    // Kept: first give the cursor every elided ancestor, outermost first.
    for (size_t d = recorded_depth_; d < open_.size(); ++d) {
      AppendGap(open_[d].before);
      Current()->AddElidedStart(open_[d].attr_count);
      PublishIfFull();
    }
    open_.push_back(Open{0, Gap{}});
    recorded_depth_ = open_.size();
  }
  FlushPending();
  EventBatch* batch = Current();
  batch->BeginStartElement(symbol, name);
  return batch;
}

void RecordWriter::EndElement(std::string_view name) {
  if (interest_ != nullptr) {
    if (open_.size() > recorded_depth_) {
      // Elided, and nothing below it was kept: the whole element folds
      // into the gap its parent's content is collecting.
      const Open& top = open_.back();
      Gap gap = top.before;
      gap.node_ids += 1 + top.attr_count + pending_.node_ids;
      gap.elements += 1 + pending_.elements;
      gap.elided += 1 + pending_.elided;
      gap.bytes += pending_.bytes;
      pending_ = gap;
      open_.pop_back();
      events_elided_ += 2;
      return;
    }
    open_.pop_back();
    recorded_depth_ = open_.size();
  }
  Current()->AddEndElement(name, !lean_payload_);
  PublishIfFull();
}

void RecordWriter::WriteCharacters(std::string_view text) {
  FlushPending();
  Current()->AddCharacters(text);
  PublishIfFull();
}

void RecordWriter::Skip(const SkipReport& report) {
  if (interest_ != nullptr || lean_payload_) {
    pending_.node_ids += report.node_ids;
    pending_.elements += report.elements;
    pending_.bytes += report.bytes;
    if (interest_ != nullptr) ++events_elided_;
    return;
  }
  AppendGap(Gap{report.node_ids, report.elements, 0, report.bytes});
}

void RecordWriter::AbortDocument() {
  ResetElision();
  Current()->MarkAbortsDocument();
  PublishCurrent();
}

void RecordWriter::AppendGap(Gap gap) {
  auto take = [](uint64_t* count) {
    const uint64_t n = std::min<uint64_t>(
        *count, std::numeric_limits<uint32_t>::max());
    *count -= n;
    return static_cast<uint32_t>(n);
  };
  while (gap.node_ids != 0 || gap.elements != 0 || gap.elided != 0) {
    const uint32_t node_ids = take(&gap.node_ids);
    const uint32_t elements = take(&gap.elements);
    const uint32_t elided = take(&gap.elided);
    Current()->AddGap(node_ids, elements, elided, take(&gap.bytes));
    PublishIfFull();
  }
}

void RecordWriter::ResetElision() {
  open_.clear();
  recorded_depth_ = 0;
  pending_ = Gap{};
}

void RecordWriter::PublishCurrent() {
  if (current_ == nullptr ||
      (current_->empty() && !current_->aborts_document())) {
    return;
  }
  EventBatch* batch = current_;
  current_ = nullptr;
  if (timers_ == nullptr) {
    sink_->PublishBatch(batch);
    return;
  }
  const uint64_t start = obs::NowNs();
  sink_->PublishBatch(batch);
  timers_->Add(obs::Phase::kMatch, obs::NowNs() - start);
}

}  // namespace xaos::xml
