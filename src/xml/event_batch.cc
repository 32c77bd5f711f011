#include "xml/event_batch.h"

#include <algorithm>
#include <limits>

namespace xaos::xml {

void EventBatch::AddStartElement(const QName& name, AttributeSpan attributes) {
  BatchedEvent event;
  event.kind = BatchedEvent::Kind::kStartElement;
  event.symbol = name.symbol;
  event.text_offset = AppendText(name.text);
  event.text_size = static_cast<uint32_t>(name.text.size());
  event.attr_begin = static_cast<uint32_t>(attributes_.size());
  event.attr_count = static_cast<uint32_t>(attributes.size());
  for (const AttributeView& attr : attributes) {
    BatchedAttribute record;
    record.name_offset = AppendText(attr.name);
    record.name_size = static_cast<uint32_t>(attr.name.size());
    record.value_offset = AppendText(attr.value);
    record.value_size = static_cast<uint32_t>(attr.value.size());
    record.symbol = attr.symbol;
    attributes_.push_back(record);
  }
  events_.push_back(event);
}

void EventBatch::AddEndElement(std::string_view name, bool copy_payload) {
  BatchedEvent event;
  event.kind = BatchedEvent::Kind::kEndElement;
  if (copy_payload) {
    event.text_offset = AppendText(name);
    event.text_size = static_cast<uint32_t>(name.size());
  }
  events_.push_back(event);
}

void EventBatch::AddCharacters(std::string_view text, bool copy_payload) {
  BatchedEvent event;
  event.kind = BatchedEvent::Kind::kCharacters;
  if (copy_payload) {
    event.text_offset = AppendText(text);
    event.text_size = static_cast<uint32_t>(text.size());
  }
  events_.push_back(event);
}

void EventBatch::AddElidedStart(uint32_t attr_count) {
  BatchedEvent event;
  event.kind = BatchedEvent::Kind::kElidedStart;
  event.attr_count = attr_count;
  events_.push_back(event);
}

void EventBatch::AddGap(uint32_t node_ids, uint32_t elements,
                        uint32_t elided) {
  BatchedEvent event;
  event.kind = BatchedEvent::Kind::kGap;
  event.text_offset = node_ids;
  event.attr_begin = elements;
  event.attr_count = elided;
  events_.push_back(event);
}

void EventBatcher::StartDocument() {
  interest_ = next_interest_;
  ResetElision();
  Current()->AddStartDocument();
  PublishIfFull();
}

void EventBatcher::EndDocument() {
  if (interest_ != nullptr) AppendGap(pending_);
  ResetElision();
  Current()->AddEndDocument();
  PublishCurrent();
}

bool EventBatcher::Keeps(const QName& name, AttributeSpan attributes) const {
  if (Keeps(name.symbol)) return true;
  for (const AttributeView& attr : attributes) {
    if (Keeps(attr.symbol)) return true;
  }
  return false;
}

void EventBatcher::StartElement(const QName& name, AttributeSpan attributes) {
  if (interest_ != nullptr) {
    const uint32_t attr_count = static_cast<uint32_t>(attributes.size());
    if (!Keeps(name, attributes)) {
      open_.push_back(Open{attr_count, pending_});
      pending_ = Gap{};
      return;
    }
    // Kept: first give the cursor every elided ancestor, outermost first.
    for (size_t d = recorded_depth_; d < open_.size(); ++d) {
      AppendGap(open_[d].before);
      Current()->AddElidedStart(open_[d].attr_count);
      PublishIfFull();
    }
    AppendGap(pending_);
    pending_ = Gap{};
    open_.push_back(Open{attr_count, Gap{}});
    recorded_depth_ = open_.size();
  }
  Current()->AddStartElement(name, attributes);
  PublishIfFull();
}

void EventBatcher::EndElement(std::string_view name) {
  if (interest_ != nullptr) {
    if (open_.size() > recorded_depth_) {
      // Elided, and nothing below it was kept: the whole element folds
      // into the gap its parent's content is collecting.
      const Open& top = open_.back();
      Gap gap = top.before;
      gap.node_ids += 1 + top.attr_count + pending_.node_ids;
      gap.elements += 1 + pending_.elements;
      gap.elided += 1 + pending_.elided;
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

void EventBatcher::Characters(std::string_view text) {
  if (interest_ != nullptr) {
    ++pending_.node_ids;
    ++events_elided_;
    return;
  }
  Current()->AddCharacters(text, !lean_payload_);
  PublishIfFull();
}

void EventBatcher::SkippedSubtree(const SkipReport& report) {
  if (interest_ != nullptr) {
    pending_.node_ids += report.node_ids;
    pending_.elements += report.elements;
    ++events_elided_;
    return;
  }
  AppendGap(Gap{report.node_ids, report.elements, 0});
}

void EventBatcher::AbortDocument() {
  ResetElision();
  Current()->MarkAbortsDocument();
  PublishCurrent();
}

void EventBatcher::AppendGap(Gap gap) {
  auto take = [](uint64_t* count) {
    const uint64_t n = std::min<uint64_t>(
        *count, std::numeric_limits<uint32_t>::max());
    *count -= n;
    return static_cast<uint32_t>(n);
  };
  while (gap.node_ids != 0 || gap.elements != 0 || gap.elided != 0) {
    const uint32_t node_ids = take(&gap.node_ids);
    const uint32_t elements = take(&gap.elements);
    Current()->AddGap(node_ids, elements, take(&gap.elided));
    PublishIfFull();
  }
}

void EventBatcher::ResetElision() {
  open_.clear();
  recorded_depth_ = 0;
  pending_ = Gap{};
}

void EventBatcher::PublishIfFull() {
  if (current_ == nullptr) return;
  if (current_->event_count() >= max_events_ ||
      current_->text_bytes() >= max_text_bytes_) {
    PublishCurrent();
  }
}

void EventBatcher::PublishCurrent() {
  if (current_ == nullptr ||
      (current_->empty() && !current_->aborts_document())) {
    return;
  }
  sink_->PublishBatch(current_);
  current_ = nullptr;
}

}  // namespace xaos::xml
