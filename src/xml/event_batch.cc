#include "xml/event_batch.h"


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

void EventBatch::AddSkipSubtree(const SkipReport& report) {
  BatchedEvent event;
  event.kind = BatchedEvent::Kind::kSkipSubtree;
  // SkipReport is a trivially-copyable POD; ship it through the text arena
  // as raw bytes so the record format stays fixed-size.
  event.text_offset = AppendText(std::string_view(
      reinterpret_cast<const char*>(&report), sizeof(report)));
  event.text_size = static_cast<uint32_t>(sizeof(report));
  events_.push_back(event);
}

void EventBatcher::StartDocument() {
  Current()->AddStartDocument();
  PublishIfFull();
}

void EventBatcher::EndDocument() {
  Current()->AddEndDocument();
  PublishCurrent();
}

void EventBatcher::StartElement(const QName& name, AttributeSpan attributes) {
  Current()->AddStartElement(name, attributes);
  PublishIfFull();
}

void EventBatcher::EndElement(std::string_view name) {
  Current()->AddEndElement(name, !lean_payload_);
  PublishIfFull();
}

void EventBatcher::Characters(std::string_view text) {
  Current()->AddCharacters(text, !lean_payload_);
  PublishIfFull();
}

void EventBatcher::SkippedSubtree(const SkipReport& report) {
  Current()->AddSkipSubtree(report);
  PublishIfFull();
}

void EventBatcher::AbortDocument() {
  Current()->MarkAbortsDocument();
  PublishCurrent();
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
