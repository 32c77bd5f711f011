#include "dom/dom_builder.h"

#include <utility>

namespace xaos::dom {

DomBuilder::DomBuilder(Document* document) : document_(document) {
  stack_.push_back(document->document_node());
}

void DomBuilder::StartElement(const xml::QName& name,
                              xml::AttributeSpan attributes) {
  NodeId element = document_->CreateElement(name.text);
  for (const xml::AttributeView& attr : attributes) {
    document_->AddAttribute(element, attr.name, attr.value);
  }
  document_->AppendChild(stack_.back(), element);
  stack_.push_back(element);
}

void DomBuilder::EndElement(std::string_view /*name*/) {
  stack_.pop_back();
}

void DomBuilder::Characters(std::string_view text) {
  // Text at document level (whitespace between top-level constructs) is not
  // represented in the tree.
  if (stack_.size() == 1) return;
  NodeId node = document_->CreateText(text);
  document_->AppendChild(stack_.back(), node);
}

StatusOr<Document> ParseToDocument(std::string_view xml_text,
                                   xml::ParserOptions options) {
  Document document;
  DomBuilder builder(&document);
  XAOS_RETURN_IF_ERROR(xml::ParseString(xml_text, &builder, options));
  return document;
}

}  // namespace xaos::dom
