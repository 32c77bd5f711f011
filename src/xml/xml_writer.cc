#include "xml/xml_writer.h"

#include "util/check.h"
#include "xml/entities.h"

namespace xaos::xml {

XmlWriter::XmlWriter(std::string* out, int indent)
    : out_(out), indent_(indent) {
  XAOS_CHECK(out_ != nullptr);
}

void XmlWriter::WriteDeclaration() {
  XAOS_CHECK(out_->empty()) << "declaration must be first";
  *out_ += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
}

void XmlWriter::Newline() {
  if (indent_ <= 0 || out_->empty()) return;
  out_->push_back('\n');
  out_->append(static_cast<size_t>(indent_) * open_.size(), ' ');
}

void XmlWriter::CloseStartTagIfOpen() {
  if (!start_tag_open_) return;
  out_->push_back('>');
  start_tag_open_ = false;
}

void XmlWriter::StartElement(std::string_view name) {
  CloseStartTagIfOpen();
  if (!last_was_text_) Newline();
  out_->push_back('<');
  out_->append(name);
  open_.emplace_back(name);
  start_tag_open_ = true;
  last_was_text_ = false;
}

void XmlWriter::WriteAttribute(std::string_view name, std::string_view value) {
  XAOS_CHECK(start_tag_open_) << "WriteAttribute outside a start tag";
  out_->push_back(' ');
  out_->append(name);
  out_->append("=\"");
  out_->append(EscapeAttributeValue(value));
  out_->push_back('"');
}

void XmlWriter::WriteText(std::string_view text) {
  XAOS_CHECK(!open_.empty()) << "text outside the document element";
  CloseStartTagIfOpen();
  out_->append(EscapeText(text));
  last_was_text_ = true;
}

void XmlWriter::EndElement() {
  XAOS_CHECK(!open_.empty()) << "EndElement with no open element";
  std::string name = open_.back();
  if (start_tag_open_) {
    out_->append("/>");
    start_tag_open_ = false;
    open_.pop_back();
  } else {
    open_.pop_back();
    if (!last_was_text_) Newline();
    out_->append("</");
    out_->append(name);
    out_->push_back('>');
  }
  last_was_text_ = false;
}

void XmlWriter::WriteTextElement(std::string_view name, std::string_view text) {
  StartElement(name);
  WriteText(text);
  EndElement();
}

}  // namespace xaos::xml
