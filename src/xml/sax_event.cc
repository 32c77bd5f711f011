#include "xml/sax_event.h"

namespace xaos::xml {

AttributeSpan MakeAttributeViews(const std::vector<Attribute>& attributes,
                                 std::vector<AttributeView>* scratch) {
  scratch->clear();
  scratch->reserve(attributes.size());
  for (const Attribute& attr : attributes) {
    scratch->push_back({attr.name, attr.value, util::kInvalidSymbol});
  }
  return AttributeSpan(*scratch);
}

std::string EventToString(const Event& event) {
  switch (event.kind) {
    case Event::Kind::kStartDocument:
      return "<doc>";
    case Event::Kind::kEndDocument:
      return "</doc>";
    case Event::Kind::kStartElement: {
      std::string out = "<" + event.name;
      for (const Attribute& attr : event.attributes) {
        out += " " + attr.name + "=\"" + attr.value + "\"";
      }
      out += ">";
      return out;
    }
    case Event::Kind::kEndElement:
      return "</" + event.name + ">";
    case Event::Kind::kCharacters:
      return "text(\"" + event.text + "\")";
  }
  return "?";
}

void ReplayEvents(const std::vector<Event>& events, ContentHandler* handler) {
  std::vector<AttributeView> scratch;
  for (const Event& event : events) {
    switch (event.kind) {
      case Event::Kind::kStartDocument:
        handler->StartDocument();
        break;
      case Event::Kind::kEndDocument:
        handler->EndDocument();
        break;
      case Event::Kind::kStartElement:
        handler->StartElement(event.name,
                              MakeAttributeViews(event.attributes, &scratch));
        break;
      case Event::Kind::kEndElement:
        handler->EndElement(event.name);
        break;
      case Event::Kind::kCharacters:
        handler->Characters(event.text);
        break;
    }
  }
}

}  // namespace xaos::xml
