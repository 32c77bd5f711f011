// Event model for streaming XML processing.
//
// The χαoς paper (Section 2.2) drives its algorithm from SAX-style start/end
// element events carrying the element name and level. This header defines
// the event vocabulary produced by xml::SaxParser and dom::DomReplayer and
// consumed by ContentHandler implementations (core::XaosEngine,
// dom::DomBuilder, ...).
//
// Names travel as views paired with Symbols (util/symbol_table.h): the
// parser resolves each element/attribute name against the compiled query
// vocabulary once per event (names no query mentions get kUnknownSymbol),
// and consumers that index by name (the engine's candidate tables, the
// multi-query dispatcher) use the integer id instead of hashing the string
// again. Producers that cannot cheaply supply a Symbol pass kInvalidSymbol;
// consumers fall back to SymbolTable::Global().Lookup().

#ifndef XAOS_XML_SAX_EVENT_H_
#define XAOS_XML_SAX_EVENT_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/symbol_table.h"

namespace xaos::xml {

// An element or attribute name: the spelling plus (optionally) its
// resolved Symbol. Implicitly convertible from and to string_view so
// handler code that only cares about the text keeps reading naturally.
struct QName {
  std::string_view text;
  util::Symbol symbol = util::kInvalidSymbol;

  QName() = default;
  QName(std::string_view t) : text(t) {}                        // NOLINT
  QName(const char* t) : text(t) {}                             // NOLINT
  QName(const std::string& t) : text(t) {}                      // NOLINT
  QName(std::string_view t, util::Symbol s) : text(t), symbol(s) {}
  operator std::string_view() const { return text; }            // NOLINT
};

// A single attribute of a start-element event. The value has entity and
// character references already resolved. Non-owning: the views are only
// valid for the duration of the StartElement call.
struct AttributeView {
  std::string_view name;
  std::string_view value;
  util::Symbol symbol = util::kInvalidSymbol;  // resolved `name`, if known
};

using AttributeSpan = std::span<const AttributeView>;

// Summary of a subtree the parser skipped under document projection
// (xml/skip_scanner.h). The subtree produced no Start/End/Characters
// events; consumers that assign dense node ids advance their counters by
// `node_ids` so ids downstream of the skip are identical to a full parse.
struct SkipReport {
  uint64_t elements = 0;  // element count, including the skipped root
  uint64_t node_ids = 0;  // ids the subtree would have consumed
                          // (elements + attributes + reported text runs)
  uint64_t bytes = 0;     // raw document bytes covered by the skip
};

// An owning attribute, for materialized events and DOM storage.
struct Attribute {
  std::string name;
  std::string value;

  friend bool operator==(const Attribute& a, const Attribute& b) {
    return a.name == b.name && a.value == b.value;
  }
};

// Fills `scratch` with views over owned `attributes` and returns a span of
// it — the bridge for producers that store Attributes (event replay, DOM
// replay). Symbols are left unresolved.
AttributeSpan MakeAttributeViews(const std::vector<Attribute>& attributes,
                                 std::vector<AttributeView>* scratch);

// Interface for consumers of a stream of parse events. Methods are invoked
// in document order; StartElement/EndElement calls are properly nested.
// Default implementations ignore the event, so handlers only override what
// they need.
class ContentHandler {
 public:
  virtual ~ContentHandler() = default;

  // Invoked once before any other event.
  virtual void StartDocument() {}
  // Invoked once after the document element closes (and trailing misc).
  virtual void EndDocument() {}

  // `name` and `attributes` (including every view they contain) are only
  // valid for the duration of the call.
  virtual void StartElement(const QName& name, AttributeSpan attributes) {
    (void)name;
    (void)attributes;
  }
  virtual void EndElement(std::string_view name) { (void)name; }

  // Character data; references are resolved. May be invoked multiple times
  // for one contiguous run unless the producer coalesces (SaxParser does
  // when ParserOptions::coalesce_text is set).
  virtual void Characters(std::string_view text) { (void)text; }

  // Invoked in place of the event stream of a subtree the producer skipped
  // under document projection. Only emitted when a ProjectionFilter is
  // installed (xml/skip_scanner.h); handlers that track dense node ids
  // advance them by `report.node_ids`. Default: ignore.
  virtual void SkippedSubtree(const SkipReport& report) { (void)report; }

  virtual void Comment(std::string_view text) { (void)text; }
  virtual void ProcessingInstruction(std::string_view target,
                                     std::string_view data) {
    (void)target;
    (void)data;
  }
};

// A materialized event, convenient for tests and for recording/replaying
// streams. Produced by EventRecorder.
struct Event {
  enum class Kind {
    kStartDocument,
    kEndDocument,
    kStartElement,
    kEndElement,
    kCharacters,
    kComment,
    kProcessingInstruction,
  };

  Kind kind;
  std::string name;                    // element name or PI target
  std::string text;                    // characters / comment / PI data
  std::vector<Attribute> attributes;   // start-element only

  friend bool operator==(const Event& a, const Event& b) {
    return a.kind == b.kind && a.name == b.name && a.text == b.text &&
           a.attributes == b.attributes;
  }
};

// Renders an event as a compact debug string, e.g. `<a x="1">`, `</a>`,
// `text("hi")`.
std::string EventToString(const Event& event);

// ContentHandler that materializes the stream into a vector of Events.
class EventRecorder : public ContentHandler {
 public:
  void StartDocument() override {
    events_.push_back({Event::Kind::kStartDocument, "", "", {}});
  }
  void EndDocument() override {
    events_.push_back({Event::Kind::kEndDocument, "", "", {}});
  }
  void StartElement(const QName& name, AttributeSpan attributes) override {
    Event event{Event::Kind::kStartElement, std::string(name.text), "", {}};
    event.attributes.reserve(attributes.size());
    for (const AttributeView& attr : attributes) {
      event.attributes.push_back(
          {std::string(attr.name), std::string(attr.value)});
    }
    events_.push_back(std::move(event));
  }
  void EndElement(std::string_view name) override {
    events_.push_back({Event::Kind::kEndElement, std::string(name), "", {}});
  }
  void Characters(std::string_view text) override {
    events_.push_back({Event::Kind::kCharacters, "", std::string(text), {}});
  }
  void Comment(std::string_view text) override {
    events_.push_back({Event::Kind::kComment, "", std::string(text), {}});
  }
  void ProcessingInstruction(std::string_view target,
                             std::string_view data) override {
    events_.push_back({Event::Kind::kProcessingInstruction,
                       std::string(target), std::string(data), {}});
  }

  const std::vector<Event>& events() const { return events_; }
  void Clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

// Replays recorded events into a handler.
void ReplayEvents(const std::vector<Event>& events, ContentHandler* handler);

}  // namespace xaos::xml

#endif  // XAOS_XML_SAX_EVENT_H_
