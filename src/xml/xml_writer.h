// Streaming XML writer: builds well-formed documents into a growing string.
// Used by the workload generators (src/gen) and the DOM serializer.

#ifndef XAOS_XML_XML_WRITER_H_
#define XAOS_XML_XML_WRITER_H_

#include <string>
#include <string_view>
#include <vector>

#include "xml/sax_event.h"

namespace xaos::xml {

// Minimal writer with optional indentation. Element nesting is tracked and
// checked: closing more elements than were opened aborts (programming
// error). Typical use:
//
//   std::string out;
//   XmlWriter w(&out, /*indent=*/2);
//   w.StartElement("site");
//   w.WriteAttribute("id", "s1");   // must precede content
//   w.WriteText("hello & goodbye");
//   w.EndElement();                 // </site>
class XmlWriter {
 public:
  // `out` must outlive the writer. `indent` spaces per depth level;
  // 0 writes everything on one line.
  explicit XmlWriter(std::string* out, int indent = 0);

  // Writes an XML declaration; call first if at all.
  void WriteDeclaration();

  void StartElement(std::string_view name);
  // Adds an attribute to the most recently started element. Must be called
  // before any content or child element is written.
  void WriteAttribute(std::string_view name, std::string_view value);
  void EndElement();

  // Writes escaped character data.
  void WriteText(std::string_view text);

  // Opens + closes an element holding only `text`.
  void WriteTextElement(std::string_view name, std::string_view text);

  int depth() const { return static_cast<int>(open_.size()); }

 private:
  void CloseStartTagIfOpen();
  void Newline();

  std::string* out_;
  int indent_;
  std::vector<std::string> open_;
  bool start_tag_open_ = false;   // "<name ..." not yet closed with '>'
  bool last_was_text_ = false;    // suppress indentation around text
};

}  // namespace xaos::xml

#endif  // XAOS_XML_XML_WRITER_H_
