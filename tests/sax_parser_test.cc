// Streaming XML parser tests: event correctness, chunked feeding,
// well-formedness errors, options.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/symbol_table.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace xaos::xml {
namespace {

// Parses and renders events as compact strings.
std::vector<std::string> Parse(std::string_view doc, ParserOptions options = {}) {
  EventRecorder recorder;
  Status status = ParseString(doc, &recorder, options);
  EXPECT_TRUE(status.ok()) << status;
  std::vector<std::string> out;
  for (const Event& event : recorder.events()) {
    out.push_back(EventToString(event));
  }
  return out;
}

Status ParseError_(std::string_view doc, ParserOptions options = {}) {
  EventRecorder recorder;
  return ParseString(doc, &recorder, options);
}

TEST(SaxParserTest, MinimalDocument) {
  EXPECT_EQ(Parse("<a/>"),
            (std::vector<std::string>{"<doc>", "<a>", "</a>", "</doc>"}));
}

TEST(SaxParserTest, NestedElementsAndText) {
  EXPECT_EQ(Parse("<a><b>hi</b></a>"),
            (std::vector<std::string>{"<doc>", "<a>", "<b>", "text(\"hi\")",
                                      "</b>", "</a>", "</doc>"}));
}

TEST(SaxParserTest, Attributes) {
  EXPECT_EQ(Parse("<a x=\"1\" y='two'/>"),
            (std::vector<std::string>{"<doc>", "<a x=\"1\" y=\"two\">",
                                      "</a>", "</doc>"}));
}

TEST(SaxParserTest, AttributeEntityReferences) {
  EXPECT_EQ(Parse("<a x=\"a&amp;b &lt;&gt; &#65;\"/>"),
            (std::vector<std::string>{"<doc>", "<a x=\"a&b <> A\">", "</a>",
                                      "</doc>"}));
}

TEST(SaxParserTest, TextEntityAndCharacterReferences) {
  EXPECT_EQ(Parse("<a>&lt;tag&gt; &amp; &#x41;&#66;</a>"),
            (std::vector<std::string>{"<doc>", "<a>",
                                      "text(\"<tag> & AB\")", "</a>",
                                      "</doc>"}));
}

TEST(SaxParserTest, Utf8CharacterReference) {
  // U+00E9 (é) = 0xC3 0xA9.
  EventRecorder recorder;
  ASSERT_TRUE(ParseString("<a>&#233;</a>", &recorder).ok());
  EXPECT_EQ(recorder.events()[2].text, "\xC3\xA9");
}

TEST(SaxParserTest, CdataIsTextAndCoalesces) {
  EXPECT_EQ(Parse("<a>one <![CDATA[<raw&>]]> two</a>"),
            (std::vector<std::string>{"<doc>", "<a>",
                                      "text(\"one <raw&> two\")", "</a>",
                                      "</doc>"}));
}

TEST(SaxParserTest, WhitespaceOnlyTextDroppedByDefault) {
  EXPECT_EQ(Parse("<a>\n  <b/>\n</a>"),
            (std::vector<std::string>{"<doc>", "<a>", "<b>", "</b>", "</a>",
                                      "</doc>"}));
}

TEST(SaxParserTest, CommentsAndProcessingInstructionsSkipped) {
  EXPECT_EQ(Parse("<a>x<!-- note -->y<?target some data?>z</a>"),
            (std::vector<std::string>{"<doc>", "<a>", "text(\"xyz\")", "</a>",
                                      "</doc>"}));
}

TEST(SaxParserTest, XmlDeclarationAndDoctypeSkipped) {
  EXPECT_EQ(Parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
                  "<!DOCTYPE a [ <!ELEMENT a (b)*> ]>\n"
                  "<a/>"),
            (std::vector<std::string>{"<doc>", "<a>", "</a>", "</doc>"}));
}

// --- chunked feeding -------------------------------------------------------

TEST(SaxParserTest, ByteAtATimeFeedingMatchesOneShot) {
  const std::string doc =
      "<?xml version=\"1.0\"?><a x=\"1&amp;2\"><!--c--><b>t&#65;xt"
      "<![CDATA[raw]]></b> <c/></a>";

  EventRecorder one_shot;
  ASSERT_TRUE(ParseString(doc, &one_shot).ok());

  EventRecorder chunked;
  SaxParser parser(&chunked);
  for (char c : doc) {
    ASSERT_TRUE(parser.Feed(std::string_view(&c, 1)).ok());
  }
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_EQ(one_shot.events(), chunked.events());
}

TEST(SaxParserTest, VariousChunkSizesMatch) {
  std::string doc = "<root>";
  for (int i = 0; i < 50; ++i) {
    doc += "<item id=\"" + std::to_string(i) + "\">value &amp; " +
           std::to_string(i) + "</item>";
  }
  doc += "</root>";
  EventRecorder one_shot;
  ASSERT_TRUE(ParseString(doc, &one_shot).ok());

  for (size_t chunk : {1u, 2u, 3u, 7u, 16u, 61u, 256u}) {
    EventRecorder chunked;
    SaxParser parser(&chunked);
    for (size_t i = 0; i < doc.size(); i += chunk) {
      ASSERT_TRUE(
          parser.Feed(std::string_view(doc).substr(i, chunk)).ok());
    }
    ASSERT_TRUE(parser.Finish().ok());
    EXPECT_EQ(one_shot.events(), chunked.events()) << "chunk=" << chunk;
  }
}

// --- well-formedness errors ------------------------------------------------

TEST(SaxParserErrorTest, MismatchedEndTag) {
  Status s = ParseError_("<a><b></a></b>");
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("mismatched end tag"), std::string::npos);
}

TEST(SaxParserErrorTest, UnclosedElement) {
  EXPECT_FALSE(ParseError_("<a><b>").ok());
}

TEST(SaxParserErrorTest, MultipleRoots) {
  EXPECT_FALSE(ParseError_("<a/><b/>").ok());
}

TEST(SaxParserErrorTest, NoRoot) {
  EXPECT_FALSE(ParseError_("  ").ok());
  EXPECT_FALSE(ParseError_("<!-- only a comment -->").ok());
}

TEST(SaxParserErrorTest, TextOutsideRoot) {
  EXPECT_FALSE(ParseError_("hello<a/>").ok());
  EXPECT_FALSE(ParseError_("<a/>world").ok());
}

TEST(SaxParserErrorTest, UnquotedAttribute) {
  EXPECT_FALSE(ParseError_("<a x=1/>").ok());
}

TEST(SaxParserErrorTest, DuplicateAttribute) {
  Status s = ParseError_("<a x=\"1\" x=\"2\"/>");
  EXPECT_NE(s.message().find("duplicate attribute"), std::string::npos);
}

// Names no compiled query mentions all resolve to kUnknownSymbol, so
// attribute uniqueness among them falls back to comparing bytes — for
// names the parser's name cache holds and for ones too long for it.
TEST(SaxParserErrorTest, DuplicateUnknownAttribute) {
  ASSERT_EQ(util::SymbolTable::Global().Lookup("u1"), util::kInvalidSymbol);
  Status s = ParseError_("<a u1=\"1\" u1=\"2\"/>");
  EXPECT_NE(s.message().find("duplicate attribute 'u1'"), std::string::npos)
      << s;
  const std::string long_name(40, 'u');
  s = ParseError_("<a " + long_name + "=\"1\" " + long_name + "=\"2\"/>");
  EXPECT_NE(s.message().find("duplicate attribute"), std::string::npos) << s;
}

TEST(SaxParserTest, DistinctUnknownAttributesAccepted) {
  EXPECT_EQ(Parse("<a u1=\"1\" u2=\"2\"/>"),
            (std::vector<std::string>{"<doc>", "<a u1=\"1\" u2=\"2\">",
                                      "</a>", "</doc>"}));
  const std::string prefix(40, 'u');
  EXPECT_TRUE(ParseError_("<a " + prefix + "1=\"1\" " + prefix + "2=\"2\"/>")
                  .ok());
}

// Records the symbols the parser resolved for each element and attribute.
class SymbolRecorder : public ContentHandler {
 public:
  void StartElement(const QName& name, AttributeSpan attributes) override {
    symbols.push_back(name.symbol);
    for (const AttributeView& attr : attributes) symbols.push_back(attr.symbol);
  }
  std::vector<util::Symbol> symbols;
};

TEST(SaxParserTest, ResolvesNamesWithoutInterning) {
  util::SymbolTable& table = util::SymbolTable::Global();
  const util::Symbol known = table.Intern("known_elem");
  const size_t size_before = table.size();
  SymbolRecorder recorder;
  ASSERT_TRUE(ParseString("<known_elem fresh_attr=\"1\"><fresh_elem "
                          "known_elem=\"2\"/></known_elem>",
                          &recorder)
                  .ok());
  EXPECT_EQ(recorder.symbols,
            (std::vector<util::Symbol>{known, util::kUnknownSymbol,
                                       util::kUnknownSymbol, known}));
  EXPECT_EQ(table.size(), size_before);
  EXPECT_EQ(table.Lookup("fresh_elem"), util::kInvalidSymbol);
  EXPECT_EQ(table.Name(util::kUnknownSymbol), util::kUnknownName);
}

// More names than the parser's name cache holds, of every cached length,
// many sharing letters and lengths, each resolved again after evictions:
// every symbol must still be the table's.
TEST(SaxParserTest, NameCacheEvictionKeepsSymbolsExact) {
  util::SymbolTable& table = util::SymbolTable::Global();
  std::vector<std::string> names;
  for (size_t length = 1; length <= 24; ++length) {
    for (char c : std::string("abcdefghijklm")) {
      std::string name(length, 'x');
      name.front() = c;
      name[length / 2] = static_cast<char>('a' + length % 26);
      names.push_back(name);
      if (c < 'e') table.Intern(name);  // some in the vocabulary
    }
  }
  std::string doc = "<root>";
  for (int pass = 0; pass < 3; ++pass) {
    for (const std::string& name : names) doc += "<" + name + "/>";
  }
  doc += "</root>";
  SymbolRecorder recorder;
  ASSERT_TRUE(ParseString(doc, &recorder).ok());
  ASSERT_EQ(recorder.symbols.size(), 1 + 3 * names.size());
  for (size_t i = 1; i < recorder.symbols.size(); ++i) {
    const std::string& name = names[(i - 1) % names.size()];
    const util::Symbol expected = table.Lookup(name);
    EXPECT_EQ(recorder.symbols[i], expected == util::kInvalidSymbol
                                       ? util::kUnknownSymbol
                                       : expected)
        << name;
  }
}

TEST(SaxParserErrorTest, BadEntity) {
  EXPECT_FALSE(ParseError_("<a>&nope;</a>").ok());
  EXPECT_FALSE(ParseError_("<a>&#xZZ;</a>").ok());
  EXPECT_FALSE(ParseError_("<a>& bare</a>").ok());
}

TEST(SaxParserErrorTest, InvalidNames) {
  EXPECT_FALSE(ParseError_("<1a/>").ok());
  EXPECT_FALSE(ParseError_("<a 1x=\"v\"/>").ok());
}

TEST(SaxParserErrorTest, LtInAttributeValue) {
  EXPECT_FALSE(ParseError_("<a x=\"<\"/>").ok());
}

TEST(SaxParserErrorTest, DoubleHyphenInComment) {
  EXPECT_FALSE(ParseError_("<a><!-- x -- y --></a>").ok());
}

TEST(SaxParserErrorTest, EndTagWithoutOpen) {
  EXPECT_FALSE(ParseError_("</a>").ok());
}

TEST(SaxParserErrorTest, EofInsideMarkup) {
  EXPECT_FALSE(ParseError_("<a><b").ok());
  EXPECT_FALSE(ParseError_("<a><!-- unterminated").ok());
  EXPECT_FALSE(ParseError_("<a><![CDATA[raw").ok());
}

TEST(SaxParserErrorTest, XmlDeclarationNotAtStart) {
  EXPECT_FALSE(ParseError_(" <?xml version=\"1.0\"?><a/>").ok());
}

TEST(SaxParserErrorTest, ErrorMessagesCarryPosition) {
  Status s = ParseError_("<a>\n  <b></c>\n</a>");
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

TEST(SaxParserErrorTest, MaxDepthEnforced) {
  ParserOptions options;
  options.limits.max_depth = 8;
  std::string doc;
  for (int i = 0; i < 9; ++i) doc += "<a>";
  for (int i = 0; i < 9; ++i) doc += "</a>";
  EXPECT_FALSE(ParseError_(doc, options).ok());
}

TEST(SaxParserTest, ElementCountTracksStartEvents) {
  EventRecorder recorder;
  SaxParser parser(&recorder);
  ASSERT_TRUE(parser.Feed("<a><b/><b/></a>").ok());
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_EQ(parser.element_count(), 3u);
}

}  // namespace
}  // namespace xaos::xml
