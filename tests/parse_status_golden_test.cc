// Pins the exact Status (code, and message with line and column) of every
// malformed and over-limit input the parser tests use, to
// parse_status.golden, recorded before the parser wrote records itself.
// Each input runs under four chunk schedules — 1 byte, 7 bytes, 64 KB and
// the whole document — and through a plain ContentHandler and the
// production stack (an engine-backed MultiQueryEvaluator fed by the parser,
// three records per batch), once with unanchored queries (element elision on,
// nothing projected) and once with rooted ones (projection skips too), so
// an error inside an elided or skipped element is pinned as well.
//
// The inputs: the well-formedness and limit cases of sax_parser_test and
// parser_limits_test, every prefix and a single-byte corruption sweep of
// fault_injection_test's corpus document, and route-hostile's two failure
// shapes (a mismatched end tag three quarters in, a run of unclosed
// elements past the depth limit) over generated documents.
//
// On a mismatch the full dump is written next to the test binary as
// parse_status.actual.

#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/multi_engine.h"
#include "gen/random_workload.h"
#include "gtest/gtest.h"
#include "xml/entities.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace xaos {
namespace {

struct Case {
  std::string name;
  std::string document;
  xml::ParserOptions options;
};

const char kCorpusDoc[] =
    "<?xml version=\"1.0\"?><!-- preamble --><root a=\"1&amp;2\">"
    "<b><c x='y'>text ] and ]] brackets</c><![CDATA[raw <markup> ]]>"
    "<?pi data?></b><d/>&lt;tail&gt;</root>";

std::vector<Case> Cases() {
  std::vector<Case> cases;
  auto add = [&](std::string name, std::string document,
                 xml::ParserOptions options = {}) {
    cases.push_back({std::move(name), std::move(document), options});
  };
  // Well-formedness (sax_parser_test).
  add("mismatched", "<a><b></a></b>");
  add("unclosed", "<a><b>");
  add("two-roots", "<a/><b/>");
  add("no-root-ws", "  ");
  add("no-root-comment", "<!-- only a comment -->");
  add("text-before-root", "hello<a/>");
  add("text-after-root", "<a/>world");
  add("unquoted", "<a x=1/>");
  add("duplicate", "<a x=\"1\" x=\"2\"/>");
  add("duplicate-unknown", "<a u1=\"1\" u1=\"2\"/>");
  const std::string long_name(40, 'u');
  add("duplicate-long",
      "<a " + long_name + "=\"1\" " + long_name + "=\"2\"/>");
  add("bad-entity", "<a>&nope;</a>");
  add("bad-charref", "<a>&#xZZ;</a>");
  add("bare-amp", "<a>& bare</a>");
  add("bad-name", "<1a/>");
  add("bad-attr-name", "<a 1x=\"v\"/>");
  add("lt-in-value", "<a x=\"<\"/>");
  add("double-hyphen", "<a><!-- x -- y --></a>");
  add("end-without-open", "</a>");
  add("eof-in-tag", "<a><b");
  add("eof-in-comment", "<a><!-- unterminated");
  add("eof-in-cdata", "<a><![CDATA[raw");
  add("late-xml-decl", " <?xml version=\"1.0\"?><a/>");
  add("position", "<a>\n  <b></c>\n</a>");
  add("position-attr", "<a>\n<b\n x='1'\n y=1/></a>");
  add("cdata-close", "<a>]]></a>");
  add("cdata-close-text", "<a>text]]>more</a>");
  add("ctl-text", std::string("<a>x\0y</a>", 10));
  add("ctl-text-1", "<a>x\x01y</a>");
  add("ctl-value", std::string("<a v='x\0y'/>", 12));
  add("ctl-value-7", "<a v='x\x07y'/>");
  add("junk-end-tag", "<a></a x>");
  add("stray-lt", "<a><b <c></b></a>");
  add("no-ws-between-attrs", "<a x='1'y='2'/>");
  add("missing-eq", "<a x '1'/>");
  add("unterminated-value", "<a x='1/>");
  add("deep-elided-mismatch", "<r><x1><x2><x3 k='v'>t</x3></x2></x9></r>");
  add("elided-duplicate", "<r><x1 k='1' k='2'/></r>");
  add("elided-bad-ref", "<r><x1 k='&bad;'/></r>");
  add("elided-text-ctl", "<r><x1>a\x02</x1></r>");
  std::string overlong =
      "<a>&" + std::string(xml::kMaxReferenceBodyBytes + 1, 'e') + ";</a>";
  add("overlong-ref", overlong);
  add("overlong-ref-attr",
      "<a v='&" + std::string(xml::kMaxReferenceBodyBytes + 1, 'e') +
          ";'/>");
  // Limits (parser_limits_test).
  xml::ParserOptions depth;
  depth.limits.max_depth = 4;
  add("max-depth", "<a><b><c><d><e/></d></c></b></a>", depth);
  xml::ParserOptions attrs;
  attrs.limits.max_attribute_count = 3;
  add("max-attrs", "<a x='1' y='2' z='3' w='4'/>", attrs);
  add("max-attrs-elided", "<r><q x='1' y='2' z='3' w='4'/></r>", attrs);
  xml::ParserOptions value;
  value.limits.max_attribute_value_bytes = 8;
  add("max-value", "<a v='123456789'/>", value);
  xml::ParserOptions name;
  name.limits.max_name_bytes = 6;
  add("max-name", "<abcdefg/>", name);
  add("max-attr-name", "<a abcdefg='v'/>", name);
  add("max-pi-name", "<a><?abcdefg data?></a>", name);
  add("max-end-name", "<a>x</abcdefg>", name);
  xml::ParserOptions token;
  token.limits.max_token_bytes = 64;
  add("max-token", "<a><!-- " + std::string(100, 'c'), token);
  xml::ParserOptions total;
  total.limits.max_total_bytes = 17;
  add("max-total", "<a>0123456789x</a>", total);
  xml::ParserOptions refs;
  refs.limits.max_entity_references = 3;
  add("max-refs-text", "<a>&amp;&lt;&gt;&quot;</a>", refs);
  add("max-refs-mixed", "<a v='&amp;&lt;'>&gt;&quot;</a>", refs);
  // Every prefix, and a corruption sweep, of the fault-injection corpus.
  const std::string corpus = kCorpusDoc;
  for (size_t cut = 0; cut < corpus.size(); ++cut) {
    add("chop-" + std::to_string(cut), corpus.substr(0, cut));
  }
  for (size_t at = 0; at < corpus.size(); ++at) {
    for (unsigned mask : {0xFFu, 0x01u, 0x20u}) {
      std::string doc = corpus;
      doc[at] = static_cast<char>(doc[at] ^ mask);
      add("corrupt-" + std::to_string(at) + "-" + std::to_string(mask), doc);
    }
  }
  // route-hostile's failure shapes over generated documents.
  std::mt19937_64 rng(0x6765746f6c64ull);
  gen::RandomQueryOptions query_options;
  query_options.alphabet = 26;
  gen::RandomDocOptions doc_options;
  doc_options.alphabet = 26;
  doc_options.target_elements = 100;
  xml::ParserOptions hostile;
  hostile.limits.max_depth = 128;
  for (int i = 0; i < 6; ++i) {
    xpath::LocationPath path = gen::GenerateRandomPath(query_options, rng);
    StatusOr<std::string> text =
        gen::GenerateDocumentForPath(path, doc_options, rng);
    if (!text.ok()) continue;
    std::string bad = *text;
    bad[bad.find("</", bad.size() * 3 / 4) + 2] = '_';
    add("hostile-mismatch-" + std::to_string(i), bad, hostile);
    std::string deep = *text;
    std::string run;
    for (int d = 0; d < 256; ++d) run += "<deep>";
    deep.insert(deep.find('<', deep.size() / 2), run);
    add("hostile-deep-" + std::to_string(i), deep, hostile);
  }
  return cases;
}

Status Parse(const std::string& document, size_t chunk,
             xml::ContentHandler* handler, const xml::ParserOptions& options) {
  xml::SaxParser parser(handler, options);
  std::string_view rest = document;
  while (!rest.empty()) {
    const size_t n = std::min(chunk, rest.size());
    XAOS_RETURN_IF_ERROR(parser.Feed(rest.substr(0, n)));
    rest.remove_prefix(n);
  }
  return parser.Finish();
}

// An engine-backed evaluator over `expressions` (no shared automaton, so
// element elision is on whenever the queries allow it).
std::unique_ptr<core::MultiQueryEvaluator> Evaluator(
    const std::vector<std::string>& expressions) {
  core::EngineOptions engine_options;
  engine_options.enable_shared_index = false;
  core::BatchedDispatchOptions budget;
  budget.max_batch_events = 3;
  auto evaluator =
      std::make_unique<core::MultiQueryEvaluator>(engine_options, budget);
  for (const std::string& expression : expressions) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    EXPECT_TRUE(query.ok()) << expression;
    if (query.ok()) evaluator->AddQuery(*query);
  }
  return evaluator;
}

std::string Dump() {
  // Unanchored queries over names the cases use: elision on, projection
  // keeps everything. Rooted queries: projection skips, elision on.
  std::unique_ptr<core::MultiQueryEvaluator> elide =
      Evaluator({"//b/c", "//r//x3", "//a/d", "//a[@x]"});
  std::unique_ptr<core::MultiQueryEvaluator> project =
      Evaluator({"/a/b/c", "/r/x1/x3", "/root/b/c", "/a[@x]", "/doc/a/b"});
  struct Stack {
    const char* name;
    core::MultiQueryEvaluator* evaluator;
  };
  const Stack stacks[] = {{"elide", elide.get()}, {"project", project.get()}};

  std::ostringstream dump;
  const std::vector<Case> cases = Cases();
  for (const Case& c : cases) {
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{64} << 10,
                         c.document.size() + 1}) {
      // A schedule no shorter than the document is the whole-document one.
      if (chunk >= c.document.size() && chunk != c.document.size() + 1) {
        continue;
      }
      const std::string schedule =
          chunk > c.document.size() ? "whole" : std::to_string(chunk);
      xml::EventRecorder recorder;
      dump << c.name << " plain " << schedule << ": "
           << Parse(c.document, chunk, &recorder, c.options).ToString()
           << "\n";
      for (const Stack& stack : stacks) {
        xml::ParserOptions production = c.options;
        production.projection_filter = stack.evaluator->projection_filter();
        Status status = Parse(c.document, chunk, stack.evaluator, production);
        if (!status.ok()) stack.evaluator->AbortDocument(status);
        dump << c.name << " " << stack.name << " " << schedule << ": "
             << status.ToString() << "\n";
      }
    }
  }
  return dump.str();
}

TEST(ParseStatusGoldenTest, StatusesMatchTheRecordedParser) {
  const std::string actual = Dump();
  std::ifstream in(XAOS_PARSE_STATUS_GOLDEN);
  std::stringstream expected;
  expected << in.rdbuf();
  if (actual != expected.str()) {
    std::ofstream("parse_status.actual") << actual;
  }
  ASSERT_TRUE(in.good() || !expected.str().empty())
      << "cannot read " << XAOS_PARSE_STATUS_GOLDEN;
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  size_t line = 0;
  while (std::getline(want, want_line)) {
    ++line;
    ASSERT_TRUE(std::getline(got, got_line))
        << "dump ends early at golden line " << line;
    EXPECT_EQ(got_line, want_line) << "line " << line;
  }
  EXPECT_FALSE(std::getline(got, got_line)) << "dump longer than the golden";
}

}  // namespace
}  // namespace xaos
