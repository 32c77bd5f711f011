// Differential tests for the vectorized structural front-end
// (xml/structural_scanner.h): every available backend must be
// indistinguishable from the portable scalar oracle — identical kernel
// masks on arbitrary bytes, and identical SAX event streams, outcomes and
// error positions on real parses, whatever the chunk schedule.

#include "xml/structural_scanner.h"

#include <random>
#include <string>
#include <vector>

#include "gen/random_workload.h"
#include "gen/xmark_generator.h"
#include "gtest/gtest.h"
#include "util/status.h"
#include "xml/fault_injection.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace xaos::xml {
namespace {

std::vector<ScannerBackend> AvailableBackends() {
  std::vector<ScannerBackend> backends;
  for (ScannerBackend b : {ScannerBackend::kScalar, ScannerBackend::kSwar,
                           ScannerBackend::kSse2, ScannerBackend::kAvx2}) {
    if (ScannerBackendAvailable(b)) backends.push_back(b);
  }
  return backends;
}

bool MasksEqual(const BlockMasks& a, const BlockMasks& b) {
  return a.lt == b.lt && a.gt == b.gt && a.dquote == b.dquote &&
         a.squote == b.squote && a.amp == b.amp && a.rbracket == b.rbracket &&
         a.newline == b.newline && a.ws == b.ws && a.ctl == b.ctl;
}

// Every kernel must match the scalar kernel on the given 64-byte block.
void ExpectKernelsAgree(const char* block, const std::string& label) {
  ClassifyBlockFn scalar = ScannerKernelForTest(ScannerBackend::kScalar);
  ASSERT_NE(scalar, nullptr);
  BlockMasks want;
  scalar(block, &want);
  for (ScannerBackend backend : AvailableBackends()) {
    ClassifyBlockFn kernel = ScannerKernelForTest(backend);
    ASSERT_NE(kernel, nullptr);
    BlockMasks got;
    kernel(block, &got);
    EXPECT_TRUE(MasksEqual(got, want))
        << label << ": backend " << ScannerBackendName(backend)
        << " disagrees with scalar";
  }
}

TEST(ScannerKernels, AgreeOnEverySingleByteValue) {
  // Each of the 256 byte values, alone in an otherwise-'a' block and
  // repeated across the whole block.
  for (int value = 0; value < 256; ++value) {
    char block[kScannerBlockBytes];
    for (char& c : block) c = 'a';
    block[0] = static_cast<char>(value);
    block[31] = static_cast<char>(value);
    block[63] = static_cast<char>(value);
    ExpectKernelsAgree(block, "sparse byte " + std::to_string(value));
    for (char& c : block) c = static_cast<char>(value);
    ExpectKernelsAgree(block, "dense byte " + std::to_string(value));
  }
}

TEST(ScannerKernels, AgreeOnRandomBlocks) {
  std::mt19937_64 rng(20030226);  // ICDE 2003
  // Half fully random bytes, half random draws from XML-dense bytes.
  const char xmlish[] = "<>\"'&]\n\r\t <<a=// -?![x";
  for (int round = 0; round < 2000; ++round) {
    char block[kScannerBlockBytes];
    if (round % 2 == 0) {
      for (char& c : block) c = static_cast<char>(rng() & 0xFF);
    } else {
      for (char& c : block) c = xmlish[rng() % (sizeof(xmlish) - 1)];
    }
    ExpectKernelsAgree(block, "random block " + std::to_string(round));
  }
}

// Parses `doc` one-shot under `backend`, returning status and events.
Status ParseWith(ScannerBackend backend, std::string_view doc,
                 EventRecorder* recorder, ParserOptions options = {}) {
  options.scanner_backend = backend;
  return ParseString(doc, recorder, options);
}

// Full-parse differential: all backends must produce scalar's exact event
// stream, status code and message (messages embed line/column, so this is
// also the byte-exact error-position check).
void ExpectParseAgreement(std::string_view doc, ParserOptions options = {},
                          const std::string& label = "") {
  options.scanner_backend = ScannerBackend::kScalar;
  EventRecorder want;
  Status want_status = ParseString(doc, &want, options);
  for (ScannerBackend backend : AvailableBackends()) {
    if (backend == ScannerBackend::kScalar) continue;
    options.scanner_backend = backend;
    EventRecorder got;
    Status got_status = ParseString(doc, &got, options);
    EXPECT_EQ(got_status.code(), want_status.code())
        << label << ": " << ScannerBackendName(backend);
    EXPECT_EQ(got_status.message(), want_status.message())
        << label << ": " << ScannerBackendName(backend);
    EXPECT_TRUE(got.events() == want.events())
        << label << ": event stream diverged under "
        << ScannerBackendName(backend);
  }
}

TEST(ScannerDifferential, XMarkDocument) {
  gen::XMarkOptions options;
  options.scale = 0.002;
  options.indent = 1;  // newlines + indentation exercise position tracking
  ExpectParseAgreement(gen::GenerateXMark(options), {}, "xmark");
}

TEST(ScannerDifferential, RandomWorkloadDocuments) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    gen::RandomDocOptions doc_options;
    doc_options.target_elements = 2000;
    auto workload =
        gen::GenerateWorkload(gen::RandomQueryOptions{}, doc_options, seed);
    ASSERT_TRUE(workload.ok());
    ExpectParseAgreement(workload->document, {},
                         "workload seed " + std::to_string(seed));
  }
}

TEST(ScannerDifferential, QuoteAndBoundaryShapes) {
  // Owning strings: two shapes are built from temporaries.
  const std::string docs[] = {
      // '>' and '<' inside quoted values, both quote kinds.
      R"(<a x="v>1" y='v<2' z="a'b" w='c"d'><b/></a>)",
      // Tag body straddling a 64-byte block boundary.
      "<r>" + std::string(50, 'p') + R"(<e one="aaaa>bbbb" two='cccc'/></r>)",
      // Attribute value spanning two blocks.
      "<e long=\"" + std::string(100, 'v') + "\"/>",
      // Newlines everywhere positions could drift.
      "<a\n x=\"1\"\n>\n text \n<b\n/>\n</a>",
      // CDATA with bracket runs; comments; PI.
      "<a><![CDATA[ ]]>]]><b><!-- -- is illegal --></b><?pi data?></a>",
      "<a><![CDATA[x]]]]><![CDATA[>]]></a><?p?>",
      // Whitespace-only runs and references.
      "<a> &#x20;\t\r\n <b>&amp;&lt;&gt;&quot;&apos;&#65;</b> </a>",
  };
  int i = 0;
  for (const std::string& doc : docs) {
    ExpectParseAgreement(doc, {}, "shape " + std::to_string(i++));
  }
}

TEST(ScannerDifferential, ErrorPositions) {
  const std::string_view docs[] = {
      "<a><b x=\"1\" < ></b></a>",        // stray '<' in tag (deferred)
      "<a>\n\n  <b y='2' < ></b>\n</a>",  // same, after newlines
      "<a></b>",                          // mismatched end tag
      "<a><b></a>",                       // wrong nesting
      "<a>&unknown;</a>",                 // undefined entity
      "<a x=\"\x01\"/>",                  // control char in value
      "<a>\x02</a>",                      // control char in text
      "<a x=\"1\" x=\"2\"/>",             // duplicate attribute
      "<a x=1></a>",                      // unquoted value
      "<a><!DOCTYPE inner></a>",          // misplaced doctype
      "junk<a/>",                         // text before root
      "<a/><b/>",                         // two roots
      "<a",                               // EOF inside tag
      "<a x=\"unterminated",              // EOF inside value
  };
  int i = 0;
  for (std::string_view doc : docs) {
    ExpectParseAgreement(doc, {}, "error doc " + std::to_string(i++));
  }
}

TEST(ScannerDifferential, ParserLimitRejections) {
  // Each limit triggered by a purpose-built document; all backends must
  // reject with the same kResourceExhausted message and position.
  ParserOptions tight;
  tight.limits.max_depth = 4;
  tight.limits.max_attribute_count = 2;
  tight.limits.max_attribute_value_bytes = 8;
  tight.limits.max_name_bytes = 8;
  tight.limits.max_token_bytes = 64;
  tight.limits.max_entity_references = 3;
  tight.limits.max_total_bytes = 512;
  const std::string docs[] = {
      "<a><a><a><a><a>deep</a></a></a></a></a>",           // depth
      "<a p=\"1\" q=\"2\" r=\"3\"/>",                      // attribute count
      "<a v=\"123456789\"/>",                              // value bytes
      "<averylongelementname/>",                           // name bytes
      "<a><!-- " + std::string(80, 'c') + " --></a>",      // token bytes
      "<a>&amp;&amp;&amp;&amp;</a>",                       // entity budget
      "<a>" + std::string(600, 't') + "</a>",              // total bytes
  };
  int i = 0;
  for (const std::string& doc : docs) {
    ExpectParseAgreement(doc, tight, "limit doc " + std::to_string(i++));
  }
}

TEST(ScannerDifferential, AdversarialChunkSchedules) {
  // The same documents through FaultInjectingSource chunk schedules that
  // split tags, quoted values and multi-byte constructs at every awkward
  // offset. Backends must agree with scalar under the SAME schedule.
  const std::string doc =
      "<r>" + std::string(50, 'p') +
      "<e one=\"aa>bb\" two='c<d'>\n text &amp; more \n" +
      "<![CDATA[ raw <>& ]]></e><!-- note -->" + std::string(70, 'q') +
      "</r>";
  const std::vector<std::vector<size_t>> schedules = {
      {1},           // byte at a time
      {3, 7, 1},     // small primes
      {63},          // just under a block
      {64},          // exactly a block
      {65, 1},       // just over a block
  };
  for (size_t s = 0; s < schedules.size(); ++s) {
    FaultSpec spec;
    spec.chunk_sizes = schedules[s];
    FaultInjectingSource source(doc, spec);

    ParserOptions options;
    options.scanner_backend = ScannerBackend::kScalar;
    EventRecorder want;
    Status want_status = source.Parse(&want, options);
    for (ScannerBackend backend : AvailableBackends()) {
      if (backend == ScannerBackend::kScalar) continue;
      options.scanner_backend = backend;
      EventRecorder got;
      Status got_status = source.Parse(&got, options);
      EXPECT_EQ(got_status.code(), want_status.code())
          << "schedule " << s << ": " << ScannerBackendName(backend);
      EXPECT_EQ(got_status.message(), want_status.message())
          << "schedule " << s << ": " << ScannerBackendName(backend);
      EXPECT_TRUE(got.events() == want.events())
          << "schedule " << s << ": event stream diverged under "
          << ScannerBackendName(backend);
    }
  }
}

TEST(ScannerBackendSelection, ResolveNames) {
  EXPECT_TRUE(ResolveScannerBackend("scalar").ok());
  EXPECT_TRUE(ResolveScannerBackend("swar").ok());
  EXPECT_TRUE(ResolveScannerBackend("auto").ok());
  EXPECT_FALSE(ResolveScannerBackend("sse9").ok());
  EXPECT_FALSE(ResolveScannerBackend("").ok());
  EXPECT_FALSE(ResolveScannerBackend("AVX2 ").ok());
  // The error names the valid choices so CLI users can self-correct.
  EXPECT_NE(ResolveScannerBackend("bogus").status().message().find("scalar"),
            std::string::npos);
}

}  // namespace
}  // namespace xaos::xml
