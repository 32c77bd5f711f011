// Tests for the structural front-end (xml/structural_scanner.h). The
// compiled kernel (SSE2 on x86-64, scalar elsewhere) must classify every
// byte exactly like the portable scalar oracle, and the drivers above it
// must give chunked parses the same event streams, outcomes and error
// positions as one-shot parses, whatever the chunk schedule.

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

bool MasksEqual(const BlockMasks& a, const BlockMasks& b) {
  return a.lt == b.lt && a.gt == b.gt && a.dquote == b.dquote &&
         a.squote == b.squote && a.amp == b.amp && a.rbracket == b.rbracket &&
         a.newline == b.newline && a.ws == b.ws && a.ctl == b.ctl;
}

// The compiled kernel must match the scalar kernel on the given block.
void ExpectKernelMatchesScalar(const char* block, const std::string& label) {
  BlockMasks want;
  ClassifyBlockScalar(block, &want);
  BlockMasks got;
  ClassifyBlock(block, &got);
  EXPECT_TRUE(MasksEqual(got, want))
      << label << ": kernel " << ScannerBackendName(DefaultScannerBackend())
      << " disagrees with scalar";
}

TEST(ScannerKernel, ReportsTheCompiledKernel) {
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_EQ(DefaultScannerBackend(), ScannerBackend::kSse2);
#else
  EXPECT_EQ(DefaultScannerBackend(), ScannerBackend::kScalar);
#endif
  EXPECT_STREQ(ScannerBackendName(ScannerBackend::kScalar), "scalar");
  EXPECT_STREQ(ScannerBackendName(ScannerBackend::kSse2), "sse2");
}

TEST(ScannerKernel, MatchesScalarOnEveryByteAtEveryPosition) {
  // Each of the 256 byte values alone at each of the 64 positions of an
  // otherwise-'a' block, so every lane of every vector compare sees it.
  for (int value = 0; value < 256; ++value) {
    for (size_t pos = 0; pos < kScannerBlockBytes; ++pos) {
      char block[kScannerBlockBytes];
      for (char& c : block) c = 'a';
      block[pos] = static_cast<char>(value);
      ExpectKernelMatchesScalar(block, "byte " + std::to_string(value) +
                                           " at " + std::to_string(pos));
    }
  }
}

TEST(ScannerKernel, MatchesScalarOnDenseBlocks) {
  for (int value = 0; value < 256; ++value) {
    char block[kScannerBlockBytes];
    for (char& c : block) c = static_cast<char>(value);
    ExpectKernelMatchesScalar(block, "dense byte " + std::to_string(value));
  }
}

TEST(ScannerKernel, MatchesScalarOnRandomBlocks) {
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
    ExpectKernelMatchesScalar(block, "random block " + std::to_string(round));
  }
}

// Chunk schedules that split tags, quoted values and multi-byte constructs
// at every awkward offset relative to the 64-byte block grid.
const std::vector<std::vector<size_t>>& ChunkSchedules() {
  static const std::vector<std::vector<size_t>> schedules = {
      {1},        // byte at a time
      {3, 7, 1},  // small primes
      {63},       // just under a block
      {64},       // exactly a block
      {65, 1},    // just over a block
  };
  return schedules;
}

// Chunked-parse differential: every chunk schedule must reproduce the
// one-shot parse's exact event stream, status code and message (messages
// embed line/column, so this is also the byte-exact error-position check).
void ExpectChunkedMatchesOneShot(const std::string& doc,
                                 ParserOptions options = {},
                                 const std::string& label = "") {
  EventRecorder want;
  Status want_status = ParseString(doc, &want, options);
  for (size_t s = 0; s < ChunkSchedules().size(); ++s) {
    FaultSpec spec;
    spec.chunk_sizes = ChunkSchedules()[s];
    EventRecorder got;
    Status got_status = FaultInjectingSource(doc, spec).Parse(&got, options);
    EXPECT_EQ(got_status.code(), want_status.code())
        << label << ": schedule " << s;
    EXPECT_EQ(got_status.message(), want_status.message())
        << label << ": schedule " << s;
    EXPECT_TRUE(got.events() == want.events())
        << label << ": event stream diverged under schedule " << s;
  }
}

TEST(ScannerChunking, XMarkDocument) {
  gen::XMarkOptions options;
  options.scale = 0.002;
  options.indent = 1;  // newlines + indentation exercise position tracking
  ExpectChunkedMatchesOneShot(gen::GenerateXMark(options), {}, "xmark");
}

TEST(ScannerChunking, RandomWorkloadDocuments) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    gen::RandomDocOptions doc_options;
    doc_options.target_elements = 2000;
    auto workload =
        gen::GenerateWorkload(gen::RandomQueryOptions{}, doc_options, seed);
    ASSERT_TRUE(workload.ok());
    ExpectChunkedMatchesOneShot(workload->document, {},
                         "workload seed " + std::to_string(seed));
  }
}

TEST(ScannerChunking, QuoteAndBoundaryShapes) {
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
    ExpectChunkedMatchesOneShot(doc, {}, "shape " + std::to_string(i++));
  }
}

TEST(ScannerChunking, ErrorPositions) {
  const std::string docs[] = {
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
  for (const std::string& doc : docs) {
    ExpectChunkedMatchesOneShot(doc, {}, "error doc " + std::to_string(i++));
  }
}

TEST(ScannerChunking, ParserLimitRejections) {
  // Each limit triggered by a purpose-built document.
  ParserOptions tight;
  tight.limits.max_depth = 4;
  tight.limits.max_attribute_count = 2;
  tight.limits.max_attribute_value_bytes = 8;
  tight.limits.max_name_bytes = 8;
  tight.limits.max_token_bytes = 64;
  tight.limits.max_entity_references = 3;
  tight.limits.max_total_bytes = 512;
  // Limits on the document's own shape: every chunk schedule must reject
  // with the one-shot parse's kResourceExhausted message and position.
  const std::string shape_docs[] = {
      "<a><a><a><a><a>deep</a></a></a></a></a>",  // depth
      "<a p=\"1\" q=\"2\" r=\"3\"/>",             // attribute count
      "<a v=\"123456789\"/>",                     // value bytes
      "<averylongelementname/>",                  // name bytes
  };
  int i = 0;
  for (const std::string& doc : shape_docs) {
    ExpectChunkedMatchesOneShot(doc, tight, "limit doc " + std::to_string(i++));
  }
  // Limits on what the parser has buffered, decoded or been fed so far trip
  // at a point that depends on the chunk schedule by design; the byte-at-a-
  // time schedule must still reject each with kResourceExhausted.
  const std::string feed_docs[] = {
      "<a><!-- " + std::string(80, 'c') + " --></a>",  // token bytes
      "<a>&amp;&amp;&amp;&amp;</a>",                   // entity budget
      "<a>" + std::string(600, 't') + "</a>",          // total bytes
  };
  FaultSpec byte_at_a_time;
  byte_at_a_time.chunk_sizes = {1};
  for (const std::string& doc : feed_docs) {
    EventRecorder recorder;
    EXPECT_EQ(FaultInjectingSource(doc, byte_at_a_time)
                  .Parse(&recorder, tight)
                  .code(),
              StatusCode::kResourceExhausted)
        << "limit doc " << i++;
  }
}

TEST(ScannerChunking, AdversarialChunkSchedules) {
  // Quoted '>' and '<', CDATA, a comment and text runs around the block
  // boundaries, so every schedule splits them somewhere awkward.
  const std::string doc =
      "<r>" + std::string(50, 'p') +
      "<e one=\"aa>bb\" two='c<d'>\n text &amp; more \n" +
      "<![CDATA[ raw <>& ]]></e><!-- note -->" + std::string(70, 'q') +
      "</r>";
  ExpectChunkedMatchesOneShot(doc, {}, "adversarial doc");
}

}  // namespace
}  // namespace xaos::xml
