// Streaming skip-scan for document projection.
//
// When a ProjectionFilter proves a start tag's entire subtree irrelevant to
// every installed query, the SaxParser switches to the SkipScanner: a raw
// scanner that memchr-races to the matching end tag tracking only element
// depth, comment/CDATA/PI state, and the structure needed to resume normal
// parsing afterwards. It performs no attribute parsing, no entity decoding,
// no symbol interning, and emits no events — only a SkipReport whose
// `node_ids` count lets dense-id consumers (core::DocumentCursor) stay
// byte-identical to a full parse.
//
// Divergence contract: the scanner checks only the structure it must (tag
// nesting, terminated constructs, the depth limit), so a document that the
// full parser would reject — mismatched end-tag names, malformed
// attributes, a literal "]]>" in character data, bad references — may be
// accepted in skipped regions. Whenever the full parser accepts a
// document, a projected parse accepts it too and produces identical query
// results; differential tests therefore compare only on baseline success.

#ifndef XAOS_XML_SKIP_SCANNER_H_
#define XAOS_XML_SKIP_SCANNER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "xml/sax_event.h"
#include "xml/structural_scanner.h"

namespace xaos::xml {

// Per-start-tag relevance oracle the evaluator installs via
// ParserOptions::projection_filter. `open_depth` is the number of elements
// already open when the tag appears (the document element sits at 0).
// Returning true asserts that no node in the element's subtree — the
// element itself, its attributes, text, and descendants — can contribute to
// any match; the parser then skips the subtree without events.
class ProjectionFilter {
 public:
  virtual ~ProjectionFilter() = default;
  // Called by the parser just before it reports a document's StartDocument.
  // Stateful implementations (query::ProjectionGate tracks a kept-subtree
  // watermark) reset here. The handler's own StartDocument is no place for
  // that: a batching handler replays it later, while the parser is already
  // consulting the filter for the document's first tags.
  virtual void StartDocument() {}
  virtual bool ShouldSkipSubtree(std::string_view name, size_t open_depth) = 0;
};

// Resumable scanner over one skipped subtree. The parser seeds it with the
// report for the already-consumed start tag, then feeds it unconsumed
// buffer suffixes until the matching end tag (kDone) or an error. Between
// calls the scanner holds run-classification state, so chunk boundaries may
// land anywhere; bytes of an incomplete construct are left unconsumed and
// rescanned when more input arrives (same policy as the full parser).
class SkipScanner {
 public:
  enum class State { kScanning, kDone, kError };

  // Starts a skip whose start tag the parser consumed already. `initial`
  // carries that tag's element/id/byte counts; `base_open_depth` is the
  // open-element count outside the skip (the skipped root would sit at that
  // depth); `max_depth` is ParserLimits::max_depth, still enforced inside
  // the skip. `count_whitespace_runs` mirrors
  // ParserOptions::report_whitespace_text: when set, all-whitespace text
  // runs would have been reported and so consume a node id.
  void Begin(const SkipReport& initial, size_t base_open_depth, int max_depth,
             bool count_whitespace_runs);

  // Scans as much of `input` as possible. Sets *consumed to the byte count
  // the caller should consume (on kError: the offset of the offending
  // construct, so the parser's line/column land on it).
  State Scan(std::string_view input, size_t* consumed);

  const SkipReport& report() const { return report_; }

  // After kError: true if the failure is a resource-limit rejection
  // (kResourceExhausted) rather than a well-formedness error.
  bool limit_error() const { return limit_error_; }
  const std::string& error_message() const { return error_message_; }

  // Number of quoted attribute values in a start-tag body. On any tag the
  // full parser accepts, every quote character delimits an attribute value,
  // so pairing quotes counts attributes exactly.
  static uint64_t CountQuotedValues(std::string_view tag_body);

  // Bytes this scanner's structural kernel classified since the last call;
  // the parser folds them into xaos_scanner_bytes_classified_total.
  uint64_t TakeScannerBytes() { return scanner_.TakeBytesClassified(); }

  // Drops cached block masks; the parser calls this when its buffer (which
  // Scan()'s input views into) is compacted or grown.
  void InvalidateScannerCache() { scanner_.InvalidateCache(); }

 private:
  State Error(std::string message, size_t at, size_t* consumed);
  State LimitError(std::string message, size_t at, size_t* consumed);
  // Hot per-run/per-tag paths, inlined: the byte-level classification only
  // runs while a run's whitespace-ness is still undecided.
  void ProcessText(std::string_view run) {
    if (run.empty()) return;
    run_has_content_ = true;
    if (count_ws_runs_ || run_non_ws_) return;
    const char c0 = run.front();
    if (c0 != ' ' && c0 != '\t' && c0 != '\r' && c0 != '\n' && c0 != '&') {
      run_non_ws_ = true;  // decisive first byte: the common real-text case
      return;
    }
    ClassifyText(run);
  }
  void FlushRun() {
    if (run_has_content_ && (count_ws_runs_ || run_non_ws_)) {
      ++report_.node_ids;
    }
    run_has_content_ = false;
    run_non_ws_ = false;
  }
  void ClassifyText(std::string_view run);
  void ProcessCData(std::string_view content);

  // Structural front-end for the fused start-tag scan and CDATA
  // classification. Text runs keep the memchr + early-out ClassifyText
  // walk: the walk stops at the first decisive byte, which full-block
  // classification cannot beat.
  StructuralScanner scanner_;

  SkipReport report_;
  size_t base_open_depth_ = 0;
  int max_depth_ = 0;
  uint64_t depth_ = 0;  // open elements inside the skip, including its root
  bool count_ws_runs_ = false;
  // Classification of the current (possibly still growing) text run,
  // mirroring the full parser's coalesced pending-text accumulator: a run
  // consumes a node id iff it is non-empty and (count_ws_runs_ || not all
  // whitespace after reference decoding).
  bool run_has_content_ = false;
  bool run_non_ws_ = false;
  bool limit_error_ = false;
  std::string error_message_;
};

}  // namespace xaos::xml

#endif  // XAOS_XML_SKIP_SCANNER_H_
