// A from-scratch streaming (push) XML parser.
//
// The parser accepts input in arbitrary chunks via Feed() and emits SAX-style
// events to a ContentHandler as soon as they are complete, so memory use is
// bounded by the largest single token (tag/comment/CDATA section), not the
// document size. This is the event source the χαoς engine consumes
// (paper Section 2.2, Figure 1).
//
// Supported: elements, attributes, character data, CDATA sections, comments,
// processing instructions, the XML declaration, a skipped DOCTYPE, the five
// predefined entities and numeric character references, and full
// well-formedness checking of everything above (tag balance, single root,
// attribute uniqueness and quoting, name syntax, illegal characters).
// Out of scope (reported as ParseError where encountered): external or
// internal DTD entity definitions beyond the predefined five.

#ifndef XAOS_XML_SAX_PARSER_H_
#define XAOS_XML_SAX_PARSER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/sax_event.h"
#include "xml/skip_scanner.h"
#include "xml/structural_scanner.h"

namespace xaos::obs {
class PhaseTimers;
}  // namespace xaos::obs

namespace xaos::xml {

// Resource-exhaustion guardrails for untrusted input. Every bound that a
// document exceeds fails the parse with StatusCode::kResourceExhausted
// (distinct from kParseError: the document may be well-formed, it just
// costs more than this deployment allows). Defaults are generous enough
// for any sane document; a service facing adversarial traffic should
// tighten them to its actual workload. A value of 0 disables the
// corresponding bound where noted.
struct ParserLimits {
  // Maximum open-element nesting depth.
  int max_depth = 20000;
  // Maximum attributes on one start tag.
  size_t max_attribute_count = 4096;
  // Maximum decoded size of one attribute value, in bytes.
  size_t max_attribute_value_bytes = 8u << 20;
  // Maximum length of one element/attribute/PI name, in bytes.
  size_t max_name_bytes = 64u << 10;
  // Maximum bytes buffered for one incomplete token (tag, comment, CDATA
  // section, DOCTYPE). Bounds parser memory: a stream that never closes a
  // construct is rejected instead of buffered forever. 0 = unlimited.
  size_t max_token_bytes = 256u << 20;
  // Total entity/character references decoded per document. 0 = unlimited.
  uint64_t max_entity_references = 0;
  // Total document size in bytes accepted through Feed(). 0 = unlimited.
  uint64_t max_total_bytes = 0;
};

struct ParserOptions {
  // Merge adjacent character runs (including across CDATA boundaries) into a
  // single Characters() call.
  bool coalesce_text = true;
  // Deliver character runs consisting solely of whitespace. Off by default:
  // the χαoς data model (paper Section 2.1) ignores inter-element whitespace.
  bool report_whitespace_text = false;
  // Deliver Comment() / ProcessingInstruction() events.
  bool report_comments = false;
  bool report_processing_instructions = false;
  // Guardrails against resource-exhausting input (see ParserLimits).
  ParserLimits limits;
  // Optional phase accounting (obs/timer.h): when set, time spent inside
  // handler callbacks is attributed to Phase::kMatch and the remainder of
  // each Feed()/Finish() to Phase::kParse, splitting the single streaming
  // pass into the paper's parse vs. match phases. Costs two clock reads per
  // delivered event; leave null (the default) for zero overhead.
  obs::PhaseTimers* phase_timers = nullptr;
  // Optional document projection (xml/skip_scanner.h): when set, each start
  // tag is offered to the filter, and a subtree it proves irrelevant is
  // skipped by a raw scanner — no attribute parsing, entity decoding or
  // events; the handler receives one SkippedSubtree() instead. Ignored
  // (with xaos_projection_disabled_total incremented) when combined with
  // options it cannot preserve exactly: coalesce_text off (node-id
  // assignment would become chunk-dependent) or reported comments/PIs
  // (their events would be lost inside skips). Must outlive the parser.
  ProjectionFilter* projection_filter = nullptr;
};

// Incremental push parser. Typical use:
//
//   MyHandler handler;
//   SaxParser parser(&handler);
//   while (ReadChunk(&chunk)) {
//     XAOS_RETURN_IF_ERROR(parser.Feed(chunk));
//   }
//   XAOS_RETURN_IF_ERROR(parser.Finish());
//
// After the first error the parser is poisoned: further calls return the
// same error. The handler pointer must outlive the parser.
class SaxParser {
 public:
  explicit SaxParser(ContentHandler* handler, ParserOptions options = {});

  SaxParser(const SaxParser&) = delete;
  SaxParser& operator=(const SaxParser&) = delete;

  // Consumes the next chunk of document text.
  Status Feed(std::string_view chunk);

  // Signals end of input; verifies the document is complete and emits
  // EndDocument().
  Status Finish();

  // 1-based position of the next unconsumed input character; used in error
  // messages.
  int line() const { return line_; }
  int column() const { return column_; }

  // Number of start-element events emitted so far.
  uint64_t element_count() const { return element_count_; }

  // Bytes accepted through Feed() so far.
  uint64_t bytes_fed() const { return bytes_fed_; }

 private:
  enum class Progress { kOk, kNeedMore, kError };

  // Resets the projection filter, then reports StartDocument.
  void StartDocument();
  Progress Pump();                      // parse as much of buffer_ as possible
  Progress ParseText();                 // content until '<'
  Progress ParseMarkup();               // dispatch on "<...": tag/comment/...
  // `scan` is the structural scan of the tag body (rest[1..tag_end)); it
  // carries the quoted-value count and newline accounting for the tag.
  Progress ParseStartTag(size_t tag_end, bool self_closing,
                         const TagScan& scan);
  Progress ParseEndTag(size_t tag_end);
  Progress ParseComment();
  Progress ParseCData();
  Progress ParsePi();
  Progress ParseDoctype();
  Progress PumpSkip();                  // advance an active subtree skip
  // Completes a skip: updates projection counters, marks the root seen when
  // the skipped subtree was the document element, and notifies the handler.
  Progress DeliverSkip(const SkipReport& report);

  // Record a well-formedness error (kParseError) / a limit rejection
  // (kResourceExhausted); both poison the parser and return kError.
  Progress Fail(std::string message);
  Progress FailLimit(std::string message);
  Progress FailWith(StatusCode code, std::string message);
  // Flush pending text to the handler. Called once per markup event, and
  // usually with nothing pending — the guard stays inline.
  void EmitPendingText() {
    if (text_pending_) EmitPendingTextSlow();
  }
  void EmitPendingTextSlow();
  // Appends one character-data piece to the pending run. The bool facts
  // come from a structural scan of `raw` (whole-span coverage); the hot
  // paths hand down the facts they already computed, the cold wrapper
  // AppendText() derives them itself.
  Status AppendTextPiece(std::string_view raw, bool decode, bool has_amp,
                         bool has_ctl, bool all_ws);
  Status AppendText(std::string_view raw, bool decode);
  // Copies a zero-copy pending-text view into text_accum_. Must run before
  // anything mutates buffer_ (the view points into it).
  void MaterializeTextView();
  void Consume(size_t n);               // advance pos_, track line/column
  // Consume() with the newline accounting precomputed by a structural scan
  // of the consumed span: `newlines` '\n's, the last at offset `last_nl`.
  void ConsumeCounted(size_t n, uint32_t newlines, size_t last_nl);

  // Validating helpers.
  static bool IsNameStartChar(unsigned char c);
  static bool IsNameChar(unsigned char c);
  static bool IsWhitespace(char c);
  // Parses a Name starting at `i` within `s`; returns its length or 0.
  static size_t ScanName(std::string_view s, size_t i);

  // Open-element-stack accessors over the arena representation (see
  // open_names_ / open_offsets_ below).
  size_t OpenDepth() const { return open_offsets_.size(); }
  std::string_view TopOpenName() const {
    return std::string_view(open_names_).substr(open_offsets_.back());
  }
  void PushOpenName(std::string_view name) {
    open_offsets_.push_back(open_names_.size());
    open_names_.append(name);
  }
  void PopOpenName() {
    open_names_.resize(open_offsets_.back());
    open_offsets_.pop_back();
  }

  ContentHandler* handler_;
  ParserOptions options_;
  // When options_.phase_timers is set, handler_ points at this wrapper,
  // which times callbacks into the match phase before forwarding to the
  // user's handler.
  std::unique_ptr<ContentHandler> timing_wrapper_;

  std::string buffer_;     // unconsumed input (suffix of the stream)
  size_t pos_ = 0;         // consumed prefix of buffer_

  // Pending character data. The common case — one contiguous raw run, no
  // references to decode — is held as a zero-copy view into buffer_
  // (text_in_view_); it is materialized into text_accum_ only when a
  // second piece coalesces onto it, a piece needs reference decoding, or
  // the next Feed() is about to mutate buffer_. text_all_ws_ tracks
  // whether the pending run (after decoding) is entirely XML whitespace,
  // maintained incrementally so emission never rescans the text.
  std::string text_accum_;     // pending character data (decoded)
  std::string_view text_view_;
  bool text_in_view_ = false;
  bool text_all_ws_ = true;
  bool text_pending_ = false;  // a (possibly empty) run is pending

  // Stack of open element names as one arena string plus start offsets:
  // push/pop happen once per element, and this layout makes them a byte
  // append / resize instead of a std::string construct / destroy.
  std::string open_names_;
  std::vector<size_t> open_offsets_;
  bool started_document_ = false;
  bool seen_root_ = false;
  bool seen_any_content_ = false;  // anything consumed (XML decl gating)
  bool finished_ = false;

  Status error_;
  int line_ = 1;
  int column_ = 1;
  uint64_t element_count_ = 0;
  uint64_t bytes_fed_ = 0;
  uint64_t text_event_count_ = 0;
  uint64_t entity_references_ = 0;  // decoded so far (limits budget)

  // Per-start-tag scratch, reused across tags so steady-state parsing does
  // no per-attribute heap allocation: `attributes_` holds views into
  // buffer_ (or into a reused decode slot when the raw value contains
  // references).
  std::vector<AttributeView> attributes_;
  // Deque: slot strings must not move while attributes_ views into them.
  std::deque<std::string> attr_decode_slots_;

  // Vectorized structural front-end shared by every hot loop below; the
  // skip scanner owns a sibling instance with its own mask cache.
  StructuralScanner scanner_;

  // Parser-local front for SymbolTable::Global(): element and attribute
  // names repeat heavily within one document, so a tiny direct-mapped
  // cache turns most lookups (hash + atomic probe + chain walk) into one
  // memcmp against a cached spelling. Names outside the query vocabulary
  // are cached too, as kUnknownSymbol. The cache lives as long as the
  // parser — one document — so no entry outlives a subscription added
  // between documents.
  struct NameCacheSlot {
    uint8_t len = 0;  // 0 = empty
    char bytes[23];
    util::Symbol symbol = util::kInvalidSymbol;
  };
  static constexpr size_t kNameCacheSlots = 64;  // power of two
  NameCacheSlot name_cache_[kNameCacheSlots];
  // The Symbol a query vocabulary gives `name`, else kUnknownSymbol.
  util::Symbol ResolveName(std::string_view name);

  // Document projection. Null unless options_.projection_filter is set and
  // compatible with the event options (see ParserOptions).
  ProjectionFilter* projection_filter_ = nullptr;
  SkipScanner skip_scanner_;
  bool skip_active_ = false;  // Pump routes input to skip_scanner_
  uint64_t skip_begin_ns_ = 0;  // flight-recorder skip-span start
};

// Convenience: parses a complete in-memory document.
Status ParseString(std::string_view document, ContentHandler* handler,
                   ParserOptions options = {});

}  // namespace xaos::xml

#endif  // XAOS_XML_SAX_PARSER_H_
