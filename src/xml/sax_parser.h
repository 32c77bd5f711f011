// A from-scratch streaming (push) XML parser.
//
// The parser accepts input in arbitrary chunks via Feed(), so memory use is
// bounded by the largest single token (tag/comment/CDATA section), not the
// document size. This is the event source the χαoς engine consumes
// (paper Section 2.2, Figure 1).
//
// Its output is EventBatch records (xml/event_batch.h), written through one
// RecordWriter. Given a handler that consumes records (an EventBatcher,
// such as core::MultiQueryEvaluator), the parser writes into that
// handler's writer; any other ContentHandler gets the records replayed as callbacks,
// at the writer's budgets and at the end of every Feed() and Finish().
//
// One filter decides each element after its name is resolved: the
// projection filter may skip the whole subtree, the writer's element
// interest may elide the element (no record, only a numbering gap), or it
// is kept. An elided element still gets every check a kept one gets —
// name syntax, attribute syntax and limits, references, duplicates, the
// end-tag match — but no attribute record and no decoded value is written.
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
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/event_batch.h"
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

// Event shape is fixed: adjacent character runs (CDATA sections included)
// are coalesced into one Characters() call, runs consisting solely of
// whitespace are dropped (the χαoς data model, paper Section 2.1, ignores
// inter-element whitespace), and comments and processing instructions are
// checked but never reported.
struct ParserOptions {
  // Guardrails against resource-exhausting input (see ParserLimits).
  ParserLimits limits;
  // Optional phase accounting (obs/timer.h): when set, time spent replaying
  // published batches (into the evaluator, or as callbacks) is attributed
  // to Phase::kMatch and the remainder of each Feed()/Finish() to
  // Phase::kParse, splitting the single streaming pass into the paper's
  // parse vs. match phases. Costs two clock reads per published batch;
  // leave null (the default) for zero overhead.
  obs::PhaseTimers* phase_timers = nullptr;
  // Optional document projection (xml/skip_scanner.h): when set, each start
  // tag is offered to the filter, and a subtree it proves irrelevant is
  // skipped by a raw scanner — no attribute parsing, entity decoding or
  // records; one kGap record (one SkippedSubtree()) stands for it. Must
  // outlive the parser.
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
  ~SaxParser();

  SaxParser(const SaxParser&) = delete;
  SaxParser& operator=(const SaxParser&) = delete;

  // Consumes the next chunk of document text.
  Status Feed(std::string_view chunk);

  // Signals end of input; verifies the document is complete and emits
  // EndDocument().
  Status Finish();

  // 1-based position of the next unconsumed input character; used in error
  // messages. Computed on demand from the newlines of the consumed input.
  int line() const;
  int column() const;

  // Number of start tags parsed so far, kept or elided (a projection skip
  // counts none).
  uint64_t element_count() const { return element_count_; }

  // Bytes accepted through Feed() so far.
  uint64_t bytes_fed() const { return bytes_fed_; }

 private:
  enum class Progress { kOk, kNeedMore, kError };
  class HandlerReplay;

  // Resets the projection filter, reports StartDocument, then reads back
  // what the writer wants for this document (element interest, text as
  // gaps).
  void StartDocument();
  Progress Pump();                      // parse as much of the window as
                                        // possible
  Progress ParseText();                 // content until '<'
  Progress ParseMarkup();               // dispatch on "<...": tag/comment/...
  // rest[0] == '<' and rest[tag_end] == '>' (rest: the unconsumed window).
  Progress ParseStartTag(size_t tag_end, bool self_closing);
  Progress ParseEndTag(size_t tag_end);
  Progress ParseComment();
  Progress ParseCData();
  Progress ParsePi();
  Progress ParseDoctype();
  Progress PumpSkip();                  // advance an active subtree skip
  // Completes a skip: updates projection counters, marks the root seen when
  // the skipped subtree was the document element, and writes the gap.
  Progress DeliverSkip(const SkipReport& report);

  // Record a well-formedness error (kParseError) / a limit rejection
  // (kResourceExhausted); both poison the parser and return kError.
  Progress Fail(std::string message);
  Progress FailLimit(std::string message);
  Progress FailWith(StatusCode code, std::string message);
  // Flush pending text to the writer. Called once per markup event, and
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
  // Decodes the references in `raw` into *out, charging them to the
  // entity-reference budget; a bad reference or an exhausted budget fails.
  Progress DecodeChecked(std::string_view raw, std::string* out);
  // Copies a zero-copy pending-text view into text_accum_. Must run before
  // the window it points into changes or dies.
  void MaterializeTextView();
  // Adds the newlines of data_[0, n) to the base of line() and column(),
  // before the window moves past them.
  void FoldConsumed(size_t n);
  // Parses [data, data + size) from `pos` on; drops cached block masks.
  void SetWindow(const char* data, size_t size, size_t pos);
  // Advances past `n` consumed bytes. Positions are not tracked per token:
  // line() and column() recount newlines only when asked.
  void Advance(size_t n) {
    pos_ += n;
    seen_any_content_ = true;
  }

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

  ParserOptions options_;
  // Plain handlers: the batcher whose records are replayed into them.
  std::unique_ptr<HandlerReplay> replay_;
  // Takes StartDocument/EndDocument: the caller's record-consuming handler,
  // or replay_'s batcher.
  ContentHandler* target_;
  RecordWriter* records_;  // target_'s writer
  // This document's element interest (null: every element is kept) and
  // whether text runs travel as gaps; read from records_ at StartDocument.
  const ElementInterest* interest_ = nullptr;
  bool text_gaps_ = false;

  // The parse window [data_, data_ + size_): the caller's chunk while one
  // is parsed in place, else buffer_, which holds what a chunk left
  // unconsumed (one incomplete token, or held-back text bytes) and, while
  // a token straddles a chunk boundary, that token's start plus a prefix
  // of the next chunk.
  std::string buffer_;
  const char* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;  // consumed prefix of the window
  // Newlines consumed before data_[0], and the bytes consumed since the
  // last of them: the base line() and column() count from.
  uint64_t lines_before_ = 0;
  uint64_t column_before_ = 0;

  // Pending character data. The common case — one contiguous raw run, no
  // references to decode — is held as a zero-copy view into the window
  // (text_in_view_); it is materialized into text_accum_ only when a
  // second piece coalesces onto it, a piece needs reference decoding, or
  // the window is about to change. text_all_ws_ tracks
  // whether the pending run (after decoding) is entirely XML whitespace,
  // maintained incrementally so emission never rescans the text. When text
  // travels as gaps, only text_has_bytes_ and text_all_ws_ are kept.
  std::string text_accum_;     // pending character data (decoded)
  std::string_view text_view_;
  bool text_in_view_ = false;
  bool text_all_ws_ = true;
  bool text_has_bytes_ = false;
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
  uint64_t element_count_ = 0;
  uint64_t bytes_fed_ = 0;
  uint64_t text_event_count_ = 0;
  uint64_t entity_references_ = 0;  // decoded so far (limits budget)

  // Per-start-tag scratch, reused across tags so steady-state parsing does
  // no per-attribute heap allocation. Names and raw values view the window;
  // a value with references is decoded into attr_decoded_ at
  // [decoded_offset, +decoded_size).
  struct RawAttribute {
    std::string_view name;
    std::string_view raw_value;
    util::Symbol symbol;
    bool decoded;
    uint32_t decoded_offset;
    uint32_t decoded_size;
  };
  std::vector<RawAttribute> attributes_;
  std::string attr_decoded_;

  // Vectorized structural front-end shared by every hot loop below; the
  // skip scanner owns a sibling instance with its own mask cache.
  StructuralScanner scanner_;

  // Parser-local front for SymbolTable::Global(): element and attribute
  // names repeat heavily within one document, so a 2-way set-associative
  // cache keyed by the name's bytes as two words turns a lookup (hash +
  // atomic probe + chain walk) into two word compares; a document's global
  // lookups fall to about its distinct names. Names up to 16 bytes are
  // cached (longer ones go to the table), including names outside the
  // query vocabulary, as kUnknownSymbol. The cache lives as long as the
  // parser — one document — so no entry outlives a subscription added
  // between documents.
  struct NameCacheSlot {
    uint64_t head = 0;  // bytes [0, 8), zero-padded
    uint64_t tail = 0;  // bytes [8, 16), zero-padded
    uint32_t len = 0;   // 0 = empty
    util::Symbol symbol = util::kInvalidSymbol;
  };
  static constexpr size_t kNameCacheBits = 9;
  NameCacheSlot name_cache_[size_t{1} << kNameCacheBits];
  // The Symbol a query vocabulary gives `name` (a view into the parse
  // window), else kUnknownSymbol.
  util::Symbol ResolveName(std::string_view name);

  // Document projection (options_.projection_filter).
  SkipScanner skip_scanner_;
  bool skip_active_ = false;  // Pump routes input to skip_scanner_
  uint64_t skip_begin_ns_ = 0;  // flight-recorder skip-span start
};

// Convenience: parses a complete in-memory document.
Status ParseString(std::string_view document, ContentHandler* handler,
                   ParserOptions options = {});

}  // namespace xaos::xml

#endif  // XAOS_XML_SAX_PARSER_H_
