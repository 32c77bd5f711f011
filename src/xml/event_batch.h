// EventBatch records: the parser's output.
//
// SaxParser writes the document as fixed-size records into pooled
// EventBatches (core::MultiQueryEvaluator replays each full batch into its
// engines in one call): one flat `std::string` text arena owns every byte
// the batch references, events and attributes are fixed-size records
// holding (offset, size) slices into that arena plus the resolved name
// Symbol the parser already paid for. A batch is self-contained and reused
// via Clear() without releasing its arena capacity — steady-state capture
// does no heap allocation. Capture and replay run on one thread: no batch
// crosses threads (each core::ParallelRouter worker captures and replays
// its own documents).
//
// RecordWriter is the one place records are written. It owns the current
// batch, publishes it to its Sink at the configured record or byte budget
// and at document end, and keeps the numbering bookkeeping below. The
// parser calls it directly; EventBatcher adapts ContentHandler callbacks to
// it for producers that only speak callbacks (tests, DOM replay, perfbench's
// traced capture); EventBatch::Replay turns records back into callbacks for
// plain handlers.
//
// Element-level elision. A consumer that only ever acts on elements with
// certain names (an EngineFleet with no wildcard, sibling, capture or text
// engine and no shared automaton) hands the writer an ElementInterest.
// A start-element whose name and attribute names all fall outside it gets
// no record, nor does its end or any text run; their node ids and element
// ordinals collect into a pending numbering gap instead. Node numbering is
// still exact, because the consumer's DocumentCursor sees every id:
//   * a kGap record carries the ids, elements and elided elements absorbed
//     since the previous record; it is written just before the next record
//     that needs a position (a start) and before EndDocument;
//   * an elided element that turns out to have a kept descendant is
//     written, when that descendant arrives, as a payload-free kElidedStart
//     record (attribute count only), preceded by the gap that came before
//     it. The cursor then pushes it, so the kept element gets its true
//     parent id and level. Its end is recorded because its start was; an
//     element whose start got no record gets no end record either.
// The gap before each record equals the ids and elements a full capture
// would have consumed in between, so every recorded node's id, parent id,
// level and ordinal is byte-identical to a full capture. A projection skip
// is a gap of ids and elements none of which count as elided: its own kGap
// record without an interest, part of the pending gap with one.
//
// Text runs as gaps. When no consumer reads character data (lean payload),
// a text run is one node id in the pending gap, with or without an
// interest; end-element records then carry no name bytes either.

#ifndef XAOS_XML_EVENT_BATCH_H_
#define XAOS_XML_EVENT_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/symbol_table.h"
#include "xml/sax_event.h"

namespace xaos::obs {
class PhaseTimers;
}  // namespace xaos::obs

namespace xaos::xml {

// A fixed-size captured event. Slices index the owning batch's text arena.
struct BatchedEvent {
  enum class Kind : uint8_t {
    kStartDocument,
    kEndDocument,
    kStartElement,
    kEndElement,
    kCharacters,
    // An elided element with a kept descendant (see the header comment):
    // attr_count is its only field.
    kElidedStart,
    // A numbering gap: node ids and elements the stream consumed without
    // records of their own — a projection skip (xml/skip_scanner.h), or
    // events elided at capture (see the header comment). The counts live
    // in the record's own fields, read through the gap_* accessors.
    kGap,
  };

  Kind kind = Kind::kStartDocument;
  util::Symbol symbol = util::kInvalidSymbol;  // start-element name, if known
  uint32_t text_offset = 0;  // element name or character data
  uint32_t text_size = 0;
  uint32_t attr_begin = 0;   // slice of the batch's attribute records
  uint32_t attr_count = 0;

  // kGap: node ids, start-elements, and the start-elements among them that
  // were elided (projection skips consume ids and elements, not elisions),
  // and the raw bytes a projection skip covered.
  uint32_t gap_node_ids() const { return text_offset; }
  uint32_t gap_elements() const { return attr_begin; }
  uint32_t gap_elided() const { return attr_count; }
  uint32_t gap_bytes() const { return text_size; }
};

// Symbol-indexed keep flags for element-level elision: a nonzero entry
// means some consumer tests that name. Symbols past the end are not kept.
using ElementInterest = std::vector<uint8_t>;

struct BatchedAttribute {
  uint32_t name_offset = 0;
  uint32_t name_size = 0;
  uint32_t value_offset = 0;
  uint32_t value_size = 0;
  util::Symbol symbol = util::kInvalidSymbol;
};

class EventBatch {
 public:
  void Clear() {
    events_.clear();
    attributes_.clear();
    text_.clear();
    aborts_document_ = false;
    sequence_ = 0;
  }

  // Publish-order stamp set by the producer (1-based; 0 = unstamped). The
  // flight recorder uses it to link a producer's dispatch span to the
  // replay spans each consumer emits for the same batch.
  void set_sequence(uint64_t sequence) { sequence_ = sequence; }
  uint64_t sequence() const { return sequence_; }

  bool empty() const { return events_.empty(); }
  size_t event_count() const { return events_.size(); }
  size_t text_bytes() const { return text_.size(); }
  // True if the batch's last event closes the document — the signal a
  // consumer uses to run its end-of-document work.
  bool ends_document() const {
    return !events_.empty() &&
           events_.back().kind == BatchedEvent::Kind::kEndDocument;
  }
  // An abort marker: the producer abandoned the document mid-stream (parse
  // error, limit rejection). Consumers must not replay the batch's events —
  // they may be a partial capture — and should run their end-of-document
  // bookkeeping so the stream stays reusable.
  void MarkAbortsDocument() { aborts_document_ = true; }
  bool aborts_document() const { return aborts_document_; }

  // --- capture side (single producer) ---
  void AddStartDocument() { AddSimple(BatchedEvent::Kind::kStartDocument); }
  void AddEndDocument() { AddSimple(BatchedEvent::Kind::kEndDocument); }
  // A start-element record; its attributes follow through AddAttribute.
  void BeginStartElement(util::Symbol symbol, std::string_view name) {
    BatchedEvent event;
    event.kind = BatchedEvent::Kind::kStartElement;
    event.symbol = symbol;
    event.text_offset = AppendText(name);
    event.text_size = static_cast<uint32_t>(name.size());
    event.attr_begin = static_cast<uint32_t>(attributes_.size());
    events_.push_back(event);
  }
  // Appends an attribute to the last start-element record.
  void AddAttribute(std::string_view name, std::string_view value,
                    util::Symbol symbol) {
    BatchedAttribute record;
    record.name_offset = AppendText(name);
    record.name_size = static_cast<uint32_t>(name.size());
    record.value_offset = AppendText(value);
    record.value_size = static_cast<uint32_t>(value.size());
    record.symbol = symbol;
    attributes_.push_back(record);
    ++events_.back().attr_count;
  }
  // `copy_payload` false records the end without copying its name into the
  // arena (an empty slice): lean capture for consumers that declared they
  // never read end-element names. The record itself is always kept — it
  // keeps replay's element stack balanced.
  void AddEndElement(std::string_view name, bool copy_payload = true);
  void AddCharacters(std::string_view text);
  void AddElidedStart(uint32_t attr_count);
  void AddGap(uint32_t node_ids, uint32_t elements, uint32_t elided,
              uint32_t bytes);

  // --- replay side (any number of concurrent consumers) ---
  // Raw read access for batch loops (EngineFleet::ReplayRun): consumers walk
  // the records directly instead of paying one virtual callback per event.
  // Views point into this batch's arena and stay valid until Clear().
  const std::vector<BatchedEvent>& events() const { return events_; }
  const BatchedAttribute& attribute(size_t i) const { return attributes_[i]; }
  std::string_view text_slice(uint32_t offset, uint32_t size) const {
    return Slice(offset, size);
  }
  // Replays the records as ContentHandler callbacks (a kGap becomes one
  // SkippedSubtree). `attr_scratch` is reusable storage for attribute
  // views.
  void Replay(ContentHandler* handler,
              std::vector<AttributeView>* attr_scratch) const;

 private:
  void AddSimple(BatchedEvent::Kind kind) {
    BatchedEvent event;
    event.kind = kind;
    events_.push_back(event);
  }
  // Appends `s` to the arena and returns its offset.
  uint32_t AppendText(std::string_view s) {
    uint32_t offset = static_cast<uint32_t>(text_.size());
    text_.append(s.data(), s.size());
    return offset;
  }
  std::string_view Slice(uint32_t offset, uint32_t size) const {
    return std::string_view(text_.data() + offset, size);
  }

  std::vector<BatchedEvent> events_;
  std::vector<BatchedAttribute> attributes_;
  std::string text_;  // arena owning every byte the records reference
  bool aborts_document_ = false;
  uint64_t sequence_ = 0;
};

// The single record writer: the current batch, the publish budgets, and the
// elision and gap bookkeeping described in the header comment. The sink
// owns batch allocation and recycling, so the writer stays agnostic of the
// transport (pools, tests).
class RecordWriter {
 public:
  class Sink {
   public:
    virtual ~Sink() = default;
    // Returns an empty batch to fill (never null).
    virtual EventBatch* AcquireBatch() = 0;
    // Takes ownership of a filled batch back.
    virtual void PublishBatch(EventBatch* batch) = 0;
  };

  // A batch is published when it holds `max_events` records or its arena
  // reached `max_text_bytes` (soft: the record that crosses the line still
  // joins the batch), and always at EndDocument. The check runs after every
  // appended record, so a batch never holds more than `max_events`.
  RecordWriter(Sink* sink, size_t max_events, size_t max_text_bytes)
      : sink_(sink), max_events_(max_events), max_text_bytes_(max_text_bytes) {}

  // Lean payload: every consumer declared it never reads end-element names
  // or character data, so ends carry no name bytes and text runs travel as
  // gaps. Node ids and ordinals are unaffected. Takes effect from the next
  // record.
  void set_lean_payload(bool lean) { lean_payload_ = lean; }
  // Element-level elision: null writes every element. The interest is not
  // owned and must stay valid while in use. Takes effect at the next
  // StartDocument.
  void set_element_interest(const ElementInterest* interest) {
    next_interest_ = interest;
  }
  // When set, time spent in the sink's PublishBatch (replay) is charged to
  // obs::Phase::kMatch; the parser charges the rest of its calls to parse.
  void set_phase_timers(obs::PhaseTimers* timers) { timers_ = timers; }

  // --- what this document's records carry ---
  // The interest in force since the last StartDocument (null: none).
  const ElementInterest* interest() const { return interest_; }
  // True when a text run gets no record of its own (TextGap instead).
  bool text_as_gaps() const { return interest_ != nullptr || lean_payload_; }
  // Whether the interest keeps `symbol`. Only meaningful with an interest.
  bool Keeps(util::Symbol symbol) const {
    return symbol < 0 ||  // unresolved: it could be any name
           (static_cast<size_t>(symbol) < interest_->size() &&
            (*interest_)[static_cast<size_t>(symbol)] != 0);
  }

  // --- document boundaries ---
  // Records of an earlier document that ended neither in EndDocument nor
  // in AbortDocument (a failed parse) and are still unpublished are
  // dropped here, so they never reach the consumer.
  void StartDocument();
  void EndDocument();
  // Abandons the in-progress document: the current batch (acquired if none
  // is open) is marked as aborting and published, so the consumer sees the
  // abort in stream order after the records already published.
  void AbortDocument();
  // Publishes the current batch (if it holds any records) without closing
  // the document. A pending gap stays pending (it delivers nothing, so it
  // moves no verdict).
  void Flush() { PublishCurrent(); }

  // --- elements and text ---
  // A start-element that gets no record (the interest keeps neither its
  // name nor any attribute name).
  void ElidedStart(uint32_t attr_count) {
    open_.push_back(Open{attr_count, pending_});
    pending_ = Gap{};
  }
  // A kept start-element: writes the elided ancestors and gap it needs,
  // then opens its record. Append its attributes to the returned batch
  // (EventBatch::AddAttribute), then call EndRecord().
  EventBatch* BeginStart(util::Symbol symbol, std::string_view name);
  void EndRecord() { PublishIfFull(); }
  void EndElement(std::string_view name);
  // A reported character-data run: a record, or a gap when text_as_gaps().
  void Characters(std::string_view text) {
    if (text_as_gaps()) {
      TextGap();
      return;
    }
    WriteCharacters(text);
  }
  // A reported text run that gets no record (text_as_gaps() only).
  void TextGap() {
    ++pending_.node_ids;
    if (interest_ != nullptr) ++events_elided_;
  }
  // A projection skip (xml/skip_scanner.h).
  void Skip(const SkipReport& report);

  // The callback-shaped start: elided unless the interest keeps the name or
  // an attribute name.
  void StartElement(const QName& name, AttributeSpan attributes);

  // Events that got no record of their own (cumulative): elided starts and
  // their ends, and text runs and projection skips folded into gaps while
  // an interest was in force.
  uint64_t events_elided() const { return events_elided_; }

 private:
  // Node ids and elements absorbed since the last record.
  struct Gap {
    uint64_t node_ids = 0;
    uint64_t elements = 0;
    uint64_t elided = 0;
    uint64_t bytes = 0;
  };
  // An element open while an interest is active.
  struct Open {
    uint32_t attr_count;  // for a late kElidedStart record
    Gap before;           // absorbed before its start (unrecorded only)
  };

  EventBatch* Current() {
    if (current_ == nullptr) current_ = sink_->AcquireBatch();
    return current_;
  }
  void WriteCharacters(std::string_view text);
  // Writes `gap` as kGap records (split where a count passes 32 bits).
  void AppendGap(Gap gap);
  void FlushPending() {
    if (pending_.node_ids != 0 || pending_.elements != 0) {
      AppendGap(pending_);
      pending_ = Gap{};
    }
  }
  void ResetElision();
  void PublishIfFull() {
    if (current_->event_count() >= max_events_ ||
        current_->text_bytes() >= max_text_bytes_) {
      PublishCurrent();
    }
  }
  void PublishCurrent();

  Sink* sink_;
  const size_t max_events_;
  const size_t max_text_bytes_;
  bool lean_payload_ = false;
  obs::PhaseTimers* timers_ = nullptr;
  EventBatch* current_ = nullptr;

  const ElementInterest* next_interest_ = nullptr;
  const ElementInterest* interest_ = nullptr;  // this document's
  std::vector<Open> open_;
  size_t recorded_depth_ = 0;  // open_[0, recorded_depth_) have records
  Gap pending_;
  uint64_t events_elided_ = 0;
};

// The ContentHandler adapter over a RecordWriter: each callback becomes the
// writer call it names, so callback producers (DOM replay, tests) reach
// the same writer the parser fills. A SaxParser given an EventBatcher (or
// a subclass such as core::MultiQueryEvaluator) skips the callbacks and
// writes into record_writer() directly.
class EventBatcher : public ContentHandler {
 public:
  using Sink = RecordWriter::Sink;

  EventBatcher(Sink* sink, size_t max_events, size_t max_text_bytes)
      : writer_(sink, max_events, max_text_bytes) {}

  void StartDocument() override { writer_.StartDocument(); }
  void EndDocument() override { writer_.EndDocument(); }
  void StartElement(const QName& name, AttributeSpan attributes) override {
    writer_.StartElement(name, attributes);
  }
  void EndElement(std::string_view name) override {
    writer_.EndElement(name);
  }
  void Characters(std::string_view text) override {
    writer_.Characters(text);
  }
  void SkippedSubtree(const SkipReport& report) override {
    writer_.Skip(report);
  }
  RecordWriter* record_writer() override { return &writer_; }

  void Flush() { writer_.Flush(); }
  void set_lean_payload(bool lean) { writer_.set_lean_payload(lean); }
  void set_element_interest(const ElementInterest* interest) {
    writer_.set_element_interest(interest);
  }
  uint64_t events_elided() const { return writer_.events_elided(); }

 protected:
  RecordWriter writer_;
};

}  // namespace xaos::xml

#endif  // XAOS_XML_EVENT_BATCH_H_
