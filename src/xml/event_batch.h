// Batched event capture for handing a SAX stream across threads.
//
// The live events a SaxParser emits are non-owning: name/value/text views
// point into the parser's transient buffers and die when the callback
// returns. To ship events to matcher threads (core/parallel_fleet.h) they
// are captured into an EventBatch: one flat `std::string` text arena owns
// every byte the batch references, events and attributes are fixed-size
// records holding (offset, size) slices into that arena plus the resolved
// name Symbol the producer already paid for. A batch is therefore
// self-contained and position-independent: once sealed it can be replayed
// concurrently by any number of threads (reads are const; per-consumer
// scratch is caller-provided), and reused via Clear() without releasing its
// arena capacity — steady-state capture does no heap allocation.
//
// EventBatcher is the ContentHandler that fills batches: it forwards every
// event into the current batch and asks its sink to publish when the batch
// reaches the configured event- or byte-budget, or when the document ends.
//
// Element-level elision. A consumer that only ever acts on elements with
// certain names (an EngineFleet with no wildcard, sibling, capture or text
// engine and no shared automaton) can hand the batcher an ElementInterest.
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
// (SkippedSubtree) is a gap of ids and elements none of which count as
// elided: its own kGap record without an interest, part of the pending gap
// with one.

#ifndef XAOS_XML_EVENT_BATCH_H_
#define XAOS_XML_EVENT_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/symbol_table.h"
#include "xml/sax_event.h"

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
  // were elided (projection skips consume ids and elements, not elisions).
  uint32_t gap_node_ids() const { return text_offset; }
  uint32_t gap_elements() const { return attr_begin; }
  uint32_t gap_elided() const { return attr_count; }
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
  void AddStartElement(const QName& name, AttributeSpan attributes);
  // `copy_payload` false records the event without copying its bytes into
  // the arena (an empty slice): lean capture for consumers that declared
  // they never read end-element names or character data. The event record
  // itself is always kept — replay must consume exactly one text id per
  // Characters and keep the element stack balanced.
  void AddEndElement(std::string_view name, bool copy_payload = true);
  void AddCharacters(std::string_view text, bool copy_payload = true);
  void AddElidedStart(uint32_t attr_count);
  void AddGap(uint32_t node_ids, uint32_t elements, uint32_t elided);

  // --- replay side (any number of concurrent consumers) ---
  // Raw read access for batch loops (EngineFleet::ReplayRun): consumers walk
  // the records directly instead of paying one virtual callback per event.
  // Views point into this batch's arena and stay valid until Clear().
  const std::vector<BatchedEvent>& events() const { return events_; }
  const BatchedAttribute& attribute(size_t i) const { return attributes_[i]; }
  std::string_view text_slice(uint32_t offset, uint32_t size) const {
    return Slice(offset, size);
  }

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

// ContentHandler that captures the stream into batches and hands each full
// batch to a sink. The sink owns batch allocation/recycling so the batcher
// stays agnostic of the transport (rings, pools, tests).
class EventBatcher : public ContentHandler {
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
  // reached `max_text_bytes` (soft: the event that crosses the line still
  // joins the batch), and always at EndDocument. The check runs after every
  // appended record, so a batch never holds more than `max_events`.
  EventBatcher(Sink* sink, size_t max_events, size_t max_text_bytes)
      : sink_(sink), max_events_(max_events), max_text_bytes_(max_text_bytes) {}

  void StartDocument() override;
  void EndDocument() override;
  void StartElement(const QName& name, AttributeSpan attributes) override;
  void EndElement(std::string_view name) override;
  void Characters(std::string_view text) override;
  void SkippedSubtree(const SkipReport& report) override;

  // Abandons the in-progress document: the current batch (acquired if none
  // is open) is marked as aborting and published, so every consumer sees
  // the abort in stream order after the events already shipped.
  void AbortDocument();

  // Publishes the current batch (if it holds any events) without closing
  // the document — lets a sequential driver drain buffered events so
  // mid-stream verdicts (MatchConfirmed) stay observable. A pending
  // elision gap stays pending (it delivers nothing, so it moves no verdict;
  // engines_skipped() catches up at the next record).
  void Flush() { PublishCurrent(); }

  // Adaptive batch sizing (ParallelFleet publish coalescing): budgets apply
  // from the next fullness check, the batch currently being filled included.
  void set_max_events(size_t max_events) { max_events_ = max_events; }
  size_t max_events() const { return max_events_; }
  void set_max_text_bytes(size_t max_text_bytes) {
    max_text_bytes_ = max_text_bytes;
  }

  // Lean payload capture: when every consumer has declared it never reads
  // end-element names or character data (no text predicates, no subtree
  // captures), those events are recorded without copying their bytes into
  // the arena. Event counts and ordering — and therefore replay-side node
  // ids — are unaffected. Takes effect from the next event.
  void set_lean_payload(bool lean) { lean_payload_ = lean; }
  bool lean_payload() const { return lean_payload_; }

  // Element-level elision (see the header comment): null captures every
  // event. The interest is not owned and must stay valid while in use.
  // Takes effect at the next StartDocument.
  void set_element_interest(const ElementInterest* interest) {
    next_interest_ = interest;
  }
  // Events that got no record of their own (cumulative): elided starts and
  // their ends, text runs and projection skips folded into gaps.
  uint64_t events_elided() const { return events_elided_; }

 private:
  // Node ids and elements absorbed since the last record.
  struct Gap {
    uint64_t node_ids = 0;
    uint64_t elements = 0;
    uint64_t elided = 0;
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
  bool Keeps(util::Symbol symbol) const {
    return symbol < 0 ||  // unresolved: it could be any name
           (static_cast<size_t>(symbol) < interest_->size() &&
            (*interest_)[static_cast<size_t>(symbol)] != 0);
  }
  bool Keeps(const QName& name, AttributeSpan attributes) const;
  // Writes `gap` as kGap records (split where a count passes 32 bits).
  void AppendGap(Gap gap);
  void ResetElision();
  void PublishIfFull();
  void PublishCurrent();

  Sink* sink_;
  size_t max_events_;
  size_t max_text_bytes_;
  bool lean_payload_ = false;
  EventBatch* current_ = nullptr;

  // --- element-level elision ---
  const ElementInterest* next_interest_ = nullptr;
  const ElementInterest* interest_ = nullptr;  // this document's
  std::vector<Open> open_;
  size_t recorded_depth_ = 0;  // open_[0, recorded_depth_) have records
  Gap pending_;
  uint64_t events_elided_ = 0;
};

}  // namespace xaos::xml

#endif  // XAOS_XML_EVENT_BATCH_H_
