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
    // A projection skip (xml/skip_scanner.h): the text slice holds the
    // raw SkipReport bytes.
    kSkipSubtree,
  };

  Kind kind = Kind::kStartDocument;
  util::Symbol symbol = util::kInvalidSymbol;  // start-element name, if known
  uint32_t text_offset = 0;  // element name or character data
  uint32_t text_size = 0;
  uint32_t attr_begin = 0;   // slice of the batch's attribute records
  uint32_t attr_count = 0;
};

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
  void AddSkipSubtree(const SkipReport& report);

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

  // A batch is published when it holds `max_events` events or its arena
  // reached `max_text_bytes` (soft: the event that crosses the line still
  // joins the batch), and always at EndDocument.
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
  // mid-stream verdicts (MatchConfirmed) stay observable.
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

 private:
  EventBatch* Current() {
    if (current_ == nullptr) current_ = sink_->AcquireBatch();
    return current_;
  }
  void PublishIfFull();
  void PublishCurrent();

  Sink* sink_;
  size_t max_events_;
  size_t max_text_bytes_;
  bool lean_payload_ = false;
  EventBatch* current_ = nullptr;
};

}  // namespace xaos::xml

#endif  // XAOS_XML_EVENT_BATCH_H_
