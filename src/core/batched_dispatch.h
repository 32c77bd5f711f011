// Sequential batched dispatch: the driver between the parser and an
// evaluator's batch loop, used by every sequential production path
// (EvaluateStreaming, xaos_grep, pubsub_router).
//
// BatchedDispatcher is an xml::EventBatcher whose sink replays: a SaxParser
// given a dispatcher writes EventBatch records straight into its
// RecordWriter (xml/event_batch.h), and each full batch is replayed in one
// call through MultiQueryEvaluator::ReplayBatch into
// EngineFleet::ReplayRun — the same two-pass replay an evaluator fed event
// by event runs on one-event runs. Results are therefore identical to
// feeding the evaluator directly; only the instant at which buffered
// records reach the evaluator shifts — by at most one batch, and Flush()
// hands over the buffer on demand when a caller wants a mid-stream verdict
// at an exact event boundary.
//
// Records are element-level elided whenever that is exact: at each
// StartDocument the dispatcher installs the evaluator's element interest
// (EngineFleet::element_interest) into its writer, and the parser, which
// reads it back, writes no record for elements that index no engine, their
// ends or any text run — they reach the batch only as numbering gaps and
// payload-free elided-start records. Node ids, parent ids, levels and
// ordinals stay byte-identical to a full capture, as do engines_skipped()
// and the engines' statistics. With a shared matcher, an always-dispatch
// engine (wildcards, sibling axes, subtree capture) or an engine reading
// text, the interest is null and every element gets a record; text runs
// still travel as gaps whenever no engine reads text.
//
// Batches come from a small internal free pool and return to it after
// replay, so steady-state dispatch performs no heap allocation. An aborting
// batch (mid-stream producer failure) is returned unreplayed; the pool
// return is guarded against double-release, which an AbortDocument
// re-entering mid-publish would otherwise cause.

#ifndef XAOS_CORE_BATCHED_DISPATCH_H_
#define XAOS_CORE_BATCHED_DISPATCH_H_

#include <memory>
#include <vector>

#include "core/multi_engine.h"
#include "xml/event_batch.h"
#include "xml/sax_event.h"

namespace xaos::core {

struct BatchedDispatchOptions {
  // Default batch budgets for the sequential path: large enough to
  // amortize the replay-loop entry, small enough to keep mid-stream
  // verdict latency at sub-document granularity.
  size_t max_batch_events = 256;
  size_t max_batch_text_bytes = 32 * 1024;
};

class BatchedDispatcher : public xml::EventBatcher,
                          private xml::RecordWriter::Sink {
 public:
  using Options = BatchedDispatchOptions;

  explicit BatchedDispatcher(MultiQueryEvaluator* evaluator,
                             Options options = {});

  // Payload capture and elision are re-decided per document: when no
  // engine reads character data or end-element names, ends are recorded
  // without names and text runs as gaps, and when the evaluator exposes an
  // element interest, elements it would deliver to nobody are elided.
  void StartDocument() override;
  void EndDocument() override;

  // Abandons the in-progress document: buffered records are discarded (the
  // aborting batch returns to the pool unreplayed — a partial capture must
  // not reach the engines) and the evaluator's AbortDocument runs with
  // `cause`. The dispatcher stays reusable for further documents.
  void AbortDocument(const Status& cause);

  uint64_t batches_replayed() const { return batches_replayed_; }
  // events_elided() (inherited) is exported per document as
  // xaos_capture_events_elided_total when obs is on.
  size_t pool_free_for_test() const { return free_.size(); }

 private:
  // xml::RecordWriter::Sink
  xml::EventBatch* AcquireBatch() override;
  void PublishBatch(xml::EventBatch* batch) override;

  void ReleaseToPool(xml::EventBatch* batch);
  // Adds this document's elided events to the obs counter.
  void ExportElided();

  MultiQueryEvaluator* evaluator_;
  std::vector<std::unique_ptr<xml::EventBatch>> pool_;  // owns every batch
  std::vector<xml::EventBatch*> free_;
  std::vector<xml::AttributeView> attr_scratch_;
  uint64_t sequence_ = 0;
  uint64_t batches_replayed_ = 0;
  uint64_t elided_base_ = 0;  // events_elided() at StartDocument / export
};

}  // namespace xaos::core

#endif  // XAOS_CORE_BATCHED_DISPATCH_H_
