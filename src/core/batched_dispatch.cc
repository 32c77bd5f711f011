#include "core/batched_dispatch.h"

#include <algorithm>

#include "obs/metrics.h"

namespace xaos::core {

BatchedDispatcher::BatchedDispatcher(MultiQueryEvaluator* evaluator,
                                     Options options)
    : xml::EventBatcher(this, options.max_batch_events,
                        options.max_batch_text_bytes),
      evaluator_(evaluator) {}

xml::EventBatch* BatchedDispatcher::AcquireBatch() {
  if (free_.empty()) {
    pool_.push_back(std::make_unique<xml::EventBatch>());
    return pool_.back().get();
  }
  xml::EventBatch* batch = free_.back();
  free_.pop_back();
  return batch;
}

void BatchedDispatcher::ReleaseToPool(xml::EventBatch* batch) {
  // Guard against double-release: an AbortDocument firing while the batch
  // is mid-publish (abort cause raised by replay-side observers) would
  // publish the same pointer again; a duplicate free-list entry would hand
  // one batch to two writers later.
  if (std::find(free_.begin(), free_.end(), batch) != free_.end()) return;
  batch->Clear();
  free_.push_back(batch);
}

void BatchedDispatcher::StartDocument() {
  writer_.set_lean_payload(!evaluator_->wants_text_events());
  writer_.set_element_interest(evaluator_->element_interest());
  writer_.StartDocument();
  elided_base_ = writer_.events_elided();
}

void BatchedDispatcher::EndDocument() {
  writer_.EndDocument();
  ExportElided();
}

void BatchedDispatcher::ExportElided() {
  if (!obs::Enabled()) return;
  const uint64_t elided = writer_.events_elided();
  static obs::Counter* counter = obs::MetricsRegistry::Default().GetCounter(
      "xaos_capture_events_elided_total");
  counter->Increment(elided - elided_base_);
  elided_base_ = elided;
}

void BatchedDispatcher::PublishBatch(xml::EventBatch* batch) {
  if (batch->aborts_document()) {
    // Partial capture of an abandoned document: never replay it. The
    // evaluator's AbortDocument (run by our caller) does the bookkeeping.
    ReleaseToPool(batch);
    return;
  }
  batch->set_sequence(++sequence_);
  evaluator_->ReplayBatch(*batch, &attr_scratch_);
  ++batches_replayed_;
  ReleaseToPool(batch);
}

void BatchedDispatcher::AbortDocument(const Status& cause) {
  // Publishes the current batch with the abort marker (discarded above),
  // then resets the evaluator. Order matters: the writer must let go of
  // its in-flight batch before the next document starts filling a new one.
  writer_.AbortDocument();
  evaluator_->AbortDocument(cause);
  ExportElided();
}

}  // namespace xaos::core
