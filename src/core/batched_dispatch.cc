#include "core/batched_dispatch.h"

#include <algorithm>

#include "obs/metrics.h"

namespace xaos::core {

BatchedDispatcher::BatchedDispatcher(MultiQueryEvaluator* evaluator,
                                     Options options)
    : multi_(evaluator),
      batcher_(this, options.max_batch_events, options.max_batch_text_bytes) {}

BatchedDispatcher::BatchedDispatcher(StreamingEvaluator* evaluator,
                                     Options options)
    : streaming_(evaluator),
      batcher_(this, options.max_batch_events, options.max_batch_text_bytes) {}

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

bool BatchedDispatcher::EvaluatorWantsText() {
  return multi_ != nullptr ? multi_->wants_text_events()
                           : streaming_->wants_text_events();
}

const xml::ElementInterest* BatchedDispatcher::EvaluatorInterest() {
  return multi_ != nullptr ? multi_->element_interest()
                           : streaming_->element_interest();
}

void BatchedDispatcher::StartDocument() {
  batcher_.set_lean_payload(!EvaluatorWantsText());
  batcher_.set_element_interest(EvaluatorInterest());
  batcher_.StartDocument();
  elided_base_ = batcher_.events_elided();
}

void BatchedDispatcher::EndDocument() {
  batcher_.EndDocument();
  ExportElided();
}

void BatchedDispatcher::ExportElided() {
  if (!obs::Enabled()) return;
  const uint64_t elided = batcher_.events_elided();
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
  if (multi_ != nullptr) {
    multi_->ReplayBatch(*batch, &attr_scratch_);
  } else {
    streaming_->ReplayBatch(*batch, &attr_scratch_);
  }
  ++batches_replayed_;
  ReleaseToPool(batch);
}

void BatchedDispatcher::AbortDocument(const Status& cause) {
  // Publishes the current batch with the abort marker (discarded above),
  // then resets the evaluator. Order matters: the batcher must let go of
  // its in-flight batch before the next document starts filling a new one.
  batcher_.AbortDocument();
  if (multi_ != nullptr) {
    multi_->AbortDocument(cause);
  } else {
    streaming_->AbortDocument(cause);
  }
  ExportElided();
}

}  // namespace xaos::core
