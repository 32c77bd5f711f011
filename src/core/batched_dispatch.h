// A forwarding shim kept only so the repository benchmark's harness
// (perfbench/harness.cc) compiles unchanged: it hands the parser the
// evaluator's own record writer and forwards the document boundaries and
// AbortDocument. New code hands the MultiQueryEvaluator to the parser
// directly; the shim goes when the benchmark harness does so too.

#ifndef XAOS_CORE_BATCHED_DISPATCH_H_
#define XAOS_CORE_BATCHED_DISPATCH_H_

#include "core/multi_engine.h"
#include "util/status.h"
#include "xml/event_batch.h"
#include "xml/sax_event.h"

namespace xaos::core {

class BatchedDispatcher : public xml::ContentHandler {
 public:
  explicit BatchedDispatcher(MultiQueryEvaluator* evaluator)
      : evaluator_(evaluator) {}

  void StartDocument() override { evaluator_->StartDocument(); }
  void EndDocument() override { evaluator_->EndDocument(); }
  xml::RecordWriter* record_writer() override {
    return evaluator_->record_writer();
  }
  void AbortDocument(const Status& cause) { evaluator_->AbortDocument(cause); }

 private:
  MultiQueryEvaluator* evaluator_;
};

}  // namespace xaos::core

#endif  // XAOS_CORE_BATCHED_DISPATCH_H_
