// Document-parallel routing: N workers, each running the unmodified
// sequential path over whole documents.
//
// The publish/subscribe configuration routes a stream of independent
// documents, so the unit of parallel work is the document. Each worker owns
// a complete sequential stack: a MultiQueryEvaluator built from the same
// compiled Query objects (their x-trees are shared read-only), which
// consumes the parser's records itself, and its own xml::ParserOptions
// whose projection filter is that evaluator's own (a ProjectionFilter keeps
// per-document state, so workers never share one). A worker parses a whole
// document into its stack: batched capture, element elision, replay and
// AbortDocument run exactly as on the sequential path, so a rejected
// document costs only its own worker one abort, after which the worker
// serves the next document.
//
//   doc 0 ──> worker A: parse → capture → replay ──┐
//   doc 1 ──> worker B: parse → capture → replay ──┼─> turnstile ─> callback
//   doc 2 ──> worker A, once doc 0 is delivered  ──┘   (0, 1, 2, ...)
//
// Ordering. Every submitted document draws a ticket. A worker that finished
// document t waits at a turnstile until the outcomes of documents 0..t-1
// were delivered, then calls the outcome callback on its own thread while
// its evaluator still holds document t's state, so the callback reads
// status(), MatchedQueries() and Result(q) without a copy. Outcomes arrive
// one at a time, in submission order; whatever a callback writes is visible
// to the next one (the turnstile hands over under a mutex), so callers need
// no locking of their own. At most worker_count() documents are in flight:
// Submit blocks until an outcome frees a slot. The router's own methods
// are called from one thread, the submitter.
//
// What is shared: the process-wide SymbolTable (queries intern their names
// at compile time, before any worker starts; parsers only resolve names)
// and the compiled x-trees. Everything else is per worker: evaluator,
// shared-index automaton, matching arena, batch pool, projection gate,
// parser. Memory therefore grows with the worker count, and stays bounded
// by it: earliest answering bounds each in-flight document's state.

#ifndef XAOS_CORE_PARALLEL_ROUTER_H_
#define XAOS_CORE_PARALLEL_ROUTER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "core/multi_engine.h"
#include "xml/sax_parser.h"

namespace xaos::core {

class ParallelRouter {
 public:
  // Receives document `document` (its 0-based submission index) once it was
  // routed. `evaluator.status()` is the document's outcome: the parse or
  // limit error of a rejected document, else the first engine error.
  // Runs on a worker thread, in submission order, one call at a time; it
  // must not call back into the router.
  using OutcomeFn = std::function<void(size_t document,
                                       const MultiQueryEvaluator& evaluator)>;

  // `num_workers` is clamped to [1, std::thread::hardware_concurrency()]
  // here, before any thread exists. Every worker parses with
  // `parser_options` (limits, text handling) plus its own evaluator's
  // projection filter; `parser_options.projection_filter` must be null.
  ParallelRouter(int num_workers, OutcomeFn on_outcome,
                 EngineOptions engine_options = {},
                 xml::ParserOptions parser_options = {});
  // Waits for every submitted document's outcome, then stops the workers.
  ~ParallelRouter();

  ParallelRouter(const ParallelRouter&) = delete;
  ParallelRouter& operator=(const ParallelRouter&) = delete;

  // Registers a subscription with every worker; returns its index (the
  // index MatchedQueries() and Result(q) use). Only before the first Submit.
  size_t AddQuery(const Query& query, std::string_view label = {});
  size_t worker_count() const { return workers_.size(); }

  // Hands `document` to the next free worker; blocks while worker_count()
  // documents await their outcome. Documents are numbered 0, 1, ... in
  // submission order. The bytes must stay valid until the document's
  // outcome was delivered. The first call starts the worker threads.
  void Submit(std::string_view document);
  // Blocks until every submitted document's outcome was delivered.
  void Drain();

  // --- per-worker introspection; only while drained (after Drain() and
  // before the next Submit) ---
  const MultiQueryEvaluator& evaluator(size_t worker) const {
    return workers_[worker]->evaluator;
  }
  // Events batched capture elided, summed over the workers (cumulative; see
  // xml::EventBatcher::events_elided).
  uint64_t events_elided() const;
  // The projection every worker installs: worker 0 analyses it once for
  // the shared query set, the others adopt it. Not while documents are in
  // flight.
  const query::ProjectionSpec& projection_spec() const {
    return workers_[0]->evaluator.projection_spec();
  }

 private:
  struct Worker {
    explicit Worker(const EngineOptions& options) : evaluator(options) {}

    MultiQueryEvaluator evaluator;
    xml::ParserOptions parser_options;
    std::thread thread;
  };
  struct Job {
    size_t ticket = 0;
    std::string_view document;
  };

  void Run(Worker* worker, size_t index);

  OutcomeFn on_outcome_;
  xml::ParserOptions parser_options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool started_ = false;

  std::mutex mu_;
  std::condition_variable work_cv_;  // a job was queued, or stop_
  std::condition_variable turn_cv_;  // delivered_ advanced
  std::deque<Job> queue_;
  size_t submitted_ = 0;  // tickets handed out
  size_t delivered_ = 0;  // outcomes delivered: the turnstile's position
  bool stop_ = false;
};

}  // namespace xaos::core

#endif  // XAOS_CORE_PARALLEL_ROUTER_H_
