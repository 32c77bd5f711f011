// Parallel engine fleet: parse once, match on N worker threads.
//
// The single-threaded MultiQueryEvaluator already makes per-event cost
// sub-linear in the subscription count via label-indexed dispatch, but the
// whole fleet still shares one core with the parser. ParallelFleet splits
// the work across threads with the shape streaming pub/sub systems use:
//
//   parse thread ──batches──> worker 0: shard {q3, q7, ...}
//               └─batches──> worker 1: shard {q1, q4, ...}   ...
//
// One SAX parse (the caller's thread — ParallelFleet is a ContentHandler)
// captures the event stream into EventBatches (xml/event_batch.h): events
// carry resolved Symbols and slices of a batch-owned text arena, so a
// sealed batch is immutable and safely shared. Each worker owns a disjoint
// shard of the subscriptions — a full MultiQueryEvaluator with its own
// EngineFleet, DocumentCursor and matching arena — and consumes every
// batch through a bounded lock-free SPSC ring (util/spsc_ring.h), so no
// engine state is ever touched by two threads. Because every shard replays
// the entire event stream, each shard's DocumentCursor assigns the same
// node ids the sequential evaluator would, which is what makes per-query
// results byte-identical to MultiQueryEvaluator and lets the end-of-
// document merge simply concatenate per-shard answers (each per-query
// result is already in document order; see DESIGN.md "Threading model").
//
// EndDocument blocks until every shard has drained the document, after
// which Matched()/Result()/status() are safe to read from the calling
// thread. Between documents the workers park; the fleet is reusable for a
// stream of documents like the sequential evaluators.

#ifndef XAOS_CORE_PARALLEL_FLEET_H_
#define XAOS_CORE_PARALLEL_FLEET_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/multi_engine.h"
#include "util/spsc_ring.h"
#include "xml/event_batch.h"

namespace xaos::core {

struct ParallelFleetOptions {
  // Worker (match) threads. Clamped to [1, query count] at finalization —
  // a shard with no engines would only burn a core replaying the stream.
  int num_workers = 2;
  // A batch is published once it holds this many events ...
  size_t max_batch_events = 512;
  // ... or its text arena reaches this many bytes, whichever first.
  size_t max_batch_text_bytes = 64 * 1024;
  // Batches in flight per worker ring; the producer stalls when the
  // slowest worker falls this far behind (bounded memory back-pressure).
  size_t ring_capacity = 8;
  // Adaptive publish coalescing: when the producer stalls on a full ring,
  // the per-batch event budget doubles (up to `max_batch_events_cap`) so
  // fewer, larger publishes amortize ring traffic exactly when the rings
  // are saturated; after `adaptive_decay_publishes` consecutive stall-free
  // publishes the budget halves back toward `max_batch_events`, restoring
  // low batch latency for light loads.
  bool adaptive_batching = true;
  size_t max_batch_events_cap = 8192;
  size_t adaptive_decay_publishes = 16;
  EngineOptions engine_options;
};

// The producer-side controller for adaptive publish coalescing, driven by
// the same stall signal the kPublishStall spans record. Exposed for unit
// tests; ParallelFleet owns one and applies it per publish.
struct AdaptiveBatchPolicy {
  size_t base = 512;
  size_t cap = 8192;
  size_t decay_publishes = 16;
  size_t current = 512;
  size_t quiet = 0;  // consecutive stall-free publishes

  // Feeds one publish's outcome; returns the event budget for the next
  // batch. Growth is immediate (stalls are expensive), decay is slow
  // (half after a quiet stretch) so the budget doesn't oscillate.
  size_t OnPublish(bool stalled) {
    if (stalled) {
      quiet = 0;
      if (current < cap) current = current * 2 < cap ? current * 2 : cap;
    } else if (current > base && ++quiet >= decay_publishes) {
      quiet = 0;
      current = current / 2 > base ? current / 2 : base;
    }
    return current;
  }
};

// Per-shard accounting, readable after EndDocument (cumulative).
struct ParallelShardStats {
  size_t query_count = 0;
  size_t engine_count = 0;
  uint64_t cost_estimate = 0;     // sharding heuristic's load estimate
  uint64_t batches_consumed = 0;
  uint64_t events_processed = 0;
  // Producer time spent stalled on this shard's full ring (the
  // back-pressure the PR-3 writeup named as the bottleneck), and the
  // shard's own parked time while waiting for a batch. Park time spans
  // from the first park to the next successful pop, so it includes idle
  // gaps between documents, not just mid-document starvation.
  uint64_t publish_stall_ns = 0;  // written by the producer thread
  uint64_t park_wait_ns = 0;      // written by the worker thread
  uint64_t parks = 0;             // park episodes (worker thread)
};

class ParallelFleet : public xml::ContentHandler,
                      private xml::EventBatcher::Sink {
 public:
  explicit ParallelFleet(ParallelFleetOptions options = {});
  ~ParallelFleet() override;

  ParallelFleet(const ParallelFleet&) = delete;
  ParallelFleet& operator=(const ParallelFleet&) = delete;

  // Registers a subscription; returns its index. All queries must be added
  // before the first StartDocument. `label` names the subscription in
  // exported latency series (see MultiQueryEvaluator::AddQuery); empty
  // derives "q<index>" from the fleet-wide index so labels stay unique
  // across shards.
  size_t AddQuery(const Query& query, std::string_view label = {});
  size_t query_count() const { return assignments_.size(); }

  // Builds the shards and spawns the workers. Called lazily by the first
  // StartDocument; call explicitly to take the cost out of the timed path.
  void Finalize();

  // ContentHandler interface — the calling thread is the parse/producer
  // thread. EndDocument blocks until all shards finished the document. A
  // stream abandoned mid-document (parse error, limit rejection) must be
  // closed out with AbortDocument before the next StartDocument.
  void StartDocument() override;
  void EndDocument() override;
  void StartElement(const xml::QName& name,
                    xml::AttributeSpan attributes) override;
  void EndElement(std::string_view name) override;
  void Characters(std::string_view text) override;
  void SkippedSubtree(const xml::SkipReport& report) override;

  // Document-projection filter covering the union of all registered
  // subscriptions. Finalizes the fleet (no queries can be added after this
  // call). Install via xml::ParserOptions::projection_filter: the producer
  // forwards each skip into the batch stream, so every shard's cursor
  // advances identically and per-query results stay byte-identical.
  // Returns nullptr when the union degraded to keep-all, so callers skip
  // the per-tag filter overhead entirely.
  xml::ProjectionFilter* projection_filter();
  const query::ProjectionSpec& projection_spec() const { return gate_.spec(); }

  // Abandons the current document after a mid-stream producer failure:
  // publishes an abort marker behind the events already shipped, wakes
  // every shard (workers skip the partial batch), and blocks until all of
  // them acknowledged — draining the rings, so no stale events leak into
  // the next document. `cause` is what status() reports until the next
  // StartDocument; the fleet stays reusable. Never deadlocks: workers
  // always drain their rings, and the marker is the last entry.
  void AbortDocument(const Status& cause);

  // --- results; valid after EndDocument (or AbortDocument) returned ---
  // The abort cause of an abandoned document, else the first engine error
  // across all shards, if any.
  Status status() const;
  bool Matched(size_t q) const;
  QueryResult Result(size_t q) const;
  // Indices of all matched queries, ascending — the per-document merge of
  // the shards' MatchedQueries lists for routing consumers.
  std::vector<size_t> MatchedQueries() const;
  EngineStats AggregateStats() const;

  // --- accounting ---
  size_t worker_count() const { return workers_.size(); }
  uint64_t batches_published() const { return batches_published_; }
  // Times the producer found a worker ring full and had to wait.
  uint64_t publish_stalls() const { return publish_stalls_; }
  // The adaptive policy's current per-batch event budget.
  size_t current_batch_events() const { return batch_policy_.current; }
  // Total producer time spent in those stalls, across all shards. Timed on
  // the stall path only, so the uncontended publish stays clock-free.
  uint64_t publish_stall_ns() const { return publish_stall_ns_; }
  std::vector<ParallelShardStats> ShardStats() const;
  // Folds fleet-level and per-shard counters into `registry`
  // (xaos_parallel_* metric family).
  void ExportMetrics(obs::MetricsRegistry* registry) const;

 private:
  // A pooled batch: payload plus the countdown of shards that still have
  // to consume it. Recycled through free_batches_ when it hits zero.
  struct PooledBatch {
    xml::EventBatch batch;
    std::atomic<uint32_t> remaining{0};
  };

  struct Worker {
    explicit Worker(size_t ring_capacity) : ring(ring_capacity) {}

    util::SpscRing<PooledBatch*> ring;
    std::unique_ptr<MultiQueryEvaluator> evaluator;
    // Fleet-wide query index of each of the evaluator's local queries.
    std::vector<size_t> global_queries;
    std::vector<xml::AttributeView> attr_scratch;
    ParallelShardStats stats;
    int index = -1;  // shard number, for span attribution
    // Worker-thread-only flight bookkeeping.
    uint64_t docs_completed = 0;
    bool flight_named = false;

    // Parking for an empty ring (see WorkerLoop). `parked` is the
    // producer's hint that a notify is needed after a push.
    std::mutex park_mu;
    std::condition_variable park_cv;
    std::atomic<bool> parked{false};

    std::thread thread;
  };

  // EventBatcher::Sink — producer side of the pool.
  xml::EventBatch* AcquireBatch() override;
  void PublishBatch(xml::EventBatch* batch) override;

  // Returns true if the push stalled on a full ring (adaptive signal).
  bool PushBlocking(Worker* worker, PooledBatch* batch);
  void WorkerLoop(Worker* worker);
  // Blocking pop; returns nullptr on shutdown with an empty ring.
  PooledBatch* PopBlocking(Worker* worker);
  void ReleaseBatch(PooledBatch* batch);

  ParallelFleetOptions options_;
  bool finalized_ = false;

  // Queries registered before finalization, then assigned to shards.
  std::vector<Query> queries_;
  std::vector<std::string> labels_;  // subscription labels, same indexing
  struct Assignment {
    size_t shard = 0;
    size_t local_index = 0;  // query index within the shard's evaluator
  };
  std::vector<Assignment> assignments_;

  std::deque<Worker> workers_;  // deque: Workers are immovable
  xml::EventBatcher batcher_;

  // Producer-side projection gate (built once by projection_filter(); its
  // per-document state is only touched by the producer thread).
  query::ProjectionGate gate_;
  bool gate_built_ = false;

  // Batch pool. `all_batches_` owns; `free_batches_` holds the recyclable
  // ones (guarded by pool_mu_: producer acquires, last consumer returns).
  std::mutex pool_mu_;
  std::deque<PooledBatch> all_batches_;
  std::vector<PooledBatch*> free_batches_;
  PooledBatch* current_ = nullptr;  // batch being filled by the producer

  // End-of-document latch: each worker that replays the kEndDocument event
  // of a document counts itself done; EndDocument waits for all of them.
  std::mutex doc_mu_;
  std::condition_variable doc_cv_;
  size_t workers_done_ = 0;

  std::atomic<bool> stop_{false};

  // Why the last document was abandoned; cleared by StartDocument. Written
  // by the producer thread, read by the caller after the abort latch.
  Status document_status_;

  AdaptiveBatchPolicy batch_policy_;  // producer thread only

  uint64_t batches_published_ = 0;  // producer thread only
  uint64_t publish_stalls_ = 0;     // producer thread only
  uint64_t publish_stall_ns_ = 0;   // producer thread only
  uint64_t documents_ = 0;          // producer thread only
  uint64_t documents_aborted_ = 0;  // producer thread only
};

}  // namespace xaos::core

#endif  // XAOS_CORE_PARALLEL_FLEET_H_
