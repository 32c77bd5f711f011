#include "core/parallel_fleet.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <unordered_set>

#include "core/shared_index.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace xaos::core {
namespace {

// Load estimate for assigning a query to a shard. Every x-node costs one
// unit; features that defeat the label index — wildcard tests (the engine
// joins the always-dispatch set) and sibling axes (dense stack: every
// element is delivered) — cost extra because such engines see every event.
uint64_t EstimateQueryCost(const Query& query) {
  uint64_t cost = 0;
  for (const query::XTree& tree : query.trees()) {
    cost += static_cast<uint64_t>(tree.size());
    for (query::XNodeId id = 0; id < tree.size(); ++id) {
      const query::XNode& node = tree.node(id);
      if (node.test.kind == query::NodeTestSpec::Kind::kAnyElement ||
          node.test.kind == query::NodeTestSpec::Kind::kAnyAttribute) {
        cost += 8;
      }
      if (node.incoming_axis == xpath::Axis::kFollowingSibling ||
          node.incoming_axis == xpath::Axis::kPrecedingSibling) {
        cost += 8;
      }
    }
  }
  return cost;
}

}  // namespace

ParallelFleet::ParallelFleet(ParallelFleetOptions options)
    : options_(options),
      batcher_(this, options.max_batch_events, options.max_batch_text_bytes) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.max_batch_events == 0) options_.max_batch_events = 1;
  if (options_.ring_capacity < 2) options_.ring_capacity = 2;
  batch_policy_.base = options_.max_batch_events;
  batch_policy_.cap =
      std::max(options_.max_batch_events, options_.max_batch_events_cap);
  batch_policy_.decay_publishes =
      std::max<size_t>(1, options_.adaptive_decay_publishes);
  batch_policy_.current = batch_policy_.base;
}

ParallelFleet::~ParallelFleet() {
  stop_.store(true, std::memory_order_seq_cst);
  for (Worker& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker.park_mu);
      worker.park_cv.notify_one();
    }
    if (worker.thread.joinable()) worker.thread.join();
  }
}

size_t ParallelFleet::AddQuery(const Query& query, std::string_view label) {
  XAOS_CHECK(!finalized_) << "AddQuery after the first StartDocument";
  queries_.push_back(query);
  // Default labels use the fleet-wide index: shard-local defaults would
  // collide across shards in the shared metrics registry.
  labels_.push_back(label.empty() ? "q" + std::to_string(queries_.size() - 1)
                                  : std::string(label));
  assignments_.push_back(Assignment{});
  return queries_.size() - 1;
}

void ParallelFleet::Finalize() {
  if (finalized_) return;
  finalized_ = true;

  size_t worker_count = static_cast<size_t>(options_.num_workers);
  if (!queries_.empty()) worker_count = std::min(worker_count, queries_.size());

  for (size_t i = 0; i < worker_count; ++i) {
    Worker& worker = workers_.emplace_back(options_.ring_capacity);
    worker.index = static_cast<int>(i);
    worker.evaluator =
        std::make_unique<MultiQueryEvaluator>(options_.engine_options);
    worker.evaluator->set_flight_shard(worker.index);
  }

  // Greedy longest-processing-time assignment: heaviest queries first, each
  // onto the shard where it finishes cheapest. For queries the shard
  // evaluators route to the shared automaton, "cheapest" is the *marginal*
  // cost against the shard's already-planned trie — a duplicate expression
  // is an alias (one unit), a shareable chain costs one unit per state the
  // shard does not already hold — so structurally similar subscriptions
  // gravitate to the same shard instead of scattering their prefixes.
  const EngineOptions& eo = options_.engine_options;
  const bool shared_enabled = eo.enable_shared_index &&
                              !eo.capture_output_subtrees &&
                              eo.max_live_structures == 0;
  std::vector<SharedIndexBuilder> planners(workers_.size());
  std::vector<std::unordered_set<std::string>> planned_expressions(
      workers_.size());
  std::vector<size_t> order(queries_.size());
  std::vector<uint64_t> costs(queries_.size());
  std::vector<bool> shareable(queries_.size());
  for (size_t q = 0; q < queries_.size(); ++q) {
    order[q] = q;
    costs[q] = EstimateQueryCost(queries_[q]);
    shareable[q] =
        shared_enabled && SharedIndexBuilder::Shareable(queries_[q].trees());
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return costs[a] > costs[b];
  });
  auto marginal_cost = [&](size_t q, size_t s) -> uint64_t {
    const std::string& expr = queries_[q].expression();
    if (!expr.empty() && planned_expressions[s].count(expr) > 0) return 1;
    if (shareable[q]) {
      return 1 + static_cast<uint64_t>(
                     planners[s].MarginalStates(queries_[q].trees()));
    }
    return costs[q];
  };
  for (size_t q : order) {
    size_t best = 0;
    uint64_t best_total =
        workers_[0].stats.cost_estimate + marginal_cost(q, 0);
    for (size_t s = 1; s < workers_.size(); ++s) {
      uint64_t total = workers_[s].stats.cost_estimate + marginal_cost(q, s);
      if (total < best_total) {
        best = s;
        best_total = total;
      }
    }
    Worker& shard = workers_[best];
    assignments_[q].shard = best;
    assignments_[q].local_index =
        shard.evaluator->AddQuery(queries_[q], labels_[q]);
    shard.global_queries.push_back(q);
    const std::string& expr = queries_[q].expression();
    bool duplicate = !expr.empty() && !planned_expressions[best].insert(expr).second;
    if (shareable[q] && !duplicate) {
      planners[best].AddSubscription(queries_[q].trees());
    }
    shard.stats.cost_estimate = best_total;
    shard.stats.query_count += 1;
  }
  for (Worker& worker : workers_) {
    worker.stats.engine_count = worker.evaluator->engine_count();
    // The worker thread is spawned after the shard's evaluator is fully
    // built, so thread creation publishes the engine state to it.
    worker.thread = std::thread(&ParallelFleet::WorkerLoop, this, &worker);
  }
}

// --- producer side ----------------------------------------------------------

xml::EventBatch* ParallelFleet::AcquireBatch() {
  XAOS_CHECK(current_ == nullptr);
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (!free_batches_.empty()) {
      current_ = free_batches_.back();
      free_batches_.pop_back();
    }
  }
  if (current_ == nullptr) {
    std::lock_guard<std::mutex> lock(pool_mu_);
    current_ = &all_batches_.emplace_back();
  }
  current_->batch.Clear();
  return &current_->batch;
}

void ParallelFleet::PublishBatch(xml::EventBatch* batch) {
  XAOS_CHECK(current_ != nullptr && batch == &current_->batch);
  PooledBatch* pooled = current_;
  current_ = nullptr;
  // The countdown is written before the ring push; the push's release store
  // publishes both it and the batch contents to each consumer.
  pooled->remaining.store(static_cast<uint32_t>(workers_.size()),
                          std::memory_order_relaxed);
  ++batches_published_;
  // The sequence travels with the batch so each worker's replay span can
  // reference the dispatch span that produced it (cross-thread linkage).
  pooled->batch.set_sequence(batches_published_);
  obs::flight::ScopedSpan dispatch_span(obs::flight::SpanKind::kDispatch);
  if (dispatch_span.active()) {
    dispatch_span.span()->batch = batches_published_;
    dispatch_span.span()->doc = documents_ + documents_aborted_ + 1;
    dispatch_span.span()->value =
        static_cast<int64_t>(pooled->batch.event_count());
  }
  bool stalled = false;
  for (Worker& worker : workers_) {
    stalled = PushBlocking(&worker, pooled) || stalled;
  }
  if (options_.adaptive_batching) {
    // The stall itself is the coalescing signal: by the time the producer
    // got through, the rings were saturated — ship bigger batches until the
    // pressure clears (ROADMAP 5a).
    batcher_.set_max_events(batch_policy_.OnPublish(stalled));
  }
}

bool ParallelFleet::PushBlocking(Worker* worker, PooledBatch* batch) {
  bool stalled = false;
  if (!worker->ring.TryPush(batch)) {
    stalled = true;
    ++publish_stalls_;
    // Clock reads live on the stall path only; an uncontended publish
    // never touches the clock.
    const uint64_t stall_begin_ns = obs::NowNs();
    do {
      std::this_thread::yield();
    } while (!worker->ring.TryPush(batch));
    const uint64_t stall_ns = obs::NowNs() - stall_begin_ns;
    publish_stall_ns_ += stall_ns;
    worker->stats.publish_stall_ns += stall_ns;
    if (obs::flight::Active()) {
      obs::flight::Span span;
      span.kind = obs::flight::SpanKind::kPublishStall;
      span.begin_ns = stall_begin_ns;
      span.end_ns = stall_begin_ns + stall_ns;
      span.batch = batch->batch.sequence();
      span.shard = worker->index;
      obs::flight::Emit(span);
    }
  }
  // Wake the consumer if it parked on an empty ring. The seq_cst fence
  // pairing (push above, parked store in PopBlocking) plus the consumer's
  // bounded wait make a missed hint harmless.
  if (worker->parked.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(worker->park_mu);
    worker->park_cv.notify_one();
  }
  return stalled;
}

void ParallelFleet::StartDocument() {
  Finalize();
  if (obs::flight::Active()) obs::flight::SetCurrentThreadName("parse");
  // Lean capture when no shard's engines read character data or
  // end-element names: the shared ring then carries fixed-size records for
  // those events instead of copies of the document's text.
  bool wants_text = false;
  for (Worker& worker : workers_) {
    wants_text = wants_text || worker.evaluator->wants_text_events();
  }
  batcher_.set_lean_payload(!wants_text);
  document_status_ = Status::Ok();
  batcher_.StartDocument();
}

void ParallelFleet::AbortDocument(const Status& cause) {
  document_status_ =
      cause.ok() ? InternalError("document aborted without a cause") : cause;
  if (!finalized_ || workers_.empty()) return;  // nothing is running yet
  ++documents_aborted_;
  batcher_.AbortDocument();
  {
    std::unique_lock<std::mutex> lock(doc_mu_);
    doc_cv_.wait(lock, [&] { return workers_done_ == workers_.size(); });
    workers_done_ = 0;
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry::Default()
        .GetCounter("xaos_parallel_documents_aborted_total")
        ->Increment();
  }
}

void ParallelFleet::StartElement(const xml::QName& name,
                                 xml::AttributeSpan attributes) {
  batcher_.StartElement(name, attributes);
}

void ParallelFleet::EndElement(std::string_view name) {
  batcher_.EndElement(name);
}

void ParallelFleet::Characters(std::string_view text) {
  batcher_.Characters(text);
}

void ParallelFleet::SkippedSubtree(const xml::SkipReport& report) {
  // Ship the skip through the batch stream in event order: each shard's
  // replay advances its own DocumentCursor by the same amount.
  batcher_.SkippedSubtree(report);
}

xml::ProjectionFilter* ParallelFleet::projection_filter() {
  Finalize();  // the query set is fixed once a filter is handed out
  if (!gate_built_) {
    gate_built_ = true;
    if (options_.engine_options.capture_output_subtrees) {
      gate_.SetSpec(
          query::ProjectionSpec::KeepAll("subtree capture needs every event"));
    } else {
      query::ProjectionSpec spec;
      for (const Query& query : queries_) {
        spec.UnionWith(query::ProjectionSpec::Analyze(query.trees()));
        if (spec.keep_all) break;
      }
      gate_.SetSpec(std::move(spec));
    }
  }
  return gate_.spec().keep_all ? nullptr : &gate_;
}

void ParallelFleet::EndDocument() {
  batcher_.EndDocument();  // publishes the final (kEndDocument) batch
  {
    std::unique_lock<std::mutex> lock(doc_mu_);
    doc_cv_.wait(lock, [&] { return workers_done_ == workers_.size(); });
    workers_done_ = 0;
  }
  ++documents_;
  if (obs::Enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    registry.GetCounter("xaos_parallel_documents_total")->Increment();
    ExportMetrics(&registry);
  }
}

// --- worker side ------------------------------------------------------------

ParallelFleet::PooledBatch* ParallelFleet::PopBlocking(Worker* worker) {
  PooledBatch* batch = nullptr;
  // First-park timestamp; zero while the spin loop has not yet starved. The
  // clock is only read once the worker is already idle, so the hot pop path
  // stays clock-free. The resulting park span runs from the first park to
  // the next successful pop (includes inter-document idle; see
  // ParallelShardStats::park_wait_ns).
  uint64_t park_begin_ns = 0;
  auto account_park = [&] {
    if (park_begin_ns == 0) return;
    const uint64_t now = obs::NowNs();
    worker->stats.park_wait_ns += now - park_begin_ns;
    worker->stats.parks += 1;
    if (obs::flight::Active()) {
      obs::flight::Span span;
      span.kind = obs::flight::SpanKind::kParkWait;
      span.begin_ns = park_begin_ns;
      span.end_ns = now;
      span.shard = worker->index;
      obs::flight::Emit(span);
    }
  };
  for (;;) {
    // Spin briefly: under load the producer refills the ring well within
    // this window and the worker never touches the mutex.
    for (int spin = 0; spin < 2048; ++spin) {
      if (worker->ring.TryPop(&batch)) {
        account_park();
        return batch;
      }
      if (stop_.load(std::memory_order_relaxed)) {
        // Drain-then-exit: only quit on a confirmed-empty ring. Shutdown
        // parking is not accounted — it is teardown, not starvation.
        if (!worker->ring.TryPop(&batch)) return nullptr;
        return batch;
      }
      std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(worker->park_mu);
    worker->parked.store(true, std::memory_order_seq_cst);
    if (park_begin_ns == 0) park_begin_ns = obs::NowNs();
    if (worker->ring.TryPop(&batch)) {
      worker->parked.store(false, std::memory_order_seq_cst);
      account_park();
      return batch;
    }
    // Bounded wait: a lost wakeup only costs one timeout period.
    worker->park_cv.wait_for(lock, std::chrono::milliseconds(1));
    worker->parked.store(false, std::memory_order_seq_cst);
  }
}

void ParallelFleet::ReleaseBatch(PooledBatch* batch) {
  if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(pool_mu_);
    free_batches_.push_back(batch);
  }
}

void ParallelFleet::WorkerLoop(Worker* worker) {
  for (;;) {
    PooledBatch* batch = PopBlocking(worker);
    if (batch == nullptr) return;
    // An abort marker's events are a partial capture of a failed document:
    // skip them (the shard's engines are reset by the next StartDocument)
    // and acknowledge through the same latch a document end uses.
    bool aborts_document = batch->batch.aborts_document();
    if (!aborts_document) {
      if (obs::flight::Active() && !worker->flight_named) {
        // Named lazily on the worker's own thread (SetCurrentThreadName is
        // a no-op before the recorder is armed).
        worker->flight_named = true;
        obs::flight::SetCurrentThreadName("worker/" +
                                          std::to_string(worker->index));
      }
      // ReplayBatch emits the kReplay span.
      worker->evaluator->ReplayBatch(batch->batch, &worker->attr_scratch);
      worker->stats.batches_consumed += 1;
      worker->stats.events_processed += batch->batch.event_count();
    }
    bool ends_document = batch->batch.ends_document();
    ReleaseBatch(batch);
    if (ends_document || aborts_document) {
      ++worker->docs_completed;
      std::lock_guard<std::mutex> lock(doc_mu_);
      ++workers_done_;
      doc_cv_.notify_all();
    }
  }
}

// --- results ----------------------------------------------------------------

Status ParallelFleet::status() const {
  if (!document_status_.ok()) return document_status_;
  for (const Worker& worker : workers_) {
    Status s = worker.evaluator->status();
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

bool ParallelFleet::Matched(size_t q) const {
  const Assignment& a = assignments_[q];
  return workers_[a.shard].evaluator->Matched(a.local_index);
}

QueryResult ParallelFleet::Result(size_t q) const {
  const Assignment& a = assignments_[q];
  return workers_[a.shard].evaluator->Result(a.local_index);
}

std::vector<size_t> ParallelFleet::MatchedQueries() const {
  std::vector<size_t> matched;
  for (const Worker& worker : workers_) {
    for (const size_t local : worker.evaluator->MatchedQueries()) {
      matched.push_back(worker.global_queries[local]);
    }
  }
  // Shard-local indices follow the LPT assignment order, not the fleet's.
  std::sort(matched.begin(), matched.end());
  return matched;
}

EngineStats ParallelFleet::AggregateStats() const {
  // Every shard replays the whole document, so per-document event counts
  // are uniform across shards (keep the first); structure counts, arena
  // traffic and arena footprints (one arena per shard) accumulate.
  EngineStats total;
  bool first = true;
  for (const Worker& worker : workers_) {
    EngineStats s = worker.evaluator->AggregateStats();
    if (first) {
      total = s;
      first = false;
      continue;
    }
    total.elements_discarded =
        std::min(total.elements_discarded, s.elements_discarded);
    total.structures_created += s.structures_created;
    total.structures_undone += s.structures_undone;
    total.structures_live += s.structures_live;
    total.structures_live_peak += s.structures_live_peak;
    total.structure_memory.live_bytes += s.structure_memory.live_bytes;
    total.structure_memory.peak_bytes += s.structure_memory.peak_bytes;
    total.propagations += s.propagations;
    total.optimistic_propagations += s.optimistic_propagations;
    total.arena_bytes_allocated += s.arena_bytes_allocated;
    total.arena_bytes_reserved += s.arena_bytes_reserved;
    total.candidates_emitted_early += s.candidates_emitted_early;
    total.candidates_reclaimed += s.candidates_reclaimed;
  }
  return total;
}

std::vector<ParallelShardStats> ParallelFleet::ShardStats() const {
  std::vector<ParallelShardStats> stats;
  stats.reserve(workers_.size());
  for (const Worker& worker : workers_) stats.push_back(worker.stats);
  return stats;
}

void ParallelFleet::ExportMetrics(obs::MetricsRegistry* registry) const {
  // The fleet's own tallies are cumulative, so exports are idempotent
  // gauges: re-exporting after every document never double-counts.
  registry->GetGauge("xaos_parallel_batches_published")
      ->Set(static_cast<int64_t>(batches_published_));
  registry->GetGauge("xaos_parallel_publish_stalls")
      ->Set(static_cast<int64_t>(publish_stalls_));
  registry->GetGauge("xaos_parallel_publish_stall_ns")
      ->Set(static_cast<int64_t>(publish_stall_ns_));
  registry->GetGauge("xaos_parallel_workers")
      ->Set(static_cast<int64_t>(workers_.size()));
  registry->GetGauge("xaos_parallel_batch_events_current")
      ->Set(static_cast<int64_t>(batch_policy_.current));
  registry->GetGauge("xaos_parallel_documents_aborted")
      ->Set(static_cast<int64_t>(documents_aborted_));
  registry->GetGauge("xaos_arena_bytes_reserved")
      ->Set(static_cast<int64_t>(AggregateStats().arena_bytes_reserved));
  for (size_t s = 0; s < workers_.size(); ++s) {
    const ParallelShardStats& stats = workers_[s].stats;
    std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    registry->GetGauge("xaos_parallel_shard_queries" + label)
        ->Set(static_cast<int64_t>(stats.query_count));
    registry->GetGauge("xaos_parallel_shard_batches_total" + label)
        ->Set(static_cast<int64_t>(stats.batches_consumed));
    registry->GetGauge("xaos_parallel_shard_events_total" + label)
        ->Set(static_cast<int64_t>(stats.events_processed));
    registry->GetGauge("xaos_parallel_shard_cost_estimate" + label)
        ->Set(static_cast<int64_t>(stats.cost_estimate));
    registry->GetGauge("xaos_parallel_shard_publish_stall_ns" + label)
        ->Set(static_cast<int64_t>(stats.publish_stall_ns));
    // park_wait_ns/parks are written by the worker thread; EndDocument's
    // doc latch ordered those writes before this read.
    registry->GetGauge("xaos_parallel_shard_park_wait_ns" + label)
        ->Set(static_cast<int64_t>(stats.park_wait_ns));
    registry->GetGauge("xaos_parallel_shard_parks" + label)
        ->Set(static_cast<int64_t>(stats.parks));
    registry->GetGauge("xaos_parallel_shard_shared_subscriptions" + label)
        ->Set(static_cast<int64_t>(
            workers_[s].evaluator->shared_subscription_count()));
    registry->GetGauge("xaos_parallel_shard_shared_states" + label)
        ->Set(static_cast<int64_t>(workers_[s].evaluator->shared_state_count()));
  }
}

}  // namespace xaos::core
