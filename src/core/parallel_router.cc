#include "core/parallel_router.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/flight.h"
#include "util/check.h"

namespace xaos::core {

ParallelRouter::ParallelRouter(int num_workers, OutcomeFn on_outcome,
                               EngineOptions engine_options,
                               xml::ParserOptions parser_options)
    : on_outcome_(std::move(on_outcome)), parser_options_(parser_options) {
  XAOS_CHECK(parser_options_.projection_filter == nullptr)
      << "each worker installs its own evaluator's projection filter";
  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int workers = std::clamp(num_workers, 1, cores);
  for (int i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(engine_options));
  }
}

ParallelRouter::~ParallelRouter() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (const std::unique_ptr<Worker>& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

size_t ParallelRouter::AddQuery(const Query& query, std::string_view label) {
  XAOS_CHECK(!started_) << "AddQuery after the first Submit";
  size_t index = 0;
  for (const std::unique_ptr<Worker>& worker : workers_) {
    index = worker->evaluator.AddQuery(query, label);
  }
  return index;
}

void ParallelRouter::Submit(std::string_view document) {
  if (!started_) {
    // The query set is final: worker 0 analyses the projection once, the
    // others install its spec in their own filters, and the threads start
    // after their stacks are fully built.
    started_ = true;
    for (size_t i = 0; i < workers_.size(); ++i) {
      Worker* worker = workers_[i].get();
      if (i > 0) worker->evaluator.AdoptProjectionSpec(workers_[0]->evaluator);
      worker->parser_options = parser_options_;
      worker->parser_options.projection_filter =
          worker->evaluator.projection_filter();
      worker->thread = std::thread(&ParallelRouter::Run, this, worker, i);
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    turn_cv_.wait(lock,
                  [&] { return submitted_ - delivered_ < workers_.size(); });
    queue_.push_back(Job{submitted_++, document});
  }
  work_cv_.notify_one();
}

void ParallelRouter::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  turn_cv_.wait(lock, [&] { return delivered_ == submitted_; });
}

uint64_t ParallelRouter::events_elided() const {
  uint64_t total = 0;
  for (const std::unique_ptr<Worker>& worker : workers_) {
    total += worker->evaluator.events_elided();
  }
  return total;
}

void ParallelRouter::Run(Worker* worker, size_t index) {
  bool named = false;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to route
      job = queue_.front();
      queue_.pop_front();
    }
    if (!named && obs::flight::Active()) {
      // Named on the worker's own thread once the recorder is armed, so
      // this worker's spans land on a track of their own.
      named = true;
      obs::flight::SetCurrentThreadName("worker/" + std::to_string(index));
    }
    Status status = xml::ParseString(job.document, &worker->evaluator,
                                     worker->parser_options);
    if (!status.ok()) worker->evaluator.AbortDocument(status);
    {
      // Tickets leave the queue in order, so every earlier document is
      // already held by a worker and the turnstile always advances.
      std::unique_lock<std::mutex> lock(mu_);
      turn_cv_.wait(lock, [&] { return delivered_ == job.ticket; });
    }
    on_outcome_(job.ticket, worker->evaluator);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++delivered_;
    }
    turn_cv_.notify_all();
  }
}

}  // namespace xaos::core
