// Wall-clock instrumentation: phase accounting for the three pipeline
// phases of the paper's evaluation (parse, query-compile, match) and RAII
// scope timing.

#ifndef XAOS_OBS_TIMER_H_
#define XAOS_OBS_TIMER_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace xaos::obs {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The pipeline phases whose split the evaluation reports. In a streaming
// run parse and match interleave within one pass; the SaxParser attributes
// handler-callback time to kMatch and the rest of each Feed() to kParse
// (see ParserOptions::phase_timers).
enum class Phase { kParse = 0, kCompile = 1, kMatch = 2 };
inline constexpr int kPhaseCount = 3;

const char* PhaseName(Phase phase);

// Accumulated nanoseconds per phase. Single-writer (plain fields): one
// PhaseTimers belongs to one pipeline.
class PhaseTimers {
 public:
  void Add(Phase phase, uint64_t ns) { ns_[static_cast<int>(phase)] += ns; }
  uint64_t Ns(Phase phase) const { return ns_[static_cast<int>(phase)]; }
  double Seconds(Phase phase) const {
    return static_cast<double>(Ns(phase)) * 1e-9;
  }

  // Folds the phases into `registry` as counters
  // `<prefix>phase_ns_total{phase="parse"}` etc.
  void ExportTo(MetricsRegistry* registry,
                const std::string& prefix = "xaos_") const;

 private:
  uint64_t ns_[kPhaseCount] = {};
};

// RAII timer recording its scope's duration on destruction, into either a
// histogram or a phase accumulator.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), start_(NowNs()) {}
  ScopedTimer(PhaseTimers* timers, Phase phase)
      : timers_(timers), phase_(phase), start_(NowNs()) {}
  ~ScopedTimer() {
    uint64_t elapsed = ElapsedNs();
    if (histogram_ != nullptr) histogram_->Record(elapsed);
    if (timers_ != nullptr) timers_->Add(phase_, elapsed);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  uint64_t ElapsedNs() const { return NowNs() - start_; }

 private:
  Histogram* histogram_ = nullptr;
  PhaseTimers* timers_ = nullptr;
  Phase phase_ = Phase::kParse;
  uint64_t start_;
};

}  // namespace xaos::obs

#endif  // XAOS_OBS_TIMER_H_
