// Flight recorder: low-overhead span tracing across the streaming pipeline.
//
// Every instrumented thread owns a fixed-size ring of Spans (overwrite-
// oldest, so a long run keeps the most recent window); emitting a span is a
// thread-local store with no locks and no allocation in steady state. The
// recorder is two gates deep:
//   * compile time — building with -DXAOS_OBS_ENABLED=0 turns the whole API
//     into no-op inlines, so instrumentation sites vanish;
//   * run time — spans are only recorded after Arm(); Active() is a single
//     relaxed atomic load, and every call site guards on it, so a disarmed
//     binary pays one predictable branch per *coarse* operation (per Feed,
//     per batch, per document — never per event).
//
// Spans carry document and batch-sequence attribution. Each thread records
// onto a track of its own: a core::ParallelRouter worker names its thread
// "worker/<n>", so one document's parse, replay and document spans sit
// together on the track of the worker that routed it.
//
// Collection contract: rings are single-writer and collected without locks,
// so Collect()/Reset()/Arm() must run at a quiescent point — on the only
// recording thread, after ParallelRouter::Drain() returned (its turnstile
// orders every worker's writes before it), or after the writing threads
// joined. The tools call them exactly there.

#ifndef XAOS_OBS_FLIGHT_H_
#define XAOS_OBS_FLIGHT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/timer.h"
#include "util/status.h"

namespace xaos::obs::flight {

enum class SpanKind : uint8_t {
  kParse = 0,     // one SaxParser::Feed call (value = chunk bytes)
  kSkipScan,      // one projection skip (value = bytes, value2 = elements)
  kDocument,      // StartDocument..EndDocument on an evaluator (value = engines)
  kReplay,        // an evaluator replaying one batch (value = events)
  kCounter,       // point sample: value = buffered candidates, value2 = bytes
};
inline constexpr int kSpanKindCount = 5;

// Stable lowercase name used as the Chrome-trace event name.
const char* SpanKindName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kParse;
  uint64_t begin_ns = 0;  // steady-clock (obs::NowNs) timestamps
  uint64_t end_ns = 0;
  uint64_t doc = 0;    // 1-based document ordinal; 0 = not attributed
  uint64_t batch = 0;  // batch sequence within the evaluator; 0 = none
  int64_t value = 0;   // kind-specific payload (bytes, events, candidates)
  int64_t value2 = 0;  // secondary payload (elements, arena bytes)
};

// One thread's collected window, oldest span first.
struct ThreadTrace {
  uint64_t track = 0;  // stable per-thread track id (Chrome-trace tid)
  std::string name;    // thread name ("main", "worker/0", ...)
  uint64_t dropped = 0;  // spans overwritten before collection
  std::vector<Span> spans;
};

#if XAOS_OBS_ENABLED

namespace internal {
// Separate from obs::Enabled(): metrics can stay on while span recording is
// disarmed. Relaxed is sufficient — spans are best-effort diagnostics.
inline std::atomic<bool> g_flight_active{false};
}  // namespace internal

inline bool Active() {
  return internal::g_flight_active.load(std::memory_order_relaxed);
}

// Arms the recorder. Resizes every known ring to `ring_capacity` spans and
// clears previous contents; quiescent-only (see file comment).
void Arm(size_t ring_capacity = 8192);
// Stops recording; rings keep their contents for a later Collect().
void Disarm();

// Records `span` into the calling thread's ring (creating it on first use).
// No-op when not Active().
void Emit(const Span& span);

// Names the calling thread's track in collected traces. No-op when not
// Active() (so a disarmed binary never allocates a ring just for a name).
void SetCurrentThreadName(std::string_view name);

// Snapshot of every thread's ring, ordered by track id. Quiescent-only.
std::vector<ThreadTrace> Collect();

// Clears all ring contents (rings and track ids survive). Quiescent-only.
void Reset();

// Number of per-thread rings ever created (tests: disabled mode creates
// none).
size_t ring_count();

#else  // !XAOS_OBS_ENABLED

inline constexpr bool Active() { return false; }
inline void Arm(size_t = 0) {}
inline void Disarm() {}
inline void Emit(const Span&) {}
inline void SetCurrentThreadName(std::string_view) {}
inline std::vector<ThreadTrace> Collect() { return {}; }
inline void Reset() {}
inline size_t ring_count() { return 0; }

#endif  // XAOS_OBS_ENABLED

// RAII span: reads the clock only when the recorder is Active() at
// construction. Fill in attribution through span() before scope exit.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) {
    if (Active()) {
      active_ = true;
      span_.kind = kind;
      span_.begin_ns = NowNs();
    }
  }
  ~ScopedSpan() {
    if (active_) {
      span_.end_ns = NowNs();
      Emit(span_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }
  Span* span() { return &span_; }

 private:
  Span span_;
  bool active_ = false;
};

// Renders traces as Chrome trace-event JSON (the format chrome://tracing
// and Perfetto load): "X" complete events per span on one track per thread,
// "M" thread-name metadata, and "C" counter tracks (one set per thread) for
// kCounter samples.
std::string ToChromeTraceJson(const std::vector<ThreadTrace>& traces);

// Collect() + ToChromeTraceJson written to `path` ("-" for stdout).
Status WriteChromeTrace(const std::string& path);

}  // namespace xaos::obs::flight

#endif  // XAOS_OBS_FLIGHT_H_
