#include "obs/flight.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

#include "obs/json.h"

namespace xaos::obs::flight {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kParse:
      return "parse";
    case SpanKind::kSkipScan:
      return "skip_scan";
    case SpanKind::kDocument:
      return "document";
    case SpanKind::kReplay:
      return "replay";
    case SpanKind::kCounter:
      return "counter";
  }
  return "unknown";
}

#if XAOS_OBS_ENABLED

namespace {

// One thread's span storage. Written only by its owner thread; read by
// Collect() at quiescent points (see flight.h contract), so no per-slot
// synchronization is needed.
struct ThreadRing {
  std::vector<Span> slots;
  uint64_t head = 0;  // total spans ever pushed; slot index = head % size
  uint64_t track = 0;
  std::string name;
};

// Rings are registered once per thread and never removed (a few KB per
// thread for the process lifetime), so the thread-local raw pointer below
// can never dangle even after its owner thread exits.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadRing>> rings;
  size_t ring_capacity = 8192;
  uint64_t next_track = 1;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}

thread_local ThreadRing* tl_ring = nullptr;

ThreadRing* CurrentRing() {
  if (tl_ring == nullptr) {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    auto ring = std::make_unique<ThreadRing>();
    ring->slots.resize(registry.ring_capacity);
    ring->track = registry.next_track++;
    ring->name = "thread/" + std::to_string(ring->track);
    tl_ring = ring.get();
    registry.rings.push_back(std::move(ring));
  }
  return tl_ring;
}

}  // namespace

void Arm(size_t ring_capacity) {
  if (ring_capacity == 0) ring_capacity = 1;
  Registry& registry = GetRegistry();
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.ring_capacity = ring_capacity;
    for (auto& ring : registry.rings) {
      ring->slots.assign(ring_capacity, Span{});
      ring->head = 0;
    }
  }
  internal::g_flight_active.store(true, std::memory_order_relaxed);
}

void Disarm() {
  internal::g_flight_active.store(false, std::memory_order_relaxed);
}

void Emit(const Span& span) {
  if (!Active()) return;
  ThreadRing* ring = CurrentRing();
  ring->slots[ring->head % ring->slots.size()] = span;
  ++ring->head;
}

void SetCurrentThreadName(std::string_view name) {
  if (!Active()) return;
  CurrentRing()->name.assign(name);
}

std::vector<ThreadTrace> Collect() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<ThreadTrace> out;
  for (const auto& ring : registry.rings) {
    const uint64_t capacity = ring->slots.size();
    const uint64_t kept = std::min(ring->head, capacity);
    if (kept == 0) continue;
    ThreadTrace trace;
    trace.track = ring->track;
    trace.name = ring->name;
    trace.dropped = ring->head - kept;
    trace.spans.reserve(kept);
    for (uint64_t i = ring->head - kept; i < ring->head; ++i) {
      trace.spans.push_back(ring->slots[i % capacity]);
    }
    out.push_back(std::move(trace));
  }
  std::sort(out.begin(), out.end(),
            [](const ThreadTrace& a, const ThreadTrace& b) {
              return a.track < b.track;
            });
  return out;
}

void Reset() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto& ring : registry.rings) {
    std::fill(ring->slots.begin(), ring->slots.end(), Span{});
    ring->head = 0;
  }
}

size_t ring_count() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.rings.size();
}

#endif  // XAOS_OBS_ENABLED

namespace {

// Chrome trace-event timestamps are microseconds; keep sub-µs resolution.
std::string TraceTs(uint64_t ns) {
  return JsonNumber(static_cast<double>(ns) / 1000.0);
}

void AppendEvent(std::string* out, bool* first, const std::string& event) {
  if (!*first) out->push_back(',');
  *first = false;
  out->append(event);
}

std::string SpanArgs(const Span& span) {
  std::string args = "{";
  bool first = true;
  auto field = [&](const char* key, const std::string& value) {
    if (!first) args += ",";
    first = false;
    args += "\"";
    args += key;
    args += "\":";
    args += value;
  };
  if (span.doc != 0) field("doc", std::to_string(span.doc));
  if (span.batch != 0) field("batch", std::to_string(span.batch));
  if (span.value != 0) field("value", std::to_string(span.value));
  if (span.value2 != 0) field("value2", std::to_string(span.value2));
  args += "}";
  return args;
}

}  // namespace

std::string ToChromeTraceJson(const std::vector<ThreadTrace>& traces) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const ThreadTrace& trace : traces) {
    const std::string tid = std::to_string(trace.track);
    AppendEvent(&out, &first,
                "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" +
                    tid + ",\"args\":{\"name\":\"" + JsonEscape(trace.name) +
                    "\"}}");
    for (const Span& span : trace.spans) {
      if (span.kind == SpanKind::kCounter) {
        // Counter tracks render as stacked area charts in Perfetto and are
        // keyed by name, so each thread's evaluator gets tracks of its own.
        const std::string suffix =
            trace.name.empty() ? "" : "/" + JsonEscape(trace.name);
        AppendEvent(
            &out, &first,
            "{\"ph\":\"C\",\"name\":\"buffered_candidates" + suffix +
                "\",\"pid\":1,\"tid\":" + tid + ",\"ts\":" +
                TraceTs(span.end_ns) + ",\"args\":{\"candidates\":" +
                std::to_string(span.value) + "}}");
        AppendEvent(&out, &first,
                    "{\"ph\":\"C\",\"name\":\"arena_bytes" + suffix +
                        "\",\"pid\":1,\"tid\":" + tid + ",\"ts\":" +
                        TraceTs(span.end_ns) + ",\"args\":{\"bytes\":" +
                        std::to_string(span.value2) + "}}");
        continue;
      }
      const uint64_t end_ns = std::max(span.end_ns, span.begin_ns);
      AppendEvent(&out, &first,
                  std::string("{\"ph\":\"X\",\"name\":\"") +
                      SpanKindName(span.kind) +
                      "\",\"cat\":\"xaos\",\"pid\":1,\"tid\":" + tid +
                      ",\"ts\":" + TraceTs(span.begin_ns) + ",\"dur\":" +
                      TraceTs(end_ns - span.begin_ns) + ",\"args\":" +
                      SpanArgs(span) + "}");
    }
  }
  out += "]}";
  return out;
}

Status WriteChromeTrace(const std::string& path) {
  std::string json = ToChromeTraceJson(Collect()) + "\n";
  if (path == "-") {
    std::fwrite(json.data(), 1, json.size(), stdout);
    return Status::Ok();
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return InvalidArgumentError("cannot open flight-trace file: " + path);
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return InternalError("short write to flight-trace file: " + path);
  }
  return Status::Ok();
}

}  // namespace xaos::obs::flight
