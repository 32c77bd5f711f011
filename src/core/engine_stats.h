// Counters the engine maintains while processing a document. These back the
// paper's storage claims (Table 3: fraction of elements discarded as not
// relevant) and the ablation benchmarks, and fold into an
// obs::MetricsRegistry (ToMetrics) so the benchmark reporter, xaos_grep
// --metrics-json and the exporters all read one source of truth.

#ifndef XAOS_CORE_ENGINE_STATS_H_
#define XAOS_CORE_ENGINE_STATS_H_

#include <cstdint>
#include <string>

#include "obs/memory.h"
#include "obs/metrics.h"

namespace xaos::core {

struct EngineStats {
  // Element start events seen (excluding the virtual root and synthetic
  // attribute/text nodes).
  uint64_t elements_total = 0;
  // Elements for which no matching-structure was created — either no x-node
  // label matched or the looking-for relevance filter rejected them
  // (Section 4.1). These contribute no storage.
  uint64_t elements_discarded = 0;

  uint64_t structures_created = 0;
  // Structures retracted by the undo mechanism (Section 4.3).
  uint64_t structures_undone = 0;
  // Currently allocated structures (maintained via the
  // OnStructureCreated/OnStructureDestroyed hooks that StructureStore
  // invokes when it creates a structure and when it releases one).
  uint64_t structures_live = 0;
  uint64_t structures_live_peak = 0;
  // Approximate live/peak bytes of those structures (the block: header,
  // slot lists and confirmed counts, plus retained name/value text; links
  // are not counted) — the paper's "storage proportional to the relevant
  // document" measured in bytes, not counts.
  obs::MemoryAccountant structure_memory;

  // Slot insertions, split into normal propagation (forward axes) and
  // optimistic propagation (backward axes).
  uint64_t propagations = 0;
  uint64_t optimistic_propagations = 0;

  // Allocation traffic served by the matching arena this document (bytes
  // handed out by Allocate, recycled blocks counted every time) — the heap
  // traffic the arena absorbed — and the heap bytes the arena holds in
  // slabs (its real footprint). Evaluators report their one shared arena
  // in AggregateStats(); a per-engine figure is only kept by an engine
  // constructed on its own, with a private arena (set at EndDocument).
  uint64_t arena_bytes_allocated = 0;
  uint64_t arena_bytes_reserved = 0;

  // Earliest answering: output items emitted before EndDocument (their
  // membership in the final result was proven mid-stream), and structures
  // whose slot/backref storage was eagerly returned to the arena once they
  // could no longer influence the result.
  uint64_t candidates_emitted_early = 0;
  uint64_t candidates_reclaimed = 0;

  double DiscardedFraction() const {
    return elements_total == 0
               ? 0.0
               : static_cast<double>(elements_discarded) /
                     static_cast<double>(elements_total);
  }

  // Creation/release hooks. Routing every MatchingStructure through these
  // (StructureStore::Create and the release of its last strong reference)
  // guarantees the live count, byte accounting and both peaks stay
  // consistent on every creation path.
  void OnStructureCreated(uint64_t bytes) {
    ++structures_created;
    ++structures_live;
    if (structures_live > structures_live_peak) {
      structures_live_peak = structures_live;
    }
    structure_memory.Add(bytes);
  }
  void OnStructureDestroyed(uint64_t bytes) {
    --structures_live;
    structure_memory.Remove(bytes);
  }

  // Folds the stats into `registry` under `prefix`: monotone event counts
  // become counters (accumulating across documents on a long-lived
  // registry), point-in-time values become gauges. Call once per processed
  // document.
  void ToMetrics(obs::MetricsRegistry* registry,
                 const std::string& prefix = "xaos_engine_") const;
};

}  // namespace xaos::core

#endif  // XAOS_CORE_ENGINE_STATS_H_
