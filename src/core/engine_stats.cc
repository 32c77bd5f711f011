#include "core/engine_stats.h"

namespace xaos::core {

void EngineStats::ToMetrics(obs::MetricsRegistry* registry,
                            const std::string& prefix) const {
  registry->GetCounter(prefix + "elements_total")->Increment(elements_total);
  registry->GetCounter(prefix + "elements_discarded_total")
      ->Increment(elements_discarded);
  registry->GetCounter(prefix + "structures_created_total")
      ->Increment(structures_created);
  registry->GetCounter(prefix + "structures_undone_total")
      ->Increment(structures_undone);
  registry->GetCounter(prefix + "propagations_total")
      ->Increment(propagations);
  registry->GetCounter(prefix + "optimistic_propagations_total")
      ->Increment(optimistic_propagations);
  registry->GetCounter(prefix + "candidates_emitted_early_total")
      ->Increment(candidates_emitted_early);
  // Exact names from the observability contract (no prefix): total bytes
  // the matching arenas served in place of heap allocations, the slab bytes
  // they hold, and structures eagerly reclaimed by earliest answering.
  registry->GetCounter("xaos_arena_bytes_allocated")
      ->Increment(arena_bytes_allocated);
  registry->GetGauge("xaos_arena_bytes_reserved")
      ->Set(static_cast<int64_t>(arena_bytes_reserved));
  registry->GetCounter("xaos_candidates_reclaimed_total")
      ->Increment(candidates_reclaimed);
  registry->GetGauge(prefix + "structures_live")
      ->Set(static_cast<int64_t>(structures_live));
  registry->GetGauge(prefix + "structures_live_peak")
      ->SetMax(static_cast<int64_t>(structures_live_peak));
  registry->GetGauge(prefix + "structure_bytes_live")
      ->Set(static_cast<int64_t>(structure_memory.live_bytes));
  registry->GetGauge(prefix + "structure_bytes_peak")
      ->SetMax(static_cast<int64_t>(structure_memory.peak_bytes));
}

}  // namespace xaos::core
