// Umbrella header for the xaos library: streaming XPath processing with
// forward and backward axes (the χαoς algorithm, ICDE 2003).
//
// Quick start:
//
//   #include "xaos.h"
//
//   xaos::StatusOr<xaos::core::QueryResult> result =
//       xaos::core::EvaluateStreaming(
//           "//listitem/ancestor::category//name", xml_text);
//   if (result.ok()) {
//     for (const xaos::core::OutputItem& item : result->items) { ... }
//   }
//
// For streaming from a source of chunks, compile a core::Query once, attach
// a core::StreamingEvaluator to an xml::SaxParser, and Feed() the chunks.

#ifndef XAOS_XAOS_H_
#define XAOS_XAOS_H_

#include "baseline/brute_force_matcher.h"   // IWYU pragma: export
#include "baseline/compare.h"               // IWYU pragma: export
#include "baseline/navigational_engine.h"   // IWYU pragma: export
#include "core/batched_dispatch.h"          // IWYU pragma: export
#include "core/document_cursor.h"           // IWYU pragma: export
#include "core/engine_fleet.h"              // IWYU pragma: export
#include "core/multi_engine.h"              // IWYU pragma: export
#include "core/parallel_fleet.h"            // IWYU pragma: export
#include "core/shared_index.h"              // IWYU pragma: export
#include "core/trace.h"                     // IWYU pragma: export
#include "core/xaos_engine.h"               // IWYU pragma: export
#include "dom/dom_builder.h"                // IWYU pragma: export
#include "dom/dom_replayer.h"               // IWYU pragma: export
#include "dom/serializer.h"                 // IWYU pragma: export
#include "gen/random_workload.h"            // IWYU pragma: export
#include "gen/xmark_generator.h"            // IWYU pragma: export
#include "obs/export.h"                     // IWYU pragma: export
#include "obs/flight.h"                     // IWYU pragma: export
#include "obs/json.h"                       // IWYU pragma: export
#include "obs/memory.h"                     // IWYU pragma: export
#include "obs/metrics.h"                    // IWYU pragma: export
#include "obs/timer.h"                      // IWYU pragma: export
#include "query/projection.h"               // IWYU pragma: export
#include "query/reroot.h"                   // IWYU pragma: export
#include "query/xdag.h"                     // IWYU pragma: export
#include "query/xtree_builder.h"            // IWYU pragma: export
#include "util/pool_arena.h"                // IWYU pragma: export
#include "util/status.h"                    // IWYU pragma: export
#include "util/statusor.h"                  // IWYU pragma: export
#include "util/symbol_table.h"              // IWYU pragma: export
#include "xml/event_batch.h"                // IWYU pragma: export
#include "xml/sax_parser.h"                 // IWYU pragma: export
#include "xml/xml_writer.h"                 // IWYU pragma: export
#include "xpath/parser.h"                   // IWYU pragma: export

#endif  // XAOS_XAOS_H_
