// Shared fuzz-target bodies, compiler-agnostic: each function is the body
// of one libFuzzer entry point (fuzz_*.cc wraps them in
// LLVMFuzzerTestOneInput), but lives in a plain library so the same logic
// also runs under gcc via the standalone replay driver and inside the
// regular test suite (tests/fuzz_corpus_test.cc replays fuzz/corpus/).
//
// Contract: return 0 always (libFuzzer ignores other values); report an
// invariant violation by trapping (__builtin_trap), which both libFuzzer
// and the sanitizers turn into a reproducible crash with the offending
// input.

#ifndef XAOS_FUZZ_TARGETS_H_
#define XAOS_FUZZ_TARGETS_H_

#include <cstddef>
#include <cstdint>

namespace xaos::fuzz {

// Feeds `data` to the SAX parser under tight ParserLimits, twice: one-shot
// and through an adversarial chunk schedule. Traps if the event streams or
// outcomes diverge, or if the handler observes an unbalanced stream.
int RunSaxParserInput(const uint8_t* data, size_t size);

// Treats `data` as an XPath expression: compile, and when that succeeds,
// evaluate over a small fixed document (exercises x-tree building and
// engine construction on hostile expressions).
int RunXPathInput(const uint8_t* data, size_t size);

// Differential target. Input layout: "<xpath>\n<xml document>". When both
// sides are valid, χαoς streaming results must equal the brute-force
// oracle on the DOM; any disagreement traps.
int RunDifferentialInput(const uint8_t* data, size_t size);

// Projection differential. Same input layout as RunDifferentialInput.
// Whenever the unprojected parse+evaluation succeeds, re-running with the
// query's projection filter installed — one-shot and through an adversarial
// chunk schedule — must succeed with the identical verdict and items.
// (Projection may accept documents the baseline rejects, never the
// converse; see xml/skip_scanner.h.)
int RunProjectionDifferentialInput(const uint8_t* data, size_t size);

// Structural-scanner differential. Treats `data` as an XML document and
// checks the invariants of xml/structural_scanner.h at two levels: the
// compiled classify kernel must produce the scalar kernel's exact
// BlockMasks for every 64-byte block of the input, and a full parse through
// an adversarial chunk schedule must yield the one-shot parse's
// byte-identical event stream, outcome and error position.
int RunScannerDiffInput(const uint8_t* data, size_t size);

// Shared-index differential. Input layout:
// "<xpath>;<xpath>;...\n<xml document>" — a multi-query pool evaluated
// through the shared-prefix automaton backend and through the per-engine
// path (EngineOptions::enable_shared_index off). Any divergence in per-query
// verdicts, mid-stream confirmations or result items traps.
int RunSharedIndexDiffInput(const uint8_t* data, size_t size);

// Batched-dispatch differential. Input layout:
// "<batch byte><xpath>;<xpath>;...\n<xml document>" — the first byte picks
// the EventBatch size budget (1..64 events), the rest is a multi-query pool
// plus a document. The pool is evaluated through BatchedDispatcher (pooled
// EventBatch replay) twice: with the shared automaton, and engine-backed
// only, where capture elides every element no engine is indexed under
// unless a wildcard, sibling or text test turns that off. Every query's
// verdict, confirmation and items must equal the brute-force matcher on
// the DOM (queries too expensive to enumerate are skipped, as in
// RunDifferentialInput), and item node ids, engines_skipped() and the
// engines' elements_total must equal a twin evaluator fed event by event.
// A failed parse drives the dispatcher's AbortDocument path instead, after
// which the pool must stay reusable.
int RunBatchedDispatchDiffInput(const uint8_t* data, size_t size);

}  // namespace xaos::fuzz

#endif  // XAOS_FUZZ_TARGETS_H_
