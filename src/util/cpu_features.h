// CPU feature detection, for benchmark provenance only.
//
// Nothing on the hot path consults this module: the structural scanner's
// kernel is fixed at compile time (xml/structural_scanner.h). The benches
// stamp the detected SIMD tiers and core count into every BENCH_*.json so
// the regression gate can tell when a baseline and a candidate ran on
// different machines. AVX counts only when the OS also saves the YMM state
// (xgetbv), so a hypervisor that masks OSXSAVE reports it as absent.

#ifndef XAOS_UTIL_CPU_FEATURES_H_
#define XAOS_UTIL_CPU_FEATURES_H_

#include <string>

namespace xaos::util {

struct CpuFeatures {
  bool sse2 = false;
  bool avx = false;   // AVX usable: cpuid bit + OS ymm-state support
  bool avx2 = false;  // implies `avx`
  unsigned hardware_concurrency = 0;
};

// Detected once on first call, then cached (detection is pure cpuid reads,
// so caching is only about not paying the serializing instructions twice).
const CpuFeatures& DetectCpuFeatures();

// Comma-separated list of the detected SIMD tiers, e.g. "sse2,avx2" —
// recorded into BENCH_*.json so the regression gate can tell when baseline
// and candidate ran on machines with different vector capabilities.
std::string CpuFeatureSummary();

}  // namespace xaos::util

#endif  // XAOS_UTIL_CPU_FEATURES_H_
