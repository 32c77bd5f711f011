// libFuzzer entry point: "<batch byte><xpath>;...\n<xml>" multi-query
// pools fed through batched-dispatch replay (with and without capture-time
// element elision), checked against the brute-force matcher for verdicts,
// confirmations and items.

#include "targets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return xaos::fuzz::RunBatchedDispatchDiffInput(data, size);
}
