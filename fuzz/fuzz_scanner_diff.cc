// libFuzzer entry point: XML documents checked for compiled-vs-scalar kernel
// masks and for chunked-vs-one-shot parse event streams.

#include "targets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return xaos::fuzz::RunScannerDiffInput(data, size);
}
