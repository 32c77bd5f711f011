#include "xml/structural_scanner.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define XAOS_HAVE_SSE2 1
#include <emmintrin.h>
#endif

namespace xaos::xml {
namespace {

constexpr size_t kNpos = std::string_view::npos;
constexpr size_t kBlock = kScannerBlockBytes;

// ---------------------------------------------------------------------------
// Scalar kernel: the oracle. One class-bit table lookup per byte, scattered
// into the eight masks. Deliberately simple — the SSE2 kernel must match its
// output bit-for-bit on every possible byte.

enum : uint16_t {
  kClassLt = 1u << 0,
  kClassGt = 1u << 1,
  kClassDq = 1u << 2,
  kClassSq = 1u << 3,
  kClassAmp = 1u << 4,
  kClassRb = 1u << 5,
  kClassWs = 1u << 6,
  kClassCtl = 1u << 7,
};

constexpr uint16_t ClassOf(unsigned char c) {
  uint16_t cls = 0;
  if (c == '<') cls |= kClassLt;
  if (c == '>') cls |= kClassGt;
  if (c == '"') cls |= kClassDq;
  if (c == '\'') cls |= kClassSq;
  if (c == '&') cls |= kClassAmp;
  if (c == ']') cls |= kClassRb;
  if (c == ' ' || c == '\t' || c == '\r' || c == '\n') cls |= kClassWs;
  if (c < 0x20 && c != 0x09 && c != 0x0A && c != 0x0D) cls |= kClassCtl;
  return cls;
}

struct ClassTable {
  uint16_t entries[256];
};

constexpr ClassTable MakeClassTable() {
  ClassTable table{};
  for (unsigned i = 0; i < 256; ++i) {
    table.entries[i] = ClassOf(static_cast<unsigned char>(i));
  }
  return table;
}

constexpr ClassTable kClassTable = MakeClassTable();

}  // namespace

void ClassifyBlockScalar(const char* p, BlockMasks* out) {
  BlockMasks m{};
  for (size_t i = 0; i < kBlock; ++i) {
    const uint64_t cls =
        kClassTable.entries[static_cast<unsigned char>(p[i])];
    // Most bytes (name and text characters) are class 0 — one predictable
    // branch skips them. Classed bytes update all eight masks branchlessly:
    // a chain of data-dependent `if`s here mispredicts on every structural
    // byte, which the SSE2 kernel never pays.
    if (cls == 0) continue;
    const uint64_t bit = 1ull << i;
    m.lt |= bit * (cls & 1);
    m.gt |= bit * ((cls >> 1) & 1);
    m.dquote |= bit * ((cls >> 2) & 1);
    m.squote |= bit * ((cls >> 3) & 1);
    m.amp |= bit * ((cls >> 4) & 1);
    m.rbracket |= bit * ((cls >> 5) & 1);
    m.ws |= bit * ((cls >> 6) & 1);
    m.ctl |= bit * ((cls >> 7) & 1);
  }
  *out = m;
}

// ---------------------------------------------------------------------------
// SSE2 kernel: 4 x 16-byte compares + movemask. SSE2 is part of the x86-64
// baseline, so every x86-64 build compiles and runs it.

#if defined(XAOS_HAVE_SSE2)

void ClassifyBlock(const char* p, BlockMasks* out) {
  BlockMasks m{};
  for (size_t k = 0; k < kBlock / 16; ++k) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * k));
    const unsigned shift = static_cast<unsigned>(16 * k);
    auto mask_eq = [&v](char c) {
      return static_cast<uint64_t>(static_cast<unsigned>(
          _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_set1_epi8(c)))));
    };
    const uint64_t tab = mask_eq('\t');
    const uint64_t nl = mask_eq('\n');
    const uint64_t cr = mask_eq('\r');
    const uint64_t sp = mask_eq(' ');
    // v < 0x20 unsigned: min(v, 0x1F) == v.
    const uint64_t below20 = static_cast<uint64_t>(
        static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(
            _mm_min_epu8(v, _mm_set1_epi8(0x1F)), v))));
    m.lt |= mask_eq('<') << shift;
    m.gt |= mask_eq('>') << shift;
    m.dquote |= mask_eq('"') << shift;
    m.squote |= mask_eq('\'') << shift;
    m.amp |= mask_eq('&') << shift;
    m.rbracket |= mask_eq(']') << shift;
    m.ws |= (tab | nl | cr | sp) << shift;
    m.ctl |= (below20 & ~(tab | nl | cr)) << shift;
  }
  *out = m;
}

ScannerBackend DefaultScannerBackend() { return ScannerBackend::kSse2; }

#else

void ClassifyBlock(const char* p, BlockMasks* out) {
  ClassifyBlockScalar(p, out);
}

ScannerBackend DefaultScannerBackend() { return ScannerBackend::kScalar; }

#endif  // XAOS_HAVE_SSE2

size_t CountNewlines(const char* p, size_t n) {
  size_t count = 0;
  size_t i = 0;
#if defined(XAOS_HAVE_SSE2)
  // Byte lanes count matches (a match is -1) for up to 255 vectors, then
  // fold into the total with a sum of absolute differences.
  const __m128i newline = _mm_set1_epi8('\n');
  while (n - i >= 16) {
    const size_t vectors = std::min<size_t>((n - i) / 16, 255);
    __m128i lanes = _mm_setzero_si128();
    for (size_t v = 0; v < vectors; ++v, i += 16) {
      const __m128i bytes =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
      lanes = _mm_sub_epi8(lanes, _mm_cmpeq_epi8(bytes, newline));
    }
    const __m128i sums = _mm_sad_epu8(lanes, _mm_setzero_si128());
    count += static_cast<size_t>(_mm_cvtsi128_si32(sums)) +
             static_cast<size_t>(_mm_extract_epi16(sums, 4));
  }
#endif
  for (; i < n; ++i) count += p[i] == '\n';
  return count;
}

const char* ScannerBackendName(ScannerBackend backend) {
  switch (backend) {
    case ScannerBackend::kScalar:
      return "scalar";
    case ScannerBackend::kSse2:
      return "sse2";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// StructuralScanner drivers.

void StructuralScanner::InvalidateCache() {
  for (CacheSlot& slot : cache_) slot.valid = false;
}

const BlockMasks& StructuralScanner::Block(const char* base, size_t size,
                                           size_t block_start,
                                           BlockMasks* scratch) const {
  const size_t len = size - block_start;
  if (len >= kBlock) return FullBlock(base, block_start);
  // Partial block at the buffer tail: more bytes may still arrive for it,
  // so it is classified fresh every time and never cached.
  ClassifyTail(base + block_start, len, scratch);
  return *scratch;
}

void StructuralScanner::ClassifyTail(const char* p, size_t len,
                                     BlockMasks* out) const {
  alignas(kBlock) char staged[kBlock] = {};
  std::memcpy(staged, p, len);
  ClassifyBlock(staged, out);
  bytes_classified_ += len;
  // Zero padding classifies as control bytes; trim every mask to length.
  const uint64_t keep = len == 0 ? 0 : (~0ull >> (kBlock - len));
  out->lt &= keep;
  out->gt &= keep;
  out->dquote &= keep;
  out->squote &= keep;
  out->amp &= keep;
  out->rbracket &= keep;
  out->ws &= keep;
  out->ctl &= keep;
}

TextFacts StructuralScanner::ScanTextGeneral(const char* base, size_t size,
                                             size_t from) const {
  TextFacts facts{kNpos, false, false, false, true};
  BlockMasks scratch;
  for (size_t bs = from & ~(kBlock - 1); bs < size; bs += kBlock) {
    const BlockMasks& m = Block(base, size, bs, &scratch);
    const size_t len = size - bs < kBlock ? size - bs : kBlock;
    uint64_t valid = len == kBlock ? ~0ull : (~0ull >> (kBlock - len));
    if (bs < from) valid &= ~0ull << (from - bs);
    const uint64_t lt = m.lt & valid;
    uint64_t keep = valid;
    if (lt != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(lt));
      facts.first_lt = bs + bit - from;
      keep = valid & (bit == 0 ? 0 : (~0ull >> (kBlock - bit)));
    }
    facts.has_amp |= (m.amp & keep) != 0;
    facts.has_rbracket |= (m.rbracket & keep) != 0;
    facts.has_ctl |= (m.ctl & keep) != 0;
    facts.all_ws = facts.all_ws && ((m.ws & keep) == keep);
    if (lt != 0) break;
  }
  return facts;
}

TagScan StructuralScanner::ScanTagGeneral(const char* base, size_t size,
                                          size_t from,
                                          bool immediate_lt) const {
  TagScan scan{TagScan::Kind::kNeedMore, 0};
  size_t bad_lt = kNpos;
  char quote = 0;
  BlockMasks scratch;
  for (size_t bs = from & ~(kBlock - 1); bs < size; bs += kBlock) {
    const BlockMasks& m = Block(base, size, bs, &scratch);
    const size_t len = size - bs < kBlock ? size - bs : kBlock;
    uint64_t valid = len == kBlock ? ~0ull : (~0ull >> (kBlock - len));
    if (bs < from) valid &= ~0ull << (from - bs);
    // Once a stray '<' is recorded in deferred mode, the only outcomes left
    // are kBadLt (at the next '>' anywhere, quoted or not) and kNeedMore —
    // the walk degenerates to a '>' probe.
    if (bad_lt != kNpos) {
      if ((m.gt & valid) != 0) {
        scan.kind = TagScan::Kind::kBadLt;
        scan.end = bad_lt - from;
        return scan;
      }
      continue;
    }
    if ((m.squote & valid) == 0 && quote != '\'') {
      // Branchless fast path (no single quotes in play): prefix-xor turns
      // the double-quote bits into an inside-a-value region mask, blinding
      // '>' and '<' inside attribute values in one step instead of walking
      // structural characters one ctz at a time.
      const uint64_t dq = m.dquote & valid;
      const uint64_t inside =
          ScannerPrefixXor(dq) ^ (quote != 0 ? ~0ull : 0ull);
      const uint64_t gt_eff = m.gt & valid & ~inside;
      const uint64_t lt_eff = m.lt & valid & ~inside;
      const unsigned first_gt =
          gt_eff != 0 ? static_cast<unsigned>(__builtin_ctzll(gt_eff)) : 64;
      const unsigned first_lt =
          lt_eff != 0 ? static_cast<unsigned>(__builtin_ctzll(lt_eff)) : 64;
      if (first_gt < first_lt) {
        scan.kind = TagScan::Kind::kEnd;
        scan.end = bs + first_gt - from;
        return scan;
      }
      if (first_lt < 64) {
        if (immediate_lt) {
          scan.kind = TagScan::Kind::kBadLt;
          scan.end = bs + first_lt - from;
          return scan;
        }
        bad_lt = bs + first_lt;
        const uint64_t after = first_lt == 63 ? 0 : (~0ull << (first_lt + 1));
        if ((m.gt & valid & after) != 0) {
          scan.kind = TagScan::Kind::kBadLt;
          scan.end = bad_lt - from;
          return scan;
        }
        continue;
      }
      quote = (inside >> 63) != 0 ? '"' : 0;
      continue;
    }
    // Slow path for blocks with single quotes: the per-structural-bit walk.
    uint64_t structural = (m.lt | m.gt | m.dquote | m.squote) & valid;
    while (structural != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(structural));
      structural &= structural - 1;
      const uint64_t b = 1ull << bit;
      const size_t pos = bs + bit;
      if (quote != 0) {
        // Deferred mode reports a recorded stray '<' once ANY later '>'
        // appears — even one inside a quoted value. (The parser's historic
        // memchr loop probed to the raw next '>', quoted or not, and failed
        // on a stray '<' before it; kept bit-for-bit.)
        if ((m.gt & b) != 0 && bad_lt != kNpos) {
          scan.kind = TagScan::Kind::kBadLt;
          scan.end = bad_lt - from;
          return scan;
        }
        if ((quote == '"' && (m.dquote & b) != 0) ||
            (quote == '\'' && (m.squote & b) != 0)) {
          quote = 0;
        }
        continue;
      }
      if ((m.gt & b) != 0) {
        if (bad_lt != kNpos) {
          scan.kind = TagScan::Kind::kBadLt;
          scan.end = bad_lt - from;
          return scan;
        }
        scan.kind = TagScan::Kind::kEnd;
        scan.end = pos - from;
        return scan;
      }
      if ((m.lt & b) != 0) {
        if (immediate_lt) {
          scan.kind = TagScan::Kind::kBadLt;
          scan.end = pos - from;
          return scan;
        }
        if (bad_lt == kNpos) bad_lt = pos;
        continue;
      }
      quote = (m.dquote & b) != 0 ? '"' : '\'';
    }
  }
  return scan;
}

size_t StructuralScanner::NextGtGeneral(const char* base, size_t size,
                                        size_t from) const {
  BlockMasks scratch;
  for (size_t bs = from & ~(kBlock - 1); bs < size; bs += kBlock) {
    const BlockMasks& m = Block(base, size, bs, &scratch);
    uint64_t g = m.gt;
    if (bs < from) g &= ~0ull << (from - bs);
    if (g != 0) return bs + static_cast<unsigned>(__builtin_ctzll(g)) - from;
  }
  return std::string_view::npos;
}

ValueFacts StructuralScanner::ScanValueGeneral(const char* base, size_t size,
                                               size_t from, size_t len) const {
  ValueFacts facts{false, false, false};
  const size_t end = from + len;
  BlockMasks scratch;
  for (size_t bs = from & ~(kBlock - 1); bs < end; bs += kBlock) {
    const BlockMasks& m = Block(base, size, bs, &scratch);
    uint64_t window = ~0ull;
    if (end - bs < kBlock) window = ~0ull >> (kBlock - (end - bs));
    if (bs < from) window &= ~0ull << (from - bs);
    facts.has_lt |= (m.lt & window) != 0;
    facts.has_amp |= (m.amp & window) != 0;
    facts.has_ctl |= (m.ctl & window) != 0;
  }
  return facts;
}

CDataFacts StructuralScanner::ScanCData(const char* base, size_t size,
                                        size_t from, size_t len) const {
  CDataFacts facts{false, true};
  const size_t end = from + len;
  BlockMasks scratch;
  for (size_t bs = from & ~(kBlock - 1); bs < end; bs += kBlock) {
    const BlockMasks& m = Block(base, size, bs, &scratch);
    uint64_t window = ~0ull;
    if (end - bs < kBlock) window = ~0ull >> (kBlock - (end - bs));
    if (bs < from) window &= ~0ull << (from - bs);
    facts.has_ctl |= (m.ctl & window) != 0;
    facts.all_ws = facts.all_ws && ((m.ws & window) == window);
  }
  return facts;
}

}  // namespace xaos::xml
