// Vectorized structural front-end for the streaming XML paths.
//
// Both the full SAX parse and the projection skip-scan spend their per-byte
// budget answering the same handful of questions: where is the next '<',
// does this text run contain '&' / ']' / a forbidden control byte, is it
// all whitespace, and where does this start tag end once quoted attribute
// values are honored. Before this module each question was a separate pass
// (memchr probes, find(), byte loops). The structural scanner answers all
// of them from ONE classification pass: input is processed in 64-byte
// blocks, each block yielding a set of 64-bit masks — bit i of a mask says
// byte i of the block belongs to that class ('<', '>', '"', '\'', '&', ']',
// whitespace, forbidden control). The masks are the index stream:
// consumers jump from structural position to structural position with ctz
// and bit counts instead of inspecting every character.
//
// One kernel per build produces the masks, chosen at compile time:
//   * sse2   — x86 vector compares + movemask, 4 x 16 bytes per block. SSE2
//     is part of the x86-64 baseline ISA, so x86-64 builds always use it
//     and need no cpuid check.
//   * scalar — portable table-driven byte loop, used on every other
//     platform. It is also the oracle the SSE2 kernel is differentially
//     tested against (ClassifyBlockScalar).
//
// The kernel fills one BlockMasks struct, and all higher-level logic
// (prefix masking at the first '<', quote-state tracking across blocks) is
// kernel-independent driver code in this module —
// so the two kernels can only disagree if one mis-classifies a byte, which
// is exactly what the differential tests and fuzz_scanner_diff check.
//
// Chunk-boundary safety: the drivers are pure functions over the span they
// are given; resumability (split quotes, CDATA sections, comments across
// Feed() calls) stays where it always lived — in the parser's and skip
// scanner's held-back-bytes contract. A caller that got kNeedMore simply
// rescans the (bounded) unconsumed suffix when more input arrives.

#ifndef XAOS_XML_STRUCTURAL_SCANNER_H_
#define XAOS_XML_STRUCTURAL_SCANNER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace xaos::xml {

inline constexpr size_t kScannerBlockBytes = 64;

enum class ScannerBackend : uint8_t {
  kScalar = 0,
  kSse2 = 1,
};

// One 64-byte block's classification. Bit i refers to byte i of the block;
// for a block shorter than 64 bytes the excess bits are zero in every mask.
struct BlockMasks {
  uint64_t lt;        // '<'
  uint64_t gt;        // '>'
  uint64_t dquote;    // '"'
  uint64_t squote;    // '\''
  uint64_t amp;       // '&'
  uint64_t rbracket;  // ']'
  uint64_t ws;        // XML whitespace: space, tab, CR, LF
  uint64_t ctl;       // C0 control other than tab/LF/CR (forbidden in Char)
};

// The compiled kernel: classifies exactly kScannerBlockBytes bytes at `p`.
// Sub-block tails are staged through a zero-padded buffer by the driver, so
// the kernel never reads past its 64 bytes and never sees a partial block.
// Deliberately out of line: inlining it into the header fast paths below
// measured slower end to end.
void ClassifyBlock(const char* p, BlockMasks* out);

// The scalar kernel. Production code calls ClassifyBlock; this is exposed
// for the differential tests and fuzzers, which use it as the oracle. On
// builds without SSE2 it is also what ClassifyBlock runs.
void ClassifyBlockScalar(const char* p, BlockMasks* out);

// Bit i of the result is the parity of bits [0, i] of x: simdjson's
// carry-less-multiply quote trick in portable shift form. Applied to a
// block's quote bits it yields the inside-a-quoted-value region mask
// (opening quote through the byte before the closing quote).
inline uint64_t ScannerPrefixXor(uint64_t x) {
  x ^= x << 1;
  x ^= x << 2;
  x ^= x << 4;
  x ^= x << 8;
  x ^= x << 16;
  x ^= x << 32;
  return x;
}

// Population count in portable shift-and-add form. The x86-64 baseline has
// no POPCNT instruction, so __builtin_popcountll compiles to a call into
// libgcc there; the skip scanner counts quote bits on a hot path.
inline uint32_t ScannerPopcount(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<uint32_t>((x * 0x0101010101010101ull) >> 56);
}

// --- Kernel identity -------------------------------------------------------

// Canonical lowercase name ("scalar", "sse2").
const char* ScannerBackendName(ScannerBackend backend);

// The kernel this build compiled in: kSse2 on x86-64, kScalar elsewhere.
// Reported by the xaos_scanner_backend gauge and bench provenance.
ScannerBackend DefaultScannerBackend();

// Number of '\n' bytes in [p, p + n). Error positions are computed from
// these counts over consumed input, never per token.
size_t CountNewlines(const char* p, size_t n);

// --- Drivers ---------------------------------------------------------------

// Facts about a character-data run: everything ParseText() needs to know,
// computed in one classification pass that stops at the first '<'. All
// fields describe the prefix [0, first_lt) — or all of [0, n) when no '<'
// is present (first_lt == npos).
struct TextFacts {
  size_t first_lt;     // offset of the first '<', or npos
  bool has_amp;        // '&' present
  bool has_rbracket;   // ']' present (gates the literal-"]]>" check)
  bool has_ctl;        // forbidden control byte present
  bool all_ws;         // every byte is XML whitespace
};

// Result of scanning a start-tag body for its terminating '>' while
// honoring quoted attribute values.
struct TagScan {
  enum class Kind {
    kEnd,       // `end` is the offset of the closing '>'
    kBadLt,     // an unquoted '<' appeared inside the tag (offset in `end`)
    kNeedMore,  // ran out of input before the tag resolved
  };
  Kind kind;
  size_t end;
};

// Facts about one attribute value span: the three validations the parser
// used to make three passes for.
struct ValueFacts {
  bool has_lt;
  bool has_amp;
  bool has_ctl;
};

// Facts about a CDATA-section body (which may legally contain '<').
struct CDataFacts {
  bool has_ctl;
  bool all_ws;
};

// A classification front-end with a small block-mask cache.
//
// All drivers address one shared buffer through (base, size, from): blocks
// live on a 64-byte grid anchored at `base`, so consecutive scans over the
// same buffer — text run, then the tag that ends it, then that tag's
// attribute values — land on the same grid and reuse each other's masks.
// A full 64-byte block is classified at most once per pass over the buffer
// (the cache is a tiny direct-mapped array keyed by block offset); partial
// blocks at the buffer tail are classified fresh each time, since more
// bytes may arrive for them. The buffer's owner MUST call
// InvalidateCache() whenever it mutates the buffer (the parser does so in
// Feed(), where compaction shifts the contents).
//
// All offsets in the returned fact structs are relative to `from`.
class StructuralScanner {
 public:
  // Drops all cached block masks. Call after the underlying buffer mutates.
  void InvalidateCache();

  // One-pass facts for the character-data run [from, size) (stopping at the
  // first '<'). Inline fast path: the run resolves (hits its '<') inside
  // the first block — the dominant shape for markup-dense documents.
  TextFacts ScanText(const char* base, size_t size, size_t from) const {
    const size_t bs = from & ~(kScannerBlockBytes - 1);
    if (size - bs >= kScannerBlockBytes) {
      const BlockMasks& m = FullBlock(base, bs);
      const uint64_t valid = ~0ull << (from - bs);
      const uint64_t lt = m.lt & valid;
      if (lt != 0) {
        const unsigned bit = static_cast<unsigned>(__builtin_ctzll(lt));
        TextFacts facts;
        facts.first_lt = bs + bit - from;
        const uint64_t keep =
            valid &
            (bit == 0 ? 0 : (~0ull >> (kScannerBlockBytes - bit)));
        facts.has_amp = (m.amp & keep) != 0;
        facts.has_rbracket = (m.rbracket & keep) != 0;
        facts.has_ctl = (m.ctl & keep) != 0;
        facts.all_ws = (m.ws & keep) == keep;
        return facts;
      }
    }
    return ScanTextGeneral(base, size, from);
  }

  // Scans a start-tag body ([from, size), `from` addressing the byte AFTER
  // the opening '<') for the terminating '>'. `immediate_lt` selects who
  // consumes the scan: the skip scanner fails on an unquoted '<' the moment
  // it sees one, while the full parser reports kBadLt only once a '>'
  // arrives (before that the tag is merely incomplete) — both behaviors
  // predate this module and are preserved bit-for-bit.
  //
  // Inline fast path for the dominant shape — the tag resolves inside its
  // first block with no single quotes. Everything else (multi-block tags,
  // single-quoted values, stray '<', incomplete input) takes the
  // out-of-line general walk. This wrapper is called once per element by
  // both the parser and the skip scanner, so the fast path must not cost a
  // cross-TU call.
  TagScan ScanTag(const char* base, size_t size, size_t from,
                  bool immediate_lt) const {
    const size_t bs = from & ~(kScannerBlockBytes - 1);
    if (size - bs >= kScannerBlockBytes) {
      const BlockMasks& m = FullBlock(base, bs);
      const uint64_t valid = ~0ull << (from - bs);
      if ((m.squote & valid) == 0) {
        const uint64_t dq = m.dquote & valid;
        const uint64_t inside = ScannerPrefixXor(dq);
        const uint64_t gt_eff = m.gt & valid & ~inside;
        const uint64_t lt_eff = m.lt & valid & ~inside;
        if (gt_eff != 0) {
          const unsigned first_gt =
              static_cast<unsigned>(__builtin_ctzll(gt_eff));
          if (lt_eff == 0 ||
              first_gt < static_cast<unsigned>(__builtin_ctzll(lt_eff))) {
            TagScan scan{TagScan::Kind::kEnd, bs + first_gt - from};
            return scan;
          }
        }
      }
    }
    return ScanTagGeneral(base, size, from, immediate_lt);
  }

  // Offset (relative to `from`) of the next '>' at or after `from`, or npos
  // when the buffer ends first. Used for end tags, whose bodies cannot
  // contain quoted values. Inline fast path: the '>' lands in the first
  // block — end tags are short, so this is nearly every call.
  size_t NextGt(const char* base, size_t size, size_t from) const {
    const size_t bs = from & ~(kScannerBlockBytes - 1);
    if (size - bs >= kScannerBlockBytes) {
      const BlockMasks& m = FullBlock(base, bs);
      const uint64_t g = m.gt & (~0ull << (from - bs));
      if (g != 0) {
        return bs + static_cast<unsigned>(__builtin_ctzll(g)) - from;
      }
    }
    return NextGtGeneral(base, size, from);
  }

  // One-pass validation facts for the attribute value [from, from + len).
  // Inline fast path: the value lies within one full block.
  ValueFacts ScanValue(const char* base, size_t size, size_t from,
                       size_t len) const {
    const size_t bs = from & ~(kScannerBlockBytes - 1);
    if (from + len <= bs + kScannerBlockBytes &&
        size - bs >= kScannerBlockBytes) {
      const BlockMasks& m = FullBlock(base, bs);
      const unsigned lo = static_cast<unsigned>(from - bs);
      const uint64_t keep =
          len == 0 ? 0 : ((~0ull >> (kScannerBlockBytes - len)) << lo);
      return ValueFacts{(m.lt & keep) != 0, (m.amp & keep) != 0,
                        (m.ctl & keep) != 0};
    }
    return ScanValueGeneral(base, size, from, len);
  }

  // One-pass facts for the CDATA body [from, from + len).
  CDataFacts ScanCData(const char* base, size_t size, size_t from,
                       size_t len) const;

  // Raw kernel access for consumers that keep their own block-local mask
  // window: the skip scanner walks strictly forward over one span, so a
  // single register-resident block beats the shared cache. Both count
  // classified bytes like the drivers do.
  void ClassifyFullBlock(const char* p, BlockMasks* out) const {
    ClassifyBlock(p, out);
    bytes_classified_ += kScannerBlockBytes;
  }
  // Classifies the final `len` (< kScannerBlockBytes) bytes of a span by
  // staging them through a zero-padded block and trimming every mask to
  // length (zero padding classifies as control bytes).
  void ClassifyTail(const char* p, size_t len, BlockMasks* out) const;

  // Bytes pushed through the classify kernel since the last Take. Folded
  // into xaos_scanner_bytes_classified_total by the parser at document end.
  uint64_t TakeBytesClassified() {
    uint64_t v = bytes_classified_;
    bytes_classified_ = 0;
    return v;
  }

 private:
  static constexpr size_t kCacheSlots = 4;  // power of two
  struct CacheSlot {
    const char* base = nullptr;
    size_t block = 0;
    bool valid = false;
    BlockMasks masks;
  };

  // Masks for the 64-byte-aligned block at `block_start` (< size). Full
  // blocks come from / go into the cache; the partial block at the buffer
  // tail is classified into *scratch every time.
  const BlockMasks& Block(const char* base, size_t size, size_t block_start,
                          BlockMasks* scratch) const;

  // Cache probe for a block known to be full (block_start + 64 <= size) —
  // the hot case, inlined into the ScanTag fast path.
  const BlockMasks& FullBlock(const char* base, size_t block_start) const {
    CacheSlot& slot = cache_[(block_start >> 6) & (kCacheSlots - 1)];
    if (!(slot.valid && slot.base == base && slot.block == block_start)) {
      ClassifyBlock(base + block_start, &slot.masks);
      bytes_classified_ += kScannerBlockBytes;
      slot.base = base;
      slot.block = block_start;
      slot.valid = true;
    }
    return slot.masks;
  }

  // General walks behind the inline fast paths.
  TextFacts ScanTextGeneral(const char* base, size_t size, size_t from) const;
  TagScan ScanTagGeneral(const char* base, size_t size, size_t from,
                         bool immediate_lt) const;
  size_t NextGtGeneral(const char* base, size_t size, size_t from) const;
  ValueFacts ScanValueGeneral(const char* base, size_t size, size_t from,
                              size_t len) const;

  mutable CacheSlot cache_[kCacheSlots];
  mutable uint64_t bytes_classified_ = 0;
};

}  // namespace xaos::xml

#endif  // XAOS_XML_STRUCTURAL_SCANNER_H_
