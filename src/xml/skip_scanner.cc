#include "xml/skip_scanner.h"

#include <cstring>

#include "util/string_util.h"
#include "xml/entities.h"

namespace xaos::xml {
namespace {

constexpr size_t kNpos = std::string_view::npos;

bool IsXmlWs(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

// Whether a reference body (the text between '&' and ';') decodes to XML
// whitespace. Named references (&amp; &lt; &gt; &apos; &quot;) never do;
// numeric references do iff the code point is tab/LF/CR/space. Anything
// the decoder would reject is classified non-whitespace — the full parser
// rejects such documents, so the answer is never compared.
bool ReferenceIsWhitespace(std::string_view body) {
  if (body.size() < 2 || body[0] != '#') return false;
  uint32_t value = 0;
  size_t i = 1;
  if (body[1] == 'x' || body[1] == 'X') {
    for (i = 2; i < body.size(); ++i) {
      char c = body[i];
      uint32_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint32_t>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint32_t>(c - 'A') + 10;
      } else {
        return false;
      }
      if (value > 0x10FFFF) return false;
      value = value * 16 + digit;
    }
    if (i == 2) return false;
  } else {
    for (; i < body.size(); ++i) {
      char c = body[i];
      if (c < '0' || c > '9') return false;
      if (value > 0x10FFFF) return false;
      value = value * 10 + static_cast<uint32_t>(c - '0');
    }
  }
  return value == 0x20 || value == 0x9 || value == 0xA || value == 0xD;
}

}  // namespace

void SkipScanner::Begin(const SkipReport& initial, size_t base_open_depth,
                        int max_depth) {
  report_ = initial;
  base_open_depth_ = base_open_depth;
  max_depth_ = max_depth;
  depth_ = 1;
  run_non_ws_ = false;
  limit_error_ = false;
  error_message_.clear();
}

uint64_t SkipScanner::CountQuotedValues(std::string_view tag_body) {
  uint64_t count = 0;
  size_t i = 0;
  while (i < tag_body.size()) {
    const char* base = tag_body.data() + i;
    size_t avail = tag_body.size() - i;
    const char* q1 = static_cast<const char*>(std::memchr(base, '"', avail));
    const char* q2 = static_cast<const char*>(std::memchr(base, '\'', avail));
    const char* quote = (q1 != nullptr && (q2 == nullptr || q1 < q2)) ? q1 : q2;
    if (quote == nullptr) break;
    const char* end = tag_body.data() + tag_body.size();
    const char* close = static_cast<const char*>(std::memchr(
        quote + 1, *quote, static_cast<size_t>(end - (quote + 1))));
    if (close == nullptr) break;  // unterminated value: full parser rejects
    ++count;
    i = static_cast<size_t>(close + 1 - tag_body.data());
  }
  return count;
}

// Decides whether a still-undecided run stays all-whitespace. Only called
// until the first non-whitespace byte settles the classification.
void SkipScanner::ClassifyText(std::string_view run) {
  size_t i = 0;
  while (i < run.size()) {
    char c = run[i];
    if (IsXmlWs(c)) {
      ++i;
      continue;
    }
    if (c != '&') {
      run_non_ws_ = true;
      return;
    }
    size_t semi = run.find(';', i + 1);
    if (semi == kNpos || semi - i - 1 > kMaxReferenceBodyBytes) {
      run_non_ws_ = true;  // malformed/overlong: full parser rejects
      return;
    }
    if (!ReferenceIsWhitespace(run.substr(i + 1, semi - i - 1))) {
      run_non_ws_ = true;
      return;
    }
    i = semi + 1;
  }
}

void SkipScanner::ProcessCData(std::string_view content) {
  if (content.empty() || run_non_ws_) return;
  if (!scanner_.ScanCData(content.data(), content.size(), 0, content.size())
           .all_ws) {
    run_non_ws_ = true;
  }
}

SkipScanner::State SkipScanner::Error(std::string message, size_t at,
                                      size_t* consumed) {
  error_message_ = std::move(message);
  *consumed = at;
  report_.bytes += at;
  return State::kError;
}

SkipScanner::State SkipScanner::LimitError(std::string message, size_t at,
                                           size_t* consumed) {
  limit_error_ = true;
  return Error(std::move(message), at, consumed);
}

SkipScanner::State SkipScanner::Scan(std::string_view input,
                                     size_t* consumed) {
  constexpr size_t kBlk = kScannerBlockBytes;
  size_t i = 0;
  State result = State::kScanning;
  // Block-local mask window: one Scan call walks `input` strictly forward,
  // so a single classified block held in locals replaces cache probes —
  // every tag in a block reuses the same masks for free.
  BlockMasks m{};
  size_t cur_bs = kNpos;
  auto load_block = [&](size_t bs) {
    const size_t len = input.size() - bs;
    if (len >= kBlk) {
      scanner_.ClassifyFullBlock(input.data() + bs, &m);
    } else {
      scanner_.ClassifyTail(input.data() + bs, len, &m);
    }
    cur_bs = bs;
  };
  // Offset of the next '>' at or after `f`, or kNpos if input ends first.
  auto next_gt = [&](size_t f) -> size_t {
    for (size_t bs = f & ~(kBlk - 1); bs < input.size(); bs += kBlk) {
      if (bs != cur_bs) load_block(bs);
      uint64_t g = m.gt;
      if (bs < f) g &= ~0ull << (f - bs);
      if (g != 0) return bs + static_cast<unsigned>(__builtin_ctzll(g));
    }
    return kNpos;
  };
  while (i < input.size()) {
    if (input[i] != '<') {
      // Character data until the next markup. Only its whitespace-ness
      // matters, so a trailing incomplete reference is held back exactly
      // like the full parser holds it (its decoded value could be either).
      const char* from = input.data() + i;
      size_t avail = input.size() - i;
      const char* lt = static_cast<const char*>(std::memchr(from, '<', avail));
      size_t run = (lt == nullptr) ? avail : static_cast<size_t>(lt - from);
      std::string_view text(from, run);
      if (lt == nullptr) {
        size_t amp = text.rfind('&');
        if (amp != kNpos && text.find(';', amp) == kNpos &&
            text.size() - amp <= kMaxReferenceBodyBytes + 1) {
          text = text.substr(0, amp);
        }
      }
      ProcessText(text);
      i += text.size();
      if (lt == nullptr) break;
      continue;
    }
    std::string_view rest = input.substr(i);
    if (rest.size() < 2) break;
    if (rest[1] == '/') {
      size_t gt = next_gt(i + 2);
      if (gt == kNpos) break;
      FlushRun();
      i = gt + 1;
      if (--depth_ == 0) {
        result = State::kDone;
        break;
      }
      continue;
    }
    if (rest[1] == '?') {
      size_t end = rest.find("?>", 2);
      if (end == kNpos) break;
      i += end + 2;
      continue;
    }
    if (rest[1] == '!') {
      // Inside an element only comments and CDATA sections are legal, so
      // anything else errors once enough bytes arrive to classify it.
      if (rest.size() < 9 &&
          (StartsWith(std::string_view("<!--").substr(0, rest.size()), rest) ||
           StartsWith(std::string_view("<![CDATA[").substr(0, rest.size()),
                      rest))) {
        break;
      }
      if (StartsWith(rest, "<!--")) {
        size_t end = rest.find("-->", 4);
        if (end == kNpos) break;
        i += end + 3;
        continue;
      }
      if (StartsWith(rest, "<![CDATA[")) {
        size_t end = rest.find("]]>", 9);
        if (end == kNpos) break;
        ProcessCData(rest.substr(9, end - 9));
        i += end + 3;
        continue;
      }
      return Error("unsupported markup declaration", i, consumed);
    }
    // Start tag: the quote-aware '>' search and the quoted-attribute-value
    // count, fused into one walk over the block masks (this runs for every
    // skipped element). A stray unquoted '<' fails the instant it is seen.
    // Blocks without single quotes take the branchless prefix-xor path;
    // single-quoted values drop to a per-structural-bit walk.
    const size_t f = i + 1;
    uint64_t quoted = 0;
    char quote = 0;
    size_t tag_gt = kNpos;
    for (size_t bs = f & ~(kBlk - 1); bs < input.size(); bs += kBlk) {
      if (bs != cur_bs) load_block(bs);
      uint64_t valid = ~0ull;
      if (bs < f) valid = ~0ull << (f - bs);
      if ((m.squote & valid) == 0 && quote != '\'') {
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
          const uint64_t below =
              first_gt == 0 ? 0 : (~0ull >> (kBlk - first_gt));
          quoted += ScannerPopcount(dq & ~inside & below);
          tag_gt = bs + first_gt;
          break;
        }
        if (first_lt < 64) return Error("'<' inside tag", i, consumed);
        quoted += ScannerPopcount(dq & ~inside);
        quote = (inside >> 63) != 0 ? '"' : 0;
        continue;
      }
      uint64_t structural = (m.lt | m.gt | m.dquote | m.squote) & valid;
      while (structural != 0) {
        const unsigned bit = static_cast<unsigned>(__builtin_ctzll(structural));
        structural &= structural - 1;
        const uint64_t b = 1ull << bit;
        if (quote != 0) {
          if ((quote == '"' && (m.dquote & b) != 0) ||
              (quote == '\'' && (m.squote & b) != 0)) {
            quote = 0;
            ++quoted;
          }
          continue;
        }
        if ((m.gt & b) != 0) {
          tag_gt = bs + bit;
          break;
        }
        if ((m.lt & b) != 0) return Error("'<' inside tag", i, consumed);
        quote = (m.dquote & b) != 0 ? '"' : '\'';
      }
      if (tag_gt != kNpos) break;
    }
    if (tag_gt == kNpos) break;  // tag still incomplete: wait for more input
    bool self_closing = tag_gt - i >= 2 && input[tag_gt - 1] == '/';
    FlushRun();
    report_.elements += 1;
    report_.node_ids += 1 + quoted;
    if (!self_closing) {
      if (base_open_depth_ + depth_ >= static_cast<uint64_t>(max_depth_)) {
        return LimitError("maximum element depth of " +
                              std::to_string(max_depth_) + " exceeded",
                          i, consumed);
      }
      ++depth_;
    }
    i = tag_gt + 1;
  }
  *consumed = i;
  report_.bytes += i;
  return result;
}

}  // namespace xaos::xml
