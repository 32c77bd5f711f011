#include "xml/sax_parser.h"

#include <algorithm>
#include <cstring>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "util/string_util.h"
#include "util/symbol_table.h"
#include "xml/entities.h"

namespace xaos::xml {
namespace {

// Longest markup introducer we must see in full before we can classify the
// construct: "<![CDATA[".
constexpr size_t kMaxIntroducer = 9;

// Name-character membership tables: ScanName runs for every element and
// attribute name, so the per-byte test is one indexed load instead of a
// chain of range compares.
struct NameCharTable {
  bool start[256];
  bool part[256];
};

constexpr NameCharTable MakeNameCharTable() {
  NameCharTable t{};
  for (unsigned c = 0; c < 256; ++c) {
    const bool start = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':' || c >= 0x80;
    t.start[c] = start;
    t.part[c] =
        start || (c >= '0' && c <= '9') || c == '-' || c == '.';
  }
  return t;
}

constexpr NameCharTable kNameChars = MakeNameCharTable();

// First prefix of a chunk appended behind a token that straddles the
// chunk boundary; it doubles until the token completes.
constexpr size_t kCarryPrefixBytes = 4096;

// Record budgets for plain handlers; every Feed() also flushes.
constexpr size_t kReplayBatchEvents = 256;
constexpr size_t kReplayBatchBytes = 32 * 1024;

}  // namespace

// Plain handlers: the parser's records are replayed into the handler as
// callbacks whenever the batcher publishes.
class SaxParser::HandlerReplay final : public RecordWriter::Sink {
 public:
  explicit HandlerReplay(ContentHandler* handler)
      : handler_(handler),
        batcher_(this, kReplayBatchEvents, kReplayBatchBytes) {}

  EventBatcher* batcher() { return &batcher_; }

  EventBatch* AcquireBatch() override { return &batch_; }
  void PublishBatch(EventBatch* batch) override {
    batch->Replay(handler_, &scratch_);
    batch->Clear();
  }

 private:
  ContentHandler* handler_;
  EventBatch batch_;
  std::vector<AttributeView> scratch_;
  EventBatcher batcher_;
};

SaxParser::SaxParser(ContentHandler* handler, ParserOptions options)
    : options_(options) {
  records_ = handler->record_writer();
  target_ = handler;
  if (records_ == nullptr) {
    replay_ = std::make_unique<HandlerReplay>(handler);
    target_ = replay_->batcher();
    records_ = target_->record_writer();
  }
  records_->set_phase_timers(options_.phase_timers);
}

SaxParser::~SaxParser() {
  // The writer may outlive this parser (a dispatcher's does); it must not
  // keep timing into this parser's timers.
  records_->set_phase_timers(nullptr);
}

bool SaxParser::IsWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

bool SaxParser::IsNameStartChar(unsigned char c) {
  return kNameChars.start[c];
}

bool SaxParser::IsNameChar(unsigned char c) {
  return kNameChars.part[c];
}

util::Symbol SaxParser::ResolveName(std::string_view name) {
  // Names no compiled query interned all share kUnknownSymbol; the parser
  // never interns, so the global table stays bounded by the vocabulary.
  auto resolve = [](std::string_view n) {
    const util::Symbol s = util::SymbolTable::Global().Lookup(n);
    return s == util::kInvalidSymbol ? util::kUnknownSymbol : s;
  };
  const size_t n = name.size();
  if (n > 16) return resolve(name);
  // The key: the name's bytes as two zero-padded little-endian words. Word
  // loads may run past the name but not past the parse window; near its
  // end the bytes are staged first.
  const char* p = name.data();
  char staged[16];
  if (p + 16 > data_ + size_) {
    std::memset(staged, 0, sizeof(staged));
    std::memcpy(staged, p, n);
    p = staged;
  }
  auto word = [](const char* at) {
    uint64_t v;
    std::memcpy(&v, at, sizeof(v));
    return v;
  };
  uint64_t head = word(p);
  uint64_t tail = 0;
  if (n < 8) {
    head &= (uint64_t{1} << (8 * n)) - 1;
  } else if (n > 8) {
    tail = word(p + n - 8) >> (8 * (16 - n));
  }
  const uint64_t h = ((head ^ (tail * 0x9e3779b97f4a7c15ull) ^ n) *
                      0xff51afd7ed558ccdull) >>
                     (64 - kNameCacheBits);
  NameCacheSlot* set = &name_cache_[h & ~uint64_t{1}];
  for (size_t w = 0; w < 2; ++w) {
    if (set[w].head == head && set[w].tail == tail && set[w].len == n) {
      return set[w].symbol;
    }
  }
  // Miss: the new name enters the set first, the older one leaves.
  const util::Symbol symbol = resolve(name);
  set[1] = set[0];
  set[0] = NameCacheSlot{head, tail, static_cast<uint32_t>(n), symbol};
  return symbol;
}

size_t SaxParser::ScanName(std::string_view s, size_t i) {
  const char* d = s.data();
  if (i >= s.size() || !kNameChars.start[static_cast<unsigned char>(d[i])]) {
    return 0;
  }
  size_t n = i + 1;
  while (n < s.size() && kNameChars.part[static_cast<unsigned char>(d[n])]) {
    ++n;
  }
  return n - i;
}

int SaxParser::line() const {
  return static_cast<int>(1 + lines_before_ + CountNewlines(data_, pos_));
}

int SaxParser::column() const {
  const void* last_nl = pos_ == 0 ? nullptr : memrchr(data_, '\n', pos_);
  if (last_nl != nullptr) {
    return static_cast<int>(data_ + pos_ - static_cast<const char*>(last_nl));
  }
  return static_cast<int>(1 + column_before_ + pos_);
}

void SaxParser::FoldConsumed(size_t n) {
  const void* last_nl = n == 0 ? nullptr : memrchr(data_, '\n', n);
  if (last_nl == nullptr) {
    column_before_ += n;
  } else {
    lines_before_ += CountNewlines(data_, n);
    column_before_ =
        static_cast<size_t>(data_ + n - static_cast<const char*>(last_nl) - 1);
  }
}

void SaxParser::SetWindow(const char* data, size_t size, size_t pos) {
  data_ = data;
  size_ = size;
  pos_ = pos;
  scanner_.InvalidateCache();
  skip_scanner_.InvalidateScannerCache();
}

void SaxParser::MaterializeTextView() {
  if (!text_in_view_) return;
  text_accum_.assign(text_view_.data(), text_view_.size());
  text_in_view_ = false;
  text_view_ = {};
}

SaxParser::Progress SaxParser::Fail(std::string message) {
  return FailWith(StatusCode::kParseError, std::move(message));
}

SaxParser::Progress SaxParser::FailLimit(std::string message) {
  if (obs::Enabled()) {
    obs::MetricsRegistry::Default()
        .GetCounter("xaos_limit_rejections_total")
        ->Increment();
  }
  return FailWith(StatusCode::kResourceExhausted, std::move(message));
}

SaxParser::Progress SaxParser::FailWith(StatusCode code, std::string message) {
  error_ = Status(code, message + " at line " + std::to_string(line()) +
                            ", column " + std::to_string(column()));
  if (obs::Enabled()) {
    obs::MetricsRegistry::Default()
        .GetCounter("xaos_parse_errors_total")
        ->Increment();
  }
  return Progress::kError;
}

void SaxParser::StartDocument() {
  started_document_ = true;
  ProjectionFilter* filter = options_.projection_filter;
  if (filter != nullptr) filter->StartDocument();
  target_->StartDocument();
  interest_ = records_->interest();
  text_gaps_ = records_->text_as_gaps();
}

Status SaxParser::Feed(std::string_view chunk) {
  if (!error_.ok()) return error_;
  if (finished_) {
    return InvalidArgumentError("Feed() after Finish()");
  }
  // Phase split: everything in this call is parse time except what the
  // writer charges to the match phase meanwhile (replaying batches).
  uint64_t start = 0, match_before = 0;
  obs::PhaseTimers* timers = options_.phase_timers;
  if (timers != nullptr) {
    start = obs::NowNs();
    match_before = timers->Ns(obs::Phase::kMatch);
  }
  obs::flight::ScopedSpan feed_span(obs::flight::SpanKind::kParse);
  if (feed_span.active()) {
    feed_span.span()->value = static_cast<int64_t>(chunk.size());
  }
  bytes_fed_ += chunk.size();
  const ParserLimits& limits = options_.limits;
  if (limits.max_total_bytes > 0 && bytes_fed_ > limits.max_total_bytes) {
    FailLimit("document exceeds " + std::to_string(limits.max_total_bytes) +
              " bytes");
    return error_;
  }
  if (!started_document_) StartDocument();
  Progress p = Progress::kOk;
  size_t chunk_pos = 0;  // where parsing continues inside `chunk`
  bool in_chunk = true;
  // Between calls the window is buffer_; drop its consumed prefix.
  if (pos_ > 0) {
    MaterializeTextView();
    FoldConsumed(pos_);
    buffer_.erase(0, pos_);
    SetWindow(buffer_.data(), buffer_.size(), 0);
  }
  if (size_ > 0) {
    // A token straddles the boundary: finish it in buffer_, appending the
    // chunk a growing prefix at a time, until parsing has moved past the
    // carried bytes; the rest of the chunk is then parsed in place.
    const size_t carry = buffer_.size();
    size_t take = kCarryPrefixBytes;
    in_chunk = false;
    while (chunk_pos < chunk.size()) {
      // Appending may move buffer_: no pending-text view may point into it.
      MaterializeTextView();
      const size_t n = std::min(chunk.size() - chunk_pos, take);
      buffer_.append(chunk.data() + chunk_pos, n);
      chunk_pos += n;
      SetWindow(buffer_.data(), buffer_.size(), pos_);
      p = Pump();
      if (p == Progress::kError) break;
      if (pos_ >= carry && chunk_pos < chunk.size()) {
        MaterializeTextView();
        FoldConsumed(carry);
        chunk_pos = pos_ - carry;
        in_chunk = true;
        break;
      }
      take *= 2;
    }
  }
  if (in_chunk && p != Progress::kError) {
    SetWindow(chunk.data(), chunk.size(), chunk_pos);
    p = Pump();
  }
  if (in_chunk) {
    // The chunk dies with this call: keep pending text and the unconsumed
    // tail (one incomplete token) in buffer_.
    MaterializeTextView();
    FoldConsumed(pos_);
    if (pos_ < size_) {
      buffer_.assign(data_ + pos_, size_ - pos_);
    } else {
      buffer_.clear();
    }
    SetWindow(buffer_.data(), buffer_.size(), 0);
  }
  // Whatever Pump left unconsumed is one incomplete token (plus a few
  // held-back text bytes); bound it so a stream that never closes a
  // construct cannot grow the buffer without limit.
  if (p != Progress::kError && limits.max_token_bytes > 0 &&
      size_ - pos_ > limits.max_token_bytes) {
    p = FailLimit("unterminated token exceeds " +
                  std::to_string(limits.max_token_bytes) + " bytes");
  }
  // A plain handler has seen every event of this Feed when it returns.
  if (replay_ != nullptr) records_->Flush();
  if (timers != nullptr) {
    uint64_t total = obs::NowNs() - start;
    uint64_t match = timers->Ns(obs::Phase::kMatch) - match_before;
    timers->Add(obs::Phase::kParse, total > match ? total - match : 0);
  }
  if (p == Progress::kError) return error_;
  return Status::Ok();
}

Status SaxParser::Finish() {
  if (!error_.ok()) return error_;
  if (finished_) return Status::Ok();
  if (!started_document_) StartDocument();
  if (replay_ != nullptr) records_->Flush();
  finished_ = true;
  if (skip_active_) {
    Fail("unexpected end of document inside a skipped subtree");
    return error_;
  }
  if (pos_ < size_) {
    // Leftover input that Pump() could not complete. Either it is trailing
    // text (legal only if whitespace at top level) or an unterminated token.
    std::string_view rest(data_ + pos_, size_ - pos_);
    if (rest.find('<') == std::string_view::npos &&
        rest.find('&') == std::string_view::npos) {
      if (Status s = AppendText(rest, /*decode=*/false); !s.ok()) {
        return error_ = s;
      }
      Advance(rest.size());
    } else {
      Fail("unexpected end of document inside markup");
      return error_;
    }
  }
  if (text_pending_) {
    if (!text_all_ws_) {
      Fail("character data outside the document element");
      return error_;
    }
    text_pending_ = false;
    text_in_view_ = false;
    text_view_ = {};
    text_accum_.clear();
    text_all_ws_ = true;
    text_has_bytes_ = false;
  }
  if (!open_offsets_.empty()) {
    Fail("unexpected end of document: unclosed element <" +
         std::string(TopOpenName()) + ">");
    return error_;
  }
  if (!seen_root_) {
    Fail("document has no root element");
    return error_;
  }
  uint64_t start = 0, match_before = 0;
  obs::PhaseTimers* timers = options_.phase_timers;
  if (timers != nullptr) {
    start = obs::NowNs();
    match_before = timers->Ns(obs::Phase::kMatch);
  }
  target_->EndDocument();
  if (timers != nullptr) {
    uint64_t total = obs::NowNs() - start;
    uint64_t match = timers->Ns(obs::Phase::kMatch) - match_before;
    timers->Add(obs::Phase::kParse, total > match ? total - match : 0);
  }
  // Once per document, fold the parser's counters into the process-wide
  // registry; free when metrics are off.
  if (obs::Enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    registry.GetCounter("xaos_parser_documents_total")->Increment();
    registry.GetCounter("xaos_parser_bytes_total")->Increment(bytes_fed_);
    registry.GetCounter("xaos_parser_elements_total")
        ->Increment(element_count_);
    registry.GetCounter("xaos_parser_text_events_total")
        ->Increment(text_event_count_);
    registry.GetCounter("xaos_scanner_bytes_classified_total")
        ->Increment(scanner_.TakeBytesClassified() +
                    skip_scanner_.TakeScannerBytes());
    registry
        .GetGauge(std::string("xaos_scanner_backend{backend=\"") +
                  ScannerBackendName(DefaultScannerBackend()) + "\"}")
        ->Set(1);
  }
  return Status::Ok();
}

void SaxParser::EmitPendingTextSlow() {
  text_pending_ = false;
  if (text_gaps_) {
    if (text_has_bytes_ && !text_all_ws_) {
      ++text_event_count_;
      records_->TextGap();
    }
    text_has_bytes_ = false;
    text_all_ws_ = true;
    return;
  }
  std::string_view text =
      text_in_view_ ? text_view_ : std::string_view(text_accum_);
  if (!text.empty() && !text_all_ws_) {
    ++text_event_count_;
    records_->Characters(text);
  }
  text_in_view_ = false;
  text_view_ = {};
  text_accum_.clear();
  text_all_ws_ = true;
}

Status SaxParser::AppendTextPiece(std::string_view raw, bool decode,
                                  bool has_amp, bool has_ctl, bool all_ws) {
  if (open_offsets_.empty() && !all_ws) {
    Fail(seen_root_ ? "character data after the document element"
                    : "character data before the document element");
    return error_;
  }
  // The XML Char production excludes C0 controls (other than tab/LF/CR)
  // even inside CDATA; literal bytes get the same treatment decoded
  // character references always had.
  if (has_ctl) {
    Fail("control character in character data");
    return error_;
  }
  std::string decoded;
  const bool decoding = decode && has_amp && !raw.empty();
  if (decoding) {
    if (DecodeChecked(raw, &decoded) != Progress::kOk) return error_;
    // References may decode to whitespace (&#32;) or not (&amp;); only the
    // decoded bytes decide.
    all_ws = IsAllXmlWhitespace(decoded);
  }
  if (text_gaps_) {
    // No record will carry the text: keep only whether the run is
    // non-empty and all whitespace.
    text_has_bytes_ = text_has_bytes_ || !raw.empty();
    text_all_ws_ = text_all_ws_ && all_ws;
  } else if (decoding) {
    MaterializeTextView();
    text_accum_ += decoded;
    text_all_ws_ = text_all_ws_ && all_ws;
  } else if (!text_pending_) {
    // First (and in the common case only) piece of the run: keep it as a
    // view into the parse window and skip the copy entirely.
    text_view_ = raw;
    text_in_view_ = true;
    text_all_ws_ = all_ws;
  } else {
    MaterializeTextView();
    text_accum_.append(raw.data(), raw.size());
    text_all_ws_ = text_all_ws_ && all_ws;
  }
  text_pending_ = true;
  return Status::Ok();
}

SaxParser::Progress SaxParser::DecodeChecked(std::string_view raw,
                                             std::string* out) {
  StatusOr<std::string> decoded = DecodeReferences(raw, &entity_references_);
  if (!decoded.ok()) return Fail(decoded.status().message());
  const uint64_t budget = options_.limits.max_entity_references;
  if (budget > 0 && entity_references_ > budget) {
    return FailLimit("entity-reference budget of " + std::to_string(budget) +
                     " exceeded");
  }
  *out = std::move(*decoded);
  return Progress::kOk;
}

Status SaxParser::AppendText(std::string_view raw, bool decode) {
  // Cold-path wrapper: derive the facts the hot paths already have. `raw`
  // never contains '<' here, so the text scan covers the whole span.
  TextFacts facts = scanner_.ScanText(raw.data(), raw.size(), 0);
  return AppendTextPiece(raw, decode, facts.has_amp, facts.has_ctl,
                         facts.all_ws);
}

SaxParser::Progress SaxParser::Pump() {
  while (pos_ < size_) {
    Progress p = skip_active_          ? PumpSkip()
                 : (data_[pos_] == '<') ? ParseMarkup()
                                          : ParseText();
    if (p != Progress::kOk) {
      return p == Progress::kNeedMore ? Progress::kOk : p;
    }
  }
  return Progress::kOk;
}

SaxParser::Progress SaxParser::PumpSkip() {
  std::string_view rest(data_ + pos_, size_ - pos_);
  size_t consumed = 0;
  SkipScanner::State state = skip_scanner_.Scan(rest, &consumed);
  // Consume before reporting an error so line/column point at the
  // offending construct, as they do in normal parse mode.
  if (consumed > 0) Advance(consumed);
  switch (state) {
    case SkipScanner::State::kScanning:
      return Progress::kNeedMore;
    case SkipScanner::State::kDone:
      skip_active_ = false;
      return DeliverSkip(skip_scanner_.report());
    case SkipScanner::State::kError:
      return skip_scanner_.limit_error()
                 ? FailLimit(skip_scanner_.error_message())
                 : Fail(skip_scanner_.error_message());
  }
  return Progress::kError;  // unreachable
}

SaxParser::Progress SaxParser::DeliverSkip(const SkipReport& report) {
  if (open_offsets_.empty()) seen_root_ = true;
  if (obs::Enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    registry.GetCounter("xaos_projection_subtrees_skipped_total")
        ->Increment();
    registry.GetCounter("xaos_projection_bytes_skipped_total")
        ->Increment(report.bytes);
  }
  if (obs::flight::Active()) {
    obs::flight::Span span;
    span.kind = obs::flight::SpanKind::kSkipScan;
    span.end_ns = obs::NowNs();
    // A self-closing skip never armed the scanner; render it as a point.
    span.begin_ns = skip_begin_ns_ != 0 ? skip_begin_ns_ : span.end_ns;
    span.value = static_cast<int64_t>(report.bytes);
    span.value2 = static_cast<int64_t>(report.elements);
    obs::flight::Emit(span);
  }
  skip_begin_ns_ = 0;
  records_->Skip(report);
  return Progress::kOk;
}

SaxParser::Progress SaxParser::ParseText() {
  const char* from = data_ + pos_;
  size_t avail = size_ - pos_;
  // One classification pass answers every question this function used to
  // make separate passes for: run end, '&', ']', control bytes,
  // whitespace-ness.
  TextFacts facts = scanner_.ScanText(data_, size_, pos_);
  bool saw_lt = facts.first_lt != std::string_view::npos;
  size_t run = saw_lt ? facts.first_lt : avail;
  std::string_view text(from, run);

  // "]]>" must not appear literally in character data (XML 1.0 §2.4);
  // only the CDATA-end scanner may consume it.
  if (facts.has_rbracket &&
      text.find("]]>") != std::string_view::npos) {
    return Fail("']]>' in character data");
  }
  if (!saw_lt) {
    // No markup yet. Hold back a trailing incomplete entity reference so it
    // is not split across chunks; everything before it can be emitted. An
    // overlong reference is not held back — the decode below rejects it
    // now instead of buffering an unbounded '&'-payload.
    size_t held = text.size();
    if (facts.has_amp) {
      size_t amp = text.rfind('&');
      if (amp != std::string_view::npos &&
          text.find(';', amp) == std::string_view::npos &&
          text.size() - amp <= kMaxReferenceBodyBytes + 1) {
        text = text.substr(0, amp);
      }
    }
    // Likewise hold back a trailing "]" / "]]" so a "]]>" split across
    // chunks is still caught by the scan above on the next Feed. Two
    // brackets suffice: any "]]>" ends with exactly these.
    if (facts.has_rbracket) {
      size_t trail = 0;
      while (trail < 2 && trail < text.size() &&
             text[text.size() - 1 - trail] == ']') {
        ++trail;
      }
      text.remove_suffix(trail);
    }
    if (text.empty()) return Progress::kNeedMore;
    // The facts described the untrimmed span; rescan the (chunk-boundary,
    // so cold) trimmed remainder, keeping the buffer's block grid.
    if (text.size() != held) {
      facts = scanner_.ScanText(data_, pos_ + text.size(), pos_);
    }
  }
  if (Status s = AppendTextPiece(text, /*decode=*/true, facts.has_amp,
                                 facts.has_ctl, facts.all_ws);
      !s.ok()) {
    return Progress::kError;
  }
  Advance(text.size());
  return saw_lt ? Progress::kOk : Progress::kNeedMore;
}

SaxParser::Progress SaxParser::ParseMarkup() {
  std::string_view rest(data_ + pos_, size_ - pos_);
  // Wait for enough characters to classify the construct unambiguously.
  if (rest.size() < 2) return Progress::kNeedMore;
  if (rest[1] == '/') {
    // End tags cannot contain quoted values, so the raw '>' mask answers
    // directly — and the block is almost always already classified (the
    // text scan that found this '<' touched it).
    size_t gt = scanner_.NextGt(data_, size_, pos_ + 2);
    if (gt == std::string_view::npos) return Progress::kNeedMore;
    return ParseEndTag(gt + 2);
  }
  if (rest[1] == '?') return ParsePi();
  if (rest[1] == '!') {
    if (rest.size() < kMaxIntroducer &&
        (StartsWith(std::string_view("<!--").substr(0, rest.size()), rest) ||
         StartsWith(std::string_view("<![CDATA[").substr(0, rest.size()),
                    rest) ||
         StartsWith(std::string_view("<!DOCTYPE").substr(0, rest.size()),
                    rest))) {
      return Progress::kNeedMore;
    }
    if (StartsWith(rest, "<!--")) return ParseComment();
    if (StartsWith(rest, "<![CDATA[")) return ParseCData();
    if (StartsWith(rest, "<!DOCTYPE")) return ParseDoctype();
    return Fail("unsupported markup declaration");
  }
  // Start tag: one structural scan over the body finds the quote-aware '>'.
  // Deferred mode: a stray '<' fails only once a '>' confirms the tag was
  // malformed rather than merely incomplete (the historic contract).
  TagScan scan = scanner_.ScanTag(data_, size_, pos_ + 1,
                                  /*immediate_lt=*/false);
  if (scan.kind == TagScan::Kind::kNeedMore) return Progress::kNeedMore;
  if (scan.kind == TagScan::Kind::kBadLt) return Fail("'<' inside tag");
  size_t end = 1 + scan.end;
  bool self_closing = end >= 2 && rest[end - 1] == '/';
  return ParseStartTag(end, self_closing);
}

SaxParser::Progress SaxParser::ParseStartTag(size_t tag_end,
                                             bool self_closing) {
  // rest[0] == '<', rest[tag_end] == '>'.
  std::string_view rest(data_ + pos_, size_ - pos_);
  std::string_view body =
      rest.substr(1, tag_end - 1 - (self_closing ? 1 : 0));

  const ParserLimits& limits = options_.limits;
  size_t name_len = ScanName(body, 0);
  if (name_len == 0) return Fail("invalid element name");
  if (name_len > limits.max_name_bytes) {
    return FailLimit("element name exceeds " +
                     std::to_string(limits.max_name_bytes) + " bytes");
  }
  std::string_view name = body.substr(0, name_len);

  if (open_offsets_.empty() && seen_root_) {
    return Fail("multiple document elements (second root <" +
                std::string(name) + ">)");
  }
  if (static_cast<int>(open_offsets_.size()) >= limits.max_depth) {
    return FailLimit("maximum element depth of " +
                     std::to_string(limits.max_depth) + " exceeded");
  }

  // The one filter: skip the subtree, elide the element, or keep it.
  const util::Symbol symbol = ResolveName(name);
  ProjectionFilter* filter = options_.projection_filter;
  if (filter != nullptr &&
      filter->ShouldSkipSubtree(QName(name, symbol),
                                            open_offsets_.size())) {
    // The whole subtree is irrelevant: account for the start tag, then let
    // the skip scanner race to the matching end tag. The element is never
    // pushed onto the open-element stack and gets no record.
    SkipReport initial;
    initial.elements = 1;
    // One node id per attribute value (quote pairs are values on any tag
    // the full parser accepts).
    initial.node_ids = 1 + SkipScanner::CountQuotedValues(body);
    initial.bytes = tag_end + 1;
    EmitPendingText();
    Advance(tag_end + 1);
    if (self_closing) return DeliverSkip(initial);
    skip_scanner_.Begin(initial, open_offsets_.size(), limits.max_depth);
    skip_active_ = true;
    if (obs::flight::Active()) skip_begin_ns_ = obs::NowNs();
    return Progress::kOk;
  }
  bool keep = interest_ == nullptr || records_->Keeps(symbol);

  // Attributes, checked in full whether the element is kept or elided.
  // Names and raw values view `body` (and thus the window), which stays
  // valid until the record is written below; decoded values go to
  // attr_decoded_.
  attributes_.clear();
  attr_decoded_.clear();
  size_t i = name_len;
  while (true) {
    size_t ws = i;
    while (i < body.size() && IsWhitespace(body[i])) ++i;
    if (i >= body.size()) break;
    if (i == ws) return Fail("expected whitespace before attribute");
    if (attributes_.size() >= limits.max_attribute_count) {
      return FailLimit("more than " +
                       std::to_string(limits.max_attribute_count) +
                       " attributes on one element");
    }
    size_t attr_len = ScanName(body, i);
    if (attr_len == 0) return Fail("invalid attribute name");
    if (attr_len > limits.max_name_bytes) {
      return FailLimit("attribute name exceeds " +
                       std::to_string(limits.max_name_bytes) + " bytes");
    }
    std::string_view attr_name = body.substr(i, attr_len);
    i += attr_len;
    while (i < body.size() && IsWhitespace(body[i])) ++i;
    if (i >= body.size() || body[i] != '=') {
      return Fail("expected '=' after attribute name '" +
                  std::string(attr_name) + "'");
    }
    ++i;
    while (i < body.size() && IsWhitespace(body[i])) ++i;
    if (i >= body.size() || (body[i] != '"' && body[i] != '\'')) {
      return Fail("attribute value must be quoted");
    }
    char quote = body[i];
    ++i;
    size_t value_end = body.find(quote, i);
    if (value_end == std::string_view::npos) {
      return Fail("unterminated attribute value");
    }
    std::string_view raw_value = body.substr(i, value_end - i);
    if (raw_value.size() > limits.max_attribute_value_bytes) {
      return FailLimit("attribute value exceeds " +
                       std::to_string(limits.max_attribute_value_bytes) +
                       " bytes");
    }
    // One classification pass replaces the three validation probes
    // ('<', forbidden control byte, '&').
    ValueFacts value_facts = scanner_.ScanValue(
        data_, size_, static_cast<size_t>(raw_value.data() - data_),
        raw_value.size());
    if (value_facts.has_lt) {
      return Fail("'<' in attribute value");
    }
    if (value_facts.has_ctl) {
      return Fail("control character in attribute value");
    }
    RawAttribute attr{attr_name, raw_value, util::kInvalidSymbol, false, 0, 0};
    if (value_facts.has_amp) {
      std::string value;
      if (DecodeChecked(raw_value, &value) != Progress::kOk) {
        return Progress::kError;
      }
      attr.decoded = true;
      attr.decoded_offset = static_cast<uint32_t>(attr_decoded_.size());
      attr.decoded_size = static_cast<uint32_t>(value.size());
      attr_decoded_.append(value);
    }
    attr.symbol = ResolveName(attr_name);
    // Resolved ids make uniqueness an integer compare (vocabulary names are
    // equal iff their Symbols are); names outside the vocabulary all share
    // kUnknownSymbol and fall back to comparing bytes.
    for (const RawAttribute& existing : attributes_) {
      if (existing.symbol == attr.symbol &&
          (attr.symbol != util::kUnknownSymbol || existing.name == attr_name)) {
        return Fail("duplicate attribute '" + std::string(attr_name) + "'");
      }
    }
    keep = keep || records_->Keeps(attr.symbol);
    attributes_.push_back(attr);
    i = value_end + 1;
  }

  EmitPendingText();
  if (keep) {
    EventBatch* batch = records_->BeginStart(symbol, name);
    for (const RawAttribute& attr : attributes_) {
      batch->AddAttribute(
          attr.name,
          attr.decoded ? std::string_view(attr_decoded_)
                             .substr(attr.decoded_offset, attr.decoded_size)
                       : attr.raw_value,
          attr.symbol);
    }
    records_->EndRecord();
  } else {
    records_->ElidedStart(static_cast<uint32_t>(attributes_.size()));
  }
  ++element_count_;
  if (self_closing) {
    records_->EndElement(name);
    if (open_offsets_.empty()) seen_root_ = true;
  } else {
    PushOpenName(name);
  }
  Advance(tag_end + 1);
  return Progress::kOk;
}

SaxParser::Progress SaxParser::ParseEndTag(size_t tag_end) {
  std::string_view rest(data_ + pos_, size_ - pos_);
  std::string_view body = rest.substr(2, tag_end - 2);
  // Fast path: the body is byte-identical to the open element's name — the
  // canonical well-formed shape. That name already passed Name syntax and
  // the length limit at its start tag, so one memcmp replaces the per-byte
  // name walk and the trailing-whitespace check. Any other shape (trailing
  // whitespace, mismatch, empty stack) falls through to the validating
  // path below.
  if (!open_offsets_.empty() && body == TopOpenName()) {
    EmitPendingText();
    records_->EndElement(body);
    PopOpenName();
    if (open_offsets_.empty()) seen_root_ = true;
    Advance(tag_end + 1);
    return Progress::kOk;
  }
  size_t name_len = ScanName(body, 0);
  if (name_len == 0) return Fail("invalid end-tag name");
  if (name_len > options_.limits.max_name_bytes) {
    return FailLimit("element name exceeds " +
                     std::to_string(options_.limits.max_name_bytes) +
                     " bytes");
  }
  std::string_view name = body.substr(0, name_len);
  size_t i = name_len;
  while (i < body.size() && IsWhitespace(body[i])) ++i;
  if (i != body.size()) return Fail("junk in end tag");

  if (open_offsets_.empty()) {
    return Fail("end tag </" + std::string(name) + "> with no open element");
  }
  if (TopOpenName() != name) {
    return Fail("mismatched end tag: expected </" + std::string(TopOpenName()) +
                ">, found </" + std::string(name) + ">");
  }
  EmitPendingText();
  records_->EndElement(name);
  PopOpenName();
  if (open_offsets_.empty()) seen_root_ = true;
  Advance(tag_end + 1);
  return Progress::kOk;
}

SaxParser::Progress SaxParser::ParseComment() {
  std::string_view rest(data_ + pos_, size_ - pos_);
  size_t end = rest.find("-->", 4);
  if (end == std::string_view::npos) return Progress::kNeedMore;
  std::string_view text = rest.substr(4, end - 4);
  if (text.find("--") != std::string_view::npos) {
    return Fail("'--' inside comment");
  }
  if (!text.empty() && text.back() == '-') {
    return Fail("comment must not end with '-'");
  }
  Advance(end + 3);
  return Progress::kOk;
}

SaxParser::Progress SaxParser::ParseCData() {
  std::string_view rest(data_ + pos_, size_ - pos_);
  size_t end = rest.find("]]>", 9);
  if (end == std::string_view::npos) return Progress::kNeedMore;
  if (open_offsets_.empty()) {
    return Fail("CDATA section outside the document element");
  }
  std::string_view text = rest.substr(9, end - 9);
  // CDATA content may legally contain '<' and '&', so only the control-byte
  // and whitespace facts matter (and no decoding happens).
  CDataFacts facts =
      scanner_.ScanCData(data_, size_, pos_ + 9, end - 9);
  if (Status s = AppendTextPiece(text, /*decode=*/false, /*has_amp=*/false,
                                 facts.has_ctl, facts.all_ws);
      !s.ok()) {
    return Progress::kError;
  }
  Advance(end + 3);
  return Progress::kOk;
}

SaxParser::Progress SaxParser::ParsePi() {
  std::string_view rest(data_ + pos_, size_ - pos_);
  size_t end = rest.find("?>", 2);
  if (end == std::string_view::npos) return Progress::kNeedMore;
  std::string_view body = rest.substr(2, end - 2);
  size_t name_len = ScanName(body, 0);
  if (name_len == 0) return Fail("invalid processing-instruction target");
  if (name_len > options_.limits.max_name_bytes) {
    return FailLimit("processing-instruction target exceeds " +
                     std::to_string(options_.limits.max_name_bytes) +
                     " bytes");
  }
  std::string_view target = body.substr(0, name_len);

  bool is_xml_decl = target.size() == 3 &&
                     (target[0] == 'x' || target[0] == 'X') &&
                     (target[1] == 'm' || target[1] == 'M') &&
                     (target[2] == 'l' || target[2] == 'L');
  if (is_xml_decl && seen_any_content_) {
    return Fail("XML declaration not at start of document");
  }
  Advance(end + 2);
  return Progress::kOk;
}

SaxParser::Progress SaxParser::ParseDoctype() {
  std::string_view rest(data_ + pos_, size_ - pos_);
  if (seen_root_ || !open_offsets_.empty()) {
    return Fail("DOCTYPE after the document element started");
  }
  // Skip to the matching '>' of the declaration, honoring the optional
  // internal subset in [...] and quoted literals.
  char quote = 0;
  int bracket_depth = 0;
  for (size_t i = 9; i < rest.size(); ++i) {
    char c = rest[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
      continue;
    }
    switch (c) {
      case '"':
      case '\'':
        quote = c;
        break;
      case '[':
        ++bracket_depth;
        break;
      case ']':
        if (bracket_depth > 0) --bracket_depth;
        break;
      case '>':
        if (bracket_depth == 0) {
          Advance(i + 1);
          return Progress::kOk;
        }
        break;
      default:
        break;
    }
  }
  return Progress::kNeedMore;
}

Status ParseString(std::string_view document, ContentHandler* handler,
                   ParserOptions options) {
  SaxParser parser(handler, options);
  XAOS_RETURN_IF_ERROR(parser.Feed(document));
  return parser.Finish();
}

}  // namespace xaos::xml
