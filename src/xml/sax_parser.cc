#include "xml/sax_parser.h"

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

// Forwards every event to the wrapped handler, charging the time spent
// inside it to Phase::kMatch. The parser subtracts this from each Feed's
// wall time to get the parse share (see ParserOptions::phase_timers).
class MatchTimingHandler : public ContentHandler {
 public:
  MatchTimingHandler(ContentHandler* inner, obs::PhaseTimers* timers)
      : inner_(inner), timers_(timers) {}

  void StartDocument() override { Timed([&] { inner_->StartDocument(); }); }
  void EndDocument() override { Timed([&] { inner_->EndDocument(); }); }
  void StartElement(const QName& name, AttributeSpan attributes) override {
    Timed([&] { inner_->StartElement(name, attributes); });
  }
  void EndElement(std::string_view name) override {
    Timed([&] { inner_->EndElement(name); });
  }
  void Characters(std::string_view text) override {
    Timed([&] { inner_->Characters(text); });
  }
  void Comment(std::string_view text) override {
    Timed([&] { inner_->Comment(text); });
  }
  void ProcessingInstruction(std::string_view target,
                             std::string_view data) override {
    Timed([&] { inner_->ProcessingInstruction(target, data); });
  }
  void SkippedSubtree(const SkipReport& report) override {
    Timed([&] { inner_->SkippedSubtree(report); });
  }

 private:
  template <typename Fn>
  void Timed(Fn&& fn) {
    uint64_t start = obs::NowNs();
    fn();
    timers_->Add(obs::Phase::kMatch, obs::NowNs() - start);
  }

  ContentHandler* inner_;
  obs::PhaseTimers* timers_;
};

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

}  // namespace

SaxParser::SaxParser(ContentHandler* handler, ParserOptions options)
    : handler_(handler), options_(options) {
  if (options_.phase_timers != nullptr) {
    timing_wrapper_ =
        std::make_unique<MatchTimingHandler>(handler, options_.phase_timers);
    handler_ = timing_wrapper_.get();
  }
  projection_filter_ = options_.projection_filter;
  if (projection_filter_ != nullptr &&
      (!options_.coalesce_text || options_.report_comments ||
       options_.report_processing_instructions)) {
    // Skipping cannot reproduce these event streams exactly (see
    // ParserOptions::projection_filter); fall back to a full parse.
    projection_filter_ = nullptr;
    if (obs::Enabled()) {
      obs::MetricsRegistry::Default()
          .GetCounter("xaos_projection_disabled_total")
          ->Increment();
    }
  }
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
  if (name.size() <= sizeof(NameCacheSlot::bytes)) {
    NameCacheSlot& slot =
        name_cache_[(name.size() * 131 +
                     static_cast<unsigned char>(name.front()) * 31 +
                     static_cast<unsigned char>(name[name.size() / 2]) * 7 +
                     static_cast<unsigned char>(name.back())) &
                    (kNameCacheSlots - 1)];
    if (slot.len == name.size() &&
        std::memcmp(slot.bytes, name.data(), slot.len) == 0) {
      return slot.symbol;
    }
    const util::Symbol symbol = resolve(name);
    slot.len = static_cast<uint8_t>(name.size());
    std::memcpy(slot.bytes, name.data(), name.size());
    slot.symbol = symbol;
    return symbol;
  }
  return resolve(name);
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

void SaxParser::Consume(size_t n) {
  // Jump newline to newline with memchr instead of classifying every byte;
  // only the tail after the last newline contributes to the column.
  const char* p = buffer_.data() + pos_;
  size_t remaining = n;
  while (remaining > 0) {
    const char* nl = static_cast<const char*>(std::memchr(p, '\n', remaining));
    if (nl == nullptr) {
      column_ += static_cast<int>(remaining);
      break;
    }
    ++line_;
    column_ = 1;
    remaining -= static_cast<size_t>(nl - p) + 1;
    p = nl + 1;
  }
  pos_ += n;
  seen_any_content_ = true;
}

void SaxParser::ConsumeCounted(size_t n, uint32_t newlines, size_t last_nl) {
  // The structural scan already counted the span's newlines; fold them in
  // without re-reading a single byte.
  if (newlines > 0) {
    line_ += static_cast<int>(newlines);
    column_ = static_cast<int>(n - last_nl);
  } else {
    column_ += static_cast<int>(n);
  }
  pos_ += n;
  seen_any_content_ = true;
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
  error_ = Status(code, message + " at line " + std::to_string(line_) +
                            ", column " + std::to_string(column_));
  if (obs::Enabled()) {
    obs::MetricsRegistry::Default()
        .GetCounter("xaos_parse_errors_total")
        ->Increment();
  }
  return Progress::kError;
}

void SaxParser::StartDocument() {
  started_document_ = true;
  if (projection_filter_ != nullptr) projection_filter_->StartDocument();
  handler_->StartDocument();
}

Status SaxParser::Feed(std::string_view chunk) {
  if (!error_.ok()) return error_;
  if (finished_) {
    return InvalidArgumentError("Feed() after Finish()");
  }
  // Phase split: everything in this call is parse time except what the
  // timing wrapper attributes to the match phase meanwhile.
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
  // Compacting/growing buffer_ invalidates any zero-copy pending-text view
  // into it (copy the view out first) and every cached block mask.
  MaterializeTextView();
  // Compact the consumed prefix before growing the buffer.
  if (pos_ > 0) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(chunk.data(), chunk.size());
  scanner_.InvalidateCache();
  skip_scanner_.InvalidateScannerCache();
  Progress p = Pump();
  // Whatever Pump left unconsumed is one incomplete token (plus a few
  // held-back text bytes); bound it so a stream that never closes a
  // construct cannot grow the buffer without limit.
  if (p != Progress::kError && limits.max_token_bytes > 0 &&
      buffer_.size() - pos_ > limits.max_token_bytes) {
    p = FailLimit("unterminated token exceeds " +
                  std::to_string(limits.max_token_bytes) + " bytes");
  }
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
  finished_ = true;
  if (skip_active_) {
    Fail("unexpected end of document inside a skipped subtree");
    return error_;
  }
  if (pos_ < buffer_.size()) {
    // Leftover input that Pump() could not complete. Either it is trailing
    // text (legal only if whitespace at top level) or an unterminated token.
    std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
    if (rest.find('<') == std::string_view::npos &&
        rest.find('&') == std::string_view::npos) {
      if (Status s = AppendText(rest, /*decode=*/false); !s.ok()) {
        return error_ = s;
      }
      Consume(rest.size());
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
  handler_->EndDocument();
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
  std::string_view text =
      text_in_view_ ? text_view_ : std::string_view(text_accum_);
  if (!text.empty() &&
      (options_.report_whitespace_text || !text_all_ws_)) {
    ++text_event_count_;
    handler_->Characters(text);
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
  if (decode && has_amp && !raw.empty()) {
    StatusOr<std::string> decoded = DecodeReferences(raw, &entity_references_);
    if (!decoded.ok()) {
      Fail(decoded.status().message());
      return error_;
    }
    if (options_.limits.max_entity_references > 0 &&
        entity_references_ > options_.limits.max_entity_references) {
      FailLimit("entity-reference budget of " +
                std::to_string(options_.limits.max_entity_references) +
                " exceeded");
      return error_;
    }
    MaterializeTextView();
    text_accum_ += *decoded;
    // References may decode to whitespace (&#32;) or not (&amp;); only the
    // decoded bytes decide.
    text_all_ws_ = text_all_ws_ && IsAllXmlWhitespace(*decoded);
  } else if (!text_pending_) {
    // First (and in the common case only) piece of the run: keep it as a
    // view into buffer_ and skip the copy entirely.
    text_view_ = raw;
    text_in_view_ = true;
    text_all_ws_ = all_ws;
  } else {
    MaterializeTextView();
    text_accum_.append(raw.data(), raw.size());
    text_all_ws_ = text_all_ws_ && all_ws;
  }
  text_pending_ = true;
  if (!options_.coalesce_text) EmitPendingText();
  return Status::Ok();
}

Status SaxParser::AppendText(std::string_view raw, bool decode) {
  // Cold-path wrapper: derive the facts the hot paths already have. `raw`
  // never contains '<' here, so the text scan covers the whole span.
  TextFacts facts = scanner_.ScanText(raw.data(), raw.size(), 0);
  return AppendTextPiece(raw, decode, facts.has_amp, facts.has_ctl,
                         facts.all_ws);
}

SaxParser::Progress SaxParser::Pump() {
  while (pos_ < buffer_.size()) {
    Progress p = skip_active_          ? PumpSkip()
                 : (buffer_[pos_] == '<') ? ParseMarkup()
                                          : ParseText();
    if (p != Progress::kOk) {
      return p == Progress::kNeedMore ? Progress::kOk : p;
    }
  }
  return Progress::kOk;
}

SaxParser::Progress SaxParser::PumpSkip() {
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
  size_t consumed = 0;
  SkipScanner::State state = skip_scanner_.Scan(rest, &consumed);
  // Consume before reporting an error so line/column point at the
  // offending construct, as they do in normal parse mode.
  if (consumed > 0) Consume(consumed);
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
  handler_->SkippedSubtree(report);
  return Progress::kOk;
}

SaxParser::Progress SaxParser::ParseText() {
  const char* from = buffer_.data() + pos_;
  size_t avail = buffer_.size() - pos_;
  // One classification pass answers every question this function used to
  // make separate passes for: run end, '&', ']', control bytes,
  // whitespace-ness, newline accounting.
  TextFacts facts = scanner_.ScanText(buffer_.data(), buffer_.size(), pos_);
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
      facts = scanner_.ScanText(buffer_.data(), pos_ + text.size(), pos_);
    }
  }
  if (Status s = AppendTextPiece(text, /*decode=*/true, facts.has_amp,
                                 facts.has_ctl, facts.all_ws);
      !s.ok()) {
    return Progress::kError;
  }
  ConsumeCounted(text.size(), facts.newlines, facts.last_nl);
  return saw_lt ? Progress::kOk : Progress::kNeedMore;
}

SaxParser::Progress SaxParser::ParseMarkup() {
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
  // Wait for enough characters to classify the construct unambiguously.
  if (rest.size() < 2) return Progress::kNeedMore;
  if (rest[1] == '/') {
    // End tags cannot contain quoted values, so the raw '>' mask answers
    // directly — and the block is almost always already classified (the
    // text scan that found this '<' touched it).
    size_t gt = scanner_.NextGt(buffer_.data(), buffer_.size(), pos_ + 2);
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
  // Start tag: one structural scan over the body finds the quote-aware '>'
  // and, in the same pass, counts quoted attribute values and newlines.
  // Deferred mode: a stray '<' fails only once a '>' confirms the tag was
  // malformed rather than merely incomplete (the historic contract).
  TagScan scan = scanner_.ScanTag(buffer_.data(), buffer_.size(), pos_ + 1,
                                  /*immediate_lt=*/false);
  if (scan.kind == TagScan::Kind::kNeedMore) return Progress::kNeedMore;
  if (scan.kind == TagScan::Kind::kBadLt) return Fail("'<' inside tag");
  size_t end = 1 + scan.end;
  bool self_closing = end >= 2 && rest[end - 1] == '/';
  return ParseStartTag(end, self_closing, scan);
}

SaxParser::Progress SaxParser::ParseStartTag(size_t tag_end,
                                             bool self_closing,
                                             const TagScan& scan) {
  // rest[0] == '<', rest[tag_end] == '>'.
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
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

  if (projection_filter_ != nullptr &&
      projection_filter_->ShouldSkipSubtree(name, open_offsets_.size())) {
    // The whole subtree is irrelevant: account for the start tag, then let
    // the skip scanner race to the matching end tag. The element is never
    // pushed onto the open-element stack and emits no events.
    SkipReport initial;
    initial.elements = 1;
    // The tag scan already paired the quotes; no re-scan of the body.
    initial.node_ids = 1 + scan.quoted_values;
    initial.bytes = tag_end + 1;
    EmitPendingText();
    ConsumeCounted(tag_end + 1, scan.newlines,
                   scan.newlines > 0 ? scan.last_nl + 1 : scan.last_nl);
    if (self_closing) return DeliverSkip(initial);
    skip_scanner_.Begin(initial, open_offsets_.size(), limits.max_depth,
                        options_.report_whitespace_text);
    skip_active_ = true;
    if (obs::flight::Active()) skip_begin_ns_ = obs::NowNs();
    return Progress::kOk;
  }

  // Attributes. Views point into `body` (and thus buffer_) or into reused
  // decode slots; both stay valid until the StartElement callback returns,
  // which happens before Consume() advances past this tag.
  attributes_.clear();
  size_t decode_used = 0;
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
        buffer_.data(), buffer_.size(),
        static_cast<size_t>(raw_value.data() - buffer_.data()),
        raw_value.size());
    if (value_facts.has_lt) {
      return Fail("'<' in attribute value");
    }
    if (value_facts.has_ctl) {
      return Fail("control character in attribute value");
    }
    std::string_view value_view = raw_value;
    if (value_facts.has_amp) {
      StatusOr<std::string> value =
          DecodeReferences(raw_value, &entity_references_);
      if (!value.ok()) return Fail(value.status().message());
      if (limits.max_entity_references > 0 &&
          entity_references_ > limits.max_entity_references) {
        return FailLimit(
            "entity-reference budget of " +
            std::to_string(limits.max_entity_references) + " exceeded");
      }
      if (decode_used == attr_decode_slots_.size()) {
        attr_decode_slots_.emplace_back();
      }
      std::string& slot = attr_decode_slots_[decode_used++];
      slot.assign(*value);
      value_view = slot;
    }
    util::Symbol attr_symbol = ResolveName(attr_name);
    // Resolved ids make uniqueness an integer compare (vocabulary names are
    // equal iff their Symbols are); names outside the vocabulary all share
    // kUnknownSymbol and fall back to comparing bytes.
    for (const AttributeView& existing : attributes_) {
      if (existing.symbol == attr_symbol &&
          (attr_symbol != util::kUnknownSymbol || existing.name == attr_name)) {
        return Fail("duplicate attribute '" + std::string(attr_name) + "'");
      }
    }
    attributes_.push_back({attr_name, value_view, attr_symbol});
    i = value_end + 1;
  }

  EmitPendingText();
  handler_->StartElement(QName(name, ResolveName(name)),
                         AttributeSpan(attributes_));
  ++element_count_;
  if (self_closing) {
    handler_->EndElement(name);
    if (open_offsets_.empty()) seen_root_ = true;
  } else {
    PushOpenName(name);
  }
  ConsumeCounted(tag_end + 1, scan.newlines,
                 scan.newlines > 0 ? scan.last_nl + 1 : scan.last_nl);
  return Progress::kOk;
}

SaxParser::Progress SaxParser::ParseEndTag(size_t tag_end) {
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
  std::string_view body = rest.substr(2, tag_end - 2);
  // Fast path: the body is byte-identical to the open element's name — the
  // canonical well-formed shape. That name already passed Name syntax and
  // the length limit at its start tag, and a Name cannot contain newlines,
  // so one memcmp replaces the per-byte name walk, the trailing-whitespace
  // check and the newline count. Any other shape (trailing whitespace,
  // mismatch, empty stack) falls through to the validating path below.
  if (!open_offsets_.empty() && body == TopOpenName()) {
    EmitPendingText();
    handler_->EndElement(body);
    PopOpenName();
    if (open_offsets_.empty()) seen_root_ = true;
    pos_ += tag_end + 1;
    column_ += static_cast<int>(tag_end) + 1;
    seen_any_content_ = true;
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
  handler_->EndElement(name);
  PopOpenName();
  if (open_offsets_.empty()) seen_root_ = true;
  Consume(tag_end + 1);
  return Progress::kOk;
}

SaxParser::Progress SaxParser::ParseComment() {
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
  size_t end = rest.find("-->", 4);
  if (end == std::string_view::npos) return Progress::kNeedMore;
  std::string_view text = rest.substr(4, end - 4);
  if (text.find("--") != std::string_view::npos) {
    return Fail("'--' inside comment");
  }
  if (!text.empty() && text.back() == '-') {
    return Fail("comment must not end with '-'");
  }
  if (options_.report_comments) {
    EmitPendingText();
    handler_->Comment(text);
  }
  Consume(end + 3);
  return Progress::kOk;
}

SaxParser::Progress SaxParser::ParseCData() {
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
  size_t end = rest.find("]]>", 9);
  if (end == std::string_view::npos) return Progress::kNeedMore;
  if (open_offsets_.empty()) {
    return Fail("CDATA section outside the document element");
  }
  std::string_view text = rest.substr(9, end - 9);
  // CDATA content may legally contain '<' and '&', so only the control-byte
  // and whitespace facts matter (and no decoding happens).
  CDataFacts facts =
      scanner_.ScanCData(buffer_.data(), buffer_.size(), pos_ + 9, end - 9);
  if (Status s = AppendTextPiece(text, /*decode=*/false, /*has_amp=*/false,
                                 facts.has_ctl, facts.all_ws);
      !s.ok()) {
    return Progress::kError;
  }
  Consume(end + 3);
  return Progress::kOk;
}

SaxParser::Progress SaxParser::ParsePi() {
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
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
  std::string_view data = body.substr(name_len);
  while (!data.empty() && IsWhitespace(data.front())) data.remove_prefix(1);

  bool is_xml_decl = target.size() == 3 &&
                     (target[0] == 'x' || target[0] == 'X') &&
                     (target[1] == 'm' || target[1] == 'M') &&
                     (target[2] == 'l' || target[2] == 'L');
  if (is_xml_decl) {
    if (seen_any_content_) {
      return Fail("XML declaration not at start of document");
    }
  } else if (options_.report_processing_instructions) {
    EmitPendingText();
    handler_->ProcessingInstruction(target, data);
  }
  Consume(end + 2);
  return Progress::kOk;
}

SaxParser::Progress SaxParser::ParseDoctype() {
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
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
          Consume(i + 1);
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
