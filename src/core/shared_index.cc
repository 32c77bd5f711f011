#include "core/shared_index.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/timer.h"
#include "util/check.h"
#include "xpath/ast.h"

namespace xaos::core {
namespace {

using Kind = query::NodeTestSpec::Kind;

util::Symbol SymbolFor(const query::NodeTestSpec& test) {
  if (test.name_symbol != util::kInvalidSymbol) return test.name_symbol;
  return util::SymbolTable::Global().Intern(test.name);
}

void AddSeed(std::vector<util::Symbol>* seeds, util::Symbol s) {
  if (std::find(seeds->begin(), seeds->end(), s) == seeds->end()) {
    seeds->push_back(s);
  }
}

}  // namespace

// --- SharedIndexBuilder -----------------------------------------------------

SharedIndexBuilder::SharedIndexBuilder() {
  states_.emplace_back();  // the root state, level 0
}

bool SharedIndexBuilder::ShareableTree(const query::XTree& tree) {
  if (tree.size() < 2) return false;
  const query::XNode& root = tree.node(query::kRootXNode);
  if (root.test.kind != Kind::kRoot || root.is_output) return false;
  // Walk the single-child spine; it must cover the whole tree.
  int visited = 1;
  query::XNodeId cur = query::kRootXNode;
  while (!tree.node(cur).children.empty()) {
    if (tree.node(cur).children.size() != 1) return false;  // predicate branch
    cur = tree.node(cur).children[0];
    ++visited;
    const query::XNode& node = tree.node(cur);
    if (node.incoming_axis != xpath::Axis::kChild &&
        node.incoming_axis != xpath::Axis::kDescendant) {
      return false;  // backward, sibling, self or attribute axis
    }
    if (node.test.kind != Kind::kElement && node.test.kind != Kind::kAnyElement) {
      return false;  // attribute / text / root test mid-chain
    }
    if (node.test.value.has_value()) return false;
    const bool leaf = node.children.empty();
    if (node.is_output != leaf) return false;  // output exactly at the leaf
  }
  return visited == tree.size();
}

bool SharedIndexBuilder::Shareable(const std::vector<query::XTree>& trees) {
  if (trees.empty()) return false;
  for (const query::XTree& tree : trees) {
    if (!ShareableTree(tree)) return false;
  }
  return true;
}

uint64_t SharedIndexBuilder::EdgeKey(int32_t parent, EdgeKind kind,
                                     util::Symbol symbol) {
  // parent (31 bits) | kind (2 bits) | symbol (31 bits). Symbols are dense
  // interned ids; wildcard kinds pass 0.
  uint32_t s = kind == kChildNamed || kind == kDescNamed
                   ? static_cast<uint32_t>(symbol)
                   : 0u;
  return (static_cast<uint64_t>(static_cast<uint32_t>(parent)) << 33) |
         (static_cast<uint64_t>(kind) << 31) | static_cast<uint64_t>(s);
}

int32_t SharedIndexBuilder::Lookup(int32_t parent, EdgeKind kind,
                                   util::Symbol symbol) const {
  auto it = edges_.find(EdgeKey(parent, kind, symbol));
  return it == edges_.end() ? -1 : it->second;
}

int32_t SharedIndexBuilder::Intern(int32_t parent, EdgeKind kind,
                                   util::Symbol symbol) {
  auto [it, inserted] = edges_.try_emplace(EdgeKey(parent, kind, symbol), 0);
  if (!inserted) return it->second;
  int32_t id = static_cast<int32_t>(states_.size());
  it->second = id;
  State& parent_state = states_[static_cast<size_t>(parent)];
  parent_state.out.push_back(Edge{kind, symbol, id});
  const bool desc = kind == kDescNamed || kind == kDescWild;
  if (desc) {
    parent_state.has_desc_out = true;
    // A fixed-level source of a descendant step keeps its whole subtree
    // (projection portal); from the root state that is the entire document.
    if (parent == SharedIndex::kRootState) {
      root_portal_ = true;
    } else if (parent_state.level >= 0) {
      parent_state.portal = true;
    }
  }
  const int parent_level = parent_state.level;
  State state;
  state.level = desc || parent_level < 0 ? kFloatingLevel : parent_level + 1;
  state.symbol = symbol;
  state.wildcard = kind == kChildWild || kind == kDescWild;
  state.desc_in = desc;
  states_.push_back(std::move(state));
  return id;
}

size_t SharedIndexBuilder::MarginalStates(
    const std::vector<query::XTree>& trees) const {
  // Dry-run insertion. States a previous chain of the same probe would have
  // created are approximated as still-missing suffixes: once a chain leaves
  // the existing trie, every remaining step is new.
  size_t missing = 0;
  for (const query::XTree& tree : trees) {
    XAOS_CHECK(ShareableTree(tree));
    int32_t cur = SharedIndex::kRootState;
    query::XNodeId id = query::kRootXNode;
    while (!tree.node(id).children.empty()) {
      id = tree.node(id).children[0];
      const query::XNode& node = tree.node(id);
      const bool wild = node.test.kind == Kind::kAnyElement;
      const bool desc = node.incoming_axis == xpath::Axis::kDescendant;
      EdgeKind kind = desc ? (wild ? kDescWild : kDescNamed)
                           : (wild ? kChildWild : kChildNamed);
      util::Symbol s = wild ? util::kInvalidSymbol : SymbolFor(node.test);
      int32_t next = cur < 0 ? -1 : Lookup(cur, kind, s);
      if (next < 0) {
        ++missing;
        cur = -1;  // left the trie; the rest of the chain is new
      } else {
        cur = next;
      }
    }
  }
  return missing;
}

uint32_t SharedIndexBuilder::AddSubscription(
    const std::vector<query::XTree>& trees) {
  XAOS_CHECK(Shareable(trees)) << "unshareable query passed to AddSubscription";
  uint32_t sub = subscription_count_++;
  for (const query::XTree& tree : trees) {
    int32_t cur = SharedIndex::kRootState;
    query::XNodeId id = query::kRootXNode;
    while (!tree.node(id).children.empty()) {
      id = tree.node(id).children[0];
      const query::XNode& node = tree.node(id);
      const bool wild = node.test.kind == Kind::kAnyElement;
      const bool desc = node.incoming_axis == xpath::Axis::kDescendant;
      EdgeKind kind = desc ? (wild ? kDescWild : kDescNamed)
                           : (wild ? kChildWild : kChildNamed);
      util::Symbol s = wild ? util::kInvalidSymbol : SymbolFor(node.test);
      cur = Intern(cur, kind, s);
      ++chain_nodes_total_;
    }
    // Identical disjunct chains of one query accept once.
    std::vector<uint32_t>& accepts = states_[static_cast<size_t>(cur)].accepts;
    if (accepts.empty() || accepts.back() != sub) accepts.push_back(sub);
  }
  return sub;
}

query::ProjectionSpec SharedIndexBuilder::AnalyzeProjection() const {
  if (root_portal_) {
    return query::ProjectionSpec::KeepAll(
        "unanchored '//' step keeps the whole document");
  }
  query::ProjectionSpec spec;
  size_t max_level = 0;
  for (size_t i = 1; i < states_.size(); ++i) {
    if (states_[i].level >= 1) {
      max_level = std::max(max_level, static_cast<size_t>(states_[i].level));
    }
  }
  spec.levels.resize(max_level);
  for (size_t i = 1; i < states_.size(); ++i) {
    const State& state = states_[i];
    if (state.level >= 1) {
      query::ProjectionSpec::Level& level =
          spec.levels[static_cast<size_t>(state.level - 1)];
      if (state.wildcard) {
        level.any_name = true;
        level.any_keep_subtree |= state.portal;
      } else {
        query::ProjectionSpec::NameEntry& entry = level.names[state.symbol];
        entry.keep_subtree |= state.portal;
        if (state.level == 1) AddSeed(&spec.seed_symbols, state.symbol);
      }
    }
    // Targets of anchored descendant steps start relevant matches at any
    // depth (mirrors ProjectionSpec::Analyze's seed rule).
    if (state.desc_in && !state.wildcard) {
      AddSeed(&spec.seed_symbols, state.symbol);
    }
  }
  return spec;
}

std::unique_ptr<SharedIndex> SharedIndexBuilder::Build() const {
  auto index = std::make_unique<SharedIndex>();
  index->states_.resize(states_.size());
  for (size_t i = 0; i < states_.size(); ++i) {
    const State& src = states_[i];
    SharedIndex::StateMeta& dst = index->states_[i];
    dst.has_desc_out = src.has_desc_out;
    dst.child_begin = static_cast<uint32_t>(index->named_edges_.size());
    for (const Edge& edge : src.out) {
      if (edge.kind == kChildNamed) {
        index->named_edges_.push_back(
            SharedIndex::NamedEdge{edge.symbol, edge.target});
      }
    }
    dst.child_end = static_cast<uint32_t>(index->named_edges_.size());
    for (const Edge& edge : src.out) {
      if (edge.kind == kDescNamed) {
        index->named_edges_.push_back(
            SharedIndex::NamedEdge{edge.symbol, edge.target});
      }
    }
    dst.desc_begin = dst.child_end;
    dst.desc_end = static_cast<uint32_t>(index->named_edges_.size());
    auto by_symbol = [](const SharedIndex::NamedEdge& a,
                       const SharedIndex::NamedEdge& b) {
      return a.symbol < b.symbol;
    };
    std::sort(index->named_edges_.begin() + dst.child_begin,
              index->named_edges_.begin() + dst.child_end, by_symbol);
    std::sort(index->named_edges_.begin() + dst.desc_begin,
              index->named_edges_.begin() + dst.desc_end, by_symbol);
    for (const Edge& edge : src.out) {
      if (edge.kind == kChildWild) dst.child_wild = edge.target;
      if (edge.kind == kDescWild) dst.desc_wild = edge.target;
    }
    dst.accept_begin = static_cast<uint32_t>(index->accepts_.size());
    index->accepts_.insert(index->accepts_.end(), src.accepts.begin(),
                           src.accepts.end());
    dst.accept_end = static_cast<uint32_t>(index->accepts_.size());
  }
  index->stats_.states = states_.size();
  index->stats_.subscriptions = subscription_count_;
  index->stats_.chain_nodes = chain_nodes_total_;
  index->BuildStepTable();
  return index;
}

// --- SharedIndex ------------------------------------------------------------

int32_t SharedIndex::FindNamed(uint32_t begin, uint32_t end,
                               util::Symbol symbol) const {
  if (symbol == util::kInvalidSymbol) return -1;
  const NamedEdge* first = named_edges_.data() + begin;
  const NamedEdge* last = named_edges_.data() + end;
  const NamedEdge* it = std::lower_bound(
      first, last, symbol,
      [](const NamedEdge& edge, util::Symbol s) { return edge.symbol < s; });
  if (it != last && it->symbol == symbol) return it->target;
  return -1;
}

void SharedIndex::BuildStepTable() {
  step_table_.clear();
  step_mask_ = 0;
  if (named_edges_.empty()) return;
  // First-fit open addressing at <= 50% load: probes terminate on the first
  // empty slot, so lookups for absent keys stay short.
  size_t capacity = 16;
  while (capacity < named_edges_.size() * 2) capacity <<= 1;
  step_table_.assign(capacity, StepEntry{});
  step_mask_ = capacity - 1;
  auto upsert = [&](int32_t state, util::Symbol symbol, int32_t child,
                    int32_t desc) {
    size_t slot = StepHash(state, symbol) & step_mask_;
    for (;;) {
      StepEntry& entry = step_table_[slot];
      if (entry.state < 0) {
        entry.state = state;
        entry.symbol = symbol;
        entry.child_target = child;
        entry.desc_target = desc;
        return;
      }
      if (entry.state == state && entry.symbol == symbol) {
        if (child >= 0) entry.child_target = child;
        if (desc >= 0) entry.desc_target = desc;
        return;
      }
      slot = (slot + 1) & step_mask_;
    }
  };
  for (size_t i = 0; i < states_.size(); ++i) {
    const StateMeta& m = states_[i];
    int32_t state = static_cast<int32_t>(i);
    for (uint32_t e = m.child_begin; e < m.child_end; ++e) {
      upsert(state, named_edges_[e].symbol, named_edges_[e].target, -1);
    }
    for (uint32_t e = m.desc_begin; e < m.desc_end; ++e) {
      upsert(state, named_edges_[e].symbol, -1, named_edges_[e].target);
    }
  }
}

// --- SharedMatcher ----------------------------------------------------------

SharedMatcher::SharedMatcher(const SharedIndex* index, bool bool_only)
    : index_(index), bool_only_(bool_only) {
  in_carry_.assign(index_->state_count(), 0);
  subs_.resize(index_->subscription_count());
  fresh_.emplace_back();
  carry_added_.push_back(0);
}

void SharedMatcher::StartDocument() {
  depth_ = 0;
  end_seen_ = false;
  // A saturated interner re-learns from scratch: ids and cached steps are
  // invalidated together, never separately.
  if (!flat_ok_) ResetFlatUniverse();
  flat_active_ = false;
  carry_.clear();
  std::fill(in_carry_.begin(), in_carry_.end(), 0);
  fresh_[0].clear();
  fresh_[0].push_back(SharedIndex::kRootState);
  carry_added_[0] = 0;
  if (index_->HasDescOut(SharedIndex::kRootState)) {
    carry_.push_back(SharedIndex::kRootState);
    in_carry_[SharedIndex::kRootState] = 1;
    carry_added_[0] = 1;
  }
  for (SubState& sub : subs_) {
    sub.confirmed = false;
    sub.confirm_ns = 0;
    sub.items.clear();
  }
  confirmed_subs_ = 0;
  elements_document_ = 0;
  states_entered_document_ = 0;
}

void SharedMatcher::Fire(uint32_t sub, const DocumentCursor::Node& node,
                         std::string_view name) {
  SubState& state = subs_[sub];
  if (!state.confirmed) {
    state.confirmed = true;
    ++confirmed_subs_;
    if (obs::Enabled()) state.confirm_ns = obs::NowNs();
  }
  if (bool_only_) return;
  // Several accepting states (disjunct chains) can select the same element;
  // ids are strictly increasing across elements, so adjacent-id dedup keeps
  // the item list sorted and duplicate-free.
  if (!state.items.empty() && state.items.back().info.id == node.id) return;
  OutputItem item;
  item.info.id = node.id;
  item.info.parent_id = node.parent_id;
  item.info.ordinal = static_cast<uint32_t>(node.ordinal);
  item.info.level = static_cast<int>(node.level);
  item.info.kind = query::DocNodeKind::kElement;
  item.info.name.assign(name);
  state.items.push_back(std::move(item));
}

void SharedMatcher::Enter(int32_t state, size_t depth,
                          const DocumentCursor::Node& node,
                          std::string_view name) {
  fresh_[depth].push_back(state);
  ++states_entered_document_;
  ++states_entered_total_;
  if (index_->HasDescOut(state) && !in_carry_[static_cast<size_t>(state)]) {
    in_carry_[static_cast<size_t>(state)] = 1;
    carry_.push_back(state);
    ++carry_added_[depth];
  }
  for (const uint32_t* sub = index_->AcceptsBegin(state);
       sub != index_->AcceptsEnd(state); ++sub) {
    Fire(*sub, node, name);
  }
}

void SharedMatcher::StartElement(util::Symbol symbol, std::string_view name,
                                 const DocumentCursor::Node& node) {
  ++elements_total_;
  ++elements_document_;
  const size_t depth = ++depth_;
  if (depth == fresh_.size()) {
    fresh_.emplace_back();
    carry_added_.push_back(0);
  }
  fresh_[depth].clear();
  carry_added_[depth] = 0;

  // Inert fast path (earliest answering): under bool_only, once every
  // subscription is confirmed no transition can change any verdict — the
  // depth bookkeeping above keeps EndElement balanced and the automaton is
  // skipped for the rest of the document.
  if (bool_only_ && confirmed_subs_ == subs_.size()) return;

  util::Symbol s = symbol;
  if (s == util::kInvalidSymbol) {
    // Replay paths without symbols; an unseen name has no named edges,
    // but wildcard transitions still apply.
    s = util::SymbolTable::Global().Lookup(name);
  }

  // Descendant transitions fire only from states armed at shallower depths:
  // cap the carry scan before any Enter() of this event can append.
  const size_t carry_before = carry_.size();
  for (int32_t from : fresh_[depth - 1]) {
    index_->ForEachChildTarget(from, s,
                               [&](int32_t t) { Enter(t, depth, node, name); });
  }
  for (size_t i = 0; i < carry_before; ++i) {
    index_->ForEachDescTarget(carry_[i], s,
                              [&](int32_t t) { Enter(t, depth, node, name); });
  }
}

void SharedMatcher::EndElement() {
  XAOS_CHECK(depth_ > 0) << "unbalanced events";
  for (uint32_t k = 0; k < carry_added_[depth_]; ++k) {
    in_carry_[static_cast<size_t>(carry_.back())] = 0;
    carry_.pop_back();
  }
  carry_added_[depth_] = 0;
  fresh_[depth_].clear();
  --depth_;
}

void SharedMatcher::EndDocument() { end_seen_ = true; }

void SharedMatcher::AbortDocument() {
  // Per-subscription confirmation persists (mirrors XaosEngine: the flag
  // survives an abort until the next StartDocument) but Matched() reports
  // false because the document never ended.
  depth_ = 0;
  end_seen_ = false;
  carry_.clear();
  std::fill(in_carry_.begin(), in_carry_.end(), 0);
  for (std::vector<int32_t>& f : fresh_) f.clear();
  std::fill(carry_added_.begin(), carry_added_.end(), 0);
  flat_active_ = false;
}

// --- flat stepping (batched dispatch) ---------------------------------------

namespace {

uint64_t HashStates(const int32_t* data, uint32_t size) {
  uint64_t h = 0x9e3779b97f4a7c15ull + size;
  for (uint32_t i = 0; i < size; ++i) {
    uint64_t x = static_cast<uint32_t>(data[i]);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    h = (h ^ x) * 0x94d049bb133111ebull;
    h ^= h >> 31;
  }
  return h;
}

size_t ConfigHash(uint32_t fresh, uint32_t carry, util::Symbol symbol) {
  uint64_t key = fresh;
  key = key * 0x9e3779b97f4a7c15ull ^ carry;
  key = key * 0x9e3779b97f4a7c15ull ^ static_cast<uint32_t>(symbol);
  key ^= key >> 29;
  key *= 0xbf58476d1ce4e5b9ull;
  key ^= key >> 32;
  return static_cast<size_t>(key);
}

}  // namespace

void SharedMatcher::ResetFlatUniverse() {
  set_pool_.clear();
  sets_.clear();
  accept_pool_.clear();
  set_accepts_.clear();
  set_table_.assign(1024, 0);
  set_mask_ = set_table_.size() - 1;
  step_cache_.assign(kStepCacheSize, StepSlot{});
  // Id 0 is the empty set; InternSet returns it without a table probe.
  sets_.push_back(SetSpan{0, 0});
  set_accepts_.push_back(SetSpan{0, 0});
  flat_ok_ = true;
  flat_active_ = false;
}

uint32_t SharedMatcher::InternSet(const int32_t* data, uint32_t size,
                                  bool* ok) {
  if (size == 0) return kEmptySetId;
  const uint64_t hash = HashStates(data, size);
  size_t slot = static_cast<size_t>(hash) & set_mask_;
  for (;;) {
    const uint32_t stored = set_table_[slot];
    if (stored == 0) break;  // first fit: not interned yet
    const SetSpan& span = sets_[stored - 1];
    if (span.size == size &&
        std::equal(data, data + size, set_pool_.data() + span.begin)) {
      return stored - 1;
    }
    slot = (slot + 1) & set_mask_;
  }
  if (sets_.size() >= flat_set_limit_) {
    *ok = false;
    return kEmptySetId;
  }
  const uint32_t id = static_cast<uint32_t>(sets_.size());
  SetSpan span;
  span.begin = static_cast<uint32_t>(set_pool_.size());
  span.size = size;
  set_pool_.insert(set_pool_.end(), data, data + size);
  sets_.push_back(span);
  SetSpan accepts;
  accepts.begin = static_cast<uint32_t>(accept_pool_.size());
  for (uint32_t i = 0; i < size; ++i) {
    accept_pool_.insert(accept_pool_.end(), index_->AcceptsBegin(data[i]),
                        index_->AcceptsEnd(data[i]));
  }
  accepts.size = static_cast<uint32_t>(accept_pool_.size()) - accepts.begin;
  set_accepts_.push_back(accepts);
  set_table_[slot] = id + 1;
  if (sets_.size() * 2 > set_table_.size()) {
    // Keep <= 50% load; rehash every id into the doubled table.
    std::vector<uint32_t> bigger(set_table_.size() * 2, 0);
    const size_t mask = bigger.size() - 1;
    for (uint32_t i = 1; i < sets_.size(); ++i) {
      size_t s = static_cast<size_t>(HashStates(
                     set_pool_.data() + sets_[i].begin, sets_[i].size)) &
                 mask;
      while (bigger[s] != 0) s = (s + 1) & mask;
      bigger[s] = i + 1;
    }
    set_table_ = std::move(bigger);
    set_mask_ = mask;
  }
  return id;
}

bool SharedMatcher::ComputeStep(uint32_t fresh, uint32_t carry,
                                util::Symbol symbol, uint32_t* fresh_child,
                                uint32_t* carry_child) {
  // Enter order mirrors StartElement: child transitions from the parent's
  // fresh set (named then wildcard per state), then descendant transitions
  // from the armed carry — accept firing order, and therefore item order
  // and confirmation timing, stay byte-identical to the per-event path.
  flat_entered_scratch_.clear();
  const SetSpan fresh_span = sets_[fresh];
  for (uint32_t i = 0; i < fresh_span.size; ++i) {
    const int32_t from = set_pool_[fresh_span.begin + i];
    if (const SharedIndex::StepEntry* e = index_->FindStep(from, symbol)) {
      if (e->child_target >= 0) {
        flat_entered_scratch_.push_back(e->child_target);
      }
    }
    const int32_t wild = index_->child_wild(from);
    if (wild >= 0) flat_entered_scratch_.push_back(wild);
  }
  const SetSpan carry_span = sets_[carry];
  for (uint32_t i = 0; i < carry_span.size; ++i) {
    const int32_t from = set_pool_[carry_span.begin + i];
    if (const SharedIndex::StepEntry* e = index_->FindStep(from, symbol)) {
      if (e->desc_target >= 0) flat_entered_scratch_.push_back(e->desc_target);
    }
    const int32_t wild = index_->desc_wild(from);
    if (wild >= 0) flat_entered_scratch_.push_back(wild);
  }

  // The child carry is the parent's armed stack extended by entered states
  // with descendant out-edges (arming order = enter order) — the prefix
  // property FlatFallback rebuilds the legacy stack from.
  flat_carry_scratch_.clear();
  for (uint32_t i = 0; i < carry_span.size; ++i) {
    flat_carry_scratch_.push_back(set_pool_[carry_span.begin + i]);
  }
  bool extended = false;
  for (const int32_t entered : flat_entered_scratch_) {
    if (!index_->HasDescOut(entered)) continue;
    if (std::find(flat_carry_scratch_.begin(), flat_carry_scratch_.end(),
                  entered) != flat_carry_scratch_.end()) {
      continue;  // re-entered under an ancestor that already armed it
    }
    flat_carry_scratch_.push_back(entered);
    extended = true;
  }

  bool ok = true;
  *fresh_child =
      InternSet(flat_entered_scratch_.data(),
                static_cast<uint32_t>(flat_entered_scratch_.size()), &ok);
  if (!ok) return false;
  *carry_child =
      extended ? InternSet(flat_carry_scratch_.data(),
                           static_cast<uint32_t>(flat_carry_scratch_.size()),
                           &ok)
               : carry;
  return ok;
}

void SharedMatcher::FlatFallback() {
  // depth_ is the parent depth of the element being started: materialize
  // configurations [0, depth_] into the per-event structures so the legacy
  // StartElement can finish this element and the rest of the document.
  const size_t top = depth_;
  while (fresh_.size() <= top) {
    fresh_.emplace_back();
    carry_added_.push_back(0);
  }
  carry_.clear();
  std::fill(in_carry_.begin(), in_carry_.end(), 0);
  uint32_t prev_carry = 0;
  for (size_t d = 0; d <= top; ++d) {
    const SetSpan fresh_span = sets_[flat_fresh_stack_[d]];
    fresh_[d].assign(
        set_pool_.begin() + fresh_span.begin,
        set_pool_.begin() + fresh_span.begin + fresh_span.size);
    const SetSpan carry_span = sets_[flat_carry_stack_[d]];
    XAOS_CHECK(carry_span.size >= prev_carry) << "carry prefix violated";
    carry_added_[d] = carry_span.size - prev_carry;
    for (uint32_t i = prev_carry; i < carry_span.size; ++i) {
      const int32_t state = set_pool_[carry_span.begin + i];
      carry_.push_back(state);
      in_carry_[static_cast<size_t>(state)] = 1;
    }
    prev_carry = carry_span.size;
  }
  for (size_t d = top + 1; d < fresh_.size(); ++d) {
    fresh_[d].clear();
    carry_added_[d] = 0;
  }
  flat_ok_ = false;
  flat_active_ = false;
}

void SharedMatcher::StartElementFlat(util::Symbol symbol,
                                     std::string_view name,
                                     const DocumentCursor::Node& node) {
  if (!flat_ok_) {
    StartElement(symbol, name, node);
    return;
  }
  if (!flat_active_) {
    // First element of a flat-stepped document: seed depth 0 with the root
    // configuration (StartDocument seeded the legacy structures, which stay
    // authoritative if interning fails right here).
    if (sets_.empty()) ResetFlatUniverse();
    flat_active_ = true;
    int32_t root = SharedIndex::kRootState;
    bool ok = true;
    const uint32_t fresh0 = InternSet(&root, 1, &ok);
    if (!ok) {
      flat_ok_ = false;
      flat_active_ = false;
      StartElement(symbol, name, node);
      return;
    }
    const uint32_t carry0 = index_->HasDescOut(root) ? fresh0 : kEmptySetId;
    flat_fresh_stack_.assign(1, fresh0);
    flat_carry_stack_.assign(1, carry0);
  }

  // Inert fast path (earliest answering), mirroring StartElement: depth
  // bookkeeping only once every subscription is confirmed.
  if (bool_only_ && confirmed_subs_ == subs_.size()) {
    ++elements_total_;
    ++elements_document_;
    const size_t depth = ++depth_;
    if (flat_fresh_stack_.size() <= depth) {
      flat_fresh_stack_.resize(depth + 1);
      flat_carry_stack_.resize(depth + 1);
    }
    flat_fresh_stack_[depth] = kEmptySetId;
    flat_carry_stack_[depth] = kEmptySetId;
    return;
  }

  util::Symbol s = symbol;
  if (s == util::kInvalidSymbol) {
    s = util::SymbolTable::Global().Lookup(name);
  }
  const uint32_t fresh_parent = flat_fresh_stack_[depth_];
  const uint32_t carry_parent = flat_carry_stack_[depth_];
  StepSlot& slot = step_cache_[ConfigHash(fresh_parent, carry_parent, s) &
                               (kStepCacheSize - 1)];
  uint32_t fresh_child;
  uint32_t carry_child;
  if (slot.fresh == fresh_parent && slot.carry == carry_parent &&
      slot.symbol == s) {
    ++flat_cache_hits_;
    fresh_child = slot.fresh_child;
    carry_child = slot.carry_child;
  } else {
    ++flat_cache_misses_;
    if (!ComputeStep(fresh_parent, carry_parent, s, &fresh_child,
                     &carry_child)) {
      FlatFallback();  // interner saturated; depth_ still the parent depth
      StartElement(symbol, name, node);
      return;
    }
    slot.fresh = fresh_parent;
    slot.carry = carry_parent;
    slot.symbol = s;
    slot.fresh_child = fresh_child;
    slot.carry_child = carry_child;
  }

  ++elements_total_;
  ++elements_document_;
  const size_t depth = ++depth_;
  if (flat_fresh_stack_.size() <= depth) {
    flat_fresh_stack_.resize(depth + 1);
    flat_carry_stack_.resize(depth + 1);
  }
  flat_fresh_stack_[depth] = fresh_child;
  flat_carry_stack_[depth] = carry_child;

  const SetSpan entered = sets_[fresh_child];
  states_entered_total_ += entered.size;
  states_entered_document_ += entered.size;
  const SetSpan accepts = set_accepts_[fresh_child];
  for (uint32_t i = 0; i < accepts.size; ++i) {
    Fire(accept_pool_[accepts.begin + i], node, name);
  }
}

void SharedMatcher::EndElementFlat() {
  if (!flat_ok_) {
    EndElement();
    return;
  }
  XAOS_CHECK(depth_ > 0) << "unbalanced events";
  --depth_;
}

QueryResult SharedMatcher::Result(uint32_t sub) const {
  QueryResult result;
  result.matched = Matched(sub);
  if (result.matched && !bool_only_) result.items = subs_[sub].items;
  return result;
}

}  // namespace xaos::core
