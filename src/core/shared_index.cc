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
  size_t named_edges = 0;
  for (const State& state : states_) {
    for (const Edge& edge : state.out) {
      if (edge.kind == kChildNamed || edge.kind == kDescNamed) ++named_edges;
    }
  }
  if (named_edges > 0) {
    // First-fit open addressing at <= 50% load: probes terminate on the
    // first empty slot, so lookups for absent keys stay short.
    size_t capacity = 16;
    while (capacity < named_edges * 2) capacity <<= 1;
    index->step_table_.assign(capacity, SharedIndex::StepEntry{});
    index->step_mask_ = capacity - 1;
  }
  index->states_.resize(states_.size());
  for (size_t i = 0; i < states_.size(); ++i) {
    const State& src = states_[i];
    SharedIndex::StateMeta& dst = index->states_[i];
    dst.has_desc_out = src.has_desc_out;
    const int32_t state = static_cast<int32_t>(i);
    for (const Edge& edge : src.out) {
      switch (edge.kind) {
        case kChildNamed:
          index->AddNamedEdge(state, edge.symbol, /*desc=*/false, edge.target);
          break;
        case kDescNamed:
          index->AddNamedEdge(state, edge.symbol, /*desc=*/true, edge.target);
          break;
        case kChildWild:
          dst.child_wild = edge.target;
          break;
        case kDescWild:
          dst.desc_wild = edge.target;
          break;
      }
    }
    dst.accept_begin = static_cast<uint32_t>(index->accepts_.size());
    index->accepts_.insert(index->accepts_.end(), src.accepts.begin(),
                           src.accepts.end());
    dst.accept_end = static_cast<uint32_t>(index->accepts_.size());
  }
  index->stats_.states = states_.size();
  index->stats_.subscriptions = subscription_count_;
  index->stats_.chain_nodes = chain_nodes_total_;
  return index;
}

// --- SharedIndex ------------------------------------------------------------

void SharedIndex::AddNamedEdge(int32_t state, util::Symbol symbol, bool desc,
                               int32_t target) {
  size_t slot = StepHash(state, symbol) & step_mask_;
  for (;;) {
    StepEntry& entry = step_table_[slot];
    if (entry.state < 0) {
      entry.state = state;
      entry.symbol = symbol;
    }
    if (entry.state == state && entry.symbol == symbol) {
      (desc ? entry.desc_target : entry.child_target) = target;
      return;
    }
    slot = (slot + 1) & step_mask_;
  }
}

// --- SharedMatcher ----------------------------------------------------------

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

SharedMatcher::SharedMatcher(const SharedIndex* index, bool bool_only)
    : index_(index), bool_only_(bool_only) {
  confirmed_.resize(index_->subscription_count());
  confirm_ns_.resize(index_->subscription_count());
  if (!bool_only_) chains_.resize(index_->subscription_count());
  fresh_stack_.resize(1);
  carry_stack_.resize(1);
  ResetFlatUniverse();
}

void SharedMatcher::StartDocument() {
  depth_ = 0;
  end_seen_ = false;
  fresh_stack_[0] = kRootSetId;
  carry_stack_[0] =
      index_->HasDescOut(SharedIndex::kRootState) ? kRootSetId : kEmptySetId;
  for (const uint32_t sub : confirmed_list_) confirmed_[sub] = 0;
  confirmed_list_.clear();
  items_.clear();
  names_.clear();
  elements_document_ = 0;
  states_entered_document_ = 0;
}

void SharedMatcher::Fire(uint32_t sub, const DocumentCursor::Node& node,
                         uint32_t name_begin, uint32_t name_size) {
  const bool first = confirmed_[sub] == 0;
  if (first) {
    confirmed_[sub] = 1;
    confirmed_list_.push_back(sub);
    confirm_ns_[sub] = obs::Enabled() ? obs::NowNs() : 0;
  }
  if (bool_only_) return;
  ItemChain& chain = chains_[sub];
  const uint32_t item = static_cast<uint32_t>(items_.size());
  if (first) {
    chain.head = item;
  } else {
    // Several accepting states (disjunct chains) can select the same
    // element; ids are strictly increasing across elements, so
    // adjacent-id dedup keeps the chain sorted and duplicate-free.
    if (items_[chain.tail].node.id == node.id) return;
    items_[chain.tail].next = item;
  }
  chain.tail = item;
  items_.push_back(LoggedItem{node, name_begin, name_size, kNoItem});
}

void SharedMatcher::StartElement(util::Symbol symbol, std::string_view name,
                                 const DocumentCursor::Node& node) {
  ++elements_total_;
  ++elements_document_;
  const size_t parent = depth_++;
  if (fresh_stack_.size() <= depth_) {
    fresh_stack_.resize(depth_ + 1);
    carry_stack_.resize(depth_ + 1);
  }

  // Inert fast path (earliest answering): under bool_only, once every
  // subscription is confirmed no transition can change any verdict — the
  // depth bookkeeping above keeps EndElement balanced and the automaton is
  // skipped for the rest of the document.
  if (bool_only_ && confirmed_list_.size() == confirmed_.size()) {
    fresh_stack_[depth_] = kEmptySetId;
    carry_stack_[depth_] = kEmptySetId;
    return;
  }

  util::Symbol s = symbol;
  if (s == util::kInvalidSymbol) {
    // Replay paths without symbols; an unseen name has no named edges,
    // but wildcard transitions still apply.
    s = util::SymbolTable::Global().Lookup(name);
  }
  auto cache_slot = [&] {
    return &step_cache_[ConfigHash(fresh_stack_[parent], carry_stack_[parent],
                                   s) &
                        (kStepCacheSize - 1)];
  };
  StepSlot* slot = cache_slot();
  if (slot->fresh == fresh_stack_[parent] &&
      slot->carry == carry_stack_[parent] && slot->symbol == s) {
    ++flat_cache_hits_;
  } else {
    ++flat_cache_misses_;
    if (sets_.size() + 2 > flat_set_limit_) {
      // A step interns at most two sets. Rebasing renumbers the open
      // configurations and empties the step cache, so re-resolve the slot.
      RebaseFlatUniverse(parent);
      slot = cache_slot();
    }
    slot->fresh = fresh_stack_[parent];
    slot->carry = carry_stack_[parent];
    slot->symbol = s;
    ComputeStep(slot->fresh, slot->carry, s, &slot->fresh_child,
                &slot->carry_child);
  }
  fresh_stack_[depth_] = slot->fresh_child;
  carry_stack_[depth_] = slot->carry_child;

  const SetSpan entered = sets_[slot->fresh_child];
  states_entered_total_ += entered.size;
  states_entered_document_ += entered.size;
  const SetSpan accepts = set_accepts_[slot->fresh_child];
  if (accepts.size == 0) return;
  // One copy of the name serves every subscription the element fires.
  const uint32_t name_begin = static_cast<uint32_t>(names_.size());
  if (!bool_only_) names_.append(name);
  for (uint32_t i = 0; i < accepts.size; ++i) {
    Fire(accept_pool_[accepts.begin + i], node, name_begin,
         static_cast<uint32_t>(name.size()));
  }
}

void SharedMatcher::EndElement() {
  XAOS_CHECK(depth_ > 0) << "unbalanced events";
  --depth_;
}

void SharedMatcher::EndDocument() { end_seen_ = true; }

void SharedMatcher::AbortDocument() {
  // Per-subscription confirmation persists (mirrors XaosEngine: the flag
  // survives an abort until the next StartDocument) but Matched() reports
  // false because the document never ended.
  depth_ = 0;
  end_seen_ = false;
}

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
  const int32_t root = SharedIndex::kRootState;
  const uint32_t root_set = InternSet(&root, 1);
  XAOS_CHECK(root_set == kRootSetId);
}

void SharedMatcher::RebaseFlatUniverse(size_t top) {
  rebase_states_.clear();
  rebase_sizes_.clear();
  for (size_t d = 0; d <= top; ++d) {
    for (const uint32_t id : {fresh_stack_[d], carry_stack_[d]}) {
      const SetSpan span = sets_[id];
      rebase_states_.insert(rebase_states_.end(),
                            set_pool_.begin() + span.begin,
                            set_pool_.begin() + span.begin + span.size);
      rebase_sizes_.push_back(span.size);
    }
  }
  ResetFlatUniverse();
  ++universe_resets_;
  const int32_t* states = rebase_states_.data();
  for (size_t d = 0; d <= top; ++d) {
    fresh_stack_[d] = InternSet(states, rebase_sizes_[2 * d]);
    states += rebase_sizes_[2 * d];
    carry_stack_[d] = InternSet(states, rebase_sizes_[2 * d + 1]);
    states += rebase_sizes_[2 * d + 1];
  }
}

uint32_t SharedMatcher::InternSet(const int32_t* data, uint32_t size) {
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

void SharedMatcher::ComputeStep(uint32_t fresh, uint32_t carry,
                                util::Symbol symbol, uint32_t* fresh_child,
                                uint32_t* carry_child) {
  // Enter order: child transitions from the parent's fresh set (named then
  // wildcard per state), then descendant transitions from the armed carry.
  // It fixes accept firing order, and therefore item order and
  // confirmation timing.
  entered_scratch_.clear();
  const SetSpan fresh_span = sets_[fresh];
  for (uint32_t i = 0; i < fresh_span.size; ++i) {
    const int32_t from = set_pool_[fresh_span.begin + i];
    if (const SharedIndex::StepEntry* e = index_->FindStep(from, symbol)) {
      if (e->child_target >= 0) entered_scratch_.push_back(e->child_target);
    }
    const int32_t wild = index_->child_wild(from);
    if (wild >= 0) entered_scratch_.push_back(wild);
  }
  const SetSpan carry_span = sets_[carry];
  for (uint32_t i = 0; i < carry_span.size; ++i) {
    const int32_t from = set_pool_[carry_span.begin + i];
    if (const SharedIndex::StepEntry* e = index_->FindStep(from, symbol)) {
      if (e->desc_target >= 0) entered_scratch_.push_back(e->desc_target);
    }
    const int32_t wild = index_->desc_wild(from);
    if (wild >= 0) entered_scratch_.push_back(wild);
  }

  // The child carry is the parent's armed set extended by the entered
  // states with descendant out-edges, in enter order.
  carry_scratch_.assign(set_pool_.begin() + carry_span.begin,
                        set_pool_.begin() + carry_span.begin + carry_span.size);
  bool extended = false;
  for (const int32_t entered : entered_scratch_) {
    if (!index_->HasDescOut(entered)) continue;
    if (std::find(carry_scratch_.begin(), carry_scratch_.end(), entered) !=
        carry_scratch_.end()) {
      continue;  // re-entered under an ancestor that already armed it
    }
    carry_scratch_.push_back(entered);
    extended = true;
  }

  *fresh_child = InternSet(entered_scratch_.data(),
                           static_cast<uint32_t>(entered_scratch_.size()));
  *carry_child = extended ? InternSet(carry_scratch_.data(),
                                      static_cast<uint32_t>(
                                          carry_scratch_.size()))
                          : carry;
}

QueryResult SharedMatcher::Result(uint32_t sub) const {
  QueryResult result;
  result.matched = Matched(sub);
  if (!result.matched || bool_only_) return result;
  for (uint32_t i = chains_[sub].head; i != kNoItem; i = items_[i].next) {
    const LoggedItem& logged = items_[i];
    OutputItem& item = result.items.emplace_back();
    item.info.id = logged.node.id;
    item.info.parent_id = logged.node.parent_id;
    item.info.ordinal = logged.node.ordinal;
    item.info.level = static_cast<int>(logged.node.level);
    item.info.kind = query::DocNodeKind::kElement;
    item.info.name.assign(names_, logged.name_begin, logged.name_size);
  }
  return result;
}

}  // namespace xaos::core
