#include "util/symbol_table.h"

#include "util/check.h"

namespace xaos::util {

namespace {
constexpr size_t kInitialBuckets = 256;  // power of two
}  // namespace

SymbolTable::SymbolTable()
    : buckets_(new Buckets(kInitialBuckets)),
      chunks_(new std::atomic<Chunk*>[kMaxChunks]) {
  for (size_t i = 0; i < kMaxChunks; ++i) {
    chunks_[i].store(nullptr, std::memory_order_relaxed);
  }
}

SymbolTable::~SymbolTable() {
  delete buckets_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kMaxChunks; ++i) {
    delete[] chunks_[i].load(std::memory_order_relaxed);
  }
}

Symbol SymbolTable::Probe(const Buckets* buckets, std::string_view name) {
  const std::atomic<const Link*>& slot = buckets->slots[Hash(name) &
                                                        buckets->mask];
  for (const Link* link = slot.load(std::memory_order_acquire);
       link != nullptr; link = link->next) {
    if (link->node->name == name) return link->node->symbol;
  }
  return kInvalidSymbol;
}

Symbol SymbolTable::Lookup(std::string_view name) const {
  return Probe(buckets_.load(std::memory_order_acquire), name);
}

std::string_view SymbolTable::Name(Symbol s) const {
  XAOS_CHECK(s >= 0);
  size_t index = static_cast<size_t>(s);
  Chunk* chunk = chunks_[index >> kChunkBits].load(std::memory_order_acquire);
  XAOS_CHECK(chunk != nullptr);
  const Node* node =
      chunk[index & (kChunkSize - 1)].load(std::memory_order_acquire);
  XAOS_CHECK(node != nullptr);
  return node->name;
}

void SymbolTable::RehashLocked(size_t new_count) {
  auto fresh = std::make_unique<Buckets>(new_count);
  for (const Node& node : nodes_) {
    std::atomic<const Link*>& slot =
        fresh->slots[Hash(node.name) & fresh->mask];
    links_.push_back(Link{&node, slot.load(std::memory_order_relaxed)});
    // Not yet visible to readers: `fresh` publishes below.
    slot.store(&links_.back(), std::memory_order_relaxed);
  }
  retired_.emplace_back(buckets_.load(std::memory_order_relaxed));
  buckets_.store(fresh.release(), std::memory_order_release);
}

Symbol SymbolTable::Intern(std::string_view name) {
  if (Symbol s = Lookup(name); s != kInvalidSymbol) return s;

  std::lock_guard<std::mutex> lock(mu_);
  // Double-checked: another thread may have interned between the probe and
  // the lock.
  if (Symbol s = Lookup(name); s != kInvalidSymbol) return s;

  Symbol s = static_cast<Symbol>(nodes_.size());
  XAOS_CHECK(static_cast<size_t>(s) < kMaxChunks * kChunkSize)
      << "symbol table full";
  nodes_.push_back(Node{std::string(name), s});
  const Node* node = &nodes_.back();

  // Publish the symbol -> name entry before the symbol can escape through
  // the bucket chain or the return value.
  size_t chunk_index = static_cast<size_t>(s) >> kChunkBits;
  Chunk* chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk[kChunkSize];
    for (size_t i = 0; i < kChunkSize; ++i) {
      chunk[i].store(nullptr, std::memory_order_relaxed);
    }
    chunks_[chunk_index].store(chunk, std::memory_order_release);
  }
  chunk[static_cast<size_t>(s) & (kChunkSize - 1)].store(
      node, std::memory_order_release);

  Buckets* buckets = buckets_.load(std::memory_order_relaxed);
  if (nodes_.size() > buckets->mask + 1) {
    // Load factor reached 1: double. The rehash links every node in
    // nodes_ — including the one just appended — into the new generation.
    RehashLocked(2 * (buckets->mask + 1));
  } else {
    std::atomic<const Link*>& slot = buckets->slots[Hash(name) &
                                                    buckets->mask];
    links_.push_back(Link{node, slot.load(std::memory_order_relaxed)});
    slot.store(&links_.back(), std::memory_order_release);
  }
  size_.store(nodes_.size(), std::memory_order_release);
  return s;
}

SymbolTable& SymbolTable::Global() {
  static SymbolTable* table = [] {
    auto* t = new SymbolTable();
    XAOS_CHECK(t->Intern(kUnknownName) == kUnknownSymbol);
    return t;
  }();
  return *table;
}

}  // namespace xaos::util
