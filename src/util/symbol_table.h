// QName interning: a process-wide table mapping element/attribute names to
// dense integer Symbols, so name tests downstream become integer compares
// and flat-array lookups instead of per-event string hashing (the technique
// fast XPath engines use to turn label tests into symbol-space arithmetic).
//
// Only query compilation interns: the x-tree compiler, engine construction
// and the shared index Intern() the names a query mentions. Event sources
// (the SAX parser) resolve document names with the read-only Lookup() and
// give every name no query mentions the one reserved kUnknownSymbol. The
// global table is therefore bounded by the compiled vocabulary plus that
// symbol, however many distinct names the documents carry. Symbols are
// stable for the process lifetime and identical names always intern to the
// same Symbol, so ids are comparable across parsers, compiled queries and
// engines.
//
// Concurrency: inserts serialize on a mutex; readers (Lookup, Name, size)
// are lock-free. The bucket array is an insert-only chained hash table
// published through an atomic pointer — links are immutable once visible,
// and a resize builds a fresh generation of link cells over the same nodes,
// retiring (not freeing) the old one so in-flight readers stay valid. This
// is what lets a query compile on one thread while parse and match threads
// (core/parallel_fleet.h) resolve names.

#ifndef XAOS_UTIL_SYMBOL_TABLE_H_
#define XAOS_UTIL_SYMBOL_TABLE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace xaos::util {

// Dense id of an interned name. Valid Symbols are >= 0 and contiguous from
// 0 in interning order, so they index flat vectors directly.
using Symbol = int32_t;
inline constexpr Symbol kInvalidSymbol = -1;

// The symbol event sources give a name no compiled query interned.
// Global() interns kUnknownName before anything else, so it is Symbol 0
// there. The spelling is not a legal XML Name, so no query can mention it:
// every symbol-indexed table (engine candidates, dispatch index, shared
// automaton, projection) finds nothing for it without special-casing.
// Consumers that need the spelling read it from the event's name text.
inline constexpr Symbol kUnknownSymbol = 0;
inline constexpr std::string_view kUnknownName = "#unknown";

class SymbolTable {
 public:
  SymbolTable();
  ~SymbolTable();

  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  // Returns the Symbol for `name`, interning it if absent. Thread-safe; the
  // hit path is a lock-free probe, only a genuine insert takes the mutex.
  Symbol Intern(std::string_view name);

  // Returns the Symbol for `name` or kInvalidSymbol if it was never
  // interned. Never mutates the table (a name a table has not seen cannot
  // match any interned query label, so callers treat absence as "no
  // candidates"). Lock-free.
  Symbol Lookup(std::string_view name) const;

  // The interned spelling of `s`. `s` must be a valid Symbol of this table.
  // Lock-free.
  std::string_view Name(Symbol s) const;

  // Number of interned names (== the smallest invalid Symbol). Lock-free.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  // The process-wide table shared by parsers, compilers and engines; its
  // Symbol 0 is the reserved kUnknownSymbol.
  static SymbolTable& Global();

 private:
  struct Node {
    std::string name;
    Symbol symbol;
  };
  // Hash-chain cell. Immutable after publication; a resize allocates fresh
  // links instead of relinking, so concurrent readers of the old generation
  // never observe a mutated `next`.
  struct Link {
    const Node* node;
    const Link* next;
  };
  struct Buckets {
    explicit Buckets(size_t count)
        : mask(count - 1), slots(new std::atomic<const Link*>[count]) {
      for (size_t i = 0; i < count; ++i) {
        slots[i].store(nullptr, std::memory_order_relaxed);
      }
    }
    size_t mask;  // count - 1; count is a power of two
    std::unique_ptr<std::atomic<const Link*>[]> slots;
  };

  // Symbol -> Node* map as a two-level chunked array so it can grow without
  // ever moving entries a reader might be loading.
  static constexpr size_t kChunkBits = 12;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kMaxChunks = size_t{1} << 12;  // 16.7M symbols

  static size_t Hash(std::string_view name) {
    return std::hash<std::string_view>{}(name);
  }

  // Probes `buckets` for `name`. Lock-free; safe on any published
  // generation.
  static Symbol Probe(const Buckets* buckets, std::string_view name);

  // Doubles the bucket array (caller holds mu_), linking every node in
  // nodes_ into a fresh generation and retiring the old one.
  void RehashLocked(size_t new_count);

  std::mutex mu_;  // serializes Intern's insert path
  std::atomic<Buckets*> buckets_;
  std::atomic<size_t> size_{0};

  // Writer-side storage; readers only ever follow stable pointers into it.
  std::deque<Node> nodes_;        // guarded by mu_; addresses stable
  std::deque<Link> links_;        // guarded by mu_; addresses stable
  std::vector<std::unique_ptr<Buckets>> retired_;  // guarded by mu_

  using Chunk = std::atomic<const Node*>;
  std::unique_ptr<std::atomic<Chunk*>[]> chunks_;
};

}  // namespace xaos::util

#endif  // XAOS_UTIL_SYMBOL_TABLE_H_
