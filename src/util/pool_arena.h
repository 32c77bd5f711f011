// A size-classed pool arena: bump allocation out of retained slabs with
// per-size free lists, so a workload that repeatedly allocates and frees
// objects of a few recurring sizes (matching structures, slot vectors,
// captures) reaches a steady state with zero heap traffic — freed blocks
// are recycled, slabs are kept for the arena's lifetime.
//
// Not thread-safe: each evaluator owns one arena shared by all of its
// engines (core/multi_engine.h) and confined to the evaluator's thread; an
// engine constructed on its own keeps a private one. Parallel-fleet shards
// are separate evaluators, so no two threads ever share an arena.
// PoolAllocator adapts the arena to the std allocator interface so it can
// back std::vector and std::allocate_shared (which preserves shared_ptr /
// weak_ptr semantics and destructor timing — the engine's undo machinery
// and byte accounting keep working unchanged on arena storage).

#ifndef XAOS_UTIL_POOL_ARENA_H_
#define XAOS_UTIL_POOL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace xaos::util {

class PoolArena {
 public:
  explicit PoolArena(size_t slab_bytes = 1 << 16) : slab_bytes_(slab_bytes) {}

  PoolArena(const PoolArena&) = delete;
  PoolArena& operator=(const PoolArena&) = delete;

  void* Allocate(size_t size) {
    size_t rounded = RoundUp(size);
    FreeNode*& head = FreeListFor(rounded);
    bytes_allocated_ += rounded;
    if (head != nullptr) {
      FreeNode* node = head;
      head = node->next;
      return node;
    }
    if (bump_left_ < rounded) NewSlab(rounded);
    char* out = bump_;
    bump_ += rounded;
    bump_left_ -= rounded;
    return out;
  }

  void Deallocate(void* p, size_t size) {
    size_t rounded = RoundUp(size);
    FreeNode*& head = FreeListFor(rounded);
    FreeNode* node = static_cast<FreeNode*>(p);
    node->next = head;
    head = node;
  }

  // Cumulative bytes served by Allocate (monotone; recycled blocks count
  // every time they are handed out). This is the per-document allocation
  // traffic the arena absorbs that would otherwise hit the heap.
  uint64_t bytes_allocated() const { return bytes_allocated_; }
  // Heap bytes actually reserved in slabs (the arena's real footprint).
  uint64_t bytes_reserved() const { return bytes_reserved_; }
  size_t slab_count() const { return slabs_.size(); }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  static constexpr size_t kAlignment = alignof(std::max_align_t);

  static size_t RoundUp(size_t n) {
    if (n < sizeof(FreeNode)) n = sizeof(FreeNode);
    return (n + kAlignment - 1) & ~(kAlignment - 1);
  }

  FreeNode*& FreeListFor(size_t rounded) {
    // A handful of distinct sizes occur in practice (one per structure
    // shape plus vector capacity doublings), so a linear scan beats a map.
    for (auto& [size, head] : classes_) {
      if (size == rounded) return head;
    }
    classes_.push_back({rounded, nullptr});
    return classes_.back().head;
  }

  void NewSlab(size_t at_least) {
    size_t size = slab_bytes_ > at_least ? slab_bytes_ : at_least;
    // Raw storage: every block is constructed before use, so skip the
    // zero-fill make_unique<char[]> would do.
    slabs_.push_back(std::make_unique_for_overwrite<char[]>(size));
    bump_ = slabs_.back().get();
    bump_left_ = size;
    bytes_reserved_ += size;
  }

  struct SizeClass {
    size_t size;
    FreeNode* head;
  };

  size_t slab_bytes_;
  std::vector<SizeClass> classes_;
  std::vector<std::unique_ptr<char[]>> slabs_;
  char* bump_ = nullptr;
  size_t bump_left_ = 0;
  uint64_t bytes_allocated_ = 0;
  uint64_t bytes_reserved_ = 0;
};

// std-allocator adapter over a PoolArena (the arena must outlive every
// container and allocate_shared control block using it).
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  explicit PoolAllocator(PoolArena* arena) : arena_(arena) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) {
    return static_cast<T*>(arena_->Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) { arena_->Deallocate(p, n * sizeof(T)); }

  PoolArena* arena() const { return arena_; }

  friend bool operator==(const PoolAllocator& a, const PoolAllocator& b) {
    return a.arena_ == b.arena_;
  }

 private:
  PoolArena* arena_;
};

// A vector whose storage lives in a PoolArena.
template <typename T>
using ArenaVector = std::vector<T, PoolAllocator<T>>;

}  // namespace xaos::util

#endif  // XAOS_UTIL_POOL_ARENA_H_
