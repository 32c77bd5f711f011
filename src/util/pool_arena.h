// A size-classed pool arena: bump allocation out of retained slabs with
// per-size free lists, so a workload that repeatedly allocates and frees
// blocks of a few recurring sizes (matching structures, their links,
// captures) reaches a steady state with zero heap traffic — freed blocks
// are recycled, slabs are kept for the arena's lifetime.
//
// Not thread-safe: each evaluator owns one arena shared by all of its
// engines (core/multi_engine.h) and confined to the evaluator's thread; an
// engine constructed on its own keeps a private one. ParallelRouter workers
// own separate evaluators, so no two threads ever share an arena. Callers
// construct objects in the raw blocks themselves (placement new) and
// return each block with its size.
//
// Under AddressSanitizer every block the arena is not lending out —
// unused slab space and freed blocks alike — is poisoned, and a block is
// unpoisoned only while allocated, so a stale pointer into recycled
// storage faults at its first access instead of reading whatever the block
// holds next. The build's sanitizer setting decides; there is no switch.

#ifndef XAOS_UTIL_POOL_ARENA_H_
#define XAOS_UTIL_POOL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define XAOS_ARENA_POISON 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define XAOS_ARENA_POISON 1
#endif
#endif

#ifdef XAOS_ARENA_POISON
#include <sanitizer/asan_interface.h>
#define XAOS_ARENA_POISON_REGION(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define XAOS_ARENA_UNPOISON_REGION(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define XAOS_ARENA_POISON_REGION(p, n) ((void)(p), (void)(n))
#define XAOS_ARENA_UNPOISON_REGION(p, n) ((void)(p), (void)(n))
#endif

namespace xaos::util {

class PoolArena {
 public:
  explicit PoolArena(size_t slab_bytes = 1 << 16) : slab_bytes_(slab_bytes) {}

  PoolArena(const PoolArena&) = delete;
  PoolArena& operator=(const PoolArena&) = delete;
  ~PoolArena() {
    // Slabs go back to the heap readable.
    for (const Slab& slab : slabs_) {
      XAOS_ARENA_UNPOISON_REGION(slab.bytes.get(), slab.size);
    }
  }

  void* Allocate(size_t size) {
    size_t rounded = RoundUp(size);
    FreeNode*& head = FreeListFor(rounded);
    bytes_allocated_ += rounded;
    if (head != nullptr) {
      FreeNode* node = head;
      XAOS_ARENA_UNPOISON_REGION(node, rounded);
      head = node->next;
      return node;
    }
    if (bump_left_ < rounded) NewSlab(rounded);
    char* out = bump_;
    bump_ += rounded;
    bump_left_ -= rounded;
    XAOS_ARENA_UNPOISON_REGION(out, rounded);
    return out;
  }

  // Returns a block from Allocate(size); it must not be touched afterwards.
  void Deallocate(void* p, size_t size) {
    size_t rounded = RoundUp(size);
    FreeNode*& head = FreeListFor(rounded);
    FreeNode* node = static_cast<FreeNode*>(p);
    node->next = head;
    head = node;
    XAOS_ARENA_POISON_REGION(node, rounded);
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
  static constexpr size_t kSmallMax = 512;

  static size_t RoundUp(size_t n) {
    if (n < sizeof(FreeNode)) n = sizeof(FreeNode);
    return (n + kAlignment - 1) & ~(kAlignment - 1);
  }

  FreeNode*& FreeListFor(size_t rounded) {
    // Structures, links and captures are small: their lists are indexed
    // directly. Larger sizes are rare, so a linear scan beats a map.
    if (rounded <= kSmallMax) return small_[rounded / kAlignment];
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
    slabs_.push_back(Slab{std::make_unique_for_overwrite<char[]>(size), size});
    bump_ = slabs_.back().bytes.get();
    XAOS_ARENA_POISON_REGION(bump_, size);
    bump_left_ = size;
    bytes_reserved_ += size;
  }

  struct SizeClass {
    size_t size;
    FreeNode* head;
  };
  struct Slab {
    std::unique_ptr<char[]> bytes;
    size_t size;
  };

  size_t slab_bytes_;
  FreeNode* small_[kSmallMax / kAlignment + 1] = {};  // by size / kAlignment
  std::vector<SizeClass> classes_;                    // larger sizes
  std::vector<Slab> slabs_;
  char* bump_ = nullptr;
  size_t bump_left_ = 0;
  uint64_t bytes_allocated_ = 0;
  uint64_t bytes_reserved_ = 0;
};

}  // namespace xaos::util

#endif  // XAOS_UTIL_POOL_ARENA_H_
