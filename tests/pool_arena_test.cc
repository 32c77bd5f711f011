// PoolArena: size-classed recycling, and — in AddressSanitizer builds — the
// poisoning that turns a stale pointer into recycled storage into a report
// instead of a silent read.

#include "util/pool_arena.h"

#include <cstring>

#include "gtest/gtest.h"

namespace xaos {
namespace {

TEST(PoolArenaTest, RecyclesBlocksOfOneSize) {
  util::PoolArena arena(1024);
  void* a = arena.Allocate(40);
  void* b = arena.Allocate(40);
  EXPECT_NE(a, b);
  std::memset(a, 1, 40);
  arena.Deallocate(a, 40);
  // Last freed, first reused; another size class is served elsewhere.
  EXPECT_EQ(arena.Allocate(40), a);
  void* c = arena.Allocate(100);
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  EXPECT_EQ(arena.slab_count(), 1u);
  EXPECT_EQ(arena.bytes_reserved(), 1024u);
}

TEST(PoolArenaTest, LargeRequestGetsItsOwnSlab) {
  util::PoolArena arena(256);
  void* big = arena.Allocate(4096);
  std::memset(big, 0, 4096);
  EXPECT_EQ(arena.slab_count(), 1u);
  EXPECT_EQ(arena.bytes_reserved(), 4096u);
}

#ifdef XAOS_ARENA_POISON

// Reads one byte at `offset` of a block the arena has taken back.
void ReadFreedBlock(size_t offset) {
  util::PoolArena arena;
  auto* block = static_cast<volatile char*>(arena.Allocate(64));
  block[offset] = 7;
  arena.Deallocate(const_cast<char*>(block), 64);
  volatile char c = block[offset];
  (void)c;
}

TEST(PoolArenaDeathTest, ReadingAFreedBlockFaults) {
  // The free-list word and the rest of the block alike.
  EXPECT_DEATH(ReadFreedBlock(0), "use-after-poison");
  EXPECT_DEATH(ReadFreedBlock(40), "use-after-poison");
}

TEST(PoolArenaDeathTest, ReadingUnallocatedSlabSpaceFaults) {
  EXPECT_DEATH(
      {
        util::PoolArena arena;
        auto* block = static_cast<volatile char*>(arena.Allocate(16));
        volatile char c = block[64];  // past the block, never handed out
        (void)c;
      },
      "use-after-poison");
}

#else

TEST(PoolArenaDeathTest, ReadingAFreedBlockFaults) {
  GTEST_SKIP() << "poisoning is only compiled into AddressSanitizer builds";
}

#endif

}  // namespace
}  // namespace xaos
