// The compile table behind core::Query::Compile: every live handle compiled
// from the same (expression, max_paths) shares one compiled form, failures
// are never remembered, the table holds nothing once the handles are
// dropped, and concurrent compiles of the same text agree.

#include <malloc.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/multi_engine.h"
#include "gen/random_workload.h"
#include "gtest/gtest.h"
#include "query/xtree_builder.h"
#include "xpath/ast.h"

namespace xaos {
namespace {

std::string Trees(const core::Query& query) {
  std::string out;
  for (const query::XTree& tree : query.trees()) {
    if (!out.empty()) out += " ; ";
    out += tree.ToString();
  }
  return out;
}

// Heap bytes in use (glibc), as perfbench measures them.
int64_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

std::vector<std::string> RandomExpressions(size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> expressions;
  for (size_t i = 0; i < count; ++i) {
    gen::RandomQueryOptions options;
    options.node_tests = 1 + static_cast<int>(i % 9);
    options.alphabet = 4 + static_cast<int>(i % 5);
    options.allow_backward = i % 3 != 0;
    options.allow_siblings = i % 4 == 1;
    expressions.push_back(
        xpath::ToString(gen::GenerateRandomPath(options, rng)));
  }
  return expressions;
}

TEST(CompileTableTest, RepeatCompilesShareOneTreeVector) {
  StatusOr<core::Query> a = core::Query::Compile("//a[b]/c");
  StatusOr<core::Query> b = core::Query::Compile("//a[b]/c");
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(&a->trees(), &b->trees());
  EXPECT_EQ(a->expression(), "//a[b]/c");

  StatusOr<core::Query> other = core::Query::Compile("//a[b]/d");
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_NE(&a->trees(), &other->trees());
}

TEST(CompileTableTest, FromTreesNeverShares) {
  StatusOr<core::Query> compiled = core::Query::Compile("/a/b");
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  core::Query wrapped = core::Query::FromTrees(
      std::vector<query::XTree>(compiled->trees()), "/a/b");
  EXPECT_NE(&wrapped.trees(), &compiled->trees());
  StatusOr<core::Query> again = core::Query::Compile("/a/b");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(&again->trees(), &compiled->trees());
}

TEST(CompileTableTest, MaxPathsIsPartOfTheKey) {
  StatusOr<core::Query> narrow = core::Query::Compile("a|b|c", 2);
  ASSERT_FALSE(narrow.ok());
  const std::string rejection = narrow.status().ToString();

  StatusOr<core::Query> wide = core::Query::Compile("a|b|c", 64);
  ASSERT_TRUE(wide.ok()) << wide.status();
  EXPECT_EQ(wide->trees().size(), 3u);

  // The live compile at 64 does not answer for a limit it would break.
  StatusOr<core::Query> narrow_again = core::Query::Compile("a|b|c", 2);
  ASSERT_FALSE(narrow_again.ok());
  EXPECT_EQ(narrow_again.status().ToString(), rejection);

  StatusOr<core::Query> exact = core::Query::Compile("a|b|c", 3);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_NE(&exact->trees(), &wide->trees());
  EXPECT_EQ(Trees(*exact), Trees(*wide));
}

TEST(CompileTableTest, FailuresAreNotRemembered) {
  for (const char* bad : {"//a[", "/a/@", "//a[b or", ""}) {
    StatusOr<core::Query> first = core::Query::Compile(bad);
    StatusOr<core::Query> second = core::Query::Compile(bad);
    ASSERT_FALSE(first.ok()) << bad;
    ASSERT_FALSE(second.ok()) << bad;
    EXPECT_EQ(first.status().code(), second.status().code()) << bad;
    EXPECT_EQ(first.status().ToString(), second.status().ToString()) << bad;
  }
}

// Heap growth across `work`, run on a thread of its own: glibc's
// per-thread cache keeps recently freed chunks, which mallinfo2 counts as
// in use, and a thread's exit hands them back to the arena.
template <typename Work>
int64_t HeapGrowthAcross(Work work) {
  const int64_t before = HeapInUse();
  std::thread(work).join();
  return HeapInUse() - before;
}

// Dropping every handle frees the compiled forms, their table entries and
// the table's bucket array. The expressions' names are interned first,
// through the compiler itself: the global symbol table keeps them by
// design.
TEST(CompileTableTest, DroppedHandlesReturnTheirMemory) {
  const std::vector<std::string> expressions =
      RandomExpressions(2000, 0x7461626c65ull);
  HeapGrowthAcross([&] {
    for (const std::string& text : expressions) {
      EXPECT_TRUE(query::CompileToXTrees(text).ok()) << text;
    }
  });
  auto compile_all = [](const std::vector<std::string>& texts) {
    std::vector<core::Query> queries;
    queries.reserve(texts.size());
    for (const std::string& text : texts) {
      StatusOr<core::Query> query = core::Query::Compile(text);
      EXPECT_TRUE(query.ok()) << text << ": " << query.status();
      if (query.ok()) queries.push_back(std::move(*query));
    }
    return queries;
  };

  int64_t held = 0;
  const int64_t distinct = HeapGrowthAcross([&] {
    const int64_t before = HeapInUse();
    std::vector<core::Query> queries = compile_all(expressions);
    held = HeapInUse() - before;
  });
  // A sanitizer's allocator bypasses the arena mallinfo2 reports on.
  if (held == 0) GTEST_SKIP() << "mallinfo2 does not see this allocator";
  EXPECT_GT(held, int64_t{100} * 1000);
  EXPECT_LT(std::abs(distinct), 1024) << "distinct: " << distinct;

  const std::vector<std::string> copies(1000, expressions.front());
  const int64_t repeated = HeapGrowthAcross([&] {
    std::vector<core::Query> queries = compile_all(copies);
    for (const core::Query& query : queries) {
      EXPECT_EQ(&query.trees(), &queries.front().trees());
    }
  });
  EXPECT_LT(std::abs(repeated), 1024) << "copies: " << repeated;
}

// Four threads compile, check and drop the same expressions over and over,
// so misses, hits and forms dying mid-lookup interleave.
TEST(CompileTableTest, ConcurrentCompilesAgreeWithOneThread) {
  const std::vector<std::string> expressions =
      RandomExpressions(50, 0x636f6e63ull);
  std::vector<std::string> reference;
  for (const std::string& text : expressions) {
    StatusOr<core::Query> query = core::Query::Compile(text);
    ASSERT_TRUE(query.ok()) << text << ": " << query.status();
    reference.push_back(Trees(*query));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Every other round keeps its handles until the round ends, so
        // other threads also see hits.
        std::vector<core::Query> kept;
        for (size_t i = 0; i < expressions.size(); ++i) {
          const size_t e =
              (i + static_cast<size_t>(t) * 13) % expressions.size();
          StatusOr<core::Query> query = core::Query::Compile(expressions[e]);
          if (!query.ok() || Trees(*query) != reference[e] ||
              query->expression() != expressions[e]) {
            ++mismatches[t];
          } else if (round % 2 == 0) {
            kept.push_back(std::move(*query));
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace xaos
