#include "index/posting_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"

namespace ncps {
namespace {

std::vector<std::uint32_t> contents(const PostingList& list) {
  std::vector<std::uint32_t> out;
  list.for_each([&](std::uint32_t v) { out.push_back(v); });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PostingListTest, SixteenBytesWithTwoIdsInline) {
  // The paper workload is dominated by singleton lists; the representation
  // contract is two ids with zero heap.
  static_assert(sizeof(PostingList) == 16);
  PostingList list;
  list.add(7);
  list.add(3);
  EXPECT_EQ(list.memory_bytes(), 0u);
  EXPECT_EQ(contents(list), (std::vector<std::uint32_t>{3, 7}));
}

TEST(PostingListTest, InlineAddRemove) {
  PostingList list;
  EXPECT_TRUE(list.empty());
  list.add(5);
  list.add(9);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_TRUE(list.contains(5));
  EXPECT_FALSE(list.contains(6));
  EXPECT_FALSE(list.remove(6));
  EXPECT_TRUE(list.remove(5));
  EXPECT_EQ(contents(list), (std::vector<std::uint32_t>{9}));
  EXPECT_TRUE(list.remove(9));
  EXPECT_TRUE(list.empty());
}

TEST(PostingListTest, SpillAndCollapse) {
  PostingList list;
  for (std::uint32_t i = 0; i < 10; ++i) list.add(i * 3);
  EXPECT_EQ(list.size(), 10u);
  EXPECT_GT(list.memory_bytes(), 0u);  // spilled
  for (std::uint32_t i = 9; i >= 2; --i) EXPECT_TRUE(list.remove(i * 3));
  // Back to <= 2 live ids: the heap Rep is gone.
  EXPECT_EQ(list.memory_bytes(), 0u);
  EXPECT_EQ(contents(list), (std::vector<std::uint32_t>{0, 3}));
}

TEST(PostingListTest, CompactedDecodeMatchesAndShrinks) {
  PostingList list;
  // Dense ascending ids exercise the SWAR one-byte-delta fast path; the
  // stride-300 section forces multi-byte varints.
  std::vector<std::uint32_t> expected;
  for (std::uint32_t i = 0; i < 500; ++i) {
    list.add(i);
    expected.push_back(i);
  }
  for (std::uint32_t i = 0; i < 100; ++i) {
    list.add(1000 + i * 300);
    expected.push_back(1000 + i * 300);
  }
  list.compact();
  EXPECT_EQ(contents(list), expected);
  // Compressed resident bytes beat the vector representation.
  list.shrink_to_fit();
  EXPECT_LT(sizeof(PostingList) + list.memory_bytes(),
            PostingList::uncompressed_bytes(list.size()));
}

TEST(PostingListTest, TombstonesSuppressedOnDecode) {
  PostingList list;
  for (std::uint32_t i = 0; i < 200; ++i) list.add(i * 2);
  list.compact();
  EXPECT_TRUE(list.remove(100));
  EXPECT_FALSE(list.remove(100));  // already tombstoned
  EXPECT_FALSE(list.contains(100));
  EXPECT_EQ(list.size(), 199u);
  std::vector<std::uint32_t> got = contents(list);
  EXPECT_EQ(got.size(), 199u);
  EXPECT_FALSE(std::binary_search(got.begin(), got.end(), 100u));
}

TEST(PostingListTest, AppendToEmitsPredicateIds) {
  PostingList list;
  list.add(4);
  list.add(1);
  std::vector<PredicateId> out;
  list.append_to(out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector{PredicateId(1), PredicateId(4)}));
}

TEST(PostingListTest, RandomizedChurnAgainstStdSet) {
  Pcg32 rng(77);
  PostingList list;
  std::set<std::uint32_t> reference;
  for (int round = 0; round < 20000; ++round) {
    const std::uint32_t id = rng.bounded(4000);
    if (reference.contains(id)) {
      EXPECT_TRUE(list.remove(id));
      reference.erase(id);
    } else if (rng.chance(0.7)) {
      list.add(id);
      reference.insert(id);
    } else {
      EXPECT_FALSE(list.remove(id));
      EXPECT_FALSE(list.contains(id));
    }
    if (round % 500 == 0) {
      EXPECT_EQ(contents(list),
                std::vector<std::uint32_t>(reference.begin(), reference.end()))
          << "round " << round;
      EXPECT_EQ(list.size(), reference.size());
    }
    if (round % 3777 == 0) list.compact();
  }
  EXPECT_EQ(contents(list),
            std::vector<std::uint32_t>(reference.begin(), reference.end()));
}

TEST(PostingListTest, MoveTransfersOwnership) {
  PostingList a;
  for (std::uint32_t i = 0; i < 50; ++i) a.add(i);
  PostingList b(std::move(a));
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
  EXPECT_EQ(b.size(), 50u);
  PostingList c;
  c.add(9);
  c = std::move(b);
  EXPECT_EQ(c.size(), 50u);
}

TEST(PostingListTest, StatsObserveAccumulates) {
  PostingList singleton;
  singleton.add(1);
  PostingList big;
  for (std::uint32_t i = 0; i < 1000; ++i) big.add(i);
  big.shrink_to_fit();
  PostingList::Stats stats;
  stats.observe(singleton);
  stats.observe(big);
  EXPECT_EQ(stats.lists, 2u);
  EXPECT_EQ(stats.entries, 1001u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_LT(stats.bytes, stats.baseline_bytes);
}

}  // namespace
}  // namespace ncps
