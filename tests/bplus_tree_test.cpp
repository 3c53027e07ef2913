#include "index/bplus_tree.h"

#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace ncps {
namespace {

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree<int, int> tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.find(1), nullptr);
  EXPECT_EQ(tree.begin(), tree.end());
  EXPECT_TRUE(tree.validate());
  EXPECT_FALSE(tree.erase(1));
}

TEST(BPlusTreeTest, SingleInsertFind) {
  BPlusTree<int, int> tree;
  const auto [slot, inserted] = tree.try_emplace(5, 50);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*slot, 50);
  ASSERT_NE(tree.find(5), nullptr);
  EXPECT_EQ(*tree.find(5), 50);
  EXPECT_EQ(tree.find(4), nullptr);
  EXPECT_TRUE(tree.validate());
}

TEST(BPlusTreeTest, DuplicateInsertReturnsExistingSlot) {
  BPlusTree<int, int> tree;
  tree.try_emplace(5, 50);
  const auto [slot, inserted] = tree.try_emplace(5, 99);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*slot, 50);  // original value kept
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BPlusTreeTest, SequentialInsertAscending) {
  BPlusTree<int, int, std::less<int>, 8> tree;
  for (int i = 0; i < 1000; ++i) {
    tree.try_emplace(i, i * 10);
  }
  EXPECT_EQ(tree.size(), 1000u);
  ASSERT_TRUE(tree.validate());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_NE(tree.find(i), nullptr) << i;
    EXPECT_EQ(*tree.find(i), i * 10);
  }
}

TEST(BPlusTreeTest, SequentialInsertDescending) {
  BPlusTree<int, int, std::less<int>, 8> tree;
  for (int i = 999; i >= 0; --i) {
    tree.try_emplace(i, i);
  }
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_TRUE(tree.validate());
  int expected = 0;
  for (auto it = tree.begin(); it != tree.end(); ++it) {
    EXPECT_EQ(it.key(), expected++);
  }
  EXPECT_EQ(expected, 1000);
}

TEST(BPlusTreeTest, IterationIsSorted) {
  BPlusTree<int, int, std::less<int>, 4> tree;
  Pcg32 rng(11);
  std::set<int> reference;
  for (int i = 0; i < 500; ++i) {
    const int k = static_cast<int>(rng.bounded(10000));
    tree.try_emplace(k, k);
    reference.insert(k);
  }
  auto expected = reference.begin();
  for (auto it = tree.begin(); it != tree.end(); ++it, ++expected) {
    ASSERT_NE(expected, reference.end());
    EXPECT_EQ(it.key(), *expected);
  }
  EXPECT_EQ(expected, reference.end());
}

TEST(BPlusTreeTest, LowerAndUpperBound) {
  BPlusTree<int, int, std::less<int>, 4> tree;
  for (int i = 0; i < 100; i += 10) {
    tree.try_emplace(i, i);  // 0, 10, ..., 90
  }
  EXPECT_EQ(tree.lower_bound(0).key(), 0);
  EXPECT_EQ(tree.lower_bound(1).key(), 10);
  EXPECT_EQ(tree.lower_bound(10).key(), 10);
  EXPECT_EQ(tree.lower_bound(89).key(), 90);
  EXPECT_EQ(tree.lower_bound(90).key(), 90);
  EXPECT_EQ(tree.lower_bound(91), tree.end());
  EXPECT_EQ(tree.upper_bound(10).key(), 20);
  EXPECT_EQ(tree.upper_bound(89).key(), 90);
  EXPECT_EQ(tree.upper_bound(90), tree.end());
}

TEST(BPlusTreeTest, RangeScan) {
  BPlusTree<int, int, std::less<int>, 4> tree;
  for (int i = 0; i < 50; ++i) tree.try_emplace(i, i * 2);
  const auto scan = [&tree](auto first, auto last) {
    std::vector<int> seen;
    tree.for_each_span(first, last, [&](std::span<const int> values) {
      EXPECT_FALSE(values.empty());
      EXPECT_LE(values.size(), 4u);  // one leaf at a time
      seen.insert(seen.end(), values.begin(), values.end());
    });
    return seen;
  };
  std::vector<int> expected;
  for (int i = 10; i <= 20; ++i) expected.push_back(i * 2);
  EXPECT_EQ(scan(tree.lower_bound(10), tree.upper_bound(20)), expected);
  EXPECT_EQ(scan(tree.begin(), tree.end()).size(), 50u);
  EXPECT_EQ(scan(tree.lower_bound(49), tree.end()), std::vector{98});
  EXPECT_TRUE(scan(tree.lower_bound(7), tree.lower_bound(7)).empty());
  EXPECT_TRUE(scan(tree.end(), tree.end()).empty());
}

TEST(BPlusTreeTest, EraseLeafSimple) {
  BPlusTree<int, int> tree;
  tree.try_emplace(1, 1);
  tree.try_emplace(2, 2);
  EXPECT_TRUE(tree.erase(1));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.find(1), nullptr);
  EXPECT_NE(tree.find(2), nullptr);
  EXPECT_TRUE(tree.erase(2));
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.validate());
}

TEST(BPlusTreeTest, EraseEverythingAscending) {
  BPlusTree<int, int, std::less<int>, 4> tree;
  for (int i = 0; i < 300; ++i) tree.try_emplace(i, i);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree.erase(i)) << i;
    ASSERT_TRUE(tree.validate()) << "after erasing " << i;
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.node_count(), 0u);
}

TEST(BPlusTreeTest, EraseEverythingDescending) {
  BPlusTree<int, int, std::less<int>, 4> tree;
  for (int i = 0; i < 300; ++i) tree.try_emplace(i, i);
  for (int i = 299; i >= 0; --i) {
    ASSERT_TRUE(tree.erase(i)) << i;
    ASSERT_TRUE(tree.validate()) << "after erasing " << i;
  }
  EXPECT_TRUE(tree.empty());
}

TEST(BPlusTreeTest, MoveConstruction) {
  BPlusTree<int, int> a;
  for (int i = 0; i < 100; ++i) a.try_emplace(i, i);
  BPlusTree<int, int> b = std::move(a);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_TRUE(b.validate());
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): documented
  for (int i = 0; i < 100; ++i) ASSERT_NE(b.find(i), nullptr);
}

TEST(BPlusTreeTest, MemoryBytesTracksNodes) {
  BPlusTree<int, int, std::less<int>, 4> tree;
  EXPECT_EQ(tree.memory_bytes(), 0u);
  for (int i = 0; i < 100; ++i) tree.try_emplace(i, i);
  const std::size_t full = tree.memory_bytes();
  EXPECT_GT(full, 0u);
  EXPECT_GT(tree.node_count(), 1u);
  for (int i = 0; i < 100; ++i) tree.erase(i);
  EXPECT_EQ(tree.memory_bytes(), 0u);
}

TEST(BPlusTreeTest, NonTrivialValueType) {
  BPlusTree<int, std::vector<int>, std::less<int>, 4> tree;
  for (int i = 0; i < 200; ++i) {
    tree.try_emplace(i).first->push_back(i);
    tree.try_emplace(i).first->push_back(i + 1000);
  }
  EXPECT_TRUE(tree.validate());
  for (int i = 0; i < 200; ++i) {
    auto* v = tree.find(i);
    ASSERT_NE(v, nullptr);
    ASSERT_EQ(v->size(), 2u);
    EXPECT_EQ((*v)[0], i);
    EXPECT_EQ((*v)[1], i + 1000);
  }
}

TEST(BPlusTreeTest, DoubleKeys) {
  BPlusTree<double, int> tree;
  tree.try_emplace(1.5, 1);
  tree.try_emplace(-0.5, 2);
  tree.try_emplace(3.25, 3);
  EXPECT_EQ(tree.lower_bound(0.0).key(), 1.5);
  EXPECT_EQ(tree.lower_bound(-1.0).key(), -0.5);
  EXPECT_EQ(*tree.find(3.25), 3);
}

// Randomized differential test against std::map, across several orders and
// operation mixes.
struct FuzzParams {
  std::uint64_t seed;
  int operations;
  int key_range;
};

class BPlusTreeFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(BPlusTreeFuzzTest, MatchesStdMap) {
  const FuzzParams params = GetParam();
  BPlusTree<int, int, std::less<int>, 4> tree;
  std::map<int, int> reference;
  Pcg32 rng(params.seed);

  for (int op = 0; op < params.operations; ++op) {
    const int key = static_cast<int>(
        rng.bounded(static_cast<std::uint32_t>(params.key_range)));
    switch (rng.bounded(4)) {
      case 0:
      case 1: {  // insert
        const auto [slot, inserted] = tree.try_emplace(key, op);
        const auto [it, ref_inserted] = reference.try_emplace(key, op);
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(*slot, it->second);
        break;
      }
      case 2: {  // erase
        ASSERT_EQ(tree.erase(key), reference.erase(key) > 0);
        break;
      }
      case 3: {  // lookup + lower_bound
        const int* found = tree.find(key);
        const auto ref = reference.find(key);
        if (ref == reference.end()) {
          ASSERT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          ASSERT_EQ(*found, ref->second);
        }
        const auto lb = tree.lower_bound(key);
        const auto ref_lb = reference.lower_bound(key);
        if (ref_lb == reference.end()) {
          ASSERT_EQ(lb, tree.end());
        } else {
          ASSERT_NE(lb, tree.end());
          ASSERT_EQ(lb.key(), ref_lb->first);
        }
        break;
      }
      default:
        break;
    }
    if (op % 64 == 0) {
      ASSERT_TRUE(tree.validate()) << "op " << op;
      ASSERT_EQ(tree.size(), reference.size());
    }
  }

  ASSERT_TRUE(tree.validate());
  ASSERT_EQ(tree.size(), reference.size());
  auto ref_it = reference.begin();
  for (auto it = tree.begin(); it != tree.end(); ++it, ++ref_it) {
    ASSERT_EQ(it.key(), ref_it->first);
    ASSERT_EQ(it.value(), ref_it->second);
  }

  // Leaf spans between two bounds carry exactly the values in key order.
  for (int probe = 0; probe < 50; ++probe) {
    int lo = static_cast<int>(
        rng.bounded(static_cast<std::uint32_t>(params.key_range)));
    int hi = static_cast<int>(
        rng.bounded(static_cast<std::uint32_t>(params.key_range)));
    if (hi < lo) std::swap(lo, hi);
    std::vector<int> spans;
    tree.for_each_span(tree.lower_bound(lo), tree.lower_bound(hi),
                       [&](std::span<const int> values) {
                         spans.insert(spans.end(), values.begin(),
                                      values.end());
                       });
    std::vector<int> expected;
    for (auto it = reference.lower_bound(lo); it != reference.lower_bound(hi);
         ++it) {
      expected.push_back(it->second);
    }
    ASSERT_EQ(spans, expected) << "[" << lo << ", " << hi << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, BPlusTreeFuzzTest,
    ::testing::Values(FuzzParams{1, 4000, 64},     // heavy collisions
                      FuzzParams{2, 4000, 100000},  // sparse keys
                      FuzzParams{3, 8000, 512},
                      FuzzParams{4, 8000, 4096},
                      FuzzParams{5, 2000, 16}));    // tiny key space, churn

// The same differential test at the production order (32).
TEST(BPlusTreeFuzzTest, MatchesStdMapAtProductionOrder) {
  BPlusTree<int, int> tree;
  std::map<int, int> reference;
  Pcg32 rng(77);
  for (int op = 0; op < 20000; ++op) {
    const int key = static_cast<int>(rng.bounded(5000));
    if (rng.chance(0.6)) {
      tree.try_emplace(key, op);
      reference.try_emplace(key, op);
    } else {
      ASSERT_EQ(tree.erase(key), reference.erase(key) > 0);
    }
  }
  ASSERT_TRUE(tree.validate());
  ASSERT_EQ(tree.size(), reference.size());
}

}  // namespace
}  // namespace ncps
