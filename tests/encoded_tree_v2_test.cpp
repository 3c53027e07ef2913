#include "subscription/encoded_tree_v2.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/non_canonical_tree_engine.h"
#include "subscription/parser.h"
#include "test_util.h"
#include "workload/random_workload.h"

namespace ncps {
namespace {

class EncodedTreeV2Test : public ::testing::Test {
 protected:
  ast::Expr parse(std::string_view text) {
    return parse_subscription(text, attrs_, table_);
  }

  static std::vector<std::byte> encode(const ast::Node& node,
                                       ReorderPolicy policy =
                                           ReorderPolicy::kNone) {
    std::vector<std::byte> out;
    encode_tree_v2(node, out, policy);
    return out;
  }

  AttributeRegistry attrs_;
  PredicateTable table_;
};

TEST_F(EncodedTreeV2Test, SmallLeafIsOneByte) {
  const ast::NodePtr n = ast::leaf(PredicateId(5));  // (5<<2)|0 = 22 < 128
  EXPECT_EQ(encode(*n).size(), 1u);
  EXPECT_EQ(encoded_size_v2(*n), 1u);
}

TEST_F(EncodedTreeV2Test, LargeLeafUsesVarintWidth) {
  const ast::NodePtr n = ast::leaf(PredicateId(1u << 30));
  const auto bytes = encode(*n);
  EXPECT_EQ(bytes.size(), 5u);  // 32-bit payload: 5 varint bytes
  const ast::NodePtr back = decode_tree_v2(bytes);
  EXPECT_EQ(back->pred.value(), 1u << 30);
}

TEST_F(EncodedTreeV2Test, SmallerThanV1OnPaperTrees) {
  const ast::Expr e = parse(
      "(a > 10 or a <= 5 or b == 1) and (c <= 20 or c == 30 or d == 5)");
  std::vector<std::byte> v1;
  encode_tree(e.root(), v1);
  const auto v2 = encode(e.root());
  EXPECT_EQ(v1.size(), 46u);
  EXPECT_LT(v2.size(), v1.size() / 2 + 3)
      << "v2 should roughly halve the paper's encoding at small ids";
}

TEST_F(EncodedTreeV2Test, SizeMatchesEncodeOutput) {
  const char* cases[] = {
      "a == 1",
      "not a == 1",
      "a == 1 and b == 2 and c == 3",
      "(a == 1 or b == 2) and not (c == 3 and d == 4)",
  };
  for (const char* text : cases) {
    const ast::Expr e = parse(text);
    EXPECT_EQ(encoded_size_v2(e.root()), encode(e.root()).size()) << text;
  }
}

// ---- varint boundary cases -------------------------------------------------
//
// The v2 layout spends varints on three kinds of field: the node header
// (tag | payload << 2, so leaf predicate ids and child counts shift by 2)
// and the per-child width prefixes. Each widens at payload 2^7, 2^14, …;
// these tests pin the exact crossover trees round-trip and match-diff
// against v1.

/// OR of `leaves` wide leaves, each with a 5-byte (large-id) encoding —
/// child width and node count scale with `leaves`.
ast::NodePtr wide_or(std::size_t leaves, std::uint32_t first_id) {
  std::vector<ast::NodePtr> kids;
  kids.reserve(leaves);
  for (std::size_t i = 0; i < leaves; ++i) {
    kids.push_back(
        ast::leaf(PredicateId(first_id + static_cast<std::uint32_t>(i))));
  }
  return ast::make_or(std::move(kids));
}

TEST_F(EncodedTreeV2Test, LeafHeaderWidthBoundaries) {
  // Header = (id << 2) | tag: one byte holds ids < 32, two bytes < 4096.
  const std::pair<std::uint32_t, std::size_t> cases[] = {
      {31u, 1u},           // last 1-byte header
      {32u, 2u},           // first 2-byte header
      {(1u << 12) - 1, 2u},  // last 2-byte header
      {1u << 12, 3u},      // first 3-byte header
  };
  for (const auto& [id, expected_bytes] : cases) {
    const ast::NodePtr n = ast::leaf(PredicateId(id));
    const auto bytes = encode(*n);
    EXPECT_EQ(bytes.size(), expected_bytes) << "id " << id;
    EXPECT_EQ(encoded_size_v2(*n), expected_bytes) << "id " << id;
    const ast::NodePtr back = decode_tree_v2(bytes);
    EXPECT_TRUE(ast::equal(*n, *back)) << "id " << id;
  }
}

TEST_F(EncodedTreeV2Test, ChildCountHeaderBoundary) {
  // AND/OR header payload is the child count: 31 children fit one header
  // byte ((31 << 2) | tag < 128), 32 need two.
  const ast::NodePtr narrow = wide_or(31, 0);
  const ast::NodePtr wide = wide_or(32, 0);
  // Small ids: every child is 1 byte + 1-byte width prefix.
  EXPECT_EQ(encode(*narrow).size(), 1u + 31u * 2u);
  EXPECT_EQ(encode(*wide).size(), 2u + 32u * 2u);
  for (const ast::Node* n : {narrow.get(), wide.get()}) {
    const auto bytes = encode(*n);
    EXPECT_TRUE(ast::equal(*n, *decode_tree_v2(bytes)));
  }
}

TEST_F(EncodedTreeV2Test, ChildWidthVarintBoundariesRoundTripAndMatchV1) {
  // Subtree widths straddling the 1→2-byte (128) and 2→3-byte (16384)
  // width-prefix boundaries, built from 5-byte leaves (id = 2^30 + i):
  // 20 leaves ⇒ OR width 121 (1-byte prefix), 25 ⇒ 151 (2-byte),
  // 2720 ⇒ 16324 (2-byte), 2750 ⇒ 16502 (3-byte).
  Pcg32 rng(29);
  for (const std::size_t inner_leaves : {20u, 25u, 2720u, 2750u}) {
    // Root: AND(wide-OR, small leaf) so the OR is width-prefixed.
    std::vector<ast::NodePtr> kids;
    kids.push_back(wide_or(inner_leaves, 1u << 30));
    kids.push_back(ast::leaf(PredicateId(7)));
    const ast::NodePtr root = ast::make_and(std::move(kids));

    const auto v2 = encode(*root);
    const ast::NodePtr decoded = decode_tree_v2(v2);
    ASSERT_TRUE(ast::equal(*root, *decoded)) << inner_leaves << " leaves";

    std::vector<std::byte> v1;
    if (inner_leaves <= 255) {  // v1 caps children at one byte
      encode_tree(*root, v1);
    }
    for (int round = 0; round < 8; ++round) {
      const std::uint64_t salt = rng.next64();
      const auto truth = [salt](PredicateId id) {
        return ((id.value() * 0x9e3779b9u) ^ salt) % 3 == 0;
      };
      const bool expected = ast::evaluate(*root, truth);
      EXPECT_EQ(evaluate_encoded_v2(v2, truth), expected)
          << inner_leaves << " leaves, round " << round;
      if (!v1.empty()) {
        EXPECT_EQ(evaluate_encoded(v1, truth), expected)
            << inner_leaves << " leaves, round " << round;
      }
    }
  }
}

TEST_F(EncodedTreeV2Test, NodeCountAtTwoByteOffsetsRoundTrips) {
  // A tree whose encoded size crosses 2^14 exercises deep skip offsets:
  // nested ANDs of wide ORs, then a random truth differential against v1.
  std::vector<ast::NodePtr> groups;
  for (int g = 0; g < 24; ++g) {
    groups.push_back(wide_or(120, static_cast<std::uint32_t>(g) * 256));
  }
  const ast::NodePtr root = ast::make_and(std::move(groups));
  const auto v2 = encode(*root);
  EXPECT_GT(v2.size(), std::size_t{1} << 13);
  std::vector<std::byte> v1;
  encode_tree(*root, v1);
  EXPECT_TRUE(ast::equal(*root, *decode_tree_v2(v2)));
  Pcg32 rng(31);
  for (int round = 0; round < 8; ++round) {
    const std::uint64_t salt = rng.next64();
    const auto truth = [salt](PredicateId id) {
      return ((id.value() * 0x85ebca6bu) ^ salt) % 2 == 0;
    };
    EXPECT_EQ(evaluate_encoded_v2(v2, truth), evaluate_encoded(v1, truth))
        << "round " << round;
  }
}

TEST_F(EncodedTreeV2Test, DecodeRoundTripOnRandomTrees) {
  RandomWorkloadConfig config;
  config.seed = 91;
  RandomWorkload workload(config, attrs_, table_);
  for (int i = 0; i < 200; ++i) {
    const ast::Expr expr = workload.next_subscription();
    const auto bytes = encode(expr.root());
    const ast::NodePtr decoded = decode_tree_v2(bytes);
    EXPECT_TRUE(ast::equal(expr.root(), *decoded)) << "iteration " << i;
  }
}

TEST_F(EncodedTreeV2Test, EvaluationAgreesWithV1AndAst) {
  RandomWorkloadConfig config;
  config.seed = 92;
  RandomWorkload workload(config, attrs_, table_);
  Pcg32 rng(17);
  for (int i = 0; i < 300; ++i) {
    const ast::Expr expr = workload.next_subscription();
    std::vector<std::byte> v1;
    encode_tree(expr.root(), v1);
    const auto v2 = encode(expr.root());
    const std::uint64_t salt = rng.next64();
    const auto truth = [salt](PredicateId id) {
      return ((id.value() * 0x9e3779b9u) ^ salt) % 3 == 0;
    };
    const bool expected = ast::evaluate(expr.root(), truth);
    EXPECT_EQ(evaluate_encoded(v1, truth), expected) << i;
    EXPECT_EQ(evaluate_encoded_v2(v2, truth), expected) << i;
  }
}

TEST_F(EncodedTreeV2Test, ShortCircuitSkipsSubtrees) {
  const ast::Expr e = parse("a == 1 and (b == 2 or c == 3 or d == 4)");
  const auto bytes = encode(e.root());
  int lookups = 0;
  const auto truth = [&lookups](PredicateId) {
    ++lookups;
    return false;
  };
  EXPECT_FALSE(evaluate_encoded_v2(bytes, truth));
  EXPECT_EQ(lookups, 1);  // only 'a == 1'
}

TEST_F(EncodedTreeV2Test, ReorderPolicyPreservesSemantics) {
  RandomWorkloadConfig config;
  config.seed = 93;
  RandomWorkload workload(config, attrs_, table_);
  Pcg32 rng(18);
  for (int i = 0; i < 150; ++i) {
    const ast::Expr expr = workload.next_subscription();
    const auto plain = encode(expr.root(), ReorderPolicy::kNone);
    const auto reordered = encode(expr.root(), ReorderPolicy::kCheapestFirst);
    const std::uint64_t salt = rng.next64();
    const auto truth = [salt](PredicateId id) {
      return ((id.value() * 0x85ebca6bu) ^ salt) % 2 == 0;
    };
    EXPECT_EQ(evaluate_encoded_v2(plain, truth),
              evaluate_encoded_v2(reordered, truth))
        << i;
  }
}

TEST_F(EncodedTreeV2Test, EngineWithV2MatchesEngineWithV1) {
  RandomWorkloadConfig config;
  config.rich_operators = false;
  config.not_probability = 0.2;
  config.seed = 94;
  RandomWorkload workload(config, attrs_, table_);
  NonCanonicalTreeEngine v1_engine(table_);
  NonCanonicalTreeEngine v2_engine(table_, TreeEncoding::kV2Varint);
  std::vector<ast::Expr> exprs;
  for (int i = 0; i < 150; ++i) {
    exprs.push_back(workload.next_subscription());
    const SubscriptionId a = v1_engine.add(exprs.back().root());
    const SubscriptionId b = v2_engine.add(exprs.back().root());
    ASSERT_EQ(a, b);
  }
  for (int i = 0; i < 200; ++i) {
    const Event event = workload.next_event();
    EXPECT_EQ(testing::match_event(v1_engine, event),
              testing::match_event(v2_engine, event))
        << "event " << i;
  }
  // The v2 engine's tree storage is strictly smaller.
  const auto tree_bytes = [](FilterEngine& engine) {
    std::size_t bytes = 0;
    const MemoryBreakdown mem = engine.memory();
    for (const auto& [name, b] : mem.components()) {
      if (name == "encoded_trees") bytes = b;
    }
    return bytes;
  };
  v1_engine.compact_storage();
  v2_engine.compact_storage();
  EXPECT_LT(tree_bytes(v2_engine), tree_bytes(v1_engine));
}

TEST_F(EncodedTreeV2Test, UnsubscribeAndCompactionWorkWithV2) {
  NonCanonicalTreeEngine engine(table_, TreeEncoding::kV2Varint);
  std::vector<SubscriptionId> ids;
  for (int i = 0; i < 30; ++i) {
    const ast::Expr e = parse("a == " + std::to_string(i) + " and b == 2");
    ids.push_back(engine.add(e.root()));
  }
  for (int i = 0; i < 30; i += 2) engine.remove(ids[i]);
  engine.compact_tree_storage();
  EXPECT_EQ(testing::match_event(engine, EventBuilder(attrs_)
                                             .set("a", 1)
                                             .set("b", 2)
                                             .build()),
            std::vector{ids[1]});
}

}  // namespace
}  // namespace ncps
