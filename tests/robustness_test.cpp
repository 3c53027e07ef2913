// Failure injection and boundary conditions across the subscription
// front-end: corrupted encodings, width limits, and printer/parser
// round-trips on machine-generated trees.
#include <gtest/gtest.h>

#include "common/random.h"
#include "subscription/encoded_tree.h"
#include "subscription/dnf.h"
#include "subscription/parser.h"
#include "subscription/printer.h"
#include "workload/random_workload.h"

namespace ncps {
namespace {

TEST(DecodeRobustnessTest, TruncatedV1TreeIsRejected) {
  AttributeRegistry attrs;
  PredicateTable table;
  const ast::Expr e =
      parse_subscription("a == 1 and b == 2 and c == 3", attrs, table);
  std::vector<std::byte> bytes;
  encode_tree(e.root(), bytes);
  // Every strict prefix (except a 4-byte leaf-looking one) must be rejected.
  for (std::size_t len = 5; len < bytes.size(); ++len) {
    EXPECT_THROW((void)decode_tree(std::span(bytes.data(), len)),
                 ContractViolation)
        << "prefix length " << len;
  }
}

TEST(DecodeRobustnessTest, CorruptOperatorByteIsRejected) {
  AttributeRegistry attrs;
  PredicateTable table;
  const ast::Expr e = parse_subscription("a == 1 and b == 2", attrs, table);
  std::vector<std::byte> bytes;
  encode_tree(e.root(), bytes);
  bytes[0] = std::byte{0x7f};  // not a valid operator
  EXPECT_THROW((void)decode_tree(bytes), EncodeError);
}

TEST(EncodeBoundaryTest, Exactly255ChildrenEncodes) {
  std::vector<ast::NodePtr> children;
  for (int i = 0; i < 255; ++i) {
    children.push_back(ast::leaf(PredicateId(static_cast<std::uint32_t>(i))));
  }
  const ast::NodePtr root = ast::make_or(std::move(children));
  std::vector<std::byte> out;
  const std::size_t width = encode_tree(*root, out);
  EXPECT_EQ(width, 2u + 2u * 255u + 4u * 255u);
  const ast::NodePtr back = decode_tree(out);
  EXPECT_TRUE(ast::equal(*root, *back));
}

// Printer/parser round-trip on machine-generated trees: print(t) must parse
// back to a structurally identical tree across hundreds of random shapes,
// including NOT of complement-operator predicates (printed as not (...)).
TEST(PrinterPropertyTest, RandomTreesRoundTrip) {
  AttributeRegistry attrs;
  PredicateTable table;
  RandomWorkloadConfig config;
  config.rich_operators = true;
  config.not_probability = 0.3;
  config.seed = 20250610;
  RandomWorkload workload(config, attrs, table);
  for (int i = 0; i < 300; ++i) {
    const ast::Expr expr = workload.next_subscription();
    const std::string printed = print_expression(expr.root(), table, attrs);
    const ast::Expr reparsed = parse_subscription(printed, attrs, table);
    EXPECT_TRUE(ast::equal(expr.root(), reparsed.root()))
        << "iteration " << i << ": " << printed;
  }
}

TEST(PrinterPropertyTest, ComplementOperatorsPrintAsNegations) {
  AttributeRegistry attrs;
  PredicateTable table;
  // Build predicates with no surface syntax and check they round-trip
  // through the printer's not(...) rendering.
  const Predicate nb{attrs.intern("x"), Operator::NotBetween, Value(1),
                     Value(5)};
  const PredicateId id = table.intern(nb).id;
  const ast::Expr expr(ast::leaf(id), table, ast::Expr::AdoptRefs{});
  const std::string printed = print_expression(expr.root(), table, attrs);
  EXPECT_EQ(printed, "not (x between 1 and 5)");
  const ast::Expr reparsed = parse_subscription(printed, attrs, table);
  // Reparsing yields NOT(between); NNF brings it back to the predicate.
  const ast::Expr nnf = to_nnf(reparsed.root(), table);
  ASSERT_EQ(nnf.root().kind, ast::NodeKind::Leaf);
  EXPECT_EQ(table.get(nnf.root().pred).op, Operator::NotBetween);
}

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  AttributeRegistry attrs;
  PredicateTable table;
  Pcg32 rng(1337);
  const char alphabet[] = "ab01 ()<>=!\"andorbetween.x_";
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    const std::size_t len = rng.bounded(40);
    for (std::size_t j = 0; j < len; ++j) {
      text += alphabet[rng.bounded(sizeof(alphabet) - 1)];
    }
    try {
      const ast::Expr e = parse_subscription(text, attrs, table);
      EXPECT_GE(ast::leaf_count(e.root()), 1u);  // parse succeeded: sane tree
    } catch (const ParseError&) {
      // rejected — fine
    }
    // Either way the table holds no half-registered predicates beyond what
    // successful parses legitimately interned and released with their Exprs.
  }
  EXPECT_EQ(table.size(), 0u);  // every Expr died in the loop
}

}  // namespace
}  // namespace ncps
