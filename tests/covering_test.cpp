#include "subscription/covering.h"

#include <gtest/gtest.h>

#include "subscription/parser.h"
#include "workload/random_workload.h"

namespace ncps {
namespace {

class PredicateImpliesTest : public ::testing::Test {
 protected:
  Predicate make(std::string_view attr, Operator op, Value lo, Value hi = {}) {
    return Predicate{attrs_.intern(attr), op, std::move(lo), std::move(hi)};
  }

  AttributeRegistry attrs_;
};

TEST_F(PredicateImpliesTest, IdenticalPredicates) {
  const Predicate p = make("x", Operator::Gt, Value(10));
  EXPECT_TRUE(predicate_implies(p, p));
}

TEST_F(PredicateImpliesTest, DifferentAttributesNeverImply) {
  EXPECT_FALSE(predicate_implies(make("x", Operator::Gt, Value(10)),
                                 make("y", Operator::Gt, Value(5))));
}

TEST_F(PredicateImpliesTest, NumericIntervalContainment) {
  // x > 10 ⇒ x > 5, x >= 5, x != 3
  const Predicate gt10 = make("x", Operator::Gt, Value(10));
  EXPECT_TRUE(predicate_implies(gt10, make("x", Operator::Gt, Value(5))));
  EXPECT_TRUE(predicate_implies(gt10, make("x", Operator::Ge, Value(5))));
  EXPECT_TRUE(predicate_implies(gt10, make("x", Operator::Ne, Value(3))));
  EXPECT_FALSE(predicate_implies(gt10, make("x", Operator::Gt, Value(20))));
  EXPECT_FALSE(predicate_implies(gt10, make("x", Operator::Ne, Value(15))));

  // boundary handling: x > 10 ⇒ x >= 10; x >= 10 does NOT imply x > 10.
  EXPECT_TRUE(predicate_implies(gt10, make("x", Operator::Ge, Value(10))));
  EXPECT_FALSE(predicate_implies(make("x", Operator::Ge, Value(10)), gt10));
}

TEST_F(PredicateImpliesTest, BetweenContainment) {
  const Predicate mid = make("x", Operator::Between, Value(10), Value(20));
  EXPECT_TRUE(predicate_implies(
      mid, make("x", Operator::Between, Value(5), Value(25))));
  EXPECT_TRUE(predicate_implies(mid, make("x", Operator::Le, Value(20))));
  EXPECT_TRUE(predicate_implies(mid, make("x", Operator::Ge, Value(10))));
  EXPECT_TRUE(predicate_implies(mid, make("x", Operator::Lt, Value(21))));
  EXPECT_FALSE(predicate_implies(mid, make("x", Operator::Lt, Value(20))));
  EXPECT_FALSE(predicate_implies(
      mid, make("x", Operator::Between, Value(12), Value(25))));
  // avoiding exclusions: [10,20] ⇒ x != 25; not ⇒ x != 15.
  EXPECT_TRUE(predicate_implies(mid, make("x", Operator::Ne, Value(25))));
  EXPECT_FALSE(predicate_implies(mid, make("x", Operator::Ne, Value(15))));
  // [10,20] ⇒ not-between [30,40]; not ⇒ not-between [15,40].
  EXPECT_TRUE(predicate_implies(
      mid, make("x", Operator::NotBetween, Value(30), Value(40))));
  EXPECT_FALSE(predicate_implies(
      mid, make("x", Operator::NotBetween, Value(15), Value(40))));
}

TEST_F(PredicateImpliesTest, EqualityEvaluatesTarget) {
  const Predicate eq7 = make("x", Operator::Eq, Value(7));
  EXPECT_TRUE(predicate_implies(eq7, make("x", Operator::Lt, Value(10))));
  EXPECT_TRUE(predicate_implies(
      eq7, make("x", Operator::Between, Value(5), Value(9))));
  EXPECT_TRUE(predicate_implies(eq7, make("x", Operator::Ne, Value(8))));
  EXPECT_FALSE(predicate_implies(eq7, make("x", Operator::Gt, Value(7))));
  // …and for strings:
  const Predicate eq_str = make("s", Operator::Eq, Value("hello"));
  EXPECT_TRUE(
      predicate_implies(eq_str, make("s", Operator::Prefix, Value("he"))));
  EXPECT_FALSE(
      predicate_implies(eq_str, make("s", Operator::Prefix, Value("x"))));
}

TEST_F(PredicateImpliesTest, ExclusionShapes) {
  // x != 5 ⇒ x != 5 only; not-between [10,20] ⇒ x != 15, ⇒ nb [12,18].
  const Predicate ne5 = make("x", Operator::Ne, Value(5));
  EXPECT_TRUE(predicate_implies(ne5, ne5));
  EXPECT_FALSE(predicate_implies(ne5, make("x", Operator::Ne, Value(6))));
  const Predicate nb =
      make("x", Operator::NotBetween, Value(10), Value(20));
  EXPECT_TRUE(predicate_implies(nb, make("x", Operator::Ne, Value(15))));
  EXPECT_FALSE(predicate_implies(nb, make("x", Operator::Ne, Value(25))));
  EXPECT_TRUE(predicate_implies(
      nb, make("x", Operator::NotBetween, Value(12), Value(18))));
  EXPECT_FALSE(predicate_implies(
      nb, make("x", Operator::NotBetween, Value(5), Value(18))));
}

TEST_F(PredicateImpliesTest, StringFamilies) {
  const Predicate pre_abc = make("s", Operator::Prefix, Value("abc"));
  EXPECT_TRUE(
      predicate_implies(pre_abc, make("s", Operator::Prefix, Value("ab"))));
  EXPECT_TRUE(
      predicate_implies(pre_abc, make("s", Operator::Contains, Value("bc"))));
  EXPECT_FALSE(
      predicate_implies(pre_abc, make("s", Operator::Prefix, Value("abcd"))));
  // prefix "abc" ⇒ s != "zzz" (cannot equal something not starting abc)…
  EXPECT_TRUE(
      predicate_implies(pre_abc, make("s", Operator::Ne, Value("zzz"))));
  // …but s could equal "abcd".
  EXPECT_FALSE(
      predicate_implies(pre_abc, make("s", Operator::Ne, Value("abcd"))));

  const Predicate suf = make("s", Operator::Suffix, Value("xyz"));
  EXPECT_TRUE(
      predicate_implies(suf, make("s", Operator::Suffix, Value("yz"))));
  EXPECT_TRUE(
      predicate_implies(suf, make("s", Operator::Contains, Value("xy"))));

  const Predicate con = make("s", Operator::Contains, Value("mid"));
  EXPECT_TRUE(
      predicate_implies(con, make("s", Operator::Contains, Value("id"))));
  EXPECT_FALSE(
      predicate_implies(con, make("s", Operator::Contains, Value("dim"))));
}

TEST_F(PredicateImpliesTest, StringBoundaryPairs) {
  // The empty prefix accepts every string: implied by any string predicate,
  // implies nothing but itself (and Ne targets it can rule out — none).
  const Predicate empty_prefix = make("s", Operator::Prefix, Value(""));
  EXPECT_TRUE(predicate_implies(make("s", Operator::Prefix, Value("abc")),
                                empty_prefix));
  EXPECT_TRUE(predicate_implies(make("s", Operator::Eq, Value("anything")),
                                empty_prefix));
  EXPECT_FALSE(predicate_implies(empty_prefix,
                                 make("s", Operator::Prefix, Value("a"))));
  EXPECT_TRUE(predicate_implies(empty_prefix, empty_prefix));
  // Empty suffix and contains behave the same way.
  EXPECT_TRUE(predicate_implies(make("s", Operator::Suffix, Value("xyz")),
                                make("s", Operator::Suffix, Value(""))));
  EXPECT_TRUE(predicate_implies(make("s", Operator::Contains, Value("mid")),
                                make("s", Operator::Contains, Value(""))));

  // Equal operands: reflexive for every string operator.
  const Predicate pre = make("s", Operator::Prefix, Value("ab"));
  EXPECT_TRUE(predicate_implies(pre, make("s", Operator::Prefix, Value("ab"))));
  const Predicate suf = make("s", Operator::Suffix, Value("ab"));
  EXPECT_TRUE(predicate_implies(suf, make("s", Operator::Suffix, Value("ab"))));
  // …but prefix and suffix of the same operand do not imply each other.
  EXPECT_FALSE(predicate_implies(pre, suf));
  EXPECT_FALSE(predicate_implies(suf, pre));
  // The prefix is itself a possible value: prefix "ab" cannot rule out
  // s == "ab", but rules out any string not starting with it.
  EXPECT_FALSE(predicate_implies(pre, make("s", Operator::Ne, Value("ab"))));
  EXPECT_TRUE(predicate_implies(pre, make("s", Operator::Ne, Value("ba"))));
}

TEST_F(PredicateImpliesTest, EqualityAtRangeEndpoints) {
  const Predicate eq10 = make("x", Operator::Eq, Value(10));
  // Closed endpoints admit the point, open endpoints exclude it.
  EXPECT_TRUE(predicate_implies(eq10, make("x", Operator::Le, Value(10))));
  EXPECT_TRUE(predicate_implies(eq10, make("x", Operator::Ge, Value(10))));
  EXPECT_FALSE(predicate_implies(eq10, make("x", Operator::Lt, Value(10))));
  EXPECT_FALSE(predicate_implies(eq10, make("x", Operator::Gt, Value(10))));
  EXPECT_TRUE(predicate_implies(
      eq10, make("x", Operator::Between, Value(10), Value(20))));
  EXPECT_TRUE(predicate_implies(
      eq10, make("x", Operator::Between, Value(0), Value(10))));
  EXPECT_FALSE(predicate_implies(
      eq10, make("x", Operator::NotBetween, Value(10), Value(20))));

  // The reverse direction: only the degenerate one-point interval collapses
  // to equality.
  const Predicate point = make("x", Operator::Between, Value(10), Value(10));
  EXPECT_TRUE(predicate_implies(point, eq10));
  EXPECT_TRUE(predicate_implies(eq10, point));
  EXPECT_FALSE(predicate_implies(make("x", Operator::Le, Value(10)), eq10));
  EXPECT_FALSE(predicate_implies(make("x", Operator::Ge, Value(10)), eq10));
}

TEST_F(PredicateImpliesTest, PresenceAndAbsence) {
  const Predicate gt = make("x", Operator::Gt, Value(1));
  EXPECT_TRUE(predicate_implies(gt, make("x", Operator::Exists, Value())));
  EXPECT_FALSE(predicate_implies(make("x", Operator::Exists, Value()), gt));
  const Predicate absent = make("x", Operator::NotExists, Value());
  EXPECT_TRUE(predicate_implies(absent, absent));
  EXPECT_FALSE(predicate_implies(absent, make("x", Operator::Exists, Value())));
  EXPECT_FALSE(predicate_implies(gt, absent));
}

// ---- Subscription-level covering -------------------------------------------

class CoversTest : public ::testing::Test {
 protected:
  ast::Expr parse(std::string_view text) {
    return parse_subscription(text, attrs_, table_);
  }

  bool check(std::string_view covering, std::string_view covered) {
    const ast::Expr a = parse(covering);
    const ast::Expr b = parse(covered);
    return covers(a.root(), b.root(), table_);
  }

  AttributeRegistry attrs_;
  PredicateTable table_;
};

TEST_F(CoversTest, SelfCovering) {
  EXPECT_TRUE(check("x > 10 and y == 2", "x > 10 and y == 2"));
}

TEST_F(CoversTest, WiderIntervalCoversNarrower) {
  EXPECT_TRUE(check("x > 5", "x > 10"));
  EXPECT_FALSE(check("x > 10", "x > 5"));
}

TEST_F(CoversTest, FewerConjunctsCoverMore) {
  EXPECT_TRUE(check("x > 5", "x > 10 and y == 2"));
  EXPECT_FALSE(check("x > 5 and y == 2", "x > 10"));
}

TEST_F(CoversTest, DisjunctionCoversItsBranches) {
  EXPECT_TRUE(check("x == 1 or y == 2", "x == 1"));
  EXPECT_TRUE(check("x == 1 or y == 2", "y == 2 and z == 3"));
  EXPECT_FALSE(check("x == 1", "x == 1 or y == 2"));
}

TEST_F(CoversTest, PaperShapedSubscriptions) {
  EXPECT_TRUE(check(
      "(a > 5 or b == 1) and (c <= 30 or d == 5)",
      "(a > 10 or b == 1) and (c <= 20 or d == 5)"));
  EXPECT_FALSE(check(
      "(a > 10 or b == 1) and (c <= 20 or d == 5)",
      "(a > 5 or b == 1) and (c <= 30 or d == 5)"));
}

TEST_F(CoversTest, NegationThroughComplements) {
  // not (x <= 5) is x > 5, which covers x > 10.
  EXPECT_TRUE(check("not x <= 5", "x > 10"));
  EXPECT_TRUE(check("not (x <= 5 and y == 2)", "x > 10"));
}

TEST_F(CoversTest, StringCovering) {
  EXPECT_TRUE(check("sym prefix \"AB\"", "sym prefix \"ABC\" and price > 5"));
  EXPECT_FALSE(check("sym prefix \"ABC\"", "sym prefix \"AB\""));
}

TEST_F(CoversTest, ExplosionBudgetAnswersFalse) {
  std::string wide;
  for (int i = 0; i < 12; ++i) {
    if (i > 0) wide += " and ";
    wide += "(g" + std::to_string(i) + " == 1 or g" + std::to_string(i) +
            " == 2)";
  }
  DnfOptions options;
  options.max_disjuncts = 16;
  const ast::Expr a = parse(wide);
  const ast::Expr b = parse(wide);
  EXPECT_FALSE(covers(a.root(), b.root(), table_, options));
}

TEST_F(CoversTest, StringBoundaryCovering) {
  // Empty-prefix subscriptions cover every prefix refinement…
  EXPECT_TRUE(check("sym prefix \"\"", "sym prefix \"ABC\""));
  EXPECT_FALSE(check("sym prefix \"ABC\"", "sym prefix \"\""));
  // …and equal prefixes cover each other (equivalence, both directions).
  EXPECT_TRUE(check("sym prefix \"AB\"", "sym prefix \"AB\""));
  EXPECT_TRUE(
      check("sym prefix \"AB\" or sym prefix \"CD\"", "sym prefix \"AB\""));
}

TEST_F(CoversTest, EqualityAtRangeEndpoints) {
  EXPECT_TRUE(check("x <= 10", "x == 10"));
  EXPECT_FALSE(check("x < 10", "x == 10"));
  EXPECT_TRUE(check("x >= 10 and x <= 10", "x == 10"));
  EXPECT_TRUE(check("x == 10", "x between 10 and 10"));
  EXPECT_TRUE(check("x between 10 and 10", "x == 10"));
  EXPECT_FALSE(check("x between 10 and 20", "x <= 20"));
  EXPECT_TRUE(check("x <= 20", "x between 10 and 20"));
}

TEST_F(CoversTest, AsymmetricExplosionBudgetAnswersFalse) {
  // Semantically `a >= 0` covers `a >= 0 AND (wide)`, but proving it
  // requires canonicalising the covered side past the budget: the answer
  // must be the conservative false, never unsound, never a throw.
  std::string wide = "a >= 0";
  for (int i = 0; i < 12; ++i) {
    wide += " and (g" + std::to_string(i) + " == 1 or g" + std::to_string(i) +
            " == 2)";
  }
  DnfOptions options;
  options.max_disjuncts = 16;
  const ast::Expr covering = parse("a >= 0");
  const ast::Expr covered = parse(wide);
  EXPECT_FALSE(covers(covering.root(), covered.root(), table_, options));
  // With the budget lifted the same pair proves fine.
  EXPECT_TRUE(covers(covering.root(), covered.root(), table_));
}

// Soundness property: whenever covers() says yes, no sampled event may match
// the covered subscription without matching the covering one.
TEST_F(CoversTest, RandomizedSoundness) {
  RandomWorkloadConfig config;
  config.rich_operators = false;
  config.not_probability = 0.2;
  config.sharing_probability = 0.5;
  config.attribute_count = 4;
  config.domain_size = 8;
  config.seed = 1212;
  RandomWorkload workload(config, attrs_, table_);

  std::size_t proven = 0;
  for (int pair = 0; pair < 300; ++pair) {
    const ast::Expr a = workload.next_subscription();
    const ast::Expr b = workload.next_subscription();
    if (!covers(a.root(), b.root(), table_)) continue;
    ++proven;
    for (int trial = 0; trial < 200; ++trial) {
      const Event e = workload.next_event();
      if (ast::evaluate_against_event(b.root(), table_, e)) {
        ASSERT_TRUE(ast::evaluate_against_event(a.root(), table_, e))
            << "covering unsound on pair " << pair << " event "
            << e.to_display_string(attrs_);
      }
    }
  }
  // The generator produces enough related pairs for the property to bite.
  EXPECT_GT(proven, 0u);
}

}  // namespace
}  // namespace ncps
