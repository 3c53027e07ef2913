#include "predicate/predicate_table.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/contracts.h"
#include "event/schema.h"
#include "storage/serializer.h"

namespace ncps {
namespace {

class PredicateTableTest : public ::testing::Test {
 protected:
  Predicate make(std::string_view attr, Operator op, Value v) {
    return Predicate{attrs_.intern(attr), op, std::move(v), {}};
  }

  AttributeRegistry attrs_;
  PredicateTable table_;
};

TEST_F(PredicateTableTest, InternAssignsFreshIds) {
  const auto [a, new_a] = table_.intern(make("x", Operator::Eq, Value(1)));
  const auto [b, new_b] = table_.intern(make("x", Operator::Eq, Value(2)));
  EXPECT_TRUE(new_a);
  EXPECT_TRUE(new_b);
  EXPECT_NE(a, b);
  EXPECT_EQ(table_.size(), 2u);
}

TEST_F(PredicateTableTest, InternDeduplicatesSharedPredicates) {
  const auto first = table_.intern(make("x", Operator::Gt, Value(10)));
  const auto second = table_.intern(make("x", Operator::Gt, Value(10)));
  EXPECT_TRUE(first.newly_created);
  EXPECT_FALSE(second.newly_created);
  EXPECT_EQ(first.id, second.id);
  EXPECT_EQ(table_.size(), 1u);
  EXPECT_EQ(table_.ref_count(first.id), 2u);
}

TEST_F(PredicateTableTest, DifferentOperatorsAreDifferentPredicates) {
  const auto a = table_.intern(make("x", Operator::Gt, Value(10)));
  const auto b = table_.intern(make("x", Operator::Ge, Value(10)));
  EXPECT_NE(a.id, b.id);
}

TEST_F(PredicateTableTest, ReleaseFreesAtZero) {
  const auto [id, created] = table_.intern(make("x", Operator::Eq, Value(1)));
  table_.add_ref(id);
  EXPECT_FALSE(table_.release(id));  // 2 → 1
  EXPECT_TRUE(table_.is_live(id));
  EXPECT_TRUE(table_.release(id));  // 1 → 0
  EXPECT_FALSE(table_.is_live(id));
  EXPECT_EQ(table_.size(), 0u);
}

TEST_F(PredicateTableTest, FreedIdsAreRecycled) {
  const auto [a, created_a] = table_.intern(make("x", Operator::Eq, Value(1)));
  table_.release(a);
  const auto [b, created_b] = table_.intern(make("y", Operator::Lt, Value(5)));
  EXPECT_TRUE(created_b);
  EXPECT_EQ(a, b);  // slot reused
  EXPECT_EQ(table_.id_bound(), 1u);
  // The recycled id now resolves to the new predicate.
  EXPECT_EQ(table_.get(b).op, Operator::Lt);
}

TEST_F(PredicateTableTest, ReleasedPredicateCanBeReinterned) {
  const Predicate p = make("x", Operator::Eq, Value(1));
  const auto first = table_.intern(p);
  table_.release(first.id);
  const auto second = table_.intern(p);
  EXPECT_TRUE(second.newly_created);
  EXPECT_TRUE(table_.is_live(second.id));
}

TEST_F(PredicateTableTest, FindDoesNotIntern) {
  const Predicate p = make("x", Operator::Eq, Value(1));
  EXPECT_EQ(table_.find(p), std::nullopt);
  const auto [id, created] = table_.intern(p);
  EXPECT_EQ(table_.find(p), id);
  EXPECT_EQ(table_.ref_count(id), 1u);  // find took no reference
}

TEST_F(PredicateTableTest, GetOnDeadIdViolatesContract) {
  const auto [id, created] = table_.intern(make("x", Operator::Eq, Value(1)));
  table_.release(id);
  EXPECT_THROW((void)table_.get(id), ContractViolation);
  EXPECT_THROW(table_.add_ref(id), ContractViolation);
  EXPECT_THROW((void)table_.get(PredicateId(99)), ContractViolation);
}

// A snapshot is hostile input. The parser never yields a NaN operand, but a
// snapshot can carry one, and the phase-1 index cannot order it: a `> NaN`
// filed beside `> 5` was stabbed with it. Loading must refuse it.
TEST_F(PredicateTableTest, SnapshotWithNanOperandIsRejected) {
  (void)table_.intern(make("x", Operator::Gt, Value(5)));
  (void)table_.intern(make(
      "x", Operator::Gt, Value(std::numeric_limits<double>::quiet_NaN())));
  (void)table_.intern(make("x", Operator::Gt, Value(20)));
  storage::Writer w;
  table_.save_state(w);

  const std::vector<AttributeId> remap{attrs_.intern("x")};
  storage::Reader r(w.bytes());
  PredicateTable restored;
  EXPECT_THROW(restored.load_state(r, remap), StorageError);
}

TEST_F(PredicateTableTest, ForEachVisitsOnlyLive) {
  const auto a = table_.intern(make("x", Operator::Eq, Value(1)));
  const auto b = table_.intern(make("x", Operator::Eq, Value(2)));
  const auto c = table_.intern(make("x", Operator::Eq, Value(3)));
  table_.release(b.id);
  std::vector<PredicateId> seen;
  table_.for_each([&](PredicateId id, const Predicate&) { seen.push_back(id); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], a.id);
  EXPECT_EQ(seen[1], c.id);
}

TEST_F(PredicateTableTest, StringOperandPredicatesIntern) {
  const auto a = table_.intern(make("s", Operator::Prefix, Value("abc")));
  const auto b = table_.intern(make("s", Operator::Prefix, Value("abc")));
  const auto c = table_.intern(make("s", Operator::Prefix, Value("abd")));
  EXPECT_EQ(a.id, b.id);
  EXPECT_NE(a.id, c.id);
}

TEST_F(PredicateTableTest, MemoryGrowsWithPredicates) {
  const std::size_t before = table_.memory().total();
  for (int i = 0; i < 1000; ++i) {
    (void)table_.intern(make("x", Operator::Eq, Value(i)));
  }
  EXPECT_GT(table_.memory().total(), before);
}

TEST_F(PredicateTableTest, ChurnKeepsIdBoundTight) {
  // Intern/release cycles must recycle slots instead of growing the bound.
  for (int round = 0; round < 100; ++round) {
    const auto [id, created] =
        table_.intern(make("x", Operator::Eq, Value(round)));
    ASSERT_TRUE(created);
    table_.release(id);
  }
  EXPECT_EQ(table_.id_bound(), 1u);
}

}  // namespace
}  // namespace ncps
