// Boolean subscription trees (paper §3.1, Fig. 1).
//
// A subscription is an arbitrary Boolean expression over predicates: inner
// nodes carry AND/OR/NOT, leaves carry predicate identifiers. Binary AND/OR
// are compacted into n-ary nodes ("binary operators are treated as n-ary ones
// due to compacting subscription trees").
//
// Ownership: leaves reference interned predicates in a PredicateTable, which
// is reference counted. The RAII wrapper Expr owns exactly one table
// reference per leaf occurrence, so expression lifetime and predicate
// lifetime cannot drift apart (Core Guidelines P.8: don't leak resources).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/contracts.h"
#include "common/ids.h"
#include "common/random.h"
#include "predicate/predicate_table.h"

namespace ncps::ast {

enum class NodeKind : std::uint8_t { Leaf, And, Or, Not };

struct Node;
using NodePtr = std::unique_ptr<Node>;

struct Node {
  NodeKind kind = NodeKind::Leaf;
  PredicateId pred;              ///< Leaf only
  std::vector<NodePtr> children; ///< And/Or: >=1 children; Not: exactly 1
};

// ---- raw tree construction (no reference counting) ----

[[nodiscard]] NodePtr leaf(PredicateId id);
[[nodiscard]] NodePtr make_and(std::vector<NodePtr> children);
[[nodiscard]] NodePtr make_or(std::vector<NodePtr> children);
[[nodiscard]] NodePtr make_not(NodePtr child);
[[nodiscard]] NodePtr clone(const Node& node);

/// Deep copy with the children of every AND/OR node re-shuffled (Fisher–
/// Yates over `rng`) — a semantically equivalent *commuted* variant of the
/// expression. Workload generators use this to model subscribers writing
/// the same interest in different orders, which the shared forest's
/// canonical child order collapses to one node.
[[nodiscard]] NodePtr clone_commuted(const Node& node, Pcg32& rng);

/// Structural equality (same shape, kinds and predicate ids).
[[nodiscard]] bool equal(const Node& a, const Node& b);

/// Compact the tree in place: collapse And(And(x,y),z) into And(x,y,z),
/// unwrap single-child And/Or, collapse Not(Not(x)) into x.
void flatten(Node& node);

// ---- queries ----

[[nodiscard]] std::size_t leaf_count(const Node& node);
[[nodiscard]] std::size_t node_count(const Node& node);
[[nodiscard]] std::size_t depth(const Node& node);

/// Append every leaf's predicate id (with duplicates, in tree order).
void collect_predicates(const Node& node, std::vector<PredicateId>& out);

/// Evaluate with a truth assignment for predicates.
template <typename TruthFn>
[[nodiscard]] bool evaluate(const Node& node, TruthFn&& truth) {
  switch (node.kind) {
    case NodeKind::Leaf:
      return truth(node.pred);
    case NodeKind::And:
      for (const auto& c : node.children) {
        if (!evaluate(*c, truth)) return false;
      }
      return true;
    case NodeKind::Or:
      for (const auto& c : node.children) {
        if (evaluate(*c, truth)) return true;
      }
      return false;
    case NodeKind::Not:
      return !evaluate(*node.children.front(), truth);
  }
  NCPS_ASSERT(false && "unknown node kind");
}

/// Ground-truth evaluation against an event: every leaf's predicate is
/// looked up in the table and applied to the event directly. This is the
/// reference oracle the engines are tested against.
[[nodiscard]] bool evaluate_against_event(const Node& node,
                                          const PredicateTable& table,
                                          const Event& event);

/// True if the expression can evaluate to true when *no* predicate matches —
/// such subscriptions are never candidates through the association table and
/// need special handling in candidate-based engines (see DESIGN.md).
[[nodiscard]] bool matches_all_false(const Node& node);

// ---- RAII expression (owns predicate-table references) ----

class Expr {
 public:
  /// Tag: the tree's leaf references were already taken (e.g. by a builder
  /// that interned each leaf itself).
  struct AdoptRefs {};
  /// Tag: take a fresh reference for every leaf occurrence now.
  struct AddRefs {};

  Expr() = default;
  Expr(NodePtr root, PredicateTable& table, AdoptRefs);
  Expr(NodePtr root, PredicateTable& table, AddRefs);
  ~Expr();

  Expr(Expr&& other) noexcept;
  Expr& operator=(Expr&& other) noexcept;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  [[nodiscard]] bool empty() const { return root_ == nullptr; }
  [[nodiscard]] const Node& root() const {
    NCPS_EXPECTS(root_ != nullptr);
    return *root_;
  }

  /// Mutable access for shape-preserving rewrites (flatten, reorder). The
  /// caller must keep the leaf multiset intact — references are per-leaf.
  [[nodiscard]] Node& mutable_root() {
    NCPS_EXPECTS(root_ != nullptr);
    return *root_;
  }

  /// Deep copy that takes its own references.
  [[nodiscard]] Expr clone() const;

 private:
  void release_refs() noexcept;

  NodePtr root_;
  PredicateTable* table_ = nullptr;
};

}  // namespace ncps::ast
