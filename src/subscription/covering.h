// Subscription covering (subsumption) for arbitrary Boolean subscriptions.
//
// s1 *covers* s2 when every event matching s2 also matches s1. Brokers use
// covering to keep routing state small: a subscription already covered by an
// installed one adds no reachable interest, so it need not be forwarded
// (Mühl & Fiege, "Supporting Covering and Merging in Content-Based
// Publish/Subscribe Systems" — reference [14] of the paper, which notes that
// canonical approaches make covering awkward "beyond name/value pairs").
//
// The test here is *sound but conservative*: covers() == true guarantees
// semantic covering; false may mean "could not prove it". The procedure:
//
//   1. predicate-level implication: a ⇒ b for same-attribute predicate pairs
//      via interval/string reasoning (x > 10 ⇒ x > 5; prefix "abc" ⇒
//      prefix "ab"; x == 7 ⇒ anything 7 satisfies);
//   2. both subscriptions are canonicalised (NNF + DNF, bounded by
//      DnfOptions); s1 covers s2 if every disjunct of DNF(s2) is covered by
//      some disjunct of DNF(s1), where disjunct c covers disjunct d when
//      every literal of c is implied by some literal of d.
//
// A DNF budget overflow makes the test answer false (never unsound).
#pragma once

#include "predicate/predicate.h"
#include "subscription/ast.h"
#include "subscription/dnf.h"

namespace ncps {

/// Conservative implication: true ⇒ every event satisfying `a` satisfies
/// `b`. Exact for same-attribute numeric interval pairs and the string
/// operator family; false whenever the attributes differ or the relation
/// cannot be established.
[[nodiscard]] bool predicate_implies(const Predicate& a, const Predicate& b);

/// Conservative covering test: true ⇒ every event matching `covered` also
/// matches `covering`.
[[nodiscard]] bool covers(const ast::Node& covering, const ast::Node& covered,
                          PredicateTable& table,
                          const DnfOptions& options = {});

}  // namespace ncps
