#include "engine/non_canonical_engine.h"

#include <algorithm>

#include "common/contracts.h"
#include "common/hash.h"
#include "storage/serializer.h"
#include "subscription/covering.h"

namespace ncps {

NonCanonicalEngine::NonCanonicalEngine(PredicateTable& table, Options options)
    : FilterEngine(table),
      options_(options),
      forest_([this](PredicateId p) { acquire_predicate(p); },
              [this](PredicateId p) { release_predicate(p); },
              options.normalisation) {}

SubscriptionId NonCanonicalEngine::allocate_id() {
  if (!free_ids_.empty()) {
    const SubscriptionId id = free_ids_.back();
    free_ids_.pop_back();
    return id;
  }
  const SubscriptionId id(static_cast<std::uint32_t>(subs_.size()));
  subs_.emplace_back();
  return id;
}

std::uint64_t NonCanonicalEngine::expression_signature(
    const ast::Node& expression) {
  pred_scratch_.clear();
  ast::collect_predicates(expression, pred_scratch_);
  std::sort(pred_scratch_.begin(), pred_scratch_.end());
  pred_scratch_.erase(
      std::unique(pred_scratch_.begin(), pred_scratch_.end()),
      pred_scratch_.end());
  std::uint64_t sig = hash_mix(0x51d5ull, pred_scratch_.size());
  for (const PredicateId pid : pred_scratch_) {
    sig = hash_mix(sig, pid.value());
  }
  return sig;
}

void NonCanonicalEngine::validate(const ast::Node& expression,
                                  PredicateTable& /*scratch*/) const {
  SharedForest::validate_limits(expression);
}

SubscriptionId NonCanonicalEngine::add(const ast::Node& expression) {
  // Node slots released by earlier removals become reusable here: add() is
  // ordered after any matching that could still walk them (engines are
  // serialised per shard; see shared_forest.h).
  forest_.reclaim_quarantine();

  // intern() checks limits before any mutation, so an oversized
  // expression throws here with no state change.
  const SharedForest::InternResult interned =
      forest_.intern(expression, &perm_scratch_);
  NodeId root = interned.id;
  const std::uint64_t signature = expression_signature(expression);
  if (interned.created && options_.root_subsumption) {
    root = try_alias_equivalent(expression, root, signature);
  }
  // An aliased subscription lives on a root whose stored form is not the
  // written expression; its permutation (recorded against the structural
  // root) would replay onto the wrong node.
  if (root != interned.id) perm_scratch_.clear();

  const SubscriptionId id = allocate_id();
  const bool new_result_root = root_head_.find(root) == root_head_.end();
  attach(id, root, signature);
  subs_[id.value()].perm = std::move(perm_scratch_);
  perm_scratch_ = {};
  if (new_result_root && options_.partial_sharing && !pred_scratch_.empty()) {
    // Probe for a donor first (the candidate index must not yet contain
    // this root), then index the newcomer so it can donate in turn.
    // pred_scratch_ still holds the expression's sorted unique predicates
    // from expression_signature(). Each root is indexed under its
    // *smallest* predicate id only — one entry per root instead of one per
    // (root, predicate). That reaches every refinement-shaped donor (a
    // conjunctive donor's predicates all recur in its borrowers); a
    // disjunctive donor whose smallest predicate the borrower lacks is
    // conservatively missed (see try_adopt_donor).
    try_adopt_donor(root, expression);
    roots_by_pred_[pred_scratch_.front().value()].push_back(root);
  }
  ++live_count_;
  return id;
}

ast::NodePtr NonCanonicalEngine::subscription_ast(SubscriptionId id) const {
  if (!id.valid() || id.value() >= subs_.size() || !subs_[id.value()].live) {
    return nullptr;
  }
  const SubRecord& record = subs_[id.value()];
  return forest_.to_ast(record.root, record.perm);
}

NonCanonicalEngine::NodeId NonCanonicalEngine::try_alias_equivalent(
    const ast::Node& expression, NodeId fresh_root, std::uint64_t signature) {
  const auto it = roots_by_sig_.find(signature);
  if (it == roots_by_sig_.end()) return fresh_root;
  std::size_t probes = 0;
  for (const NodeId candidate : it->second) {
    if (candidate == fresh_root) continue;
    if (++probes > options_.max_subsumption_probes) break;
    const ast::NodePtr candidate_ast = forest_.to_ast(candidate);
    // Mutual covering proves semantic equivalence, which is what sharing a
    // *result* node requires; one-directional covering would be unsound.
    if (covers(*candidate_ast, expression, *table_,
               options_.subsumption_budget) &&
        covers(expression, *candidate_ast, *table_,
               options_.subsumption_budget)) {
      forest_.add_ref(candidate);
      forest_.release(fresh_root);
      ++subsumption_hits_;
      return candidate;
    }
  }
  return fresh_root;
}

void NonCanonicalEngine::collect_root_predicates(
    NodeId root, std::vector<PredicateId>& out) const {
  if (forest_.kind(root) == ast::NodeKind::Leaf) {
    out.push_back(forest_.leaf_predicate(root));
    return;
  }
  for (const NodeId child : forest_.children(root)) {
    collect_root_predicates(child, out);
  }
}

namespace {

bool contains_not(const ast::Node& node) {
  if (node.kind == ast::NodeKind::Not) return true;
  for (const auto& child : node.children) {
    if (contains_not(*child)) return true;
  }
  return false;
}

}  // namespace

bool NonCanonicalEngine::root_contains_not(NodeId root) const {
  if (forest_.kind(root) == ast::NodeKind::Not) return true;
  if (forest_.kind(root) == ast::NodeKind::Leaf) return false;
  for (const NodeId child : forest_.children(root)) {
    if (root_contains_not(child)) return true;
  }
  return false;
}

void NonCanonicalEngine::try_adopt_donor(NodeId root,
                                         const ast::Node& expression) {
  // NOT is excluded from partial sharing outright: canonicalisation
  // rewrites `not p` into p's interned *complement predicate*, and the two
  // disagree when p's attribute is absent from the event (a complement
  // predicate is false on absence, `not p` is true). A propositional proof
  // that leans on such a literal would gate the borrower on semantics its
  // own evaluation does not share — see the NOT discussion in DESIGN.md
  // §3. NOT-free on both sides, every DNF literal is a written predicate
  // with identical fulfilled-set semantics in donor and borrower, and the
  // proof is assignment-sound.
  if (contains_not(expression)) return;
  // Candidate donors share at least one interned predicate with the new
  // root — the overlapping-population shape (a hot base query extended
  // with extra conjuncts) partial sharing targets. The index is a
  // heuristic: each result root is filed under its smallest predicate id,
  // so refinement-shaped donors are always reachable, while a disjunctive
  // donor whose smallest predicate the borrower lacks is (conservatively)
  // missed. The budget bounds every candidate *examined*, not just the
  // covering proofs run, so an add can never walk an unbounded list.
  std::size_t examined = 0;
  std::vector<NodeId> probed;  // a root can sit in several predicate lists
  for (const PredicateId pid : pred_scratch_) {
    const auto it = roots_by_pred_.find(pid.value());
    if (it == roots_by_pred_.end()) continue;
    for (const NodeId donor : it->second) {
      if (donor == root) continue;
      if (++examined > options_.max_partial_probes) return;
      // Never chain borrowers: a borrower's own truth may be skipped
      // entirely (deferred evaluation), so it cannot gate anyone else.
      if (donor < donor_of_.size() &&
          donor_of_[donor] != SharedForest::kNoNode) {
        continue;
      }
      if (std::find(probed.begin(), probed.end(), donor) != probed.end()) {
        continue;
      }
      probed.push_back(donor);
      if (root_contains_not(donor)) continue;
      const ast::NodePtr donor_ast = forest_.to_ast(donor);
      if (!covers(*donor_ast, expression, *table_,
                  options_.subsumption_budget,
                  ImplicationMode::Propositional)) {
        continue;
      }
      // Adopt: the borrower holds one reference on the donor's node, so
      // the donor's memoized truth stays computable until the borrower
      // detaches — a partially-shared root can never outlive its donor.
      forest_.add_ref(donor);
      if (donor_of_.size() <= root) {
        donor_of_.resize(root + 1, SharedForest::kNoNode);
      }
      donor_of_[root] = donor;
      ++live_borrowers_;
      return;
    }
  }
}

void NonCanonicalEngine::attach(SubscriptionId id, NodeId root,
                                std::uint64_t signature) {
  SubRecord& record = subs_[id.value()];
  record.root = root;
  record.prev = kNoSub;
  record.live = true;

  const auto [it, first_sub] = root_head_.try_emplace(root, id.value());
  if (!first_sub) {
    record.next = it->second;
    subs_[it->second].prev = id.value();
    it->second = id.value();
    return;
  }
  record.next = kNoSub;
  if (is_root_.size() <= root) is_root_.resize(root + 1, 0);
  is_root_[root] = 1;
  root_sig_.emplace(root, signature);
  roots_by_sig_[signature].push_back(root);
  if (forest_.static_truth(root)) always_roots_.push_back(root);
}

void NonCanonicalEngine::detach(SubscriptionId id) {
  SubRecord& record = subs_[id.value()];
  const NodeId root = record.root;
  if (record.prev != kNoSub) {
    subs_[record.prev].next = record.next;
    if (record.next != kNoSub) subs_[record.next].prev = record.prev;
  } else {
    const auto head = root_head_.find(root);
    NCPS_DASSERT(head != root_head_.end() && head->second == id.value());
    if (record.next != kNoSub) {
      head->second = record.next;
      subs_[record.next].prev = kNoSub;
    } else {
      // Last subscription on this root: it stops being a result root.
      root_head_.erase(head);
      is_root_[root] = 0;
      const auto sig = root_sig_.find(root);
      NCPS_DASSERT(sig != root_sig_.end());
      auto& ring = roots_by_sig_[sig->second];
      ring.erase(std::find(ring.begin(), ring.end(), root));
      if (ring.empty()) roots_by_sig_.erase(sig->second);
      root_sig_.erase(sig);
      if (forest_.static_truth(root)) {
        auto& always = always_roots_;
        always.erase(std::find(always.begin(), always.end(), root));
      }
      if (options_.partial_sharing) {
        // Drop out of the donor candidate index (mirrors the add()-time
        // registration under the root's smallest predicate id; the walk
        // reproduces the same unique predicate set).
        pred_scratch_.clear();
        collect_root_predicates(root, pred_scratch_);
        const PredicateId min_pred =
            *std::min_element(pred_scratch_.begin(), pred_scratch_.end());
        const auto index = roots_by_pred_.find(min_pred.value());
        NCPS_DASSERT(index != roots_by_pred_.end());
        auto& list = index->second;
        list.erase(std::find(list.begin(), list.end(), root));
        if (list.empty()) roots_by_pred_.erase(index);
        // A borrower releases its donor reference with its last
        // subscription; the donor's node may cascade away here if nothing
        // else holds it.
        if (root < donor_of_.size() &&
            donor_of_[root] != SharedForest::kNoNode) {
          forest_.release(donor_of_[root]);
          donor_of_[root] = SharedForest::kNoNode;
          --live_borrowers_;
        }
      }
    }
  }
  forest_.release(root);
}

bool NonCanonicalEngine::remove(SubscriptionId id) {
  if (!id.valid() || id.value() >= subs_.size() || !subs_[id.value()].live) {
    return false;
  }
  detach(id);
  subs_[id.value()] = SubRecord{};
  free_ids_.push_back(id);
  --live_count_;
  // Hand freshly quarantined nodes to the epoch domain now rather than
  // waiting for the next add(): under churn-during-match the retire path is
  // what makes slot reuse grace-safe, and deferring it to the next add would
  // let the quarantine grow unboundedly on unsubscribe-heavy workloads.
  forest_.reclaim_quarantine();
  return true;
}

std::unique_ptr<MatchContext> NonCanonicalEngine::make_context() const {
  return std::make_unique<ForestContext>();
}

void NonCanonicalEngine::force_scratch_epoch_wrap(MatchContext& ctx) {
  static_cast<ForestContext&>(ctx).touched.jump_epoch_for_test(~0u);
}

void NonCanonicalEngine::match_predicates_impl(
    std::span<const PredicateId> fulfilled, std::size_t event_index,
    const Event& event, MatchSink& sink, MatchContext& ctx) const {
  match_impl(fulfilled, static_cast<ForestContext&>(ctx),
             [&](SubscriptionId sid) {
               sink.on_match(event_index, event, sid);
             });
}

template <typename Emit>
void NonCanonicalEngine::match_impl(std::span<const PredicateId> fulfilled,
                                    ForestContext& ctx, Emit&& emit) const {
  const std::size_t bound = forest_.node_bound();
  if (ctx.touched.capacity() < bound) ctx.touched.resize(bound);
  if (ctx.value.size() < bound) ctx.value.resize(bound);
  ctx.touched.clear();
  ctx.frontier.clear();
  ctx.max_rank_touched = 0;
#ifndef NDEBUG
  // Scratch-reset invariant: the previous event must have drained every
  // rank bucket it filled, whatever shape it had (a tall tree followed by
  // a leaf-only event must not replay stale high-rank nodes).
  for (const auto& bucket : ctx.rank_buckets) NCPS_DASSERT(bucket.empty());
#endif

  // Per-event truth states in ctx.value (valid only while touched): 0/1 are
  // memoized results, kDeferred marks a borrower root whose evaluation
  // waits on its donor's truth at emit time.
  constexpr std::uint8_t kDeferred = 2;

  // Seed: fulfilled predicates stamp their leaf nodes true...
  for (const PredicateId pid : fulfilled) {
    const NodeId leaf = forest_.leaf_of(pid);
    if (leaf == SharedForest::kNoNode) continue;
    if (ctx.touched.insert(leaf)) {
      ctx.value[leaf] = 1;
      ctx.frontier.push_back(leaf);
    }
  }
  // ...and flood upward along parent edges: the candidate-reachable
  // frontier is every DAG ancestor of a fulfilled leaf, each visited once
  // however many subscriptions share it. A borrower root nothing consumes
  // from above defers: its donor's truth decides at emit time whether it
  // is evaluated at all.
  for (std::size_t i = 0; i < ctx.frontier.size(); ++i) {
    forest_.for_each_parent(ctx.frontier[i], [&](NodeId parent) {
      if (ctx.touched.insert(parent)) {
        ctx.frontier.push_back(parent);
        if (parent < donor_of_.size() &&
            donor_of_[parent] != SharedForest::kNoNode &&
            !forest_.has_parents(parent)) {
          ctx.value[parent] = kDeferred;
          return;
        }
        const std::uint32_t r = forest_.rank(parent);
        if (r >= ctx.rank_buckets.size()) ctx.rank_buckets.resize(r + 1);
        ctx.rank_buckets[r].push_back(parent);
        ctx.max_rank_touched = std::max(ctx.max_rank_touched, r);
      }
    });
  }

  // Evaluate the frontier's interior nodes bottom-up (rank order is a
  // topological order: children rank strictly below parents). A child
  // outside the frontier contains no fulfilled predicate, so its value is
  // its precomputed all-false truth.
  const auto value_of = [&](NodeId n) {
    ++ctx.stats.truth_lookups;
    if (!ctx.touched.contains(n)) return forest_.static_truth(n);
    // Deferred nodes have no DAG parents, so no evaluation reads them.
    NCPS_DASSERT(ctx.value[n] != kDeferred);
    return ctx.value[n] != 0;
  };
  const auto eval_node = [&](NodeId n) {
    ++ctx.stats.node_evaluations;
    const std::span<const NodeId> kids = forest_.children(n);
    bool v = false;
    switch (forest_.kind(n)) {
      case ast::NodeKind::And:
        v = true;
        for (const NodeId c : kids) {
          if (!value_of(c)) {
            v = false;
            break;
          }
        }
        break;
      case ast::NodeKind::Or:
        for (const NodeId c : kids) {
          if (value_of(c)) {
            v = true;
            break;
          }
        }
        break;
      case ast::NodeKind::Not:
        v = !value_of(kids.front());
        break;
      case ast::NodeKind::Leaf:
        NCPS_ASSERT(false && "leaves are seeded, never evaluated");
    }
    return v;
  };
  for (std::uint32_t r = 1; r <= ctx.max_rank_touched; ++r) {
    for (const NodeId n : ctx.rank_buckets[r]) {
      ctx.value[n] = eval_node(n) ? 1 : 0;
    }
    ctx.rank_buckets[r].clear();
  }

  // Emit: every touched result root whose memoized value is true notifies
  // all subscriptions chained on it...
  const auto emit_root = [&](NodeId root) {
    for (std::uint32_t s = root_head_.find(root)->second; s != kNoSub;
         s = subs_[s].next) {
      ++ctx.stats.candidates;
      emit(SubscriptionId(s));
      ++ctx.stats.matches;
    }
  };
  // Donor truth for a borrower root. kDeferred can only appear here if a
  // former donor was itself re-added and turned borrower; treating it as
  // true keeps gating conservative (the borrower then stands on its own
  // evaluation).
  const auto donor_allows = [&](NodeId root) {
    if (root >= donor_of_.size()) return true;
    const NodeId donor = donor_of_[root];
    if (donor == SharedForest::kNoNode) return true;
    const bool donor_true = ctx.touched.contains(donor)
                                ? ctx.value[donor] != 0
                                : forest_.static_truth(donor);
    if (!donor_true) ++ctx.stats.covering_skips;
    return donor_true;
  };
  // is_root_ is sized by attach(): nodes above the highest root id (fresh
  // interior nodes) simply are not roots. Read, never resize — the match
  // path must not mutate engine state.
  const auto is_result_root = [&](NodeId n) {
    return n < is_root_.size() && is_root_[n] != 0;
  };
  for (const NodeId n : ctx.frontier) {
    if (!is_result_root(n)) continue;
    if (!donor_allows(n)) {
      // The covering donor refuted the event: the borrower cannot match,
      // so its subscription chain is never even scanned as candidates.
      continue;
    }
    if (ctx.value[n] == kDeferred) {
      // Donor truth admitted the borrower: evaluate it now — children are
      // already memoized (or static), ranks strictly below.
      ctx.value[n] = eval_node(n) ? 1 : 0;
    }
    if (ctx.value[n] != 0) {
      emit_root(n);
    } else {
      // Candidates examined but refuted.
      for (std::uint32_t s = root_head_.find(n)->second; s != kNoSub;
           s = subs_[s].next) {
        ++ctx.stats.candidates;
      }
    }
  }
  // ...plus the always-candidate roots the frontier never reached: with no
  // fulfilled predicate below them their static truth (true) stands.
  for (const NodeId root : always_roots_) {
    if (ctx.touched.contains(root)) continue;  // evaluated above
    if (!donor_allows(root)) continue;  // donor refuted: cannot match
    emit_root(root);
  }
}

std::uint64_t NonCanonicalEngine::root_signature(NodeId root) {
  // Mirror of expression_signature over the stored root: the stored form
  // has exactly the written expression's predicate set (normalisation only
  // reorders; subsumption aliases only onto same-signature roots).
  pred_scratch_.clear();
  collect_root_predicates(root, pred_scratch_);
  std::sort(pred_scratch_.begin(), pred_scratch_.end());
  pred_scratch_.erase(std::unique(pred_scratch_.begin(), pred_scratch_.end()),
                      pred_scratch_.end());
  std::uint64_t sig = hash_mix(0x51d5ull, pred_scratch_.size());
  for (const PredicateId pid : pred_scratch_) sig = hash_mix(sig, pid.value());
  return sig;
}

bool NonCanonicalEngine::permutation_valid(
    NodeId root, std::span<const std::uint32_t> perm,
    std::size_t& cursor) const {
  // Replays exactly the traversal to_ast(root, perm) performs, but returns
  // false instead of tripping its asserts — snapshot input is untrusted.
  switch (forest_.kind(root)) {
    case ast::NodeKind::Leaf:
      return true;
    case ast::NodeKind::Not:
      return permutation_valid(forest_.children(root).front(), perm, cursor);
    case ast::NodeKind::And:
    case ast::NodeKind::Or:
      break;
  }
  const std::span<const NodeId> stored = forest_.children(root);
  if (cursor + stored.size() > perm.size()) return false;
  const std::span<const std::uint32_t> p = perm.subspan(cursor, stored.size());
  cursor += stored.size();
  std::uint64_t seen = 0;
  for (std::size_t written = 0; written < stored.size(); ++written) {
    if (p[written] >= stored.size()) return false;
    if (stored.size() <= 64) {
      // Fast duplicate check for the overwhelmingly common small fan-out.
      const std::uint64_t bit = 1ull << p[written];
      if (seen & bit) return false;
      seen |= bit;
    }
    if (!permutation_valid(stored[p[written]], perm, cursor)) return false;
  }
  if (stored.size() > 64) {
    std::vector<std::uint32_t> sorted(p.begin(), p.end());
    std::sort(sorted.begin(), sorted.end());
    for (std::uint32_t i = 0; i < sorted.size(); ++i) {
      if (sorted[i] != i) return false;
    }
  }
  return true;
}

void NonCanonicalEngine::prepare_snapshot() {
  forest_.compact_storage();
}

void NonCanonicalEngine::save_state(storage::Writer& w) const {
  table_->save_state(w);
  forest_.save_state(w);

  w.varint(subs_.size());
  w.varint(live_count_);
  for (std::uint32_t id = 0; id < subs_.size(); ++id) {
    const SubRecord& record = subs_[id];
    if (!record.live) continue;
    w.varint(id);
    w.varint(record.root);
    w.varint(record.perm.size());
    for (const std::uint32_t entry : record.perm) w.varint(entry);
  }

  std::uint64_t borrowers = 0;
  for (const NodeId donor : donor_of_) {
    if (donor != SharedForest::kNoNode) ++borrowers;
  }
  NCPS_DASSERT(borrowers == live_borrowers_);
  w.varint(borrowers);
  for (NodeId root = 0; root < donor_of_.size(); ++root) {
    if (donor_of_[root] != SharedForest::kNoNode) {
      w.varint(root);
      w.varint(donor_of_[root]);
    }
  }
}

void NonCanonicalEngine::load_state(storage::Reader& r,
                                    std::span<const AttributeId> attr_remap,
                                    ThreadPool* pool) {
  NCPS_EXPECTS(subs_.empty() && live_count_ == 0 &&
               forest_.live_nodes() == 0 && table_->size() == 0);

  table_->load_state(r, attr_remap);
  forest_.load_state(r, table_->id_bound());

  // The predicate ownership ledger: at a quiesced snapshot every live table
  // predicate is owned by exactly its forest leaf (the leaf hooks), so the
  // two live sets must coincide.
  const std::size_t pred_bound = table_->id_bound();
  use_count_.assign(pred_bound, 0);
  std::vector<PredicateIndex::BulkEntry> entries;
  entries.reserve(table_->size());
  for (std::uint32_t pid = 0; pid < pred_bound; ++pid) {
    const bool pred_live = table_->is_live(PredicateId(pid));
    const bool leaf_live = forest_.leaf_of(PredicateId(pid)) !=
                           SharedForest::kNoNode;
    if (pred_live != leaf_live) {
      throw StorageError("predicate/leaf ownership mismatch in snapshot");
    }
    if (!pred_live) continue;
    use_count_[pid] = 1;
    entries.push_back({PredicateId(pid), &table_->get(PredicateId(pid))});
  }
  index_.bulk_load(entries, pool);

  // Subscription records: each live subscription holds one root reference
  // and (under SortedChildren) its evaluation permutation.
  const std::size_t node_bound = forest_.node_bound();
  const std::uint64_t sub_bound =
      r.varint_max(1u << 30, "subscription id bound");
  const std::uint64_t live = r.varint_max(sub_bound, "live subscriptions");
  subs_.resize(sub_bound);
  for (std::uint64_t n = 0; n < live; ++n) {
    const std::uint64_t id =
        r.varint_max(sub_bound - 1, "subscription id");
    if (subs_[id].live) throw StorageError("duplicate subscription id");
    const std::uint64_t root =
        r.varint_max(node_bound - 1, "subscription root");
    if (!forest_.is_live(static_cast<NodeId>(root))) {
      throw StorageError("subscription attached to a dead root");
    }
    const std::uint64_t perm_size =
        r.varint_max(r.remaining(), "permutation size");
    std::vector<std::uint32_t> perm;
    perm.reserve(perm_size);
    for (std::uint64_t i = 0; i < perm_size; ++i) {
      perm.push_back(static_cast<std::uint32_t>(
          r.varint_max(SharedForest::kMaxChildren - 1, "permutation entry")));
    }
    if (!perm.empty()) {
      if (options_.normalisation == Normalisation::None) {
        throw StorageError("permutation under order-preserving identity");
      }
      std::size_t cursor = 0;
      if (!permutation_valid(static_cast<NodeId>(root), perm, cursor) ||
          cursor != perm.size()) {
        throw StorageError("invalid evaluation permutation");
      }
    }
    attach(SubscriptionId(static_cast<std::uint32_t>(id)),
           static_cast<NodeId>(root),
           root_signature(static_cast<NodeId>(root)));
    subs_[id].perm = std::move(perm);
    ++live_count_;
  }
  for (std::uint32_t id = static_cast<std::uint32_t>(sub_bound); id-- > 0;) {
    if (!subs_[id].live) free_ids_.push_back(SubscriptionId(id));
  }

  // Partial-sharing borrower -> donor pairs.
  const std::uint64_t borrowers =
      r.varint_max(live, "borrower count");
  donor_of_.assign(node_bound, SharedForest::kNoNode);
  for (std::uint64_t n = 0; n < borrowers; ++n) {
    const std::uint64_t root = r.varint_max(node_bound - 1, "borrower root");
    const std::uint64_t donor = r.varint_max(node_bound - 1, "donor node");
    if (!options_.partial_sharing) {
      throw StorageError("donor records but partial sharing is disabled");
    }
    if (!forest_.is_live(static_cast<NodeId>(donor)) ||
        root_head_.find(static_cast<NodeId>(root)) == root_head_.end()) {
      throw StorageError("borrower/donor pair references a dead node");
    }
    if (donor_of_[root] != SharedForest::kNoNode) {
      throw StorageError("duplicate borrower record");
    }
    if (donor_of_[donor] != SharedForest::kNoNode) {
      throw StorageError("chained borrower in snapshot");
    }
    donor_of_[root] = static_cast<NodeId>(donor);
  }
  live_borrowers_ = borrowers;
  // A donor that is itself a borrower can also appear with the pairs in
  // the other order; the chain check above only catches donor-first.
  for (NodeId root = 0; root < donor_of_.size(); ++root) {
    const NodeId donor = donor_of_[root];
    if (donor != SharedForest::kNoNode &&
        donor_of_[donor] != SharedForest::kNoNode) {
      throw StorageError("chained borrower in snapshot");
    }
  }

  // Donor candidate index: exactly the current result roots, each filed
  // under its smallest predicate id (mirrors add()/detach()). Ascending
  // node id keeps recovered probe order deterministic.
  if (options_.partial_sharing) {
    std::vector<NodeId> roots;
    roots.reserve(root_head_.size());
    for (const auto& [root, head] : root_head_) roots.push_back(root);
    std::sort(roots.begin(), roots.end());
    for (const NodeId root : roots) {
      pred_scratch_.clear();
      collect_root_predicates(root, pred_scratch_);
      const PredicateId min_pred =
          *std::min_element(pred_scratch_.begin(), pred_scratch_.end());
      roots_by_pred_[min_pred.value()].push_back(root);
    }
  }

  // Full ownership ledger: every forest reference must be accounted for by
  // a parent edge, a subscription's root reference or a borrower's donor
  // reference. An over-count merely leaks, but an under-count would free a
  // node still chained to subscriptions — reject both.
  std::vector<std::uint32_t> expected(node_bound, 0);
  for (NodeId id = 0; id < node_bound; ++id) {
    if (!forest_.is_live(id) || forest_.kind(id) == ast::NodeKind::Leaf) {
      continue;
    }
    for (const NodeId child : forest_.children(id)) ++expected[child];
  }
  for (const SubRecord& record : subs_) {
    if (record.live) ++expected[record.root];
  }
  for (const NodeId donor : donor_of_) {
    if (donor != SharedForest::kNoNode) ++expected[donor];
  }
  for (NodeId id = 0; id < node_bound; ++id) {
    if (forest_.is_live(id) && forest_.ref_count(id) != expected[id]) {
      throw StorageError("forest ownership ledger mismatch");
    }
  }
}

void NonCanonicalEngine::compact_storage() {
  FilterEngine::compact_storage();
  forest_.compact_storage();
  for (auto& record : subs_) record.perm.shrink_to_fit();
  subs_.shrink_to_fit();
  free_ids_.shrink_to_fit();
  is_root_.shrink_to_fit();
  always_roots_.shrink_to_fit();
  donor_of_.shrink_to_fit();
  for (auto& entry : roots_by_pred_) entry.second.shrink_to_fit();
  perm_scratch_.shrink_to_fit();
  pred_scratch_.shrink_to_fit();
  for (auto& entry : roots_by_sig_) entry.second.shrink_to_fit();
}

MemoryBreakdown NonCanonicalEngine::memory() const {
  MemoryBreakdown mem;
  mem.add_nested("forest/", forest_.memory());
  // Unsubscription support: each subscription's root reference + chain
  // links (the forest analogue of the paper's footnote-1 association),
  // plus the per-root evaluation permutations (SortedChildren only).
  std::size_t records = vector_bytes(subs_);
  for (const auto& record : subs_) records += vector_bytes(record.perm);
  mem.add("unsub_support/subscription_records", records);
  std::size_t attachment = unordered_map_bytes(root_head_) +
                           unordered_map_bytes(root_sig_) +
                           unordered_map_bytes(roots_by_sig_) +
                           vector_bytes(always_roots_) +
                           vector_bytes(is_root_);
  for (const auto& entry : roots_by_sig_) {
    attachment += vector_bytes(entry.second);
  }
  mem.add("root_attachment", attachment);
  std::size_t partial = vector_bytes(donor_of_) +
                        unordered_map_bytes(roots_by_pred_);
  for (const auto& entry : roots_by_pred_) {
    partial += vector_bytes(entry.second);
  }
  mem.add("partial_sharing", partial);
  mem.add("scratch/free_ids", vector_bytes(free_ids_));
  mem.add_nested("index/", index_.memory());
  return mem;
}

}  // namespace ncps
