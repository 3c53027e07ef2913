#include "engine/non_canonical_engine.h"

#include <algorithm>
#include <bit>

#include "common/contracts.h"
#include "storage/serializer.h"

namespace ncps {

NonCanonicalEngine::NonCanonicalEngine(PredicateTable& table)
    : FilterEngine(table),
      forest_([this](PredicateId p) { acquire_predicate(p); },
              [this](PredicateId p) { release_predicate(p); }) {}

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

void NonCanonicalEngine::validate(const ast::Node& expression,
                                  PredicateTable& /*scratch*/) const {
  SharedForest::validate_limits(expression);
}

SubscriptionId NonCanonicalEngine::add(const ast::Node& expression) {
  // intern() checks limits before any mutation, so an oversized
  // expression throws here with no state change. Commuted spellings of an
  // existing root land on it here, by identity.
  const NodeId root = forest_.intern(expression).id;
  const SubscriptionId id = allocate_id();
  attach(id, root);
  ++live_count_;
  return id;
}

std::size_t NonCanonicalEngine::distinct_roots() const {
  return chain_head_.size() - static_cast<std::size_t>(std::count(
                                  chain_head_.begin(), chain_head_.end(),
                                  kNoSub));
}

void NonCanonicalEngine::attach(SubscriptionId id, NodeId root) {
  if (chain_head_.size() <= root) chain_head_.resize(root + 1, kNoSub);
  SubRecord& record = subs_[id.value()];
  record.root = root;
  record.prev = kNoSub;
  record.next = chain_head_[root];
  record.chain_length = 1;
  chain_head_[root] = id.value();
  if (record.next != kNoSub) {
    subs_[record.next].prev = id.value();
    record.chain_length += subs_[record.next].chain_length;
  } else if (forest_.static_truth(root)) {
    always_roots_.push_back(root);
  }
}

void NonCanonicalEngine::detach(SubscriptionId id) {
  SubRecord& record = subs_[id.value()];
  const NodeId root = record.root;
  if (record.prev != kNoSub) {
    subs_[record.prev].next = record.next;
    if (record.next != kNoSub) subs_[record.next].prev = record.prev;
    --subs_[chain_head_[root]].chain_length;
  } else {
    NCPS_DASSERT(chain_head_[root] == id.value());
    chain_head_[root] = record.next;
    if (record.next != kNoSub) {
      subs_[record.next].prev = kNoSub;
      subs_[record.next].chain_length = record.chain_length - 1;
    } else {
      // Last subscription on this root: it stops being a result root.
      if (forest_.static_truth(root)) {
        auto& always = always_roots_;
        always.erase(std::find(always.begin(), always.end(), root));
      }
    }
  }
  forest_.release(root);
}

bool NonCanonicalEngine::remove(SubscriptionId id) {
  if (!owns_subscription(id)) return false;
  detach(id);
  subs_[id.value()] = SubRecord{};
  free_ids_.push_back(id);
  --live_count_;
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

void NonCanonicalEngine::match_slice(std::span<const Event> range,
                                     std::size_t first, MatchSink& sink,
                                     MatchContext& ctx) const {
  // Per block, the block path sweeps the node arena once per non-empty
  // rank, plus once to reset the lane masks and scan for true roots; the
  // per-event path costs about kSlotsPerFlip slots per fulfilled leaf. A
  // single event has no other event to share a sweep with, so it runs
  // exactly what match_predicates runs; a deep forest's many rank passes
  // keep its slices per event.
  const std::size_t blocks = (range.size() + kLanes - 1) / kLanes;
  const std::size_t sweep =
      blocks * (forest_.interior_ranks() + 1) * forest_.node_bound();
  if (range.size() < 2 || ctx.fulfilled.size() * kSlotsPerFlip < sweep) {
    FilterEngine::match_slice(range, first, sink, ctx);
    return;
  }
  for (std::size_t begin = 0; begin < range.size(); begin += kLanes) {
    match_block(range, first, begin, std::min(range.size(), begin + kLanes),
                sink, static_cast<ForestContext&>(ctx));
  }
}

void NonCanonicalEngine::match_block(std::span<const Event> range,
                                     std::size_t first, std::size_t begin,
                                     std::size_t end, MatchSink& sink,
                                     ForestContext& ctx) const {
  const std::size_t lanes = end - begin;
  NCPS_DASSERT(lanes >= 1 && lanes <= kLanes);
  const std::uint64_t all =
      lanes == kLanes ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
  const std::size_t bound = forest_.node_bound();
  if (ctx.lanes.size() < bound) ctx.lanes.resize(bound);
  std::fill_n(ctx.lanes.begin(), bound, 0);

  // Seed: lane i of a fulfilled leaf is event begin + i.
  for (std::size_t i = 0; i < lanes; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    for (std::uint32_t k = ctx.offsets[begin + i];
         k < ctx.offsets[begin + i + 1]; ++k) {
      const NodeId leaf = forest_.leaf_of(ctx.fulfilled[k]);
      if (leaf != SharedForest::kNoNode) ctx.lanes[leaf] |= bit;
    }
  }

  // Every live interior node once, children first. Static truth needs no
  // special case: a NOT over an all-false child is all-true.
  std::uint64_t evaluated = 0;
  forest_.for_each_interior_by_rank(
      [&](NodeId n, ast::NodeKind kind, std::span<const NodeId> kids) {
        std::uint64_t mask = 0;
        if (kind == ast::NodeKind::And) {
          mask = all;
          for (const NodeId k : kids) mask &= ctx.lanes[k];
        } else if (kind == ast::NodeKind::Or) {
          for (const NodeId k : kids) mask |= ctx.lanes[k];
        } else {
          mask = ~ctx.lanes[kids.front()] & all;
        }
        ctx.lanes[n] = mask;
        ++evaluated;
      });

  // Emit lane by lane, so the sink sees events in batch order. Buckets
  // are emptied first: a sink that threw mid-block left them full.
  ctx.lane_roots.resize(kLanes);
  for (std::vector<NodeId>& bucket : ctx.lane_roots) bucket.clear();
  for (NodeId n = 0; n < chain_head_.size(); ++n) {
    if (chain_head_[n] == kNoSub) continue;
    for (std::uint64_t m = ctx.lanes[n]; m != 0; m &= m - 1) {
      ctx.lane_roots[std::countr_zero(m)].push_back(n);
    }
  }
  for (std::size_t i = 0; i < lanes; ++i) {
    const std::size_t event_index = first + begin + i;
    const Event& event = range[begin + i];
    for (const NodeId root : ctx.lane_roots[i]) {
      const std::uint32_t head = chain_head_[root];
      ctx.stats.matches += subs_[head].chain_length;
      for (std::uint32_t s = head; s != kNoSub; s = subs_[s].next) {
        sink.on_match(event_index, event, SubscriptionId(s));
      }
    }
  }

  ctx.stats.events += lanes;
  ctx.stats.block_events += lanes;
  ctx.stats.fulfilled_predicates +=
      ctx.offsets[end] - ctx.offsets[begin];
  ctx.stats.node_evaluations += evaluated;
  ctx.stats.candidates += live_count_;
}

template <typename Emit>
void NonCanonicalEngine::match_impl(std::span<const PredicateId> fulfilled,
                                    ForestContext& ctx, Emit&& emit) const {
  const std::size_t bound = forest_.node_bound();
  if (ctx.touched.capacity() < bound) ctx.touched.resize(bound);
  if (ctx.value.size() < bound) {
    ctx.value.resize(bound);
    ctx.flips.resize(bound);
  }
  if (ctx.leaf_bits.size() * 64 < bound) {
    ctx.leaf_bits.resize((bound + 63) / 64);
    ctx.leaf_words.resize((ctx.leaf_bits.size() + 63) / 64);
  }
  ctx.touched.clear();
  ctx.frontier.clear();
  ctx.max_rank_touched = 0;
#ifndef NDEBUG
  // Scratch-reset invariant: the previous event must have drained every
  // rank bucket it filled, whatever shape it had (a tall tree followed by
  // a leaf-only event must not replay stale high-rank nodes), emptied the
  // flip stack and cleared every leaf bit it set.
  for (const auto& bucket : ctx.rank_buckets) NCPS_DASSERT(bucket.empty());
  NCPS_DASSERT(ctx.stack.empty());
  for (const std::uint64_t w : ctx.leaf_words) NCPS_DASSERT(w == 0);
  for (const std::uint64_t w : ctx.leaf_bits) NCPS_DASSERT(w == 0);
#endif

  // A touched node's truth: a count-decided node's follows from its flip
  // count, a leaf's or NOT-bearing node's was written to `value`.
  const auto touched_truth = [&](NodeId n) {
    const std::uint32_t threshold = forest_.flip_threshold(n);
    if (threshold != 0) return ctx.flips[n] >= threshold;
    return ctx.value[n] != 0;
  };
  // At its first touch a result root joins the frontier. chain_head_ is
  // sized by attach(): nodes above the highest root id (fresh interior
  // nodes) simply are not roots. Read, never resize — the match path must
  // not mutate engine state.
  const auto first_touch = [&](NodeId n) {
    if (n < chain_head_.size() && chain_head_[n] != kNoSub) {
      ctx.frontier.push_back(n);
    }
  };

  // A node *flips* when its truth differs from its static (all-false)
  // truth. Only a flipped child can change a parent's value, so each parent
  // edge counts one flip, and the first flip touches the parent. A
  // count-decided parent flips in turn the moment its count reaches its
  // threshold (OR: the first flip, AND: all child edges); the count only
  // rises within an event, so that is the value it ends with. A NOT-bearing
  // parent waits in its rank bucket for every child to settle.
  const auto flip = [&](NodeId n) {
    ctx.stack.push_back(n);
    while (!ctx.stack.empty()) {
      const NodeId child = ctx.stack.back();
      ctx.stack.pop_back();
      forest_.for_each_parent(child, [&](NodeId parent) {
        std::uint32_t count;
        if (ctx.touched.insert(parent)) {
          ++ctx.stats.node_evaluations;
          count = ctx.flips[parent] = 1;
          first_touch(parent);
        } else {
          count = ++ctx.flips[parent];
        }
        const std::uint32_t threshold = forest_.flip_threshold(parent);
        if (threshold == 0) {
          if (count > 1) return;  // already in its bucket
          const std::uint32_t r = forest_.rank(parent);
          if (r >= ctx.rank_buckets.size()) ctx.rank_buckets.resize(r + 1);
          ctx.rank_buckets[r].push_back(parent);
          ctx.max_rank_touched = std::max(ctx.max_rank_touched, r);
        } else if (count == threshold) {
          ctx.stack.push_back(parent);
        }
      });
    }
  };

  // Seed: fulfilled leaves go into the bitmap, then flip in ascending node
  // id, so the climb through the forest's arrays streams instead of jumping.
  for (const PredicateId pid : fulfilled) {
    const NodeId leaf = forest_.leaf_of(pid);
    if (leaf == SharedForest::kNoNode) continue;
    ctx.leaf_bits[leaf / 64] |= std::uint64_t{1} << (leaf % 64);
    ctx.leaf_words[leaf / 4096] |= std::uint64_t{1} << (leaf / 64 % 64);
  }
  for (std::size_t sw = 0; sw < ctx.leaf_words.size(); ++sw) {
    for (; ctx.leaf_words[sw] != 0;
         ctx.leaf_words[sw] &= ctx.leaf_words[sw] - 1) {
      const std::size_t w = sw * 64 + std::countr_zero(ctx.leaf_words[sw]);
      for (std::uint64_t& bits = ctx.leaf_bits[w]; bits != 0;
           bits &= bits - 1) {
        const auto leaf = static_cast<NodeId>(w * 64 + std::countr_zero(bits));
        ctx.touched.insert(leaf);
        ctx.value[leaf] = 1;
        first_touch(leaf);
        flip(leaf);
      }
    }
  }

  // Evaluate the touched NOT-bearing nodes bottom-up. Rank order is a
  // topological order: by the time bucket r runs, every node below rank r
  // has settled (leaves at the seed, count-decided nodes at their last
  // flip, which comes from a lower rank, NOT-bearing nodes in their own
  // lower bucket). An untouched child still has its static truth: none of
  // its children flipped.
  const auto value_of = [&](NodeId n) {
    ++ctx.stats.truth_lookups;
    if (!ctx.touched.contains(n)) return forest_.static_truth(n);
    return touched_truth(n);
  };
  const auto eval_node = [&](NodeId n) {
    const ast::NodeKind kind = forest_.kind(n);
    NCPS_DASSERT(kind != ast::NodeKind::Leaf);
    // A touched NOT's only child flipped, so the NOT flips too.
    if (kind == ast::NodeKind::Not) return !forest_.static_truth(n);
    // A statically-true child: scan the children.
    const std::span<const NodeId> kids = forest_.children(n);
    if (kind == ast::NodeKind::And) {
      return std::all_of(kids.begin(), kids.end(), value_of);
    }
    return std::any_of(kids.begin(), kids.end(), value_of);
  };
  for (std::uint32_t r = 1; r <= ctx.max_rank_touched; ++r) {
    // Indexed: flip() may grow rank_buckets (higher ranks) mid-loop.
    for (std::size_t i = 0; i < ctx.rank_buckets[r].size(); ++i) {
      const NodeId n = ctx.rank_buckets[r][i];
      const bool v = eval_node(n);
      ctx.value[n] = v ? 1 : 0;
      if (v != forest_.static_truth(n)) flip(n);
    }
    ctx.rank_buckets[r].clear();
  }

  // Emit: every touched result root whose truth is true notifies all
  // subscriptions chained on it...
  const auto emit_chain = [&](std::uint32_t head) {
    ctx.stats.candidates += subs_[head].chain_length;
    ctx.stats.matches += subs_[head].chain_length;
    for (std::uint32_t s = head; s != kNoSub; s = subs_[s].next) {
      emit(SubscriptionId(s));
    }
  };
  for (const NodeId n : ctx.frontier) {
    const std::uint32_t head = chain_head_[n];
    if (touched_truth(n)) {
      emit_chain(head);
    } else {
      // Candidates examined but refuted: the chain is counted, not walked.
      ctx.stats.candidates += subs_[head].chain_length;
    }
  }
  // ...plus the always-candidate roots nothing touched: with no flipped
  // child their static truth (true) stands.
  for (const NodeId root : always_roots_) {
    if (ctx.touched.contains(root)) continue;  // in the frontier
    emit_chain(chain_head_[root]);
  }
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
    if (!record.live()) continue;
    w.varint(id);
    w.varint(record.root);
  }
}

void NonCanonicalEngine::load_state(storage::Reader& r,
                                    std::span<const AttributeId> attr_remap,
                                    WorkStealingPool* pool) {
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

  // Subscription records: each live subscription holds one root reference.
  const std::size_t node_bound = forest_.node_bound();
  const std::uint64_t sub_bound =
      r.varint_max(1u << 30, "subscription id bound");
  const std::uint64_t live = r.varint_max(sub_bound, "live subscriptions");
  subs_.resize(sub_bound);
  for (std::uint64_t n = 0; n < live; ++n) {
    const std::uint64_t id =
        r.varint_max(sub_bound - 1, "subscription id");
    if (subs_[id].live()) throw StorageError("duplicate subscription id");
    const std::uint64_t root =
        r.varint_max(node_bound - 1, "subscription root");
    if (!forest_.is_live(static_cast<NodeId>(root))) {
      throw StorageError("subscription attached to a dead root");
    }
    attach(SubscriptionId(static_cast<std::uint32_t>(id)),
           static_cast<NodeId>(root));
    ++live_count_;
  }
  for (std::uint32_t id = static_cast<std::uint32_t>(sub_bound); id-- > 0;) {
    if (!subs_[id].live()) free_ids_.push_back(SubscriptionId(id));
  }

  // Full ownership ledger: every forest reference must be accounted for by
  // a parent edge or a subscription's root reference. An over-count merely
  // leaks, but an under-count would free a node still chained to
  // subscriptions — reject both.
  std::vector<std::uint32_t> expected(node_bound, 0);
  for (NodeId id = 0; id < node_bound; ++id) {
    if (!forest_.is_live(id) || forest_.kind(id) == ast::NodeKind::Leaf) {
      continue;
    }
    for (const NodeId child : forest_.children(id)) ++expected[child];
  }
  for (const SubRecord& record : subs_) {
    if (record.live()) ++expected[record.root];
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
  subs_.shrink_to_fit();
  free_ids_.shrink_to_fit();
  chain_head_.shrink_to_fit();
  always_roots_.shrink_to_fit();
}

MemoryBreakdown NonCanonicalEngine::memory() const {
  MemoryBreakdown mem;
  mem.add_nested("forest/", forest_.memory());
  // Unsubscription support: each subscription's root reference + chain
  // links (the forest analogue of the paper's footnote-1 association).
  mem.add("unsub_support/subscription_records", vector_bytes(subs_));
  const std::size_t attachment =
      vector_bytes(chain_head_) + vector_bytes(always_roots_);
  mem.add("root_attachment", attachment);
  mem.add("scratch/free_ids", vector_bytes(free_ids_));
  mem.add_nested("index/", index_.memory());
  return mem;
}

}  // namespace ncps
