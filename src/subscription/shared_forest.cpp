#include "subscription/shared_forest.h"

#include <algorithm>
#include <bit>
#include <ranges>
#include <utility>

#include "common/hash.h"
#include "storage/serializer.h"

namespace ncps {

namespace {

void check_limits(const ast::Node& node, std::size_t depth) {
  if (depth > SharedForest::kMaxDepth) {
    throw ForestLimitError("subscription tree deeper than " +
                           std::to_string(SharedForest::kMaxDepth) +
                           " levels");
  }
  if (node.children.size() > SharedForest::kMaxChildren) {
    throw ForestLimitError("node with " +
                           std::to_string(node.children.size()) +
                           " children exceeds the forest's " +
                           std::to_string(SharedForest::kMaxChildren) +
                           "-child limit");
  }
  for (const auto& c : node.children) check_limits(*c, depth + 1);
}

/// An interior node's static truth and decided_by_flips flag, from its
/// kind and its children's static truths (`truth(child)`).
template <typename Truth>
std::pair<bool, bool> interior_truth(ast::NodeKind kind,
                                     std::span<const SharedForest::NodeId> kids,
                                     Truth&& truth) {
  const bool any_true = std::any_of(kids.begin(), kids.end(), truth);
  switch (kind) {
    case ast::NodeKind::And:
      return {std::all_of(kids.begin(), kids.end(), truth), !any_true};
    case ast::NodeKind::Or:
      return {any_true, !any_true};
    case ast::NodeKind::Not:
      NCPS_DASSERT(kids.size() == 1);
      return {!any_true, false};
    case ast::NodeKind::Leaf:
      break;
  }
  NCPS_ASSERT(false && "unreachable");
}

}  // namespace

void SharedForest::validate_limits(const ast::Node& expression) {
  check_limits(expression, 0);
}

std::uint64_t SharedForest::leaf_hash(PredicateId pred) const {
  return hash_mix(0x1eafull, pred.value());
}

template <typename Ids>
std::uint64_t SharedForest::interior_hash(ast::NodeKind kind,
                                          const Ids& kids) {
  std::uint64_t h = hash_mix(0x0ddfull, static_cast<std::uint64_t>(kind));
  for (const NodeId k : kids) h = hash_mix(h, k);
  return h;
}

std::uint64_t SharedForest::node_hash(NodeId id) const {
  return kind(id) == ast::NodeKind::Leaf ? leaf_hash(leaf_predicate(id))
                                         : interior_hash(kind(id),
                                                         children(id));
}

void SharedForest::bucket_insert(NodeId id, std::uint64_t hash) {
  if (buckets_.empty() || live_count_ >= buckets_.size() * 2) {
    // rehash() links every live node — the caller marked `id` live before
    // calling, so it is already in its chain afterwards.
    rehash(std::max<std::size_t>(64, std::bit_ceil(live_count_ + 1)));
    return;
  }
  const std::size_t b = hash & (buckets_.size() - 1);
  next_[id] = buckets_[b];
  buckets_[b] = id;
}

void SharedForest::bucket_remove(NodeId id, std::uint64_t hash) {
  const std::size_t b = hash & (buckets_.size() - 1);
  NodeId* link = &buckets_[b];
  while (*link != id) {
    NCPS_DASSERT(*link != kNoNode);  // every live node is in its chain
    link = &next_[*link];
  }
  *link = next_[id];
  next_[id] = kNoNode;
}

void SharedForest::rehash(std::size_t bucket_count) {
  buckets_.assign(bucket_count, kNoNode);
  std::fill(next_.begin(), next_.end(), kNoNode);
  for (NodeId id = 0; id < metas_.size(); ++id) {
    if (metas_[id].refs == 0) continue;
    const std::size_t b = node_hash(id) & (bucket_count - 1);
    next_[id] = buckets_[b];
    buckets_[b] = id;
  }
}

SharedForest::NodeId SharedForest::new_node() {
  if (!free_nodes_.empty()) {
    const NodeId id = free_nodes_.back();
    free_nodes_.pop_back();
    // A recycled slot must carry nothing from its previous life.
    NCPS_DASSERT(metas_[id].refs == 0 && metas_[id].parent0 == kNoNode);
    return id;
  }
  metas_.emplace_back();
  metas_.back().parent0 = kNoNode;
  next_.push_back(kNoNode);
  return static_cast<NodeId>(metas_.size() - 1);
}

std::uint32_t SharedForest::alloc_children(std::size_t count) {
  if (count < child_free_.size() && !child_free_[count].empty()) {
    const std::uint32_t offset = child_free_[count].back();
    child_free_[count].pop_back();
    return offset;
  }
  const std::size_t offset = child_arena_.size();
  NCPS_ASSERT(offset + count <= UINT32_MAX);
  child_arena_.resize(offset + count);
  return static_cast<std::uint32_t>(offset);
}

void SharedForest::free_children(std::uint32_t offset, std::size_t count) {
  if (count == 0) return;
  if (child_free_.size() <= count) child_free_.resize(count + 1);
  child_free_[count].push_back(offset);
}

void SharedForest::add_parent(NodeId child, NodeId parent) {
  Meta& cm = metas_[child];
  if (cm.parent0 == kNoNode) {
    cm.parent0 = parent;
    return;
  }
  extra_parents_[child].push_back(parent);
  cm.packed |= 1u << 30;
}

void SharedForest::remove_parent(NodeId child, NodeId parent) {
  Meta& cm = metas_[child];
  if (((cm.packed >> 30) & 0x1u) == 0) {
    NCPS_DASSERT(cm.parent0 == parent);
    cm.parent0 = kNoNode;
    return;
  }
  std::vector<NodeId>& extra = extra_parents_.at(child);
  if (cm.parent0 == parent) {
    cm.parent0 = extra.back();
    extra.pop_back();
  } else {
    const auto it = std::find(extra.rbegin(), extra.rend(), parent);
    NCPS_DASSERT(it != extra.rend());
    *it = extra.back();
    extra.pop_back();
  }
  if (extra.empty()) {
    extra_parents_.erase(child);
    cm.packed &= ~(1u << 30);
  }
}

SharedForest::InternResult SharedForest::intern(const ast::Node& expression) {
  validate_limits(expression);
  const NodeId root = intern_node(expression).second;
  // A pre-existing root gained a reference on top of its owners' (>= 2);
  // a freshly created root carries exactly the caller's one.
  return InternResult{root, metas_[root].refs == 1};
}

SharedForest::ChildKey SharedForest::intern_node(const ast::Node& node) {
  if (node.kind == ast::NodeKind::Leaf) {
    const std::uint64_t hash = leaf_hash(node.pred);
    const std::uint32_t pid = node.pred.value();
    if (pid >= leaf_by_pred_.size()) leaf_by_pred_.resize(pid + 1, kNoNode);
    if (leaf_by_pred_[pid] != kNoNode) {
      const NodeId id = leaf_by_pred_[pid];
      ++metas_[id].refs;
      return {hash, id};
    }
    const NodeId id = new_node();
    metas_[id] = Meta{pid, 1, kNoNode,
                      pack(0, 0, ast::NodeKind::Leaf, /*static=*/false)};
    leaf_by_pred_[pid] = id;
    ++live_count_;
    bucket_insert(id, hash);
    if (on_leaf_created_) on_leaf_created_(node.pred);
    return {hash, id};
  }

  // Interior node: intern children first (one temporary reference each),
  // stacking their keys above those of the enclosing nodes. Each child's
  // own recursion pops back to where it started, so after the loop this
  // node's keys are exactly the top of the stack.
  const std::size_t base = intern_stack_.size();
  for (const auto& c : node.children) intern_stack_.push_back(intern_node(*c));
  const auto keys = std::ranges::subrange(intern_stack_.begin() + base,
                                          intern_stack_.end());
  // Canonical child order: structural hash, ties broken by node id. Equal
  // keys are the same child, so repeated children keep their multiplicity.
  if (node.kind != ast::NodeKind::Not) std::ranges::sort(keys);
  const auto kids = keys | std::views::values;
  const std::uint64_t hash = interior_hash(node.kind, kids);
  const std::size_t count = keys.size();

  NodeId found = kNoNode;
  if (!buckets_.empty()) {
    for (NodeId id = buckets_[hash & (buckets_.size() - 1)]; id != kNoNode;
         id = next_[id]) {
      if (kind(id) == node.kind && child_count(id) == count &&
          std::ranges::equal(children(id), kids)) {
        found = id;
        break;
      }
    }
  }
  if (found != kNoNode) {
    // Structurally identical node exists: it already owns one reference
    // per child occurrence, so our temporaries are surplus.
    ++metas_[found].refs;
    for (const NodeId k : kids) release(k);
    intern_stack_.resize(base);
    return {hash, found};
  }

  // Create: the new node adopts the temporary child references.
  std::uint32_t max_rank = 0;
  for (const NodeId k : kids) max_rank = std::max(max_rank, rank(k));
  const std::uint32_t offset = alloc_children(count);
  std::ranges::copy(kids, child_arena_.begin() + offset);
  intern_stack_.resize(base);
  const std::span<const NodeId> stored(child_arena_.data() + offset, count);
  const auto [stat, by_flips] = interior_truth(
      node.kind, stored, [&](NodeId k) { return static_truth(k); });
  const NodeId id = new_node();
  metas_[id] = Meta{offset, 1, kNoNode,
                    pack(count, max_rank + 1, node.kind, stat, by_flips)};
  for (const NodeId k : stored) add_parent(k, id);
  ++live_count_;
  bucket_insert(id, hash);
  return {hash, id};
}

void SharedForest::release(NodeId id) {
  Meta& m = metas_[id];
  NCPS_DASSERT(m.refs > 0);
  if (--m.refs > 0) return;

  bucket_remove(id, node_hash(id));
  --live_count_;
  if (kind(id) == ast::NodeKind::Leaf) {
    leaf_by_pred_[m.data] = kNoNode;
    if (on_leaf_released_) on_leaf_released_(PredicateId(m.data));
  } else {
    const std::size_t count = child_count(id);
    const std::uint32_t offset = m.data;
    // The slice stays valid across the cascade: releasing never allocates
    // child slices, and this one returns to the free list only below.
    const std::span<const NodeId> kids(child_arena_.data() + offset, count);
    for (const NodeId k : kids) remove_parent(k, id);
    for (const NodeId k : kids) release(k);
    free_children(offset, count);
  }
  // Zero references implies zero parent edges: every parent held one.
  NCPS_DASSERT(m.parent0 == kNoNode && ((m.packed >> 30) & 0x1u) == 0);
  m = Meta{};
  m.parent0 = kNoNode;
  free_nodes_.push_back(id);
}

ast::NodePtr SharedForest::to_ast(NodeId id) const {
  if (kind(id) == ast::NodeKind::Leaf) {
    return ast::leaf(leaf_predicate(id));
  }
  std::vector<ast::NodePtr> kids;
  kids.reserve(child_count(id));
  for (const NodeId c : children(id)) kids.push_back(to_ast(c));
  switch (kind(id)) {
    case ast::NodeKind::And:
      return ast::make_and(std::move(kids));
    case ast::NodeKind::Or:
      return ast::make_or(std::move(kids));
    case ast::NodeKind::Not:
      return ast::make_not(std::move(kids.front()));
    case ast::NodeKind::Leaf:
      break;
  }
  NCPS_ASSERT(false && "unreachable");
}

void SharedForest::compact_storage() {
  // Rewrite the child arena with only live slices (NodeIds are untouched).
  std::vector<NodeId> compacted;
  std::size_t live_slots = 0;
  for (NodeId id = 0; id < metas_.size(); ++id) {
    if (metas_[id].refs > 0) live_slots += child_count(id);
  }
  compacted.reserve(live_slots);
  for (NodeId id = 0; id < metas_.size(); ++id) {
    Meta& m = metas_[id];
    if (m.refs == 0 || kind(id) == ast::NodeKind::Leaf) continue;
    const std::size_t count = child_count(id);
    const std::size_t offset = compacted.size();
    compacted.insert(compacted.end(), child_arena_.begin() + m.data,
                     child_arena_.begin() + m.data + count);
    m.data = static_cast<std::uint32_t>(offset);
  }
  child_arena_ = std::move(compacted);
  child_free_.clear();
  child_free_.shrink_to_fit();

  // Steady-state table sizing: two nodes per bucket keeps chains short
  // while halving the bucket array (interning is control-plane work; the
  // matching hot path never probes the table).
  rehash(std::max<std::size_t>(64, std::bit_ceil(live_count_ / 2 + 1)));
  buckets_.shrink_to_fit();
  metas_.shrink_to_fit();
  next_.shrink_to_fit();
  leaf_by_pred_.shrink_to_fit();
  free_nodes_.shrink_to_fit();
  intern_stack_.shrink_to_fit();
  for (auto& entry : extra_parents_) entry.second.shrink_to_fit();
}

void SharedForest::save_state(storage::Writer& w) const {
  w.varint(metas_.size());
  w.varint(live_count_);
  for (NodeId id = 0; id < metas_.size(); ++id) {
    if (metas_[id].refs == 0) continue;
    w.varint(id);
    w.varint(metas_[id].refs);
    w.u8(static_cast<std::uint8_t>(kind(id)));
    if (kind(id) == ast::NodeKind::Leaf) {
      w.varint(leaf_predicate(id).value());
    } else {
      const std::span<const NodeId> kids = children(id);
      w.varint(kids.size());
      for (const NodeId k : kids) w.varint(k);
    }
  }
}

void SharedForest::load_state(storage::Reader& r,
                              std::size_t predicate_bound) {
  NCPS_EXPECTS(metas_.empty() && live_count_ == 0);
  constexpr std::uint64_t kMaxNodes = 1u << 30;
  const std::uint64_t bound = r.varint_max(kMaxNodes, "forest node bound");
  const std::uint64_t live = r.varint_max(bound, "forest live count");

  // Pass 1: decode into a staging area. Nothing derived is built until the
  // whole DAG has been read and validated — a truncated or corrupted dump
  // must not leave a half-built forest behind an exception.
  struct Staged {
    ast::NodeKind kind = ast::NodeKind::Leaf;
    std::uint32_t refs = 0;
    std::uint32_t data = 0;         // leaf: predicate id; else staging offset
    std::uint32_t child_count = 0;
  };
  std::vector<Staged> staged(bound);
  std::vector<NodeId> staged_children;
  for (std::uint64_t n = 0; n < live; ++n) {
    const std::uint64_t id = r.varint_max(bound - 1, "forest node id");
    Staged& s = staged[id];
    if (s.refs != 0) throw StorageError("duplicate forest node id");
    const std::uint64_t refs = r.varint_max(0xffffffffu, "forest refcount");
    if (refs == 0) throw StorageError("live forest node with zero refcount");
    s.refs = static_cast<std::uint32_t>(refs);
    const std::uint8_t k = r.u8();
    if (k > static_cast<std::uint8_t>(ast::NodeKind::Not)) {
      throw StorageError("unknown forest node kind " + std::to_string(k));
    }
    s.kind = static_cast<ast::NodeKind>(k);
    if (s.kind == ast::NodeKind::Leaf) {
      if (predicate_bound == 0) {
        throw StorageError("forest leaf but empty predicate table");
      }
      s.data = static_cast<std::uint32_t>(
          r.varint_max(predicate_bound - 1, "forest leaf predicate"));
    } else {
      const std::uint64_t count =
          r.varint_max(kMaxChildren, "forest child count");
      if (count == 0 || (s.kind == ast::NodeKind::Not && count != 1)) {
        throw StorageError("forest node with invalid child count");
      }
      s.data = static_cast<std::uint32_t>(staged_children.size());
      s.child_count = static_cast<std::uint32_t>(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t child =
            r.varint_max(bound - 1, "forest child id");
        staged_children.push_back(static_cast<NodeId>(child));
      }
    }
  }

  // Pass 2: validate — every child is a loaded node, the graph is acyclic
  // (ranks computed by DFS; a back edge is a cycle), and depth stays under
  // the forest limit.
  std::vector<std::uint32_t> ranks(bound, 0);
  std::vector<std::uint8_t> colour(bound, 0);  // 0 unvisited 1 open 2 done
  std::vector<NodeId> stack;
  for (std::uint64_t root = 0; root < bound; ++root) {
    if (staged[root].refs == 0 || colour[root] == 2) continue;
    stack.push_back(static_cast<NodeId>(root));
    while (!stack.empty()) {
      const NodeId id = stack.back();
      const Staged& s = staged[id];
      if (colour[id] == 2) {
        stack.pop_back();
        continue;
      }
      if (colour[id] == 0) {
        colour[id] = 1;
        bool descend = false;
        for (std::uint32_t i = 0; i < s.child_count; ++i) {
          const NodeId child = staged_children[s.data + i];
          if (staged[child].refs == 0) {
            throw StorageError("forest child references a dead node");
          }
          if (colour[child] == 1) throw StorageError("forest contains a cycle");
          if (colour[child] == 0) {
            stack.push_back(child);
            descend = true;
          }
        }
        if (descend) continue;
      }
      std::uint32_t rank = 0;
      for (std::uint32_t i = 0; i < s.child_count; ++i) {
        rank = std::max(rank, ranks[staged_children[s.data + i]] + 1);
      }
      if (rank > kMaxDepth) throw StorageError("forest deeper than limit");
      ranks[id] = rank;
      colour[id] = 2;
      stack.pop_back();
    }
  }

  // Refcount floor: every in-DAG child occurrence owns one reference; the
  // surplus is externally owned (subscription roots). A deficit means the
  // dump's ownership ledger is corrupt.
  std::vector<std::uint32_t> parent_occurrences(bound, 0);
  for (std::uint64_t id = 0; id < bound; ++id) {
    const Staged& s = staged[id];
    for (std::uint32_t i = 0; i < s.child_count; ++i) {
      ++parent_occurrences[staged_children[s.data + i]];
    }
  }
  for (std::uint64_t id = 0; id < bound; ++id) {
    if (staged[id].refs != 0 && staged[id].refs < parent_occurrences[id]) {
      throw StorageError("forest refcount below parent edge count");
    }
  }

  // Pass 3: build. NodeIds are the dump's ids verbatim; static truth, the
  // decided_by_flips flag, parent edges, the leaf index and the intern
  // table are all recomputed. Leaf hooks deliberately do not fire.
  metas_.assign(bound, Meta{});
  next_.assign(bound, kNoNode);
  child_arena_.reserve(staged_children.size());
  std::vector<std::uint8_t> truth(bound, 0);
  // Ascending rank is a topological order, so children are materialised
  // (with static truth known) before any parent reads them.
  std::vector<NodeId> order;
  order.reserve(live);
  for (std::uint64_t id = 0; id < bound; ++id) {
    metas_[id].parent0 = kNoNode;
    if (staged[id].refs != 0) order.push_back(static_cast<NodeId>(id));
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId a, NodeId b) { return ranks[a] < ranks[b]; });
  for (const NodeId id : order) {
    const Staged& s = staged[id];
    if (s.kind == ast::NodeKind::Leaf) {
      if (s.data >= leaf_by_pred_.size()) {
        leaf_by_pred_.resize(s.data + 1, kNoNode);
      }
      if (leaf_by_pred_[s.data] != kNoNode) {
        throw StorageError("duplicate forest leaf for one predicate");
      }
      leaf_by_pred_[s.data] = id;
      metas_[id] = Meta{s.data, s.refs, kNoNode,
                        pack(0, 0, ast::NodeKind::Leaf, /*static=*/false)};
      continue;
    }
    const std::span<const NodeId> kids(staged_children.data() + s.data,
                                       s.child_count);
    const auto [stat, by_flips] = interior_truth(
        s.kind, kids, [&](NodeId k) { return truth[k] != 0; });
    truth[id] = stat ? 1 : 0;
    const std::uint32_t offset = alloc_children(s.child_count);
    std::copy(kids.begin(), kids.end(), child_arena_.begin() + offset);
    metas_[id] = Meta{offset, s.refs, kNoNode,
                      pack(s.child_count, ranks[id], s.kind, stat, by_flips)};
  }
  // Parent edges after all metas are final (add_parent touches child metas).
  for (const NodeId id : order) {
    const Staged& s = staged[id];
    for (std::uint32_t i = 0; i < s.child_count; ++i) {
      add_parent(staged_children[s.data + i], id);
    }
  }
  live_count_ = live;
  for (std::uint32_t id = static_cast<std::uint32_t>(bound); id-- > 0;) {
    if (staged[id].refs == 0) free_nodes_.push_back(id);
  }
  rehash(std::max<std::size_t>(64, std::bit_ceil(live_count_ / 2 + 1)));

  // Canonical order: every AND/OR slice must be sorted by (structural
  // hash, node id), exactly as intern() stores it. A slice out of order
  // would be a second spelling of its commutation class that intern()
  // could never find. Each node is hashed once, children before parents.
  std::vector<std::uint64_t> hashes(bound, 0);
  for (const NodeId id : order) {
    hashes[id] = node_hash(id);
    if (kind(id) != ast::NodeKind::And && kind(id) != ast::NodeKind::Or) {
      continue;
    }
    const auto key = [&](NodeId k) { return ChildKey{hashes[k], k}; };
    if (!std::ranges::is_sorted(children(id), {}, key)) {
      throw StorageError("forest children out of canonical order");
    }
  }

  // Hash-consing invariant: no two live nodes may be structurally
  // identical. The freshly built intern chains make this a cheap check.
  for (const NodeId id : order) {
    for (NodeId other = next_[id]; other != kNoNode; other = next_[other]) {
      if (kind(other) != kind(id) || child_count(other) != child_count(id)) {
        continue;
      }
      const bool same =
          kind(id) == ast::NodeKind::Leaf
              ? leaf_predicate(other) == leaf_predicate(id)
              : std::ranges::equal(children(other), children(id));
      if (same) throw StorageError("duplicate structure in forest dump");
    }
  }
}

MemoryBreakdown SharedForest::memory() const {
  MemoryBreakdown mem;
  mem.add("node_arena", vector_bytes(metas_));
  mem.add("child_arena", vector_bytes(child_arena_) +
                             nested_vector_bytes(child_free_));
  mem.add("intern_buckets", vector_bytes(buckets_));
  mem.add("intern_chains", vector_bytes(next_));
  mem.add("leaf_index", vector_bytes(leaf_by_pred_));
  std::size_t parent_bytes = unordered_map_bytes(extra_parents_);
  for (const auto& entry : extra_parents_) {
    parent_bytes += vector_bytes(entry.second);
  }
  mem.add("parent_overflow", parent_bytes);
  mem.add("free_lists", vector_bytes(free_nodes_));
  mem.add("intern_scratch", vector_bytes(intern_stack_));
  return mem;
}

}  // namespace ncps
