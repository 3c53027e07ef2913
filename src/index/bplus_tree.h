// In-memory B+ tree (the paper's range-predicate index substrate).
//
// Phase 1 of matching stabs range predicates through a one-dimensional
// ordered index ("for range predicates we deploy B+ trees", §3.2). This is a
// from-scratch, header-only, unique-key B+ tree with:
//   - sorted arrays inside fixed-capacity nodes (cache-linear search),
//   - keys and values in separate arrays, so a range scan can take a leaf's
//     values as one contiguous span (for_each_span),
//   - doubly linked leaves for ordered scans in both directions,
//   - full delete support (borrow from siblings, merge, root collapse),
//   - an O(n) structural validator used by the test suite,
//   - exact memory accounting.
//
// Not thread-safe by design: engines are single-writer structures here, as
// in the paper's prototype; concurrency lives at the broker layer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/contracts.h"

namespace ncps {

template <typename Key, typename Value, typename Compare = std::less<Key>,
          std::size_t Order = 32>
class BPlusTree {
  static_assert(Order >= 4, "B+ tree order must be at least 4");
  static constexpr std::size_t kMaxKeys = Order;
  static constexpr std::size_t kMinKeys = Order / 2;

  struct Node {
    bool is_leaf = false;
    std::uint16_t count = 0;  // number of keys
    Key keys[kMaxKeys];
  };

  struct LeafNode : Node {
    Value values[kMaxKeys];
    LeafNode* next = nullptr;
    LeafNode* prev = nullptr;
    LeafNode() { this->is_leaf = true; }
  };

  struct InternalNode : Node {
    Node* children[kMaxKeys + 1] = {};
    InternalNode() { this->is_leaf = false; }
  };

 public:
  class iterator {
   public:
    iterator() = default;
    iterator(LeafNode* leaf, std::size_t index) : leaf_(leaf), index_(index) {}

    [[nodiscard]] const Key& key() const { return leaf_->keys[index_]; }
    [[nodiscard]] Value& value() const { return leaf_->values[index_]; }

    iterator& operator++() {
      NCPS_DASSERT(leaf_ != nullptr);
      if (++index_ >= leaf_->count) {
        leaf_ = leaf_->next;
        index_ = 0;
      }
      return *this;
    }

    friend bool operator==(const iterator& a, const iterator& b) {
      return a.leaf_ == b.leaf_ && (a.leaf_ == nullptr || a.index_ == b.index_);
    }

   private:
    friend class BPlusTree;
    LeafNode* leaf_ = nullptr;
    std::size_t index_ = 0;
  };

  BPlusTree() = default;
  explicit BPlusTree(Compare compare) : less_(std::move(compare)) {}

  ~BPlusTree() { clear(); }

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  BPlusTree(BPlusTree&& other) noexcept { *this = std::move(other); }
  BPlusTree& operator=(BPlusTree&& other) noexcept {
    if (this != &other) {
      clear();
      root_ = std::exchange(other.root_, nullptr);
      first_leaf_ = std::exchange(other.first_leaf_, nullptr);
      size_ = std::exchange(other.size_, 0);
      node_count_ = std::exchange(other.node_count_, 0);
      less_ = other.less_;
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }

  void clear() {
    if (root_ != nullptr) free_node(root_);
    root_ = nullptr;
    first_leaf_ = nullptr;
    size_ = 0;
    node_count_ = 0;
  }

  /// Find the value for `key`, or nullptr.
  [[nodiscard]] Value* find(const Key& key) {
    if (root_ == nullptr) return nullptr;
    LeafNode* leaf = descend(key);
    const std::size_t i = lower_bound_in(leaf, key);
    if (i < leaf->count && !less_(key, leaf->keys[i])) return &leaf->values[i];
    return nullptr;
  }
  [[nodiscard]] const Value* find(const Key& key) const {
    return const_cast<BPlusTree*>(this)->find(key);
  }

  /// Insert key→value if absent; returns {slot, inserted}. The slot is the
  /// live value for the key either way (map::try_emplace semantics).
  std::pair<Value*, bool> try_emplace(const Key& key, Value value = Value{}) {
    if (root_ == nullptr) {
      auto* leaf = new_leaf();
      root_ = leaf;
      first_leaf_ = leaf;
      leaf->keys[0] = key;
      leaf->values[0] = std::move(value);
      leaf->count = 1;
      size_ = 1;
      return {&leaf->values[0], true};
    }
    Placed placed;
    SplitResult split = insert_rec(root_, key, std::move(value), placed);
    if (split.happened) {
      auto* new_root = new_internal();
      new_root->keys[0] = split.separator;
      new_root->children[0] = root_;
      new_root->children[1] = split.right;
      new_root->count = 1;
      root_ = new_root;
    }
    if (placed.inserted) ++size_;
    return {placed.slot, placed.inserted};
  }

  /// Remove a key. Returns true if it was present.
  bool erase(const Key& key) {
    if (root_ == nullptr) return false;
    const bool erased = erase_rec(root_, key);
    if (erased) {
      --size_;
      // Collapse the root when it loses its last separator.
      if (!root_->is_leaf && root_->count == 0) {
        auto* old = static_cast<InternalNode*>(root_);
        root_ = old->children[0];
        delete_internal(old);
      } else if (root_->is_leaf && root_->count == 0) {
        delete_leaf(static_cast<LeafNode*>(root_));
        root_ = nullptr;
        first_leaf_ = nullptr;
      }
    }
    return erased;
  }

  [[nodiscard]] iterator begin() const {
    return first_leaf_ != nullptr && first_leaf_->count > 0
               ? iterator(first_leaf_, 0)
               : end();
  }
  [[nodiscard]] iterator end() const { return iterator(nullptr, 0); }

  /// First element with key >= `key`.
  [[nodiscard]] iterator lower_bound(const Key& key) const {
    if (root_ == nullptr) return end();
    LeafNode* leaf = const_cast<BPlusTree*>(this)->descend(key);
    const std::size_t i =
        const_cast<BPlusTree*>(this)->lower_bound_in(leaf, key);
    if (i < leaf->count) return iterator(leaf, i);
    return leaf->next != nullptr ? iterator(leaf->next, 0) : end();
  }

  /// First element with key > `key`.
  [[nodiscard]] iterator upper_bound(const Key& key) const {
    iterator it = lower_bound(key);
    if (it != end() && !less_(key, it.key()) && !less_(it.key(), key)) ++it;
    return it;
  }

  /// Visit the entries in [first, last) in key order, one leaf at a time:
  /// fn(keys, values) gets two parallel contiguous spans. `last` must be
  /// reachable from `first`.
  template <typename Fn>
  void for_each_leaf(iterator first, iterator last, Fn&& fn) const {
    for (LeafNode* leaf = first.leaf_; leaf != nullptr; leaf = leaf->next) {
      const bool at_last = leaf == last.leaf_;
      const std::size_t begin = leaf == first.leaf_ ? first.index_ : 0;
      const std::size_t end = at_last ? last.index_ : leaf->count;
      if (begin < end) {
        fn(std::span<const Key>(leaf->keys + begin, end - begin),
           std::span<const Value>(leaf->values + begin, end - begin));
      }
      if (at_last) return;
    }
  }

  /// Visit the values in [first, last) in key order, one contiguous span
  /// per leaf.
  template <typename Fn>
  void for_each_span(iterator first, iterator last, Fn&& fn) const {
    for_each_leaf(first, last,
                  [&fn](std::span<const Key>, std::span<const Value> values) {
                    fn(values);
                  });
  }

  [[nodiscard]] std::size_t memory_bytes() const {
    // Leaves and internals differ in size; count both kinds exactly.
    std::size_t bytes = 0;
    walk_nodes(root_, [&bytes](const Node* n) {
      bytes += n->is_leaf ? sizeof(LeafNode) : sizeof(InternalNode);
    });
    return bytes;
  }

  /// Structural invariant check for tests: sorted keys, fill factors, uniform
  /// leaf depth, consistent leaf chain, separators bounding subtrees.
  [[nodiscard]] bool validate() const {
    if (root_ == nullptr) return size_ == 0 && first_leaf_ == nullptr;
    int leaf_depth = -1;
    std::size_t counted = 0;
    if (!validate_rec(root_, nullptr, nullptr, 0, leaf_depth, counted)) {
      return false;
    }
    if (counted != size_) return false;
    // Leaf chain must enumerate exactly size_ keys in sorted order.
    std::size_t chained = 0;
    const Key* prev = nullptr;
    for (LeafNode* leaf = first_leaf_; leaf != nullptr; leaf = leaf->next) {
      if (leaf->next != nullptr && leaf->next->prev != leaf) return false;
      for (std::size_t i = 0; i < leaf->count; ++i) {
        if (prev != nullptr && !less_(*prev, leaf->keys[i])) return false;
        prev = &leaf->keys[i];
        ++chained;
      }
    }
    return chained == size_;
  }

 private:
  struct SplitResult {
    bool happened = false;
    Key separator{};
    Node* right = nullptr;
  };

  /// Where an insert left the key's value, and whether it was new.
  struct Placed {
    Value* slot = nullptr;
    bool inserted = false;
  };

  LeafNode* new_leaf() {
    ++node_count_;
    return new LeafNode();
  }
  InternalNode* new_internal() {
    ++node_count_;
    return new InternalNode();
  }
  void delete_leaf(LeafNode* n) {
    --node_count_;
    delete n;
  }
  void delete_internal(InternalNode* n) {
    --node_count_;
    delete n;
  }

  void free_node(Node* node) {
    if (node->is_leaf) {
      delete_leaf(static_cast<LeafNode*>(node));
      return;
    }
    auto* internal = static_cast<InternalNode*>(node);
    for (std::size_t i = 0; i <= internal->count; ++i) {
      free_node(internal->children[i]);
    }
    delete_internal(internal);
  }

  template <typename Fn>
  void walk_nodes(const Node* node, Fn&& fn) const {
    if (node == nullptr) return;
    fn(node);
    if (!node->is_leaf) {
      const auto* internal = static_cast<const InternalNode*>(node);
      for (std::size_t i = 0; i <= internal->count; ++i) {
        walk_nodes(internal->children[i], fn);
      }
    }
  }

  std::size_t lower_bound_in(const Node* node, const Key& key) const {
    const Key* first = node->keys;
    const Key* last = node->keys + node->count;
    return static_cast<std::size_t>(
        std::lower_bound(first, last, key, less_) - first);
  }

  /// Child index to descend into for `key` in an internal node.
  std::size_t child_index(const InternalNode* node, const Key& key) const {
    const Key* first = node->keys;
    const Key* last = node->keys + node->count;
    return static_cast<std::size_t>(
        std::upper_bound(first, last, key, less_) - first);
  }

  LeafNode* descend(const Key& key) {
    Node* node = root_;
    while (!node->is_leaf) {
      auto* internal = static_cast<InternalNode*>(node);
      node = internal->children[child_index(internal, key)];
    }
    return static_cast<LeafNode*>(node);
  }

  SplitResult insert_rec(Node* node, const Key& key, Value&& value,
                         Placed& placed) {
    if (node->is_leaf) {
      return insert_leaf(static_cast<LeafNode*>(node), key, std::move(value),
                         placed);
    }

    auto* internal = static_cast<InternalNode*>(node);
    const std::size_t ci = child_index(internal, key);
    SplitResult child_split =
        insert_rec(internal->children[ci], key, std::move(value), placed);
    if (!child_split.happened) return {};

    // Insert separator + right child at position ci.
    if (internal->count < kMaxKeys) {
      shift_right(internal, ci);
      internal->keys[ci] = child_split.separator;
      internal->children[ci + 1] = child_split.right;
      ++internal->count;
      return {};
    }
    return split_internal(internal, ci, child_split);
  }

  SplitResult insert_leaf(LeafNode* leaf, const Key& key, Value&& value,
                          Placed& placed) {
    const std::size_t i = lower_bound_in(leaf, key);
    if (i < leaf->count && !less_(key, leaf->keys[i])) {
      placed = {&leaf->values[i], false};
      return {};
    }
    if (leaf->count < kMaxKeys) {
      for (std::size_t j = leaf->count; j > i; --j) {
        leaf->keys[j] = std::move(leaf->keys[j - 1]);
        leaf->values[j] = std::move(leaf->values[j - 1]);
      }
      leaf->keys[i] = key;
      leaf->values[i] = std::move(value);
      ++leaf->count;
      placed = {&leaf->values[i], true};
      return {};
    }

    // Split: left keeps the lower half; new right leaf takes the rest.
    auto* right = new_leaf();
    const std::size_t mid = (kMaxKeys + 1) / 2;
    // Conceptually insert into a temp array of kMaxKeys+1 entries; avoid the
    // temp by handling the two target cases.
    if (i < mid) {
      // New entry lands in the left node.
      const std::size_t move_from = mid - 1;
      for (std::size_t j = move_from; j < kMaxKeys; ++j) {
        right->keys[j - move_from] = std::move(leaf->keys[j]);
        right->values[j - move_from] = std::move(leaf->values[j]);
      }
      right->count = static_cast<std::uint16_t>(kMaxKeys - move_from);
      leaf->count = static_cast<std::uint16_t>(move_from);
      for (std::size_t j = leaf->count; j > i; --j) {
        leaf->keys[j] = std::move(leaf->keys[j - 1]);
        leaf->values[j] = std::move(leaf->values[j - 1]);
      }
      leaf->keys[i] = key;
      leaf->values[i] = std::move(value);
      ++leaf->count;
      placed = {&leaf->values[i], true};
    } else {
      // New entry lands in the right node.
      for (std::size_t j = mid; j < kMaxKeys; ++j) {
        right->keys[j - mid] = std::move(leaf->keys[j]);
        right->values[j - mid] = std::move(leaf->values[j]);
      }
      right->count = static_cast<std::uint16_t>(kMaxKeys - mid);
      leaf->count = static_cast<std::uint16_t>(mid);
      const std::size_t ri = i - mid;
      for (std::size_t j = right->count; j > ri; --j) {
        right->keys[j] = std::move(right->keys[j - 1]);
        right->values[j] = std::move(right->values[j - 1]);
      }
      right->keys[ri] = key;
      right->values[ri] = std::move(value);
      ++right->count;
      placed = {&right->values[ri], true};
    }

    right->next = leaf->next;
    right->prev = leaf;
    if (leaf->next != nullptr) leaf->next->prev = right;
    leaf->next = right;
    return {true, right->keys[0], right};
  }

  void shift_right(InternalNode* node, std::size_t from) {
    for (std::size_t j = node->count; j > from; --j) {
      node->keys[j] = std::move(node->keys[j - 1]);
      node->children[j + 1] = node->children[j];
    }
  }

  SplitResult split_internal(InternalNode* node, std::size_t insert_at,
                             const SplitResult& child_split) {
    // Merge existing keys/children with the pending separator into temp
    // arrays of kMaxKeys+1 keys, then split around the middle key.
    Key keys[kMaxKeys + 1];
    Node* children[kMaxKeys + 2];
    children[0] = node->children[0];
    for (std::size_t j = 0, k = 0; j < kMaxKeys; ++j, ++k) {
      if (j == insert_at) {
        keys[k] = child_split.separator;
        children[k + 1] = child_split.right;
        ++k;
      }
      keys[k] = std::move(node->keys[j]);
      children[k + 1] = node->children[j + 1];
    }
    if (insert_at == kMaxKeys) {
      keys[kMaxKeys] = child_split.separator;
      children[kMaxKeys + 1] = child_split.right;
    }

    const std::size_t mid = (kMaxKeys + 1) / 2;  // key promoted to parent
    auto* right = new_internal();
    node->count = static_cast<std::uint16_t>(mid);
    for (std::size_t j = 0; j < mid; ++j) {
      node->keys[j] = std::move(keys[j]);
      node->children[j] = children[j];
    }
    node->children[mid] = children[mid];

    right->count = static_cast<std::uint16_t>(kMaxKeys - mid);
    for (std::size_t j = 0; j < right->count; ++j) {
      right->keys[j] = std::move(keys[mid + 1 + j]);
      right->children[j] = children[mid + 1 + j];
    }
    right->children[right->count] = children[kMaxKeys + 1];
    return {true, std::move(keys[mid]), right};
  }

  /// Returns true if `key` was present.
  bool erase_rec(Node* node, const Key& key) {
    if (node->is_leaf) {
      auto* leaf = static_cast<LeafNode*>(node);
      const std::size_t i = lower_bound_in(leaf, key);
      if (i >= leaf->count || less_(key, leaf->keys[i])) return false;
      for (std::size_t j = i + 1; j < leaf->count; ++j) {
        leaf->keys[j - 1] = std::move(leaf->keys[j]);
        leaf->values[j - 1] = std::move(leaf->values[j]);
      }
      --leaf->count;
      return true;
    }

    auto* internal = static_cast<InternalNode*>(node);
    const std::size_t ci = child_index(internal, key);
    Node* child = internal->children[ci];
    const bool erased = erase_rec(child, key);
    if (child->count < kMinKeys) rebalance(internal, ci);
    return erased;
  }

  void rebalance(InternalNode* parent, std::size_t ci) {
    Node* child = parent->children[ci];
    Node* left = ci > 0 ? parent->children[ci - 1] : nullptr;
    Node* right = ci < parent->count ? parent->children[ci + 1] : nullptr;

    if (left != nullptr && left->count > kMinKeys) {
      borrow_from_left(parent, ci, left, child);
      return;
    }
    if (right != nullptr && right->count > kMinKeys) {
      borrow_from_right(parent, ci, child, right);
      return;
    }
    if (left != nullptr) {
      merge(parent, ci - 1, left, child);
    } else {
      NCPS_DASSERT(right != nullptr);
      merge(parent, ci, child, right);
    }
  }

  void borrow_from_left(InternalNode* parent, std::size_t ci, Node* left,
                        Node* child) {
    if (child->is_leaf) {
      auto* l = static_cast<LeafNode*>(left);
      auto* c = static_cast<LeafNode*>(child);
      for (std::size_t j = c->count; j > 0; --j) {
        c->keys[j] = std::move(c->keys[j - 1]);
        c->values[j] = std::move(c->values[j - 1]);
      }
      c->keys[0] = std::move(l->keys[l->count - 1]);
      c->values[0] = std::move(l->values[l->count - 1]);
      ++c->count;
      --l->count;
      parent->keys[ci - 1] = c->keys[0];
    } else {
      auto* l = static_cast<InternalNode*>(left);
      auto* c = static_cast<InternalNode*>(child);
      for (std::size_t j = c->count; j > 0; --j) {
        c->keys[j] = std::move(c->keys[j - 1]);
        c->children[j + 1] = c->children[j];
      }
      c->children[1] = c->children[0];
      c->keys[0] = std::move(parent->keys[ci - 1]);
      c->children[0] = l->children[l->count];
      parent->keys[ci - 1] = std::move(l->keys[l->count - 1]);
      ++c->count;
      --l->count;
    }
  }

  void borrow_from_right(InternalNode* parent, std::size_t ci, Node* child,
                         Node* right) {
    if (child->is_leaf) {
      auto* c = static_cast<LeafNode*>(child);
      auto* r = static_cast<LeafNode*>(right);
      c->keys[c->count] = std::move(r->keys[0]);
      c->values[c->count] = std::move(r->values[0]);
      ++c->count;
      for (std::size_t j = 1; j < r->count; ++j) {
        r->keys[j - 1] = std::move(r->keys[j]);
        r->values[j - 1] = std::move(r->values[j]);
      }
      --r->count;
      parent->keys[ci] = r->keys[0];
    } else {
      auto* c = static_cast<InternalNode*>(child);
      auto* r = static_cast<InternalNode*>(right);
      c->keys[c->count] = std::move(parent->keys[ci]);
      c->children[c->count + 1] = r->children[0];
      ++c->count;
      parent->keys[ci] = std::move(r->keys[0]);
      for (std::size_t j = 1; j < r->count; ++j) {
        r->keys[j - 1] = std::move(r->keys[j]);
        r->children[j - 1] = r->children[j];
      }
      r->children[r->count - 1] = r->children[r->count];
      --r->count;
    }
  }

  /// Merge children `li` and `li+1` of parent into the left one.
  void merge(InternalNode* parent, std::size_t li, Node* left, Node* right) {
    if (left->is_leaf) {
      auto* l = static_cast<LeafNode*>(left);
      auto* r = static_cast<LeafNode*>(right);
      for (std::size_t j = 0; j < r->count; ++j) {
        l->keys[l->count + j] = std::move(r->keys[j]);
        l->values[l->count + j] = std::move(r->values[j]);
      }
      l->count = static_cast<std::uint16_t>(l->count + r->count);
      l->next = r->next;
      if (r->next != nullptr) r->next->prev = l;
      delete_leaf(r);
    } else {
      auto* l = static_cast<InternalNode*>(left);
      auto* r = static_cast<InternalNode*>(right);
      l->keys[l->count] = std::move(parent->keys[li]);
      for (std::size_t j = 0; j < r->count; ++j) {
        l->keys[l->count + 1 + j] = std::move(r->keys[j]);
        l->children[l->count + 1 + j] = r->children[j];
      }
      l->children[l->count + 1 + r->count] = r->children[r->count];
      l->count = static_cast<std::uint16_t>(l->count + 1 + r->count);
      delete_internal(r);
    }
    // Remove separator li and the right child pointer from the parent.
    for (std::size_t j = li + 1; j < parent->count; ++j) {
      parent->keys[j - 1] = std::move(parent->keys[j]);
      parent->children[j] = parent->children[j + 1];
    }
    --parent->count;
  }

  bool validate_rec(const Node* node, const Key* lo, const Key* hi, int depth,
                    int& leaf_depth, std::size_t& counted) const {
    // Key bounds: lo < keys <= subtree range < hi (half open on separators).
    for (std::size_t i = 0; i < node->count; ++i) {
      if (i > 0 && !less_(node->keys[i - 1], node->keys[i])) return false;
      if (lo != nullptr && less_(node->keys[i], *lo)) return false;
      if (hi != nullptr && !less_(node->keys[i], *hi)) return false;
    }
    if (node != root_ && node->count < kMinKeys) return false;
    if (node->count > kMaxKeys) return false;

    if (node->is_leaf) {
      if (leaf_depth == -1) leaf_depth = depth;
      if (leaf_depth != depth) return false;
      counted += node->count;
      return true;
    }
    if (node->count == 0) return false;  // internal nodes carry >= 1 key
    const auto* internal = static_cast<const InternalNode*>(node);
    for (std::size_t i = 0; i <= internal->count; ++i) {
      const Key* child_lo = i == 0 ? lo : &internal->keys[i - 1];
      const Key* child_hi = i == internal->count ? hi : &internal->keys[i];
      if (!validate_rec(internal->children[i], child_lo, child_hi, depth + 1,
                        leaf_depth, counted)) {
        return false;
      }
    }
    return true;
  }

  Node* root_ = nullptr;
  LeafNode* first_leaf_ = nullptr;
  std::size_t size_ = 0;
  std::size_t node_count_ = 0;
  [[no_unique_address]] Compare less_{};
};

}  // namespace ncps
