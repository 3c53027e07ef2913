// Hash index for point (equality) predicates (paper §3.2: "point predicates
// utilise hash tables").
//
// Operand values are interned through a ValueDictionary into dense ValueIds
// addressing a flat array of compressed PostingLists — no per-value
// unordered_map node, no heap Value key, and (via the dictionary's
// heterogeneous find) no allocation on the string probe path. Numeric keys
// stay consistent across Int64/Float64 (Value::hash matches Value equality),
// so a predicate `price == 5` matches events carrying 5 or 5.0.
//
// Each stored posting owns one dictionary reference; removing a value's last
// posting frees its slot, and the freed ValueId (plus its already-empty
// posting list) is recycled for the next new operand.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/memory_tracker.h"
#include "event/value.h"
#include "index/posting_list.h"
#include "index/value_dictionary.h"

namespace ncps {

class HashIndex {
 public:
  void add(const Value& operand, PredicateId id) {
    const auto [vid, fresh] = dict_.intern(operand);
    if (postings_.size() < dict_.id_bound()) postings_.resize(dict_.id_bound());
    NCPS_DASSERT(!fresh || postings_[vid].empty());
    postings_[vid].add(id.value());
    ++entries_;
  }

  /// Remove one posting; returns true if the posting existed.
  bool remove(const Value& operand, PredicateId id) {
    const ValueDictionary::ValueId vid = dict_.find(operand);
    if (vid == ValueDictionary::kInvalidId) return false;
    if (!postings_[vid].remove(id.value())) return false;
    dict_.release(vid);
    --entries_;
    return true;
  }

  /// Append all predicates whose operand equals `value`.
  void stab(const Value& value, std::vector<PredicateId>& out) const {
    const ValueDictionary::ValueId vid = dict_.find(value);
    if (vid != ValueDictionary::kInvalidId) postings_[vid].append_to(out);
  }

  /// String-keyed stab without constructing a Value or std::string — the
  /// prefix probe path.
  void stab(std::string_view value, std::vector<PredicateId>& out) const {
    const ValueDictionary::ValueId vid = dict_.find(value);
    if (vid != ValueDictionary::kInvalidId) postings_[vid].append_to(out);
  }

  [[nodiscard]] std::size_t size() const { return entries_; }
  [[nodiscard]] bool empty() const { return entries_ == 0; }
  [[nodiscard]] std::size_t distinct_values() const { return dict_.size(); }

  void observe_postings(PostingList::Stats& stats) const {
    for (const PostingList& list : postings_) {
      if (!list.empty()) stats.observe(list);
    }
  }

  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t bytes = dict_.memory_bytes() + vector_bytes(postings_);
    for (const PostingList& list : postings_) bytes += list.memory_bytes();
    return bytes;
  }

 private:
  ValueDictionary dict_;
  std::vector<PostingList> postings_;  ///< dense by ValueId
  std::size_t entries_ = 0;
};

}  // namespace ncps
