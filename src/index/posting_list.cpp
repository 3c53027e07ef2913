#include "index/posting_list.h"

#include <algorithm>

namespace ncps {

namespace {

void append_varint(std::vector<std::uint8_t>& out, std::uint32_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

}  // namespace

void PostingList::encode(Rep& r, const std::vector<std::uint32_t>& ids) {
  r.packed.clear();
  r.skips.clear();
  r.skips.reserve(2 * ((ids.size() + kBlockIds - 1) / kBlockIds));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    NCPS_DASSERT(i == 0 || ids[i] > ids[i - 1]);  // unique, ascending
    if (i % kBlockIds == 0) {
      // The block's first id lives only in the directory; packed holds the
      // deltas that follow it.
      r.skips.push_back(ids[i]);
      r.skips.push_back(static_cast<std::uint32_t>(r.packed.size()));
    } else {
      append_varint(r.packed, ids[i] - ids[i - 1]);
    }
  }
  r.packed_count = static_cast<std::uint32_t>(ids.size());
}

bool PostingList::packed_contains(const Rep& r, std::uint32_t id) {
  const std::size_t blocks = r.skips.size() / 2;
  if (blocks == 0 || id < r.skips[0]) return false;
  // Last block whose first id is <= id.
  std::size_t lo = 0;
  std::size_t hi = blocks;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (r.skips[2 * mid] <= id) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  bool found = false;
  decode_block(r, lo, [&](std::uint32_t v) { found |= (v == id); });
  return found;
}

void PostingList::add(std::uint32_t id) {
  if (count_ < kInlineCapacity) {
    store_.ids[count_++] = id;
    return;
  }
  if (count_ == kInlineCapacity) {
    Rep* rep = new Rep;
    rep->tail = {store_.ids[0], store_.ids[1], id};
    store_.rep = rep;
    count_ = kInlineCapacity + 1;
    return;
  }
  Rep& r = *store_.rep;
  r.tail.push_back(id);
  ++count_;
  maybe_compact(r);
}

void PostingList::collapse_excluding(std::uint32_t excluded, bool skip_one) {
  Rep* rep = store_.rep;
  std::uint32_t keep[kInlineCapacity];
  std::uint32_t n = 0;
  std::size_t d = 0;
  const auto gather = [&](std::uint32_t v) {
    if (skip_one && v == excluded) {
      skip_one = false;
      return;
    }
    NCPS_DASSERT(n < kInlineCapacity);
    keep[n++] = v;
  };
  decode_packed(*rep, [&](std::uint32_t v) {
    if (d < rep->dead.size() && rep->dead[d] == v) {
      ++d;
      return;
    }
    gather(v);
  });
  for (const std::uint32_t v : rep->tail) gather(v);
  delete rep;
  count_ = n;
  for (std::uint32_t i = 0; i < n; ++i) store_.ids[i] = keep[i];
}

bool PostingList::remove(std::uint32_t id) {
  if (!spilled()) {
    for (std::uint32_t i = 0; i < count_; ++i) {
      if (store_.ids[i] == id) {
        store_.ids[i] = store_.ids[count_ - 1];
        --count_;
        return true;
      }
    }
    return false;
  }
  Rep& r = *store_.rep;
  const auto tail_it = std::find(r.tail.begin(), r.tail.end(), id);
  bool present = tail_it != r.tail.end();
  if (!present) {
    if (!packed_contains(r, id)) return false;
    const auto dead_it = std::lower_bound(r.dead.begin(), r.dead.end(), id);
    if (dead_it != r.dead.end() && *dead_it == id) return false;  // tombstoned
    present = true;
    if (count_ - 1 > kInlineCapacity) {
      r.dead.insert(dead_it, id);
      --count_;
      maybe_compact(r);
      return true;
    }
  } else if (count_ - 1 > kInlineCapacity) {
    *tail_it = r.tail.back();
    r.tail.pop_back();
    --count_;
    return true;
  }
  // Live count is about to reach the inline capacity: fold back.
  collapse_excluding(id, /*skip_one=*/true);
  return true;
}

bool PostingList::contains(std::uint32_t id) const {
  if (!spilled()) {
    for (std::uint32_t i = 0; i < count_; ++i) {
      if (store_.ids[i] == id) return true;
    }
    return false;
  }
  const Rep& r = *store_.rep;
  if (std::find(r.tail.begin(), r.tail.end(), id) != r.tail.end()) return true;
  if (!packed_contains(r, id)) return false;
  return !std::binary_search(r.dead.begin(), r.dead.end(), id);
}

void PostingList::maybe_compact(Rep& r) {
  if (r.tail.size() >= kTailSlack + r.packed_count / 4 ||
      r.dead.size() >= kDeadSlack + r.packed_count / 8) {
    compact_rep(r);
  }
}

void PostingList::compact_rep(Rep& r) {
  std::vector<std::uint32_t> ids;
  ids.reserve(count_);
  std::size_t d = 0;
  decode_packed(r, [&](std::uint32_t v) {
    if (d < r.dead.size() && r.dead[d] == v) {
      ++d;
      return;
    }
    ids.push_back(v);
  });
  ids.insert(ids.end(), r.tail.begin(), r.tail.end());
  std::sort(ids.begin(), ids.end());
  NCPS_DASSERT(ids.size() == count_);
  encode(r, ids);
  r.tail.clear();
  r.dead.clear();
}

void PostingList::compact() {
  if (!spilled()) return;
  Rep& r = *store_.rep;
  if (r.tail.empty() && r.dead.empty()) return;
  compact_rep(r);
}

void PostingList::shrink_to_fit() {
  if (!spilled()) return;
  compact();
  Rep& r = *store_.rep;
  r.packed.shrink_to_fit();
  r.skips.shrink_to_fit();
  r.tail.shrink_to_fit();
  r.dead.shrink_to_fit();
}

std::size_t PostingList::memory_bytes() const {
  if (!spilled()) return 0;
  const Rep& r = *store_.rep;
  return sizeof(Rep) + r.packed.capacity() * sizeof(std::uint8_t) +
         r.skips.capacity() * sizeof(std::uint32_t) +
         r.tail.capacity() * sizeof(std::uint32_t) +
         r.dead.capacity() * sizeof(std::uint32_t);
}

}  // namespace ncps
