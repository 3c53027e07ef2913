// ShardedBroker persistence: snapshot payload grammar, journal replay and
// the checkpoint fence (DESIGN.md §6).
//
// Snapshot payload (inside the framed snapshot file, storage/snapshot.h):
//
//   u8  engine kind            — must match the recovering broker's config
//   u8  normalisation          — likewise
//   varint shard_count         — likewise
//   varint covered_seq         — journal sequence the snapshot covers
//   varint next_subscriber
//   varint subscribe_sequence  — router key; replay re-routes with it
//   varint attr_count, then attr_count strings
//       — the attribute-name dictionary, in AttributeId order. The
//         AttributeRegistry is process-wide and shared across brokers, so
//         numeric ids differ between runs; recovery re-interns each name
//         and remaps every stored predicate through the result.
//   varint subscriber_count, then ids ascending
//   varint route_bound         — dense route-table size (dead slots included)
//   varint live_count, then per live route ascending by global id:
//       varint global, varint shard, varint owner, string text
//   per shard, in shard order:
//       u8 tag — 1: the engine dumped its full state (forest snapshot):
//                   engine save_state() bytes, then varint map_count and
//                   map_count (varint local, varint global) pairs
//               0: generic engine — recovery re-subscribes from the route
//                   texts through the bulk path; nothing further stored
//
// Everything read back is validated before it is trusted: counts are
// bounded, ids must be live/unique, and the per-shard local↔global map must
// be a bijection onto the engine's live subscriptions — an unmapped live
// local id would send ShardSink indexing past to_global.
#include <algorithm>
#include <string>
#include <utility>

#include "broker/sharded_broker.h"
#include "common/contracts.h"
#include "storage/serializer.h"

namespace ncps {

void ShardedBroker::recover_from_storage() {
  // Constructor tail: single-threaded, no locks needed, every member
  // default-initialised. Failures throw out of the constructor — a broker
  // never starts on a state it could not fully recover.
  vfs_ = storage_.vfs != nullptr ? storage_.vfs : &storage::posix_vfs();
  vfs_->create_directories(storage_.directory);

  const std::optional<std::string> payload =
      storage::read_snapshot_payload(*vfs_, storage_.directory);
  const std::string jpath = storage::journal_path(storage_.directory);
  storage::CommandJournal::ReplayResult replayed =
      storage::CommandJournal::replay(*vfs_, jpath);

  if (payload.has_value()) {
    storage::Reader r(*payload);
    restore_snapshot_payload(r);
    if (!r.done()) {
      throw StorageError("snapshot payload has trailing bytes");
    }
  }

  // The snapshot-journal handshake: only records above the covered sequence
  // are replayed, so a crash between the snapshot rename and the journal
  // truncation (which leaves a new snapshot alongside a full journal)
  // recovers to exactly the same state as a crash after both.
  for (const storage::JournalRecord& record : replayed.records) {
    if (record.seq <= snapshot_seq_) continue;
    replay_journal_record(record);
  }
  journal_seq_ = std::max(snapshot_seq_, replayed.max_seq);

  // Dead route slots become the free list, smallest id on top, matching the
  // allocation order a live broker would have converged to.
  free_globals_.clear();
  for (std::size_t g = routes_.size(); g-- > 0;) {
    if (!routes_[g].live) {
      free_globals_.push_back(SubscriptionId(static_cast<std::uint32_t>(g)));
    }
  }
  if (texts_.size() < routes_.size()) texts_.resize(routes_.size());

  journal_ = std::make_unique<storage::CommandJournal>(
      *vfs_, jpath, storage_.sync_on_commit);
  journal_->open_for_append(replayed);
}

void ShardedBroker::journal_commit_locked(storage::JournalRecord record) {
  // Sequence numbers are stamped at commit time, so they are strictly
  // increasing in journal order regardless of which control operation is
  // committing. A failed commit leaves a gap — harmless, replay only
  // requires strict increase.
  record.seq = ++journal_seq_;
  journal_->append(record);
  if (cells_ == nullptr) {
    journal_->commit();
    return;
  }
  const std::uint64_t start = obs::now_ticks();
  journal_->commit();
  const std::uint64_t end = obs::now_ticks();
  cells_->journal_commits.add();
  cells_->journal_bytes.add(journal_->last_commit_bytes());
  cells_->journal_commit_latency.record(end > start ? end - start : 0);
  if (journal_->last_sync_ns() != 0) {
    cells_->journal_fsync_latency.record(journal_->last_sync_ns());
  }
}

void ShardedBroker::record_text_locked(SubscriptionId global,
                                       std::string_view text) {
  if (texts_.size() <= global.value()) texts_.resize(global.value() + 1);
  texts_[global.value()].assign(text.data(), text.size());
}

void ShardedBroker::write_snapshot_payload(storage::Writer& w) {
  w.u8(static_cast<std::uint8_t>(engine_kind_));
  w.u8(static_cast<std::uint8_t>(normalisation_));
  w.varint(shards_.size());
  w.varint(journal_seq_);
  w.varint(next_subscriber_);
  w.varint(subscribe_sequence_);

  // Attribute dictionary. Only ids below the registry's current size can
  // appear in stored predicates (interning is append-only).
  const std::size_t attr_count = attrs_->size();
  w.varint(attr_count);
  for (std::size_t i = 0; i < attr_count; ++i) {
    w.string(attrs_->name(AttributeId(static_cast<std::uint32_t>(i))));
  }

  std::vector<SubscriberId> subscribers;
  subscribers.reserve(subscriptions_by_subscriber_.size());
  for (const auto& [id, subs] : subscriptions_by_subscriber_) {
    subscribers.push_back(id);
  }
  std::sort(subscribers.begin(), subscribers.end());
  w.varint(subscribers.size());
  for (const SubscriberId id : subscribers) w.varint(id.value());

  w.varint(routes_.size());
  std::size_t live = 0;
  for (const Route& route : routes_) live += route.live ? 1 : 0;
  w.varint(live);
  for (std::size_t g = 0; g < routes_.size(); ++g) {
    const Route& route = routes_[g];
    if (!route.live) continue;
    w.varint(g);
    w.varint(route.shard);
    w.varint(route.owner.value());
    NCPS_ASSERT(g < texts_.size() && !texts_[g].empty());
    w.string(texts_[g]);
  }

  for (const auto& shard : shards_) {
    if (shard->engine->supports_state_snapshot()) {
      w.u8(1);
      shard->engine->prepare_snapshot();
      shard->engine->save_state(w);
      std::size_t mapped = 0;
      for (const SubscriptionId global : shard->to_global) {
        mapped += global.valid() ? 1 : 0;
      }
      w.varint(mapped);
      for (std::size_t local = 0; local < shard->to_global.size(); ++local) {
        if (!shard->to_global[local].valid()) continue;
        w.varint(local);
        w.varint(shard->to_global[local].value());
      }
    } else {
      w.u8(0);
    }
  }
}

void ShardedBroker::restore_snapshot_payload(storage::Reader& r) {
  if (r.u8() != static_cast<std::uint8_t>(engine_kind_)) {
    throw StorageError("snapshot engine kind does not match configuration");
  }
  if (r.u8() != static_cast<std::uint8_t>(normalisation_)) {
    throw StorageError("snapshot normalisation does not match configuration");
  }
  if (r.varint_max(1u << 20, "shard count") != shards_.size()) {
    throw StorageError("snapshot shard count does not match configuration");
  }
  snapshot_seq_ = r.varint();
  next_subscriber_ =
      static_cast<std::uint32_t>(r.varint_max(0xffffffffu, "next subscriber"));
  subscribe_sequence_ = r.varint();

  const std::uint64_t attr_count = r.varint_max(1u << 24, "attribute count");
  std::vector<AttributeId> attr_remap;
  attr_remap.reserve(attr_count);
  for (std::uint64_t i = 0; i < attr_count; ++i) {
    const std::string name = r.string();
    if (name.empty()) throw StorageError("empty attribute name in snapshot");
    attr_remap.push_back(attrs_->intern(name));
  }

  const std::uint64_t subscriber_count =
      r.varint_max(1u << 28, "subscriber count");
  std::uint64_t prev_subscriber = 0;
  for (std::uint64_t i = 0; i < subscriber_count; ++i) {
    const std::uint64_t id = r.varint_max(0xffffffffu, "subscriber id");
    if (i > 0 && id <= prev_subscriber) {
      throw StorageError("subscriber ids not ascending in snapshot");
    }
    prev_subscriber = id;
    if (id >= next_subscriber_) {
      throw StorageError("subscriber id beyond next_subscriber in snapshot");
    }
    subscriptions_by_subscriber_.emplace(
        SubscriberId(static_cast<std::uint32_t>(id)),
        std::vector<SubscriptionId>{});
  }

  const std::uint64_t route_bound = r.varint_max(1u << 30, "route bound");
  routes_.assign(route_bound, Route{});
  texts_.assign(route_bound, std::string{});
  const std::uint64_t live_count = r.varint_max(route_bound, "live routes");
  std::vector<std::size_t> live_per_shard(shards_.size(), 0);
  std::uint64_t prev_global = 0;
  for (std::uint64_t i = 0; i < live_count; ++i) {
    const std::uint64_t g = r.varint_max(route_bound - 1, "route id");
    if (i > 0 && g <= prev_global) {
      throw StorageError("route ids not ascending in snapshot");
    }
    prev_global = g;
    const std::uint64_t shard = r.varint_max(shards_.size() - 1, "route shard");
    const std::uint64_t owner = r.varint_max(0xffffffffu, "route owner");
    const SubscriberId owner_id(static_cast<std::uint32_t>(owner));
    const auto owner_it = subscriptions_by_subscriber_.find(owner_id);
    if (owner_it == subscriptions_by_subscriber_.end()) {
      throw StorageError("route owned by unregistered subscriber");
    }
    const std::string text = r.string();
    if (text.empty()) throw StorageError("empty subscription text in snapshot");
    routes_[g] = Route{static_cast<std::uint32_t>(shard), owner_id,
                       /*live=*/true};
    texts_[g] = text;
    owner_it->second.push_back(SubscriptionId(static_cast<std::uint32_t>(g)));
    ++live_per_shard[shard];
  }

  // Recovery-time build pool: engine state loads and bulk index builds take
  // a generic ThreadPool (the match scheduler's work-stealing pool is not
  // one). Constructor tail, so a temporary sized to the match pool is fine.
  std::unique_ptr<ThreadPool> build_pool;
  if (pool_ != nullptr) {
    build_pool = std::make_unique<ThreadPool>(pool_->thread_count());
  }

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    const std::uint8_t tag = r.u8();
    if (tag == 1) {
      if (!shard.engine->supports_state_snapshot()) {
        throw StorageError(
            "snapshot has engine state for an engine without snapshots");
      }
      shard.engine->load_state(r, attr_remap, build_pool.get());
      const std::uint64_t mapped =
          r.varint_max(route_bound, "shard subscription map");
      if (mapped != shard.engine->subscription_count() ||
          mapped != live_per_shard[s]) {
        throw StorageError("shard subscription map count mismatch");
      }
      for (std::uint64_t i = 0; i < mapped; ++i) {
        const std::uint64_t local = r.varint_max(0xfffffffeu, "local id");
        const std::uint64_t global = r.varint_max(route_bound - 1, "mapped id");
        const SubscriptionId local_id(static_cast<std::uint32_t>(local));
        const SubscriptionId global_id(static_cast<std::uint32_t>(global));
        if (!shard.engine->owns_subscription(local_id)) {
          throw StorageError("mapped local id is not live in its engine");
        }
        if (!routes_[global].live || routes_[global].shard != s) {
          throw StorageError("mapped global id does not route to this shard");
        }
        if (shard.to_global.size() <= local) {
          shard.to_global.resize(local + 1, SubscriptionId::invalid());
          shard.owner_of.resize(local + 1, SubscriberId::invalid());
        }
        if (shard.to_global[local].valid()) {
          throw StorageError("duplicate local id in shard subscription map");
        }
        if (!shard.local_of
                 .emplace(static_cast<std::uint32_t>(global), local_id)
                 .second) {
          throw StorageError("duplicate global id in shard subscription map");
        }
        shard.to_global[local] = global_id;
        shard.owner_of[local] = routes_[global].owner;
      }
      // mapped == live(engine) == live(routes on this shard) and every pair
      // was distinct on both sides, so local↔global is a bijection: no live
      // engine id can reach ShardSink unmapped.
      shard.subscriptions.store(mapped, std::memory_order_relaxed);
    } else if (tag == 0) {
      // Generic engine: rebuild by re-subscribing the stored texts through
      // the bulk path — semantically identical adds, batch-built index.
      shard.engine->begin_bulk_load();
      for (std::uint64_t g = 0; g < route_bound; ++g) {
        if (!routes_[g].live || routes_[g].shard != s) continue;
        try {
          const parser_detail::RawNodePtr raw = parse_raw(texts_[g], *attrs_);
          apply_subscribe(shard, SubscriptionId(static_cast<std::uint32_t>(g)),
                          routes_[g].owner, *raw);
        } catch (const StorageError&) {
          throw;
        } catch (const std::exception& e) {
          throw StorageError(
              std::string("stored subscription rejected on replay: ") +
              e.what());
        }
      }
      shard.engine->finish_bulk_load(build_pool.get());
    } else {
      throw StorageError("unknown shard snapshot tag");
    }
  }
}

void ShardedBroker::replay_journal_record(
    const storage::JournalRecord& record) {
  using Type = storage::JournalRecord::Type;

  // Re-routes through the same (subscriber, subscribe_sequence_) key the
  // live broker used, so replayed subscriptions land on the same shards.
  const auto replay_subscribe = [&](SubscriberId owner, std::uint32_t global,
                                    const std::string& text) {
    const auto owner_it = subscriptions_by_subscriber_.find(owner);
    if (owner_it == subscriptions_by_subscriber_.end()) {
      throw StorageError("journal subscribe for unknown subscriber");
    }
    const std::uint32_t s = router_.route(owner, subscribe_sequence_);
    ++subscribe_sequence_;
    if (global >= routes_.size()) {
      routes_.resize(global + 1);
      texts_.resize(global + 1);
    }
    if (routes_[global].live) {
      throw StorageError("journal subscribe reuses a live subscription id");
    }
    try {
      const parser_detail::RawNodePtr raw = parse_raw(text, *attrs_);
      apply_subscribe(*shards_[s], SubscriptionId(global), owner, *raw);
    } catch (const StorageError&) {
      throw;
    } catch (const std::exception& e) {
      throw StorageError(
          std::string("journaled subscription rejected on replay: ") +
          e.what());
    }
    routes_[global] = Route{s, owner, /*live=*/true};
    texts_[global] = text;
    owner_it->second.push_back(SubscriptionId(global));
  };

  switch (record.type) {
    case Type::RegisterSubscriber: {
      const SubscriberId id(record.subscriber);
      if (!subscriptions_by_subscriber_
               .emplace(id, std::vector<SubscriptionId>{})
               .second) {
        throw StorageError("journal registers an existing subscriber");
      }
      next_subscriber_ = std::max(next_subscriber_, record.subscriber + 1);
      break;
    }
    case Type::UnregisterSubscriber: {
      const auto it =
          subscriptions_by_subscriber_.find(SubscriberId(record.subscriber));
      if (it == subscriptions_by_subscriber_.end()) {
        throw StorageError("journal unregisters an unknown subscriber");
      }
      for (const SubscriptionId sub : it->second) {
        Route& route = routes_[sub.value()];
        route.live = false;
        apply_unsubscribe(*shards_[route.shard], sub);
        texts_[sub.value()].clear();
      }
      subscriptions_by_subscriber_.erase(it);
      break;
    }
    case Type::Subscribe:
      replay_subscribe(SubscriberId(record.subscriber), record.global,
                       record.text);
      break;
    case Type::Unsubscribe: {
      if (record.global >= routes_.size() || !routes_[record.global].live) {
        throw StorageError("journal unsubscribes a dead subscription");
      }
      Route& route = routes_[record.global];
      route.live = false;
      auto& list = subscriptions_by_subscriber_[route.owner];
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i].value() == record.global) {
          list[i] = list.back();
          list.pop_back();
          break;
        }
      }
      apply_unsubscribe(*shards_[route.shard], SubscriptionId(record.global));
      texts_[record.global].clear();
      break;
    }
    case Type::BulkSubscribe:
      for (const storage::JournalRecord::BulkItem& item : record.bulk) {
        replay_subscribe(SubscriberId(record.subscriber), item.global,
                         item.text);
      }
      break;
  }
}

void ShardedBroker::checkpoint() {
  NCPS_EXPECTS(journal_ != nullptr);
  // Wall-clock span of the whole barrier + serialisation — lock waits
  // included, since that is the stall a checkpoint inflicts on the broker.
  const std::uint64_t checkpoint_start =
      cells_ == nullptr ? 0 : obs::now_ticks();
  // The snapshot fence, strictly stronger than quiesce(): the publish lock
  // waits out the in-flight batch, the flush completes async deliveries,
  // and — the part quiesce() lacks — the control lock plus every shard lock
  // freeze the control plane, so no thread can enqueue a command on a shard
  // after its drain. Lock order publish → control is safe: control-side
  // code only ever try_locks the publish mutex (publish_idle_probe).
  const std::lock_guard<std::mutex> publish_lock(publish_mutex_);
  if (delivery_ != nullptr) delivery_->flush();
  const std::lock_guard<std::mutex> control_lock(control_mutex_);
  std::vector<std::unique_lock<std::shared_mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (auto& shard : shards_) shard_locks.emplace_back(shard->mutex);
  for (auto& shard : shards_) {
    ShardWriteGuard gate(*shard);
    drain_shard(*shard, gate);
  }

  // With every mutex held there is nothing left to issue or apply; if a
  // fence still lags the issue generation, some command escaped the drains
  // and the snapshot would silently drop it.
  const std::uint64_t issued =
      issue_generation_.load(std::memory_order_acquire);
  for (const auto& shard : shards_) {
    NCPS_ASSERT(shard->fence.applied() >= issued &&
                "snapshot fence violated: shard lags issue generation");
  }

  // Run every deferred reclamation now: no batch is in flight and no reader
  // is pinned (the publish lock is held), so the epoch domains may free
  // unconditionally. prepare_snapshot/compact below then see the canonical
  // quarantine-free shape save_state() expects.
  for (auto& shard : shards_) {
    shard->epochs->flush_reclaim();
  }

  storage::Writer payload;
  write_snapshot_payload(payload);
  storage::write_snapshot_file(*vfs_, storage_.directory, payload.bytes());
  // The rename is durable; the journal's records are now all covered by the
  // snapshot (covered_seq == journal_seq_), so the journal can restart. A
  // crash before reset() replays the old records idempotently (their seqs
  // are below the new snapshot's covered seq).
  snapshot_seq_ = journal_seq_;
  journal_->reset();
  if (cells_ != nullptr) {
    cells_->checkpoints.add();
    const std::uint64_t end = obs::now_ticks();
    cells_->checkpoint_duration.record(
        end > checkpoint_start ? end - checkpoint_start : 0);
  }
}

void ShardedBroker::reattach_subscriber(SubscriberId subscriber,
                                        NotifyFn callback) {
  NCPS_EXPECTS(callback != nullptr);
  const std::lock_guard<std::mutex> lock(control_mutex_);
  NCPS_EXPECTS(subscriptions_by_subscriber_.contains(subscriber));
  if (delivery_ != nullptr) {
    delivery_->add_subscriber(subscriber, std::move(callback),
                              delivery_default_policy_);
  } else {
    auto updated = std::make_shared<CallbackMap>(*callbacks_.load());
    (*updated)[subscriber] = std::move(callback);
    callbacks_.store(std::shared_ptr<const CallbackMap>(std::move(updated)));
  }
}

std::vector<SubscriberId> ShardedBroker::subscriber_ids() const {
  const std::lock_guard<std::mutex> lock(control_mutex_);
  std::vector<SubscriberId> out;
  out.reserve(subscriptions_by_subscriber_.size());
  for (const auto& [id, subs] : subscriptions_by_subscriber_) {
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SubscriptionId> ShardedBroker::subscriptions_of(
    SubscriberId subscriber) const {
  const std::lock_guard<std::mutex> lock(control_mutex_);
  const auto it = subscriptions_by_subscriber_.find(subscriber);
  if (it == subscriptions_by_subscriber_.end()) return {};
  std::vector<SubscriptionId> out = it->second;
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::string> ShardedBroker::subscription_text(
    SubscriptionId subscription) const {
  const std::lock_guard<std::mutex> lock(control_mutex_);
  if (!subscription.valid() || subscription.value() >= routes_.size() ||
      !routes_[subscription.value()].live ||
      subscription.value() >= texts_.size() ||
      texts_[subscription.value()].empty()) {
    return std::nullopt;
  }
  return texts_[subscription.value()];
}

std::uint64_t ShardedBroker::journal_sequence() const {
  const std::lock_guard<std::mutex> lock(control_mutex_);
  return journal_seq_;
}

}  // namespace ncps
