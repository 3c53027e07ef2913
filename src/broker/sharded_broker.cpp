#include "broker/sharded_broker.h"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>
#include <numeric>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/contracts.h"

namespace ncps {

namespace {

/// Adaptive chunking target: total match tasks per batch aims at this many
/// per pool worker, so a worker that finishes its own slice finds several
/// stealable chunks on a skew-loaded shard's deque. 4 keeps per-task
/// overhead (one shared-lock + one stats fold) well under 1% and leaves
/// enough granularity to level `overlap`'s 75%-on-one-shard skew, while a
/// 64-event batch over 4 shards and 4 matching threads still yields
/// 16-event chunks: the forest's block path pays its phase-1 tree walks,
/// rank passes and root scan once per chunk (DESIGN.md §1c).
constexpr std::size_t kMatchTasksPerWorker = 4;

/// Per-event-range merge fan-out (tasks per worker). Merging is cheap per
/// event, so fewer, larger ranges than the match fan-out.
constexpr std::size_t kMergeTasksPerWorker = 4;

/// Hard ceiling on chunk size. A mutator's epoch grace period waits out at
/// most the chunks currently pinned, so this cap — not the batch size —
/// bounds control-op apply latency: a 1M-event batch still yields the write
/// gate every <= 512 events per worker.
constexpr std::size_t kMaxChunkEvents = 512;

}  // namespace

/// Streams one (shard × chunk) task's matches into that task's buffer,
/// translating engine-local subscription ids to broker-global ids and
/// attaching the owning subscriber (so delivery never reads control-plane
/// maps). Runs inside the task's epoch pin (EngineView): to_global and
/// owner_of are only mutated inside the shard's write gate, which waits out
/// every pin first, and the buffer belongs to this task alone. Per-event
/// counts and the largest id accumulate on the task's own stack and reach
/// the TaskMatches once, in finish(): counted in place, next to other
/// tasks' slots, they would bounce cache lines between workers.
class ShardedBroker::ChunkSink final : public MatchSink {
 public:
  ChunkSink(Shard& shard, TaskMatches& out, std::size_t first_event,
            std::size_t event_count)
      : shard_(&shard),
        out_(&out),
        first_event_(first_event),
        event_count_(event_count) {
    NCPS_DASSERT(event_count <= kMaxChunkEvents);
    out.matches.clear();
  }

  void on_match(std::size_t event_index, const Event& /*event*/,
                SubscriptionId local) override {
    const SubscriptionId global = shard_->to_global[local.value()];
    out_->matches.push_back(
        ShardMatch{global, shard_->owner_of[local.value()]});
    ++counts_[event_index - first_event_];
    max_id_ = std::max(max_id_, global.value());
  }

  void finish() {
    out_->event_counts.assign(counts_.begin(),
                              counts_.begin() + event_count_);
    out_->max_id = max_id_;
  }

 private:
  Shard* shard_;
  TaskMatches* out_;
  std::size_t first_event_;
  std::size_t event_count_;
  std::uint32_t max_id_ = 0;
  std::array<std::uint32_t, kMaxChunkEvents> counts_{};
};

ShardedBroker::ShardedBroker(AttributeRegistry& attrs,
                             ShardedBrokerConfig config)
    : attrs_(&attrs),
      router_(config.shard_count, config.placement),
      storage_(config.storage),
      engine_kind_(config.engine) {
  NCPS_EXPECTS(config.shard_count >= 1);
  shards_.reserve(config.shard_count);
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->engine = make_engine(config.engine, shard->table);
    shards_.push_back(std::move(shard));
  }
  if (config.metrics) {
    cells_ = std::make_unique<obs::BrokerMetrics>(registry_);
  }
  // The publishing thread matches beside the spawned threads, so the
  // hardware-derived default spawns one fewer than the cores it fills.
  std::size_t threads = config.worker_threads;
  if (threads == 0) {
    const std::size_t hw = std::thread::hardware_concurrency();
    threads = std::min(config.shard_count, hw == 0 ? std::size_t{1} : hw) - 1;
  }
  if (config.shard_count > 1 || threads > 1) {
    pool_ = std::make_unique<WorkStealingPool>(threads);
  }
  const std::size_t workers = pool_ == nullptr ? 1 : pool_->thread_count();
  // One context per worker, built from shard 0's engine (all shards run the
  // same engine kind, and contexts of one kind are interchangeable).
  worker_contexts_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    worker_contexts_.push_back(shards_[0]->engine->make_context());
  }
  merge_scratch_.resize(workers);
  // One epoch domain per shard, one reader slot per worker: match tasks pin
  // their worker's slot, mutators close the write gate.
  for (auto& shard : shards_) {
    shard->epochs = std::make_unique<EpochDomain>(workers);
  }
  shard_match_stats_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shard_match_stats_.push_back(std::make_unique<AtomicMatchStats>());
  }
  if (config.delivery.mode == DeliveryMode::Async) {
    delivery_default_policy_ = config.delivery.default_policy;
    delivery_ = std::make_unique<DeliveryPlane>(
        config.delivery, cells_ == nullptr ? nullptr : &cells_->delivery);
  }
  if (storage_.enabled) {
    NCPS_EXPECTS(!storage_.directory.empty());
    recover_from_storage();
  }
  // Last, so it never observes a half-constructed broker: the dedicated
  // apply thread keeps control commands flowing while batches match. Seed
  // brokers (no pool) skip it: their callers drain their own commands, and
  // a command queued behind the publisher's drain waits for the next batch.
  if (pool_ != nullptr) {
    apply_thread_ = std::thread([this] { apply_loop(); });
  }
}

ShardedBroker::~ShardedBroker() {
  if (apply_thread_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(apply_cv_mutex_);
      apply_stop_ = true;
    }
    apply_cv_.notify_one();
    apply_thread_.join();
  }
}

std::unique_ptr<ShardedBroker> ShardedBroker::create(
    AttributeRegistry& attrs, ShardedBrokerConfig config) {
  return std::make_unique<ShardedBroker>(attrs, config);
}

SubscriberId ShardedBroker::register_subscriber(NotifyFn callback) {
  const BackpressurePolicy policy =
      delivery_ == nullptr ? BackpressurePolicy::Block
                           : delivery_default_policy_;
  return register_subscriber_impl(std::move(callback), policy);
}

SubscriberId ShardedBroker::register_subscriber(NotifyFn callback,
                                                BackpressurePolicy policy) {
  return register_subscriber_impl(std::move(callback), policy);
}

SubscriberId ShardedBroker::register_subscriber_impl(
    NotifyFn callback, BackpressurePolicy policy) {
  NCPS_EXPECTS(callback != nullptr);
  const std::lock_guard<std::mutex> lock(control_mutex_);
  const SubscriberId id(next_subscriber_);
  // Journal-commit-before-apply: if the commit throws, no broker state has
  // changed yet and the id is simply never handed out.
  if (journal_ != nullptr) {
    storage::JournalRecord record;
    record.type = storage::JournalRecord::Type::RegisterSubscriber;
    record.subscriber = id.value();
    journal_commit_locked(std::move(record));
  }
  ++next_subscriber_;
  subscriptions_by_subscriber_.emplace(id, std::vector<SubscriptionId>{});
  // Exactly one snapshot store owns the callback: the plane's outbox map in
  // async mode, the broker's callback map inline. Maintaining both would
  // double the copy-on-write cost of every control operation for a map the
  // async publish path never reads.
  if (delivery_ != nullptr) {
    delivery_->add_subscriber(id, std::move(callback), policy);
  } else {
    auto updated = std::make_shared<CallbackMap>(*callbacks_.load());
    updated->resize(std::size_t{id.value()} + 1);
    (*updated)[id.value()] = std::move(callback);
    callbacks_.store(std::shared_ptr<const CallbackMap>(std::move(updated)));
  }
  if (cells_ != nullptr) cells_->register_ops.add();
  return id;
}

void ShardedBroker::unregister_subscriber(SubscriberId subscriber) {
  const std::lock_guard<std::mutex> lock(control_mutex_);
  const auto it = subscriptions_by_subscriber_.find(subscriber);
  if (it == subscriptions_by_subscriber_.end()) return;
  // One record covers the whole cascade: replay re-derives the subscription
  // list from its own reconstructed state, so the per-subscription
  // unsubscribes below are deliberately not journalled.
  if (journal_ != nullptr) {
    storage::JournalRecord record;
    record.type = storage::JournalRecord::Type::UnregisterSubscriber;
    record.subscriber = subscriber.value();
    journal_commit_locked(std::move(record));
  }
  for (const SubscriptionId sub : it->second) {
    Route& route = routes_[sub.value()];
    route.live = false;
    issue_unsubscribe_locked(sub, route);
  }
  subscriptions_by_subscriber_.erase(it);
  if (delivery_ != nullptr) {
    delivery_->remove_subscriber(subscriber);
  } else {
    // A recovered subscriber that was never reattached has no slot.
    auto updated = std::make_shared<CallbackMap>(*callbacks_.load());
    if (subscriber.value() < updated->size()) {
      (*updated)[subscriber.value()] = nullptr;
    }
    callbacks_.store(std::shared_ptr<const CallbackMap>(std::move(updated)));
  }
  if (cells_ != nullptr) cells_->unregister_ops.add();
}

SubscriptionId ShardedBroker::allocate_global_locked() {
  // Reclaim retired ids (see RetiredGlobal): the owning shard must have
  // applied the removal, and every batch that could still hold the id in
  // its buffered match records must have finished delivering. A free
  // publish mutex proves the latter outright (prior batches hold it
  // through delivery; later batches match after the removal); otherwise
  // wait for the publish epoch to tick past the in-flight batch.
  if (!retired_globals_.empty()) {
    const bool publish_idle = publish_idle_probe();
    const std::uint64_t epoch_now =
        publish_epoch_.load(std::memory_order_acquire);
    std::size_t kept = 0;
    for (RetiredGlobal& retired : retired_globals_) {
      bool reusable = false;
      if (shards_[retired.shard]->fence.applied() >= retired.generation) {
        if (publish_idle ||
            (retired.safe_epoch != 0 && epoch_now >= retired.safe_epoch)) {
          reusable = true;
        } else if (retired.safe_epoch == 0) {
          retired.safe_epoch = epoch_now + 1;
        }
      }
      // Async delivery: the batches those publishes enqueued still carry
      // the id — in the owning subscriber's outbox. First time the epoch
      // condition holds, every such batch has been accepted there, so
      // snapshot that outbox's accepted marker; reuse once its completed
      // marker catches up (everything is delivered, evicted or discarded).
      if (reusable && delivery_ != nullptr) {
        if (retired.safe_accepted == kAcceptedUnset) {
          retired.safe_accepted =
              delivery_->subscriber_accepted_marker(retired.owner);
        }
        reusable = delivery_->subscriber_completed_marker(retired.owner) >=
                   retired.safe_accepted;
      }
      if (reusable) {
        free_globals_.push_back(retired.global);
      } else {
        retired_globals_[kept++] = retired;
      }
    }
    retired_globals_.resize(kept);
  }
  if (!free_globals_.empty()) {
    const SubscriptionId id = free_globals_.back();
    free_globals_.pop_back();
    return id;
  }
  const SubscriptionId id(static_cast<std::uint32_t>(routes_.size()));
  routes_.emplace_back();
  return id;
}

SubscriptionId ShardedBroker::subscribe(SubscriberId subscriber,
                                        std::string_view text) {
  // Parse and validate on the calling thread before touching any broker
  // state: ParseError (and, for the counting engines, DnfExplosionError /
  // SubscriptionTooLargeError) is synchronous and registers nothing, and
  // the command can no longer fail wherever it is applied. Only attribute
  // names are interned (idempotent, thread-safe). validate() touches no
  // mutable engine state and depends only on the engine's configuration,
  // identical across shards, so shard 0 stands in for the routed shard.
  parser_detail::RawNodePtr raw = parse_raw(text, *attrs_);
  {
    PredicateTable scratch;
    const ast::Expr expr = intern_tree(*raw, scratch);
    shards_[0]->engine->validate(expr.root(), scratch);
  }

  const std::lock_guard<std::mutex> lock(control_mutex_);
  NCPS_EXPECTS(subscriptions_by_subscriber_.contains(subscriber));
  const SubscriptionId global = allocate_global_locked();
  if (journal_ != nullptr) {
    storage::JournalRecord record;
    record.type = storage::JournalRecord::Type::Subscribe;
    record.subscriber = subscriber.value();
    record.global = global.value();
    record.text = std::string(text);
    try {
      journal_commit_locked(std::move(record));
    } catch (...) {
      free_globals_.push_back(global);  // nothing was registered
      throw;
    }
    record_text_locked(global, text);
  }
  const std::uint32_t s = router_.route(subscriber, subscribe_sequence_);
  ++subscribe_sequence_;
  routes_[global.value()] = Route{s, subscriber, /*live=*/true};
  subscriptions_by_subscriber_[subscriber].push_back(global);

  ShardCommand command;
  command.kind = ShardCommand::Kind::Subscribe;
  command.global = global;
  command.owner = subscriber;
  command.raw = std::move(raw);
  issue_command_locked(*shards_[s], std::move(command));
  if (cells_ != nullptr) cells_->subscribe_ops.add();
  return global;
}

std::vector<SubscriptionId> ShardedBroker::subscribe_bulk(
    SubscriberId subscriber, std::span<const std::string> texts) {
  std::vector<SubscriptionId> out;
  if (texts.empty()) return out;

  // Parse and validate everything first, exactly as subscribe() does, so a
  // throw registers nothing.
  std::vector<parser_detail::RawNodePtr> raws;
  raws.reserve(texts.size());
  for (const std::string& text : texts) raws.push_back(parse_raw(text, *attrs_));
  {
    PredicateTable scratch;
    for (const parser_detail::RawNodePtr& raw : raws) {
      const ast::Expr expr = intern_tree(*raw, scratch);
      shards_[0]->engine->validate(expr.root(), scratch);
    }
  }

  const auto trees =
      std::make_shared<const std::vector<parser_detail::RawNodePtr>>(
          std::move(raws));

  const std::lock_guard<std::mutex> lock(control_mutex_);
  NCPS_EXPECTS(subscriptions_by_subscriber_.contains(subscriber));

  // Route every subscription and commit the control-plane bookkeeping up
  // front; application can no longer fail.
  std::vector<std::vector<BulkSubscribeItem>> per_shard(shards_.size());
  out.reserve(texts.size());
  for (const parser_detail::RawNodePtr& raw : *trees) {
    const std::uint32_t s = router_.route(subscriber, subscribe_sequence_);
    ++subscribe_sequence_;
    const SubscriptionId global = allocate_global_locked();
    routes_[global.value()] = Route{s, subscriber, /*live=*/true};
    subscriptions_by_subscriber_[subscriber].push_back(global);
    per_shard[s].push_back(BulkSubscribeItem{global, subscriber, raw.get()});
    out.push_back(global);
  }

  // One journal record covers the whole call: replay re-routes each item
  // deterministically through the same subscribe_sequence_ counter. If the
  // commit throws, unwind the bookkeeping above — nothing has reached a
  // shard yet, so the broker is exactly as before the call.
  if (journal_ != nullptr) {
    storage::JournalRecord record;
    record.type = storage::JournalRecord::Type::BulkSubscribe;
    record.subscriber = subscriber.value();
    record.bulk.reserve(texts.size());
    for (std::size_t i = 0; i < texts.size(); ++i) {
      record.bulk.push_back(storage::JournalRecord::BulkItem{
          out[i].value(), std::string(texts[i])});
    }
    try {
      journal_commit_locked(std::move(record));
    } catch (...) {
      auto& list = subscriptions_by_subscriber_[subscriber];
      for (std::size_t i = out.size(); i-- > 0;) {
        routes_[out[i].value()].live = false;
        free_globals_.push_back(out[i]);
        list.pop_back();
      }
      subscribe_sequence_ -= texts.size();
      throw;
    }
    for (std::size_t i = 0; i < texts.size(); ++i) {
      record_text_locked(out[i], texts[i]);
    }
  }

  // One command per shard carries that shard's whole share, so the shard
  // builds its phase-1 index in one bulk-load window (apply_command).
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    ShardCommand command;
    command.kind = ShardCommand::Kind::BulkSubscribe;
    command.bulk = std::move(per_shard[s]);
    command.trees = trees;
    issue_command_locked(*shards_[s], std::move(command));
  }
  if (cells_ != nullptr) cells_->subscribe_ops.add(out.size());
  return out;
}

std::uint64_t ShardedBroker::issue_command_locked(Shard& shard,
                                                  ShardCommand command) {
  const std::uint64_t generation =
      issue_generation_.load(std::memory_order_relaxed) + 1;
  command.generation = generation;
  command.enqueue_tick = cells_ == nullptr ? 0 : obs::now_ticks();
  shard.queued_commands.fetch_add(1, std::memory_order_relaxed);
  shard.commands.push(std::move(command));
  // Publish the generation only after the push: a drain that snapshots
  // issue_generation_ must find every command at or below its snapshot
  // already linked in the queue.
  issue_generation_.store(generation, std::memory_order_release);
  // No other mutator holds the shard: drain it here, this command last, so
  // a sequential caller sees it applied on return (the seed broker's
  // semantics). Otherwise the holder, the apply thread or the next batch
  // applies it.
  std::unique_lock<std::shared_mutex> shard_lock(shard.mutex,
                                                 std::try_to_lock);
  if (shard_lock.owns_lock()) {
    ShardWriteGuard gate(shard);
    drain_shard(shard, gate);
  } else {
    signal_apply();
  }
  return generation;
}

void ShardedBroker::issue_unsubscribe_locked(SubscriptionId global,
                                             const Route& route) {
  if (journal_ != nullptr && global.value() < texts_.size()) {
    texts_[global.value()].clear();
    texts_[global.value()].shrink_to_fit();
  }
  ShardCommand command;
  command.kind = ShardCommand::Kind::Unsubscribe;
  command.global = global;
  const std::uint64_t generation =
      issue_command_locked(*shards_[route.shard], std::move(command));
  // Even once the engine has forgotten the id, a batch mid-delivery may
  // still hold it in buffered match records (or, async mode, in pending
  // outbox batches), and reusing it would relabel those stale notifications
  // as the new subscription. allocate_global_locked reclaims it as soon as
  // that cannot happen: for a sequential caller, at the next allocation,
  // which keeps the seed broker's LIFO ids.
  retired_globals_.push_back(
      RetiredGlobal{global, route.shard, route.owner, generation});
}

bool ShardedBroker::unsubscribe(SubscriptionId subscription) {
  const std::lock_guard<std::mutex> lock(control_mutex_);
  if (!subscription.valid() || subscription.value() >= routes_.size() ||
      !routes_[subscription.value()].live) {
    return false;
  }
  // Journalled before any state changes: a commit failure leaves the
  // subscription fully live.
  if (journal_ != nullptr) {
    storage::JournalRecord record;
    record.type = storage::JournalRecord::Type::Unsubscribe;
    record.global = subscription.value();
    journal_commit_locked(std::move(record));
  }
  Route& route = routes_[subscription.value()];
  route.live = false;
  auto& list = subscriptions_by_subscriber_[route.owner];
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i] == subscription) {
      list[i] = list.back();
      list.pop_back();
      break;
    }
  }
  issue_unsubscribe_locked(subscription, route);
  if (cells_ != nullptr) cells_->unsubscribe_ops.add();
  return true;
}

std::size_t ShardedBroker::drain_shard(Shard& shard, ShardWriteGuard& gate) {
  // Snapshot before popping: every command issued at or below the snapshot
  // is already fully linked in the queue (generations are published after
  // the push), so after draining we may advance the fence to it. Advancing
  // on an empty queue needs no write gate: the caller's shard mutex
  // excludes other appliers, and a not-yet-linked command cannot be covered
  // by the snapshot.
  const std::uint64_t cover =
      issue_generation_.load(std::memory_order_acquire);
  std::size_t applied = 0;
  while (auto command = shard.commands.pop()) {
    shard.queued_commands.fetch_sub(1, std::memory_order_relaxed);
    gate.enter();  // first command pays the grace period; the rest ride it
    apply_command(shard, std::move(*command));
    ++applied;
  }
  shard.fence.advance(cover);
  return applied;
}

void ShardedBroker::apply_command(Shard& shard, ShardCommand&& command) {
  switch (command.kind) {
    case ShardCommand::Kind::Subscribe:
      apply_subscribe(shard, command.global, command.owner, *command.raw);
      break;
    case ShardCommand::Kind::Unsubscribe:
      apply_unsubscribe(shard, command.global);
      break;
    case ShardCommand::Kind::BulkSubscribe: {
      // Pre-size the shard's predicate table for the incoming batch (a few
      // predicates per subscription; over-reserving only rounds up to what
      // vector growth would have allocated anyway).
      shard.table.reserve(shard.table.id_bound() + command.bulk.size() * 4);
      shard.engine->begin_bulk_load();
      for (const BulkSubscribeItem& item : command.bulk) {
        apply_subscribe(shard, item.global, item.owner, *item.raw);
      }
      // A large batch builds on a temporary pool, whichever thread drains
      // it: the broker's own pool_ may be mid-run_tasks on the data plane,
      // and run_tasks is not reentrant. The draining thread builds beside
      // the pool's, so min(hw, 8) builders means one fewer spawned.
      std::unique_ptr<WorkStealingPool> build_pool;
      if (command.bulk.size() >= kBulkBuildParallelThreshold) {
        const std::size_t hw = std::thread::hardware_concurrency();
        build_pool = std::make_unique<WorkStealingPool>(
            std::min<std::size_t>(hw == 0 ? 1 : hw, 8) - 1);
      }
      shard.engine->finish_bulk_load(build_pool.get());
      break;
    }
  }
  shard.fence.advance(command.generation);
  // Issue → applied, for every control op: how long the command sat behind
  // other mutators and the chunks in flight (plus apply-thread wakeup when
  // it was queued).
  if (cells_ != nullptr && command.enqueue_tick != 0) {
    const std::uint64_t now = obs::now_ticks();
    cells_->control_apply_latency.record(
        now > command.enqueue_tick ? now - command.enqueue_tick : 0);
  }
}

SubscriptionId ShardedBroker::apply_subscribe(
    Shard& shard, SubscriptionId global, SubscriberId owner,
    const parser_detail::RawNode& raw) {
  // Intern into the shard's own table: the predicates of a subscription
  // live (and are refcounted) exactly where its engine lives.
  const ast::Expr expr = intern_tree(raw, shard.table);
  const SubscriptionId local = shard.engine->add(expr.root());
  if (shard.to_global.size() <= local.value()) {
    shard.to_global.resize(local.value() + 1, SubscriptionId::invalid());
    shard.owner_of.resize(local.value() + 1, SubscriberId::invalid());
  }
  shard.to_global[local.value()] = global;
  shard.owner_of[local.value()] = owner;
  shard.local_of[global.value()] = local;
  shard.subscriptions.fetch_add(1, std::memory_order_relaxed);
  return local;
}

void ShardedBroker::apply_unsubscribe(Shard& shard, SubscriptionId global) {
  const auto it = shard.local_of.find(global.value());
  NCPS_ASSERT(it != shard.local_of.end());
  const SubscriptionId local = it->second;
  shard.local_of.erase(it);
  const bool removed = shard.engine->remove(local);
  NCPS_ASSERT(removed);
  shard.to_global[local.value()] = SubscriptionId::invalid();
  shard.owner_of[local.value()] = SubscriberId::invalid();
  shard.subscriptions.fetch_sub(1, std::memory_order_relaxed);
}

void ShardedBroker::run_match_tasks(std::span<const Event> events) {
  // Phase A — batch-start barrier: apply queued commands shard by shard, so
  // every command issued before this batch started is visible to all of it
  // (the "matched by every batch that starts after subscribe() returns"
  // contract). The apply thread usually leaves these queues empty; an empty
  // drain is a mutex round-trip plus a fence advance, no grace period.
  // Commands arriving *after* this point may still land mid-batch — the
  // apply thread or the issuing control call takes the write gate between
  // chunks — which is the design: apply latency is bounded by the chunk
  // cap, not the batch.
  for (auto& shard : shards_) {
    const std::lock_guard<std::shared_mutex> lock(shard->mutex);
    ShardWriteGuard gate(*shard);
    drain_shard(*shard, gate);
  }

  // Chunking: enough (shard × chunk) tasks that stealing can level a
  // skewed shard, but no more — per-task cost is one epoch pin plus one
  // stats fold. A single worker has nobody to steal from, so it gets one
  // task per shard (per kMaxChunkEvents events): phase 1 runs over as much
  // of the batch as the cap allows. The cap bounds how long a chunk can
  // hold its pin, which is what bounds every mutator's grace-period wait.
  const std::size_t shard_count = shards_.size();
  const std::size_t workers = worker_contexts_.size();
  const std::size_t per_shard =
      workers == 1
          ? 1
          : std::max(shard_count, workers * kMatchTasksPerWorker) /
                shard_count;
  chunk_events_ =
      std::min((events.size() + per_shard - 1) / per_shard, kMaxChunkEvents);
  chunk_count_ = (events.size() + chunk_events_ - 1) / chunk_events_;

  const std::size_t task_count = shard_count * chunk_count_;
  if (match_buffers_.size() < task_count) match_buffers_.resize(task_count);

  // Phase B — matching: task t is chunk (t % chunk_count_) of shard
  // (t / chunk_count_). Shard-major, so the contiguous slices the pool
  // deals keep a worker on one shard's engine until it runs dry and
  // steals. Workers match lock-free inside an epoch-pinned EngineView on
  // their own slot; a shard's engine may be read by many workers at once,
  // and a mutator slips in whenever no chunk of that shard is pinned.
  const auto fn = [&](std::size_t task, std::size_t worker) {
    const std::size_t s = task / chunk_count_;
    const std::size_t first = (task % chunk_count_) * chunk_events_;
    const std::size_t last =
        std::min(events.size(), first + chunk_events_);
    Shard& shard = *shards_[s];
    MatchContext& ctx = *worker_contexts_[worker];
    ctx.stats.reset();
    {
      const EngineView view(*shard.engine, *shard.epochs, worker);
      ChunkSink sink(shard, match_buffers_[task], first, last - first);
      view.match_range(events, first, last, sink, ctx);
      sink.finish();
    }
    shard_match_stats_[s]->add(ctx.stats);
  };
  WorkStealingPool::RunStats run;
  if (pool_ != nullptr) {
    run = pool_->run_tasks(task_count, fn);
  } else {
    // Seed broker: the publishing thread is the only worker.
    for (std::size_t t = 0; t < task_count; ++t) fn(t, 0);
    run.tasks = task_count;
  }
  if (cells_ != nullptr) {
    cells_->match_tasks.add(run.tasks);
    cells_->steals.add(run.steals);
  }
}

void ShardedBroker::merge_all(std::span<const Event> events) {
  // Per-event slice bounds first: the tasks' per-event counts,
  // prefix-summed into event_offsets_ (shards × events additions, however
  // many matches there are). Each event then has a fixed destination slice
  // in merged_, so the per-event-range merge tasks write disjoint ranges
  // with no coordination. The tasks' largest global id sizes the merge
  // workers' bitmaps.
  const std::size_t event_count = events.size();
  event_offsets_.assign(event_count + 1, 0);
  std::uint32_t max_id = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (std::size_t c = 0; c < chunk_count_; ++c) {
      const TaskMatches& task = match_buffers_[s * chunk_count_ + c];
      max_id = std::max(max_id, task.max_id);
      std::size_t* const offsets = &event_offsets_[c * chunk_events_ + 1];
      for (std::size_t i = 0; i < task.event_counts.size(); ++i) {
        offsets[i] += task.event_counts[i];
      }
    }
  }
  for (std::size_t e = 0; e < event_count; ++e) {
    event_offsets_[e + 1] += event_offsets_[e];
  }
  merged_.resize(event_offsets_[event_count]);
  const std::size_t id_words = std::size_t{max_id} / 64 + 1;
  for (MergeScratch& scratch : merge_scratch_) {
    if (scratch.bits.size() >= id_words) continue;
    scratch.bits.resize(id_words);
    scratch.rank.resize(id_words);
    scratch.words.resize((id_words + 63) / 64);
  }

  if (pool_ == nullptr || event_count == 1) {
    // The pool's workers are parked, so worker 0's scratch is free.
    merge_event_range(0, event_count, merge_scratch_[0]);
    return;
  }
  const std::size_t merge_tasks =
      std::min(event_count, pool_->thread_count() * kMergeTasksPerWorker);
  const std::size_t range = (event_count + merge_tasks - 1) / merge_tasks;
  pool_->run_tasks(merge_tasks, [&](std::size_t task, std::size_t worker) {
    const std::size_t first = std::min(task * range, event_count);
    merge_event_range(first, std::min(first + range, event_count),
                      merge_scratch_[worker]);
  });
}

void ShardedBroker::merge_event_range(std::size_t first, std::size_t last,
                                      MergeScratch& scratch) {
  if (first >= last) return;
  const std::size_t shard_count = shards_.size();
  auto& [bits, words, rank, cursor] = scratch;
  cursor.resize(shard_count);
  // Each task buffer is ordered by event index (a chunk's events are
  // processed in order), and its per-event counts delimit each event's
  // run: a cursor per shard starts at the sum of the counts before the
  // first event of the overlap and advances one run per event.
  for (std::size_t c = first / chunk_events_;
       c < chunk_count_ && c * chunk_events_ < last; ++c) {
    const std::size_t chunk_begin = c * chunk_events_;
    const std::size_t e0 = std::max(first, chunk_begin);
    const std::size_t e1 = std::min(last, chunk_begin + chunk_events_);
    for (std::size_t s = 0; s < shard_count; ++s) {
      const auto& counts = match_buffers_[s * chunk_count_ + c].event_counts;
      cursor[s] = std::accumulate(counts.begin(),
                                  counts.begin() + (e0 - chunk_begin),
                                  std::size_t{0});
    }
    // Ascending global id, so the merged order is independent of shard
    // count, chunking and steal interleaving. A match's rank is the count
    // of the event's ids below its own, read off the bitmap: set one bit
    // per match, prefix-popcount the touched words, scatter. Ids are unique
    // per event (a freed global id is quarantined until every batch that
    // could carry its old subscription has delivered), so no bit is shared.
    for (std::size_t e = e0; e < e1; ++e) {
      for (std::size_t s = 0; s < shard_count; ++s) {
        const TaskMatches& task = match_buffers_[s * chunk_count_ + c];
        const std::size_t end =
            cursor[s] + task.event_counts[e - chunk_begin];
        for (std::size_t i = cursor[s]; i < end; ++i) {
          const std::uint32_t id = task.matches[i].subscription.value();
          NCPS_DASSERT((bits[id / 64] >> (id % 64) & 1) == 0);
          bits[id / 64] |= std::uint64_t{1} << (id % 64);
          words[id / 4096] |= std::uint64_t{1} << (id / 64 % 64);
        }
      }
      std::uint32_t below = 0;
      for (std::size_t sw = 0; sw < words.size(); ++sw) {
        for (std::uint64_t m = words[sw]; m != 0; m &= m - 1) {
          const std::size_t w = sw * 64 + std::countr_zero(m);
          rank[w] = below;
          below += static_cast<std::uint32_t>(std::popcount(bits[w]));
        }
      }
      for (std::size_t s = 0; s < shard_count; ++s) {
        const TaskMatches& task = match_buffers_[s * chunk_count_ + c];
        const std::size_t end =
            cursor[s] + task.event_counts[e - chunk_begin];
        for (std::size_t& i = cursor[s]; i < end; ++i) {
          const std::uint32_t id = task.matches[i].subscription.value();
          const std::uint64_t lower = (std::uint64_t{1} << (id % 64)) - 1;
          merged_[event_offsets_[e] + rank[id / 64] +
                  std::popcount(bits[id / 64] & lower)] = task.matches[i];
        }
      }
      for (std::size_t sw = 0; sw < words.size(); ++sw) {
        for (; words[sw] != 0; words[sw] &= words[sw] - 1) {
          bits[sw * 64 + std::countr_zero(words[sw])] = 0;
        }
      }
    }
  }
}

std::size_t ShardedBroker::merge_and_deliver(std::span<const Event> events,
                                             const CallbackMap& callbacks,
                                             std::uint64_t publish_tick) {
  std::size_t delivered = 0;
  for (std::size_t e = 0; e < events.size(); ++e) {
    const std::size_t end = event_offsets_[e + 1];
    for (std::size_t i = event_offsets_[e]; i < end; ++i) {
      const ShardMatch& match = merged_[i];
      const std::size_t owner = match.owner.value();
      // An empty slot was unregistered mid-batch.
      if (owner >= callbacks.size() || !callbacks[owner]) continue;
      callbacks[owner](
          Notification{match.owner, match.subscription, &events[e]});
      ++delivered;
    }
  }
  // One clock read per *batch*, weighted by its notification count — the
  // same amortisation the async path uses per drained outbox batch. A
  // per-event read costs ~10% of publish throughput on a cheap workload
  // (one clock read against a few hundred ns of matching), far past the
  // 2% budget bench_obs enforces; the resolution lost is within one
  // batch's delivery span, which is what the histogram's latency means
  // here anyway (publish_batch entry → notification emit).
  if (cells_ != nullptr) {
    cells_->inline_notifications.add(delivered);
    if (delivered > 0 && publish_tick != 0) {
      const std::uint64_t now = obs::now_ticks();
      cells_->inline_latency.record_n(
          now > publish_tick ? now - publish_tick : 0, delivered);
    }
  }
  return delivered;
}

std::size_t ShardedBroker::merge_and_enqueue(std::span<const Event> events,
                                             std::uint64_t publish_tick) {
  // Async mode: the merged matches become per-subscriber outbox batches.
  // The plane filters subscribers unregistered since matching via its own
  // snapshot, so no callback map is consulted here.
  delivery_->begin_batch(events, publish_tick);
  for (std::size_t e = 0; e < events.size(); ++e) {
    const std::size_t end = event_offsets_[e + 1];
    for (std::size_t i = event_offsets_[e]; i < end; ++i) {
      delivery_->add_match(static_cast<std::uint32_t>(e), merged_[i].owner,
                           merged_[i].subscription);
    }
  }
  return delivery_->commit_batch();
}

std::size_t ShardedBroker::publish(const Event& event) {
  return publish_batch(std::span<const Event>(&event, 1));
}

std::size_t ShardedBroker::publish_batch(std::span<const Event> events) {
  if (events.empty()) return 0;
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  // Latency epoch for this batch: every notification it produces is
  // measured against this tick, whichever thread eventually emits it.
  const std::uint64_t publish_tick =
      cells_ == nullptr ? 0 : obs::now_ticks();
  if (cells_ != nullptr) {
    cells_->publish_batches.add();
    cells_->publish_events.add(events.size());
  }
  publishing_thread_.store(std::this_thread::get_id(),
                           std::memory_order_relaxed);
  run_match_tasks(events);
  const std::uint64_t matched_tick = cells_ == nullptr ? 0 : obs::now_ticks();
  merge_all(events);
  const std::uint64_t merged_tick = cells_ == nullptr ? 0 : obs::now_ticks();
  std::size_t delivered;
  if (delivery_ != nullptr) {
    delivered = merge_and_enqueue(events, publish_tick);
  } else {
    // Snapshot after matching: a subscriber registered while the batch was
    // matching is deliverable, one unregistered is skipped.
    const std::shared_ptr<const CallbackMap> callbacks = callbacks_.load();
    delivered = merge_and_deliver(events, *callbacks, publish_tick);
  }
  if (cells_ != nullptr) {
    cells_->stage_match.add(matched_tick - publish_tick);
    cells_->stage_merge.add(merged_tick - matched_tick);
    cells_->stage_deliver.add(obs::now_ticks() - merged_tick);
  }
  // Delivery (inline) or hand-off (async) done: stale match records from
  // this batch are dead, so quarantined global ids gated on this epoch move
  // to their next reclamation stage.
  publishing_thread_.store(std::thread::id(), std::memory_order_relaxed);
  publish_epoch_.fetch_add(1, std::memory_order_release);
  return delivered;
}

void ShardedBroker::flush() {
  if (delivery_ != nullptr) delivery_->flush();
}

std::optional<DeliveryStats> ShardedBroker::delivery_stats(
    SubscriberId subscriber) const {
  if (delivery_ == nullptr) return std::nullopt;
  return delivery_->stats(subscriber);
}

bool ShardedBroker::publish_idle_probe() {
  // A delivery callback re-entering the control plane runs on the thread
  // that owns publish_mutex_; try_lock there would be UB, and the answer
  // is known anyway: a batch is in flight.
  if (publishing_thread_.load(std::memory_order_relaxed) ==
      std::this_thread::get_id()) {
    return false;
  }
  if (publish_mutex_.try_lock()) {
    publish_mutex_.unlock();
    return true;
  }
  return false;
}

void ShardedBroker::wait_applied(std::uint64_t generation) {
  // Kick the apply thread first: a control call that drains its own
  // command advances only that shard's fence, so idle shards may sit below
  // `generation` with nothing queued and no batch coming to drain them.
  // One drain pass advances every fence to the issued generation. Seed
  // brokers (single shard, no pool) have no apply thread: a command their
  // caller could not drain waits for the next batch or quiesce().
  signal_apply();
  for (auto& shard : shards_) shard->fence.wait_until(generation);
}

bool ShardedBroker::apply_pending() const {
  for (const auto& shard : shards_) {
    if (shard->queued_commands.load(std::memory_order_acquire) > 0) {
      return true;
    }
  }
  return false;
}

void ShardedBroker::signal_apply() {
  if (!apply_thread_.joinable()) return;
  // The kick is level-triggered state under the CV mutex, so the apply
  // thread cannot check its predicate, lose the CPU, miss this notify and
  // sleep through a request it has not yet served.
  {
    const std::lock_guard<std::mutex> lock(apply_cv_mutex_);
    apply_kick_ = true;
  }
  apply_cv_.notify_one();
}

void ShardedBroker::apply_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(apply_cv_mutex_);
      apply_cv_.wait(lock, [this] {
        return apply_stop_ || apply_kick_ || apply_pending();
      });
      if (apply_stop_) return;
      apply_kick_ = false;  // consumed by the drain pass below
    }
    // Drain every shard, not just those with queued commands: fences must
    // advance everywhere for wait_applied (which waits on the max over all
    // shards) to be self-driving, and an empty drain is nearly free — the
    // write gate is entered lazily, so idle shards pay a mutex round-trip
    // and a fence advance, never a grace period.
    std::size_t applied = 0;
    for (auto& shard : shards_) {
      const std::lock_guard<std::shared_mutex> lock(shard->mutex);
      ShardWriteGuard gate(*shard);
      applied += drain_shard(*shard, gate);
    }
    if (applied == 0 && apply_pending()) {
      // A producer is mid-push (queued_commands incremented, node not yet
      // linked — the MPSC queue's benign window). Yield rather than spin
      // through the CV, whose predicate would stay true.
      std::this_thread::yield();
    }
  }
}

void ShardedBroker::quiesce() {
  // Taking the publish lock waits out the in-flight batch, deliveries
  // included; draining then applies everything queued. Batches started
  // after release see every prior control command applied.
  //
  // NOT a snapshot fence: control_mutex_ is never held here, so a
  // concurrent control thread can enqueue a command on a shard *after* its
  // per-shard drain below but before quiesce() returns — the caller
  // observes "quiesced" while that shard's engine still lags its queue.
  // That ordering gap is harmless for quiesce()'s contract (later batches
  // drain before matching) but fatal for snapshotting, which must capture
  // engines with every issued command applied. checkpoint() therefore
  // builds its own fence — publish lock + control lock + all shard locks —
  // and asserts every shard's generation fence has caught up to
  // issue_generation_ before serialising a byte.
  const std::lock_guard<std::mutex> publish_lock(publish_mutex_);
  for (auto& shard : shards_) {
    const std::lock_guard<std::shared_mutex> shard_lock(shard->mutex);
    ShardWriteGuard gate(*shard);
    drain_shard(*shard, gate);
  }
  // Async mode: the in-flight batch only *enqueued* its notifications;
  // the delivery flush completes the barrier (closed outboxes discard, so
  // unregistered subscribers cannot fire during it). Holding the publish
  // lock keeps later batches ordered after the fence.
  if (delivery_ != nullptr) delivery_->flush();
}

std::size_t ShardedBroker::subscription_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->subscriptions.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t ShardedBroker::subscriber_count() const {
  if (delivery_ != nullptr) {
    // Async mode keeps no callback map; the session table is authoritative.
    const std::lock_guard<std::mutex> lock(control_mutex_);
    return subscriptions_by_subscriber_.size();
  }
  const std::shared_ptr<const CallbackMap> callbacks = callbacks_.load();
  return static_cast<std::size_t>(
      std::count_if(callbacks->begin(), callbacks->end(),
                    [](const NotifyFn& fn) { return fn != nullptr; }));
}

std::size_t ShardedBroker::shard_subscription_count(std::size_t shard) const {
  NCPS_EXPECTS(shard < shards_.size());
  return shards_[shard]->subscriptions.load(std::memory_order_relaxed);
}

obs::MetricsSnapshot ShardedBroker::metrics() const {
  obs::MetricsSnapshot snap;
  // Registry cells first (publish counters, latency histograms, delivery
  // and journal cells): a pure copy of relaxed atomics, no broker locks.
  registry_.snapshot_into(snap);

  // Per-shard samples, all relaxed atomics — no shard mutex: match stats
  // from the AtomicMatchStats cells the match tasks feed once per task
  // (zero atomics per event on the match path), subscription counts from
  // the apply path's counter.
  const std::uint64_t issued =
      issue_generation_.load(std::memory_order_acquire);
  std::size_t subscriptions_total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    const MatchStats stats = shard_match_stats_[s]->load();
    const std::size_t subs =
        shard.subscriptions.load(std::memory_order_relaxed);
    subscriptions_total += subs;
    const obs::Labels labels{{"shard", std::to_string(s)}};
    snap.add_counter("ncps_match_events_total", labels, stats.events);
    snap.add_counter("ncps_match_fulfilled_predicates_total", labels,
                     stats.fulfilled_predicates);
    snap.add_counter("ncps_match_candidates_total", labels, stats.candidates);
    snap.add_counter("ncps_match_tree_evaluations_total", labels,
                     stats.tree_evaluations);
    snap.add_counter("ncps_match_node_evaluations_total", labels,
                     stats.node_evaluations);
    snap.add_counter("ncps_match_truth_lookups_total", labels,
                     stats.truth_lookups);
    snap.add_counter("ncps_match_hit_increments_total", labels,
                     stats.hit_increments);
    snap.add_counter("ncps_match_counter_comparisons_total", labels,
                     stats.counter_comparisons);
    snap.add_counter("ncps_match_matches_total", labels, stats.matches);
    snap.add_counter("ncps_match_block_events_total", labels,
                     stats.block_events);
    snap.add_counter("ncps_match_phase_seconds_total",
                     {{"shard", std::to_string(s)}, {"phase", "1"}},
                     stats.phase1_ns);
    snap.add_counter("ncps_match_phase_seconds_total",
                     {{"shard", std::to_string(s)}, {"phase", "2"}},
                     stats.phase2_ns);
    // Control-plane health: how far this shard's applied generation trails
    // the broker's issue generation (saturating — the issue counter read
    // may predate a concurrent advance), and commands still queued.
    const std::uint64_t applied = shard.fence.applied();
    snap.add_gauge("ncps_control_apply_lag", labels,
                   static_cast<double>(issued > applied ? issued - applied
                                                        : 0));
    snap.add_gauge(
        "ncps_control_queue_depth", labels,
        static_cast<double>(
            shard.queued_commands.load(std::memory_order_relaxed)));
    snap.add_gauge("ncps_shard_subscriptions", labels,
                   static_cast<double>(subs));
  }
  snap.add_gauge("ncps_shards", {}, static_cast<double>(shards_.size()));
  // Match scheduler health: deque depths and how evenly the pool's workers
  // are loaded. Busy fraction is cumulative drain time over pool lifetime —
  // a persistently low worker under a hot batch stream means the chunking
  // is too coarse to steal. The last worker is the publishing thread.
  if (pool_ != nullptr) {
    const std::vector<WorkStealingPool::WorkerSample> samples =
        pool_->sample_workers();
    const std::uint64_t lifetime = pool_->lifetime_ns();
    double queued_total = 0;
    for (std::size_t w = 0; w < samples.size(); ++w) {
      queued_total += static_cast<double>(samples[w].queued);
      snap.add_gauge("ncps_worker_busy_fraction",
                     {{"worker", std::to_string(w)}},
                     lifetime == 0
                         ? 0.0
                         : static_cast<double>(samples[w].busy_ns) /
                               static_cast<double>(lifetime));
    }
    snap.add_gauge("ncps_pool_queue_depth", {}, queued_total);
    snap.add_gauge("ncps_pool_workers", {},
                   static_cast<double>(samples.size()));
  }
  snap.add_gauge("ncps_subscriptions", {},
                 static_cast<double>(subscriptions_total));
  snap.add_gauge("ncps_subscribers", {},
                 static_cast<double>(subscriber_count()));
  if (delivery_ != nullptr) delivery_->sample_metrics(snap);
  if (journal_ != nullptr) {
    snap.add_gauge("ncps_journal_sequence", {},
                   static_cast<double>(journal_sequence()));
  }
  return snap;
}

MemoryBreakdown ShardedBroker::memory() const {
  MemoryBreakdown mem;
  if (shards_.size() == 1) {
    // Seed broker component names, so existing breakdown consumers and the
    // memory benches keep working unchanged.
    const std::shared_lock<std::shared_mutex> lock(shards_[0]->mutex);
    mem.add_nested("engine/", shards_[0]->engine->memory());
    mem.add_nested("predicates/", shards_[0]->table.memory());
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::shared_lock<std::shared_mutex> lock(shards_[s]->mutex);
      const std::string prefix = "shard" + std::to_string(s) + "/";
      mem.add_nested(prefix + "engine/", shards_[s]->engine->memory());
      mem.add_nested(prefix + "predicates/", shards_[s]->table.memory());
    }
  }
  return mem;
}

}  // namespace ncps
