// Single-node broker: subscriber sessions around a filtering engine.
//
// Broker is the shards=1 specialisation of ShardedBroker — one engine, one
// predicate table, no worker threads, the exact seed semantics — kept as its
// own type because it is the deployment surface most callers want:
// subscribers register textual subscriptions, publishers push events, and
// matching subscribers receive notifications through their callbacks. The
// filtering engine is pluggable (any of the paper's three algorithms),
// defaulting to the non-canonical engine. For multi-core matching, construct
// a ShardedBroker with shard_count > 1 instead; both types share one code
// path, so behaviour (delivery counts, id allocation, memory breakdown
// names) is identical.
//
// The attribute registry is shared across brokers (an overlay-wide schema);
// the predicate table and engine are per-broker, as in the paper's model
// where each filtering node owns its index structures.
#pragma once

#include <memory>

#include "broker/sharded_broker.h"

namespace ncps {

/// Single-broker configuration surface: the engine choice plus the delivery
/// plane setup (async delivery with per-subscriber outboxes is opt-in; the
/// default is the seed's inline delivery).
struct BrokerOptions {
  EngineKind engine = EngineKind::NonCanonical;
  DeliveryOptions delivery{};
  /// Crash-recoverable subscription store (storage/snapshot.h); default off.
  storage::StorageOptions storage{};
  /// Runtime telemetry gate (see ShardedBrokerConfig::metrics).
  bool metrics = true;
};

class Broker : public ShardedBroker {
 public:
  explicit Broker(AttributeRegistry& attrs,
                  EngineKind engine = EngineKind::NonCanonical)
      : Broker(attrs, BrokerOptions{.engine = engine}) {}

  Broker(AttributeRegistry& attrs, BrokerOptions options)
      : ShardedBroker(attrs,
                      ShardedBrokerConfig{.shard_count = 1,
                                          .engine = options.engine,
                                          .delivery = options.delivery,
                                          .storage = options.storage,
                                          .metrics = options.metrics}) {}

  /// The engine holds a reference to the broker-owned predicate table, so a
  /// Broker pins its address (copy and move are deleted in the base class).
  /// create() is the enforced way to get a relocatable broker handle.
  [[nodiscard]] static std::unique_ptr<Broker> create(
      AttributeRegistry& attrs, EngineKind engine = EngineKind::NonCanonical);
  [[nodiscard]] static std::unique_ptr<Broker> create(AttributeRegistry& attrs,
                                                      BrokerOptions options);

  [[nodiscard]] FilterEngine& engine() { return shard_engine(0); }
};

}  // namespace ncps
