// Multi-broker overlay with content-based routing.
//
// Brokers form an acyclic topology (enforced at connect time) over the
// simulated network. Subscriptions propagate by reverse-path flooding: every
// broker records, per link, the subscriptions whose subscriber lives
// somewhere beyond that link, in a per-link *interest engine* (the same
// filtering machinery as local matching — routing decisions ARE filtering
// decisions, which is why the paper's engine choice matters on routers too).
// Events are forwarded over a link only if that link's interest engine
// reports at least one match, so event traffic follows subscriber interest
// instead of flooding.
//
// Protocol messages (Subscribe / Unsubscribe / Publish) ride SimNetwork; a
// publish that races subscription propagation sees the overlay's eventual
// consistency exactly as a real deployment would — tests quiesce (run())
// between control and data operations when they need a consistent view.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "broker/broker.h"
#include "net/sim_network.h"

namespace ncps {

/// Overlay-wide subscription identity: origin broker + per-origin counter.
struct GlobalSubId {
  std::uint64_t raw = 0;

  GlobalSubId() = default;
  GlobalSubId(BrokerId origin, std::uint32_t counter)
      : raw((static_cast<std::uint64_t>(origin.value()) << 32) | counter) {}

  [[nodiscard]] BrokerId origin() const {
    return BrokerId(static_cast<std::uint32_t>(raw >> 32));
  }
  friend bool operator==(GlobalSubId a, GlobalSubId b) = default;
};

struct OverlayMessage {
  enum class Kind : std::uint8_t { Subscribe, Unsubscribe, Publish };
  Kind kind = Kind::Publish;
  GlobalSubId global_sub;  // Subscribe/Unsubscribe
  std::string text;        // Subscribe
  Event event;             // Publish
};

class BrokerNetwork {
 public:
  /// `enable_covering` turns on covering-based routing-table reduction: a
  /// remote subscription already covered by one installed on the same link
  /// is *shadowed* — not registered with the link's engine and not forwarded
  /// further (its events already route through the cover's interest). When
  /// the cover is unsubscribed, shadowed subscriptions are reinstated and
  /// their propagation resumes, so delivery is unaffected.
  explicit BrokerNetwork(EngineKind engine = EngineKind::NonCanonical,
                         bool enable_covering = false)
      : engine_kind_(engine), covering_enabled_(enable_covering) {}

  /// Full options form: every broker in the overlay is constructed with
  /// `options` — in particular DeliveryOptions::mode == Async gives each
  /// node an async delivery plane, so local deliveries come off the routing
  /// path. run() flushes the planes at quiescence.
  BrokerNetwork(BrokerOptions options, bool enable_covering)
      : engine_kind_(options.engine),
        covering_enabled_(enable_covering),
        broker_options_(options) {}

  BrokerId add_broker();

  /// Link two brokers. The topology must stay acyclic; a connect that would
  /// close a cycle throws.
  void connect(BrokerId a, BrokerId b, SimTime latency);

  SubscriberId add_subscriber(BrokerId at, Broker::NotifyFn callback);

  /// Subscribe at a broker; propagates interest through the overlay.
  GlobalSubId subscribe(BrokerId at, SubscriberId subscriber,
                        std::string_view text);

  /// Unsubscribe; must be issued at the subscription's origin broker.
  bool unsubscribe(GlobalSubId id);

  /// Publish an event at a broker. Local subscribers are notified
  /// immediately; remote deliveries happen as the network drains.
  void publish(BrokerId at, const Event& event);

  /// Drain the network to quiescence; returns messages delivered. When the
  /// local brokers run an async delivery plane, their outboxes are flushed
  /// after the drain, so on return every notification implied by the
  /// drained traffic has reached its callback.
  std::size_t run();

  [[nodiscard]] std::size_t broker_count() const { return nodes_.size(); }
  [[nodiscard]] SimTime now() const { return net_.now(); }
  [[nodiscard]] std::uint64_t messages_sent() const {
    return net_.messages_sent();
  }
  /// Notifications handed to subscriber callbacks (async delivery planes:
  /// accepted for delivery; exact again after run()'s flush under the
  /// lossless Block policy).
  [[nodiscard]] std::uint64_t notifications_delivered() const {
    return notifications_;
  }
  [[nodiscard]] AttributeRegistry& attributes() { return attrs_; }
  [[nodiscard]] Broker& broker(BrokerId id) {
    NCPS_EXPECTS(id.value() < nodes_.size());
    return *nodes_[id.value()]->local;
  }

  /// Remote subscriptions registered in the interest engine of the link
  /// `at → neighbor` (shadowed subscriptions excluded) — the routing-table
  /// size covering is meant to shrink.
  [[nodiscard]] std::size_t remote_interest_count(BrokerId at,
                                                  BrokerId neighbor);
  /// Subscriptions currently shadowed by a cover on that link.
  [[nodiscard]] std::size_t shadowed_count(BrokerId at, BrokerId neighbor);

  [[nodiscard]] std::vector<BrokerId> neighbors(BrokerId at) const {
    return net_.neighbors(at);
  }

 private:
  struct ShadowEntry {
    std::uint64_t global;
    std::string text;
  };

  /// Interest in subscriptions living beyond one link.
  struct LinkInterest {
    PredicateTable table;
    std::unique_ptr<FilterEngine> engine;
    std::unique_ptr<MatchContext> context;  // forward_event's match scratch
    std::unordered_map<std::uint64_t, SubscriptionId> by_global;
    // Covering support: parsed forms of registered subscriptions (for
    // covers() checks) and per-cover shadow lists.
    std::unordered_map<std::uint64_t, ast::Expr> registered_exprs;
    std::unordered_map<std::uint64_t, std::vector<ShadowEntry>> shadows;
  };

  struct NodeState {
    std::unique_ptr<Broker> local;
    // Keyed by neighbor broker id.
    std::unordered_map<std::uint32_t, std::unique_ptr<LinkInterest>> links;
    std::uint32_t next_sub_counter = 0;
  };

  struct SubRecord {
    BrokerId origin;
    SubscriptionId local_id;
  };

  LinkInterest& link_interest(BrokerId node, BrokerId neighbor);
  void handle(const SimNetwork<OverlayMessage>::Delivery& delivery);
  void deliver_local(BrokerId at, const Event& event);
  void forward_event(BrokerId at, BrokerId arrived_from, const Event& event);

  /// Install a remote subscription into the link interest; returns true if
  /// it was registered (and should be forwarded), false if shadowed.
  bool install_remote(LinkInterest& interest, std::uint64_t global,
                      const std::string& text);
  /// Remove a remote subscription; reinstates its shadows. Returns true if
  /// it had been registered here (⇒ the unsubscribe should be forwarded).
  bool remove_remote(BrokerId at, BrokerId from, std::uint64_t global);

  [[nodiscard]] std::uint32_t find_root(std::uint32_t node);

  EngineKind engine_kind_;
  bool covering_enabled_;
  BrokerOptions broker_options_{};
  AttributeRegistry attrs_;
  SimNetwork<OverlayMessage> net_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::unordered_map<std::uint64_t, SubRecord> subs_;
  std::vector<std::uint32_t> union_find_;
  std::uint64_t notifications_ = 0;
  std::vector<SubscriptionId> match_scratch_;
};

}  // namespace ncps
