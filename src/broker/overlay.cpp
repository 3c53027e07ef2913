#include "broker/overlay.h"

#include "common/contracts.h"
#include "subscription/covering.h"
#include "subscription/parser.h"

namespace ncps {

BrokerId BrokerNetwork::add_broker() {
  const BrokerId id = net_.add_node();
  auto node = std::make_unique<NodeState>();
  node->local = std::make_unique<Broker>(
      attrs_,
      BrokerOptions{.engine = engine_kind_,
                    .delivery = broker_options_.delivery});
  nodes_.push_back(std::move(node));
  union_find_.push_back(id.value());
  return id;
}

std::uint32_t BrokerNetwork::find_root(std::uint32_t node) {
  while (union_find_[node] != node) {
    union_find_[node] = union_find_[union_find_[node]];  // path halving
    node = union_find_[node];
  }
  return node;
}

void BrokerNetwork::connect(BrokerId a, BrokerId b, SimTime latency) {
  NCPS_EXPECTS(a.value() < nodes_.size() && b.value() < nodes_.size());
  const std::uint32_t ra = find_root(a.value());
  const std::uint32_t rb = find_root(b.value());
  if (ra == rb) {
    throw std::invalid_argument(
        "overlay topology must be acyclic: link would close a cycle");
  }
  union_find_[ra] = rb;
  net_.connect(a, b, latency);
  // Interest engines exist from the moment the link does.
  (void)link_interest(a, b);
  (void)link_interest(b, a);
}

BrokerNetwork::LinkInterest& BrokerNetwork::link_interest(BrokerId node,
                                                          BrokerId neighbor) {
  auto& links = nodes_[node.value()]->links;
  auto it = links.find(neighbor.value());
  if (it == links.end()) {
    auto interest = std::make_unique<LinkInterest>();
    interest->engine = make_engine(engine_kind_, interest->table);
    interest->context = interest->engine->make_context();
    it = links.emplace(neighbor.value(), std::move(interest)).first;
  }
  return *it->second;
}

SubscriberId BrokerNetwork::add_subscriber(BrokerId at,
                                           Broker::NotifyFn callback) {
  NCPS_EXPECTS(at.value() < nodes_.size());
  return nodes_[at.value()]->local->register_subscriber(std::move(callback));
}

GlobalSubId BrokerNetwork::subscribe(BrokerId at, SubscriberId subscriber,
                                     std::string_view text) {
  NodeState& node = *nodes_[at.value()];
  const SubscriptionId local_id = node.local->subscribe(subscriber, text);
  const GlobalSubId global(at, node.next_sub_counter++);
  subs_.emplace(global.raw, SubRecord{at, local_id});

  OverlayMessage msg;
  msg.kind = OverlayMessage::Kind::Subscribe;
  msg.global_sub = global;
  msg.text = std::string(text);
  for (const BrokerId neighbor : net_.neighbors(at)) {
    net_.send(at, neighbor, msg);
  }
  return global;
}

bool BrokerNetwork::unsubscribe(GlobalSubId id) {
  const auto it = subs_.find(id.raw);
  if (it == subs_.end()) return false;
  const SubRecord record = it->second;
  subs_.erase(it);
  nodes_[record.origin.value()]->local->unsubscribe(record.local_id);

  OverlayMessage msg;
  msg.kind = OverlayMessage::Kind::Unsubscribe;
  msg.global_sub = id;
  for (const BrokerId neighbor : net_.neighbors(record.origin)) {
    net_.send(record.origin, neighbor, msg);
  }
  return true;
}

void BrokerNetwork::publish(BrokerId at, const Event& event) {
  NCPS_EXPECTS(at.value() < nodes_.size());
  deliver_local(at, event);
  forward_event(at, BrokerId::invalid(), event);
}

void BrokerNetwork::deliver_local(BrokerId at, const Event& event) {
  notifications_ += nodes_[at.value()]->local->publish(event);
}

void BrokerNetwork::forward_event(BrokerId at, BrokerId arrived_from,
                                  const Event& event) {
  for (const BrokerId neighbor : net_.neighbors(at)) {
    if (neighbor == arrived_from) continue;
    LinkInterest& interest = link_interest(at, neighbor);
    // Content-based routing: the link is taken only when somebody beyond it
    // is interested. The interest check is itself a filtering-engine match.
    match_scratch_.clear();
    VectorSink sink(match_scratch_);
    interest.engine->match_range(std::span<const Event>(&event, 1), 0, 1,
                                 sink, *interest.context);
    if (match_scratch_.empty()) continue;
    OverlayMessage msg;
    msg.kind = OverlayMessage::Kind::Publish;
    msg.event = event;
    net_.send(at, neighbor, msg);
  }
}

void BrokerNetwork::handle(
    const SimNetwork<OverlayMessage>::Delivery& delivery) {
  const BrokerId at = delivery.to;
  const BrokerId from = delivery.from;
  const OverlayMessage& msg = delivery.payload;

  switch (msg.kind) {
    case OverlayMessage::Kind::Subscribe: {
      // Record interest on the link pointing back toward the subscriber…
      LinkInterest& interest = link_interest(at, from);
      const bool registered =
          install_remote(interest, msg.global_sub.raw, msg.text);
      // …and keep flooding outward — unless the subscription is shadowed
      // here: its events already route through the cover's interest, both on
      // this link and (by the same argument) on every link further out.
      if (registered) {
        for (const BrokerId neighbor : net_.neighbors(at)) {
          if (neighbor != from) net_.send(at, neighbor, msg);
        }
      }
      return;
    }
    case OverlayMessage::Kind::Unsubscribe: {
      const bool was_registered = remove_remote(at, from, msg.global_sub.raw);
      // A shadowed subscription was never announced beyond this broker, so
      // the unsubscribe stops here too.
      if (was_registered) {
        for (const BrokerId neighbor : net_.neighbors(at)) {
          if (neighbor != from) net_.send(at, neighbor, msg);
        }
      }
      return;
    }
    case OverlayMessage::Kind::Publish:
      deliver_local(at, msg.event);
      forward_event(at, from, msg.event);
      return;
  }
  NCPS_ASSERT(false && "unknown overlay message kind");
}

bool BrokerNetwork::install_remote(LinkInterest& interest,
                                   std::uint64_t global,
                                   const std::string& text) {
  ast::Expr expr = parse_subscription(text, attrs_, interest.table);
  if (covering_enabled_) {
    for (const auto& [cover_global, cover_expr] : interest.registered_exprs) {
      if (covers(cover_expr.root(), expr.root(), interest.table)) {
        interest.shadows[cover_global].push_back(ShadowEntry{global, text});
        return false;
      }
    }
  }
  const SubscriptionId local = interest.engine->add(expr.root());
  interest.by_global.emplace(global, local);
  if (covering_enabled_) {
    interest.registered_exprs.emplace(global, std::move(expr));
  }
  return true;
}

bool BrokerNetwork::remove_remote(BrokerId at, BrokerId from,
                                  std::uint64_t global) {
  LinkInterest& interest = link_interest(at, from);
  const auto it = interest.by_global.find(global);
  if (it == interest.by_global.end()) {
    // Possibly shadowed here: drop the shadow entry; nothing was announced
    // onward, so nothing else changes.
    for (auto& [cover, entries] : interest.shadows) {
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].global == global) {
          entries[i] = std::move(entries.back());
          entries.pop_back();
          return false;
        }
      }
    }
    return false;
  }

  interest.engine->remove(it->second);
  interest.by_global.erase(it);
  interest.registered_exprs.erase(global);

  // Reinstate anything this subscription was covering: install it here (it
  // may land under another cover) and resume the interrupted propagation.
  if (const auto shadow_it = interest.shadows.find(global);
      shadow_it != interest.shadows.end()) {
    const std::vector<ShadowEntry> orphans = std::move(shadow_it->second);
    interest.shadows.erase(shadow_it);
    for (const ShadowEntry& orphan : orphans) {
      const bool registered = install_remote(interest, orphan.global,
                                             orphan.text);
      if (registered) {
        OverlayMessage msg;
        msg.kind = OverlayMessage::Kind::Subscribe;
        msg.global_sub.raw = orphan.global;
        msg.text = orphan.text;
        for (const BrokerId neighbor : net_.neighbors(at)) {
          if (neighbor != from) net_.send(at, neighbor, msg);
        }
      }
    }
  }
  return true;
}

std::size_t BrokerNetwork::remote_interest_count(BrokerId at,
                                                 BrokerId neighbor) {
  return link_interest(at, neighbor).by_global.size();
}

std::size_t BrokerNetwork::shadowed_count(BrokerId at, BrokerId neighbor) {
  std::size_t n = 0;
  for (const auto& [cover, entries] : link_interest(at, neighbor).shadows) {
    n += entries.size();
  }
  return n;
}

std::size_t BrokerNetwork::run() {
  const std::size_t delivered =
      net_.run([this](const SimNetwork<OverlayMessage>::Delivery& d) {
        handle(d);
      });
  // The network is quiescent; drain the delivery planes too, so callers see
  // every callback implied by the drained traffic before run() returns.
  if (broker_options_.delivery.mode == DeliveryMode::Async) {
    for (auto& node : nodes_) node->local->flush();
  }
  return delivered;
}

}  // namespace ncps
