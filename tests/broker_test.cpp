#include "broker/broker.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "subscription/encoded_tree.h"

namespace ncps {
namespace {

struct Received {
  SubscriberId subscriber;
  SubscriptionId subscription;
  std::string event;
};

class BrokerTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  BrokerTest() : broker_(attrs_, GetParam()) {}

  SubscriberId session() {
    return broker_.register_subscriber([this](const Notification& n) {
      inbox_.push_back(Received{n.subscriber, n.subscription,
                                n.event->to_display_string(attrs_)});
    });
  }

  AttributeRegistry attrs_;
  Broker broker_;
  std::vector<Received> inbox_;
};

TEST_P(BrokerTest, SubscribeAndPublish) {
  const SubscriberId alice = session();
  const SubscriptionId sub =
      broker_.subscribe(alice, "price > 10 and symbol == \"ACME\"");
  const Event hit =
      EventBuilder(attrs_).set("price", 20).set("symbol", "ACME").build();
  EXPECT_EQ(broker_.publish(hit), 1u);
  ASSERT_EQ(inbox_.size(), 1u);
  EXPECT_EQ(inbox_[0].subscriber, alice);
  EXPECT_EQ(inbox_[0].subscription, sub);

  const Event miss =
      EventBuilder(attrs_).set("price", 5).set("symbol", "ACME").build();
  EXPECT_EQ(broker_.publish(miss), 0u);
  EXPECT_EQ(inbox_.size(), 1u);
}

TEST_P(BrokerTest, MultipleSubscribersEachNotified) {
  const SubscriberId alice = session();
  const SubscriberId bob = session();
  broker_.subscribe(alice, "x > 0");
  broker_.subscribe(bob, "x > 0 and x < 100");
  broker_.subscribe(bob, "y exists");

  const Event e = EventBuilder(attrs_).set("x", 50).set("y", 1).build();
  EXPECT_EQ(broker_.publish(e), 3u);
  EXPECT_EQ(inbox_.size(), 3u);
}

TEST_P(BrokerTest, UnsubscribeStopsNotifications) {
  const SubscriberId alice = session();
  const SubscriptionId sub = broker_.subscribe(alice, "x == 1");
  EXPECT_TRUE(broker_.unsubscribe(sub));
  EXPECT_FALSE(broker_.unsubscribe(sub));
  EXPECT_EQ(broker_.publish(EventBuilder(attrs_).set("x", 1).build()), 0u);
  EXPECT_TRUE(inbox_.empty());
}

TEST_P(BrokerTest, UnregisterSubscriberDropsAllSubscriptions) {
  const SubscriberId alice = session();
  const SubscriberId bob = session();
  broker_.subscribe(alice, "x == 1");
  broker_.subscribe(alice, "y == 2");
  broker_.subscribe(bob, "x == 1");
  EXPECT_EQ(broker_.subscription_count(), 3u);

  broker_.unregister_subscriber(alice);
  EXPECT_EQ(broker_.subscription_count(), 1u);
  EXPECT_EQ(broker_.subscriber_count(), 1u);
  EXPECT_EQ(broker_.publish(EventBuilder(attrs_).set("x", 1).build()), 1u);
  ASSERT_EQ(inbox_.size(), 1u);
  EXPECT_EQ(inbox_[0].subscriber, bob);
}

TEST_P(BrokerTest, MalformedSubscriptionThrowsAndChangesNothing) {
  const SubscriberId alice = session();
  EXPECT_THROW(broker_.subscribe(alice, "price >"), ParseError);
  EXPECT_EQ(broker_.subscription_count(), 0u);
}

TEST_P(BrokerTest, SubscribeForUnknownSessionViolatesContract) {
  EXPECT_THROW(broker_.subscribe(SubscriberId(999), "x == 1"),
               ContractViolation);
}

TEST_P(BrokerTest, PublishReportsDeliveryCount) {
  const SubscriberId alice = session();
  for (int i = 0; i < 10; ++i) {
    broker_.subscribe(alice, "x >= " + std::to_string(i));
  }
  EXPECT_EQ(broker_.publish(EventBuilder(attrs_).set("x", 4).build()), 5u);
}

TEST_P(BrokerTest, MemoryBreakdownIncludesEngineAndPredicates) {
  const SubscriberId alice = session();
  broker_.subscribe(alice, "x == 1 and y == 2");
  const MemoryBreakdown mem = broker_.memory();
  EXPECT_GT(mem.total(), 0u);
  bool has_engine = false;
  bool has_predicates = false;
  for (const auto& [name, bytes] : mem.components()) {
    if (name.starts_with("engine/")) has_engine = true;
    if (name.starts_with("predicates/")) has_predicates = true;
  }
  EXPECT_TRUE(has_engine);
  EXPECT_TRUE(has_predicates);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, BrokerTest,
                         ::testing::ValuesIn(kAllEngineKinds),
                         [](const auto& param_info) {
                           std::string name(to_string(param_info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The tree engine's validate() is the broker's only guard for the tree-v1
// layout's limits: a node holds at most 255 children, and the parser
// flattens an `or` chain into one node, so a 256-way `or` cannot be encoded.
// Both control paths must reject it before any state changes.
std::string or_chain(int terms) {
  std::string text = "x == 0";
  for (int i = 1; i < terms; ++i) text += " or x == " + std::to_string(i);
  return text;
}

TEST(TreeEngineBrokerTest, UnencodableSubscriptionThrowsAndChangesNothing) {
  AttributeRegistry attrs;
  Broker broker(attrs, EngineKind::NonCanonicalTree);
  const SubscriberId alice = broker.register_subscriber(
      [](const Notification&) {});
  broker.subscribe(alice, or_chain(255));  // the widest node v1 encodes
  const std::size_t count = broker.subscription_count();
  const std::uint64_t generation = broker.control_generation();

  EXPECT_THROW(broker.subscribe(alice, or_chain(256)), EncodeError);
  EXPECT_EQ(broker.subscription_count(), count);
  EXPECT_EQ(broker.control_generation(), generation);
}

TEST(TreeEngineBrokerTest, BulkWithOneUnencodableTextRegistersNone) {
  AttributeRegistry attrs;
  Broker broker(attrs, EngineKind::NonCanonicalTree);
  const SubscriberId alice = broker.register_subscriber(
      [](const Notification&) {});
  const std::uint64_t generation = broker.control_generation();
  const std::vector<std::string> texts = {"x == 1", or_chain(256),
                                          "y > 2 and x < 9"};
  EXPECT_THROW((void)broker.subscribe_bulk(alice, texts), EncodeError);
  EXPECT_EQ(broker.subscription_count(), 0u);
  EXPECT_EQ(broker.control_generation(), generation);
  EXPECT_EQ(broker.publish(EventBuilder(attrs).set("x", 1).build()), 0u);
}

}  // namespace
}  // namespace ncps
