// Overlay routing: the multi-broker deployment the paper motivates —
// "peer-to-peer networks of less equipped machines, such as laptops and
// mobile devices".
//
// Builds a small continent-shaped broker tree over the simulated network,
// attaches regional subscribers, and publishes weather events. Shows how
// content-based routing (each link guarded by a filtering engine) keeps
// events off uninterested branches, and how unsubscription prunes routes.
//
//   $ ./examples/overlay_network
#include <cstdio>
#include <string>

#include "broker/overlay.h"

int main() {
  using namespace ncps;

  BrokerNetwork net;

  /*          core
             /    \
          west     east
          /  \     /  \
        sea  sfo  nyc  bos        (leaf brokers host subscribers) */
  const BrokerId core = net.add_broker();
  const BrokerId west = net.add_broker();
  const BrokerId east = net.add_broker();
  const BrokerId sea = net.add_broker();
  const BrokerId sfo = net.add_broker();
  const BrokerId nyc = net.add_broker();
  const BrokerId bos = net.add_broker();
  net.connect(core, west, 12);
  net.connect(core, east, 15);
  net.connect(west, sea, 8);
  net.connect(west, sfo, 6);
  net.connect(east, nyc, 5);
  net.connect(east, bos, 7);

  const auto attach = [&](BrokerId at, const char* name) {
    return net.add_subscriber(at, [name, &net](const Notification& n) {
      std::printf("  -> [%s] notified at t=%llums: %s\n", name,
                  static_cast<unsigned long long>(net.now() / 1),
                  n.event->to_display_string(net.attributes()).c_str());
    });
  };

  const SubscriberId seattle = attach(sea, "seattle");
  const SubscriberId fresco = attach(sfo, "san-francisco");
  const SubscriberId newyork = attach(nyc, "new-york");

  net.subscribe(sea, seattle, "kind == \"storm\" and region prefix \"pac\"");
  const GlobalSubId sf_sub = net.subscribe(
      sfo, fresco, "kind == \"storm\" and wind_kts >= 40");
  net.subscribe(nyc, newyork,
                "region prefix \"atl\" and (kind == \"storm\" or kind == "
                "\"surge\")");
  net.run();  // propagate interest through the tree
  std::printf("subscription propagation used %llu messages\n\n",
              static_cast<unsigned long long>(net.messages_sent()));

  const auto publish = [&](BrokerId at, const char* kind, const char* region,
                           int wind) {
    const std::uint64_t before = net.messages_sent();
    std::printf("publish at broker %u: kind=%s region=%s wind=%d\n",
                at.value(), kind, region, wind);
    net.publish(at, EventBuilder(net.attributes())
                        .set("kind", kind)
                        .set("region", region)
                        .set("wind_kts", wind)
                        .build());
    net.run();
    std::printf("  (crossed %llu links)\n",
                static_cast<unsigned long long>(net.messages_sent() - before));
  };

  // A Pacific storm: reaches Seattle (region) and San Francisco (wind), but
  // never crosses the east branch.
  publish(bos, "storm", "pac-northwest", 45);

  // An Atlantic surge: east side only.
  publish(sea, "surge", "atl-coast", 25);

  // San Francisco loses interest; the west branch goes quiet for weak
  // Pacific storms.
  std::puts("\nsan-francisco unsubscribes");
  net.unsubscribe(sf_sub);
  net.run();
  publish(bos, "storm", "pac-open-water", 50);

  std::printf("\ntotals: %llu messages, %llu notifications across %zu brokers\n",
              static_cast<unsigned long long>(net.messages_sent()),
              static_cast<unsigned long long>(net.notifications_delivered()),
              net.broker_count());
  return 0;
}
