#include "routing/generator.h"

#include <gtest/gtest.h>

#include <chrono>

#include "config/builders.h"
#include "topo/generators.h"

namespace rcfg::routing {
namespace {

/// Fetch the FIB row for (node-name, prefix); fails the test when absent.
FibEntry fib_row(const topo::Topology& t, const dd::ZSet<FibEntry>& fib, const char* node,
                 net::Ipv4Prefix prefix) {
  const topo::NodeId n = t.find_node(node);
  for (const auto& [e, w] : fib) {
    if (e.node == n && e.prefix == prefix) {
      EXPECT_EQ(w, 1) << "FIB row with non-unit weight";
      return e;
    }
  }
  ADD_FAILURE() << "no FIB row for " << node << " " << prefix.to_string();
  return FibEntry{};
}

bool has_row(const topo::Topology& t, const dd::ZSet<FibEntry>& fib, const char* node,
             net::Ipv4Prefix prefix) {
  const topo::NodeId n = t.find_node(node);
  for (const auto& [e, w] : fib) {
    if (e.node == n && e.prefix == prefix) return true;
  }
  return false;
}

topo::IfaceId iface(const topo::Topology& t, const char* node, const char* name) {
  return t.find_interface(t.find_node(node), name);
}

TEST(Generator, OspfChainShortestPath) {
  // r0 - r1 - r2 - r3 (grid 4x1). Host prefix of r3 must be reached from r0
  // via to-r1 with the chain of costs.
  const topo::Topology t = topo::make_grid(4, 1);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  IncrementalGenerator gen(t);
  gen.apply(cfg);

  const auto p3 = config::host_prefix(t.find_node("n3-0"));
  const FibEntry e = fib_row(t, gen.fib(), "n0-0", p3);
  EXPECT_EQ(e.action, FibAction::kForward);
  ASSERT_EQ(e.out_ifaces.size(), 1u);
  EXPECT_EQ(e.out_ifaces[0], iface(t, "n0-0", "to-n1-0"));

  // The destination node itself delivers.
  EXPECT_EQ(fib_row(t, gen.fib(), "n3-0", p3).action, FibAction::kDeliver);
}

TEST(Generator, OspfRingPicksShorterArc) {
  // 5-ring: r0 -> r2 is shorter via r1 (2 hops) than via r4,r3 (3 hops).
  const topo::Topology t = topo::make_ring(5);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  IncrementalGenerator gen(t);
  gen.apply(cfg);

  const auto p2 = config::host_prefix(t.find_node("r2"));
  const FibEntry e = fib_row(t, gen.fib(), "r0", p2);
  ASSERT_EQ(e.out_ifaces.size(), 1u);
  EXPECT_EQ(e.out_ifaces[0], iface(t, "r0", "to-r1"));
}

TEST(Generator, OspfEcmpInFatTree) {
  // Between edge switches in different pods every aggregation uplink is an
  // equal-cost path: the edge's FIB entry must hold k/2 = 2 egresses.
  const topo::Topology t = topo::make_fat_tree(4);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  IncrementalGenerator gen(t);
  gen.apply(cfg);

  const auto dst = config::host_prefix(t.find_node("edge1-0"));
  const FibEntry e = fib_row(t, gen.fib(), "edge0-0", dst);
  EXPECT_EQ(e.action, FibAction::kForward);
  EXPECT_EQ(e.out_ifaces.size(), 2u);
}

TEST(Generator, OspfLinkCostChangeReroutes) {
  const topo::Topology t = topo::make_ring(4);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  IncrementalGenerator gen(t);
  gen.apply(cfg);

  const auto p1 = config::host_prefix(t.find_node("r1"));
  EXPECT_EQ(fib_row(t, gen.fib(), "r0", p1).out_ifaces[0], iface(t, "r0", "to-r1"));

  // Make the direct arc expensive: r0 now goes the long way (r3, r2, r1).
  config::set_ospf_cost(cfg, "r0", "to-r1", 100);
  const DataPlaneDelta d = gen.apply(cfg);
  EXPECT_FALSE(d.fib.empty());
  EXPECT_EQ(fib_row(t, gen.fib(), "r0", p1).out_ifaces[0], iface(t, "r0", "to-r3"));
}

TEST(Generator, OspfLinkFailureReroutes) {
  const topo::Topology t = topo::make_ring(4);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  IncrementalGenerator gen(t);
  gen.apply(cfg);
  const std::size_t fib_before = gen.fib().size();

  // Fail link r0--r1 (link id of the first connect in make_ring is 0).
  config::fail_link(cfg, t, 0);
  gen.apply(cfg);

  const auto p1 = config::host_prefix(t.find_node("r1"));
  const FibEntry e = fib_row(t, gen.fib(), "r0", p1);
  EXPECT_EQ(e.out_ifaces[0], iface(t, "r0", "to-r3"));

  // Restore: FIB returns to its original size and route.
  config::restore_link(cfg, t, 0);
  gen.apply(cfg);
  EXPECT_EQ(gen.fib().size(), fib_before);
  EXPECT_EQ(fib_row(t, gen.fib(), "r0", p1).out_ifaces[0], iface(t, "r0", "to-r1"));
}

TEST(Generator, BgpPrefersShorterAsPath) {
  const topo::Topology t = topo::make_ring(5);
  const config::NetworkConfig cfg = config::build_bgp_network(t);
  IncrementalGenerator gen(t);
  gen.apply(cfg);

  const auto p2 = config::host_prefix(t.find_node("r2"));
  EXPECT_EQ(fib_row(t, gen.fib(), "r0", p2).out_ifaces[0], iface(t, "r0", "to-r1"));
  // BGP selects a single best path (no multipath).
  EXPECT_EQ(fib_row(t, gen.fib(), "r0", p2).out_ifaces.size(), 1u);
}

TEST(Generator, BgpLocalPrefOverridesPathLength) {
  const topo::Topology t = topo::make_ring(5);
  config::NetworkConfig cfg = config::build_bgp_network(t);
  IncrementalGenerator gen(t);
  gen.apply(cfg);

  const auto p2 = config::host_prefix(t.find_node("r2"));
  // Prefer everything learned from r4: r0 now reaches r2 the long way.
  config::set_local_pref(cfg, "r0", "to-r4", 150);
  const DataPlaneDelta d = gen.apply(cfg);
  EXPECT_FALSE(d.fib.empty());
  EXPECT_EQ(fib_row(t, gen.fib(), "r0", p2).out_ifaces[0], iface(t, "r0", "to-r4"));
}

TEST(Generator, BgpSessionLossWithdrawsRoutes) {
  const topo::Topology t = topo::make_grid(3, 1);  // chain n0-n1-n2
  config::NetworkConfig cfg = config::build_bgp_network(t);
  IncrementalGenerator gen(t);
  gen.apply(cfg);

  const auto p2 = config::host_prefix(t.find_node("n2-0"));
  EXPECT_TRUE(has_row(t, gen.fib(), "n0-0", p2));

  config::fail_link(cfg, t, 1);  // n1--n2
  gen.apply(cfg);
  EXPECT_FALSE(has_row(t, gen.fib(), "n0-0", p2));
  EXPECT_FALSE(has_row(t, gen.fib(), "n1-0", p2));
  // n2 still delivers its own prefix (connected).
  EXPECT_EQ(fib_row(t, gen.fib(), "n2-0", p2).action, FibAction::kDeliver);
}

TEST(Generator, StaticBeatsOspfByAdminDistance) {
  const topo::Topology t = topo::make_ring(4);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  const auto p2 = config::host_prefix(t.find_node("r2"));
  // OSPF would pick either way round the ring (ECMP at distance 2); pin a
  // static route via r3 instead.
  cfg.devices.at("r0").static_routes.push_back({p2, "to-r3", 1});
  IncrementalGenerator gen(t);
  gen.apply(cfg);

  const FibEntry e = fib_row(t, gen.fib(), "r0", p2);
  ASSERT_EQ(e.out_ifaces.size(), 1u);
  EXPECT_EQ(e.out_ifaces[0], iface(t, "r0", "to-r3"));
}

TEST(Generator, NullRouteDrops) {
  const topo::Topology t = topo::make_ring(3);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  const auto victim = *net::Ipv4Prefix::parse("203.0.113.0/24");
  cfg.devices.at("r0").static_routes.push_back({victim, "null0", 1});
  IncrementalGenerator gen(t);
  gen.apply(cfg);
  EXPECT_EQ(fib_row(t, gen.fib(), "r0", victim).action, FibAction::kDrop);
}

TEST(Generator, RedistributionOspfIntoBgp) {
  // Chain: n0 -- n1 -- n2. n0/n1 speak OSPF; n1/n2 speak BGP; n1
  // redistributes OSPF into BGP so n2 learns n0's prefix.
  const topo::Topology t = topo::make_grid(3, 1);
  config::NetworkConfig cfg;
  {
    config::NetworkConfig ospf = config::build_ospf_network(t);
    config::NetworkConfig bgp = config::build_bgp_network(t);
    cfg.devices["n0-0"] = ospf.devices.at("n0-0");
    // n1: OSPF toward n0, BGP toward n2.
    config::DeviceConfig n1 = ospf.devices.at("n1-0");
    n1.find_interface("to-n2-0")->ospf_area = config::kNoOspfArea;
    config::BgpConfig b;
    b.local_as = 65101;
    config::BgpNeighbor nb;
    nb.iface = "to-n2-0";
    nb.remote_as = 65102;
    b.neighbors.push_back(nb);
    b.redistribute.push_back({config::Redistribution::Source::kOspf, 0, std::nullopt});
    n1.bgp = b;
    cfg.devices["n1-0"] = n1;
    // n2: BGP only.
    config::DeviceConfig n2 = bgp.devices.at("n2-0");
    n2.bgp->local_as = 65102;
    n2.bgp->neighbors.clear();
    config::BgpNeighbor nb2;
    nb2.iface = "to-n1-0";
    nb2.remote_as = 65101;
    n2.bgp->neighbors.push_back(nb2);
    cfg.devices["n2-0"] = n2;
  }

  IncrementalGenerator gen(t);
  gen.apply(cfg);

  const auto p0 = config::host_prefix(t.find_node("n0-0"));
  const FibEntry e = fib_row(t, gen.fib(), "n2-0", p0);
  EXPECT_EQ(e.action, FibAction::kForward);
  EXPECT_EQ(e.out_ifaces[0], iface(t, "n2-0", "to-n1-0"));
}

TEST(Generator, BadGadgetOscillationDetected) {
  // Griffin's BAD GADGET: a triangle where each node prefers the route
  // through its clockwise neighbor (local-pref 200) over its direct route.
  // No stable solution exists; the engine must report it (paper §6) rather
  // than loop forever.
  const topo::Topology t = topo::make_full_mesh(4);  // m0 = origin, m1..m3 wheel
  config::NetworkConfig cfg = config::build_bgp_network(t);
  // Only m0 originates a prefix.
  for (unsigned i = 1; i <= 3; ++i) {
    cfg.devices.at("m" + std::to_string(i)).bgp->networks.clear();
  }
  // mi prefers routes from m(i%3+1) (the next wheel node) over direct.
  config::set_local_pref(cfg, "m1", "to-m2", 200);
  config::set_local_pref(cfg, "m2", "to-m3", 200);
  config::set_local_pref(cfg, "m3", "to-m1", 200);

  IncrementalGenerator gen(t);
  EXPECT_THROW(gen.apply(cfg), dd::NonterminationError);
}

TEST(Generator, FilterDeltasComeFromConfigDiffing) {
  const topo::Topology t = topo::make_ring(3);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  IncrementalGenerator gen(t);
  EXPECT_TRUE(gen.apply(cfg).filters.empty());

  core::Rng rng{3};
  config::attach_random_acl(cfg, t, "r0", "to-r1", true, 4, rng);
  DataPlaneDelta d = gen.apply(cfg);
  EXPECT_EQ(d.filters.size(), 5u);  // 4 + catch-all, all insertions
  for (const auto& [r, w] : d.filters) EXPECT_EQ(w, 1);
  EXPECT_TRUE(d.fib.empty());  // ACLs do not touch forwarding

  // Removing the binding retracts all rules.
  cfg.devices.at("r0").find_interface("to-r1")->acl_in.reset();
  d = gen.apply(cfg);
  EXPECT_EQ(d.filters.size(), 5u);
  for (const auto& [r, w] : d.filters) EXPECT_EQ(w, -1);
}

TEST(Generator, NoChangeNoDelta) {
  const topo::Topology t = topo::make_fat_tree(4);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  IncrementalGenerator gen(t);
  gen.apply(cfg);
  const std::uint64_t full_flushes = gen.last_flushes();

  const DataPlaneDelta d = gen.apply(cfg);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(gen.last_flushes(), 0u);
  EXPECT_GT(full_flushes, 0u);
}

TEST(Generator, EachRoundIsOneJoinAndOneReduce) {
  // One more round adds one Join and one Reduce to each of the three
  // protocol chains (RIP stays uncapped below its 15-round horizon).
  const topo::Topology t = topo::make_fat_tree(4);
  for (const unsigned rounds : {2u, 4u, 8u, 14u}) {
    const IncrementalGenerator r(t, GeneratorOptions{rounds});
    const IncrementalGenerator r1(t, GeneratorOptions{rounds + 1});
    EXPECT_EQ(r1.operator_count(), r.operator_count() + 3 * 2) << "rounds " << rounds;
  }
}

TEST(Generator, IncrementalWorkIsSmall) {
  // The headline claim: a local change costs a small fraction of the
  // from-scratch computation. Wall time with a very generous (2x) margin —
  // the benches measure the real 20x-90x gap.
  const topo::Topology t = topo::make_fat_tree(6);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  IncrementalGenerator gen(t);
  const auto t0 = std::chrono::steady_clock::now();
  gen.apply(cfg);
  const auto t1 = std::chrono::steady_clock::now();
  config::set_ospf_cost(cfg, "edge0-0", "to-agg0-0", 100);
  gen.apply(cfg);
  const auto t2 = std::chrono::steady_clock::now();
  EXPECT_LT((t2 - t1) * 2, t1 - t0);
}

}  // namespace
}  // namespace rcfg::routing
