#include "verify/checker.h"

#include <gtest/gtest.h>

#include "config/builders.h"
#include "routing/generator.h"
#include "topo/generators.h"

namespace rcfg::verify {
namespace {

/// Test rig: generator -> model -> checker, glued like RealConfig but with
/// the pieces exposed.
struct Rig {
  topo::Topology topo;
  config::NetworkConfig cfg;
  routing::IncrementalGenerator gen;
  dpm::PacketSpace space;
  dpm::EcManager ecs;
  dpm::NetworkModel model;
  IncrementalChecker checker;

  explicit Rig(topo::Topology t, config::NetworkConfig c)
      : topo(std::move(t)),
        cfg(std::move(c)),
        gen(topo),
        ecs(space),
        model(space, ecs, topo.node_count()),
        checker(topo, space, ecs, model) {
    space.migrate_to_bdd();
  }

  CheckResult step(dpm::UpdateOrder order = dpm::UpdateOrder::kInsertFirst) {
    return checker.process(model.apply_batch(gen.apply(cfg), order));
  }

  dpm::EcId ec_of_host(const char* node) {
    return ecs.ec_of(space.dst_prefix(config::host_prefix(topo.find_node(node))));
  }
};

Rig ospf_ring(unsigned n) {
  topo::Topology t = topo::make_ring(n);
  config::NetworkConfig c = config::build_ospf_network(t);
  return Rig(std::move(t), std::move(c));
}

TEST(Checker, AllPairsReachableOnHealthyRing) {
  Rig rig = ospf_ring(4);
  const CheckResult r = rig.step();
  EXPECT_FALSE(r.affected_ecs.empty());
  EXPECT_FALSE(r.affected_pairs.empty());

  for (topo::NodeId s = 0; s < 4; ++s) {
    for (topo::NodeId d = 0; d < 4; ++d) {
      if (s == d) continue;
      const dpm::EcId ec =
          rig.ecs.ec_of(rig.space.dst_prefix(config::host_prefix(d)));
      EXPECT_TRUE(rig.checker.reachable(s, d, ec)) << s << "->" << d;
    }
  }
  EXPECT_EQ(rig.checker.loop_count(), 0u);
  EXPECT_EQ(rig.checker.blackhole_count(), 0u);
}

TEST(Checker, PairCountMatchesCombinatorics) {
  Rig rig = ospf_ring(4);
  rig.step();
  // Every ordered pair (s, d), s != d, has at least the host-prefix EC of d
  // (plus /31 link ECs contributing more ECs but no new pairs).
  EXPECT_EQ(rig.checker.pair_count(), 4u * 3u);
}

TEST(Checker, LinkFailureAffectsOnlyImpactedPairsAndFlipsBack) {
  Rig rig = ospf_ring(5);
  rig.step();
  const std::size_t pairs_before = rig.checker.pair_count();

  config::fail_link(rig.cfg, rig.topo, 0);  // r0 -- r1
  const CheckResult r = rig.step();
  // The ring stays connected: pairs survive via the long way round.
  EXPECT_EQ(rig.checker.pair_count(), pairs_before);
  EXPECT_FALSE(r.affected_ecs.empty());
  // Only a subset of ECs is affected (the /31 of the dead link at least).
  EXPECT_LT(r.affected_ecs.size(), rig.ecs.ec_count());

  config::restore_link(rig.cfg, rig.topo, 0);
  rig.step();
  EXPECT_EQ(rig.checker.pair_count(), pairs_before);
}

TEST(Checker, PartitionRemovesPairs) {
  // Chain n0 - n1 - n2: failing n1--n2 cuts n2 off entirely.
  topo::Topology t = topo::make_grid(3, 1);
  config::NetworkConfig c = config::build_ospf_network(t);
  Rig rig(std::move(t), std::move(c));
  rig.step();
  const topo::NodeId n0 = rig.topo.find_node("n0-0");
  const topo::NodeId n2 = rig.topo.find_node("n2-0");
  EXPECT_TRUE(rig.checker.reachable(n0, n2, rig.ec_of_host("n2-0")));

  config::fail_link(rig.cfg, rig.topo, 1);
  const CheckResult r = rig.step();
  EXPECT_FALSE(rig.checker.reachable(n0, n2, rig.ec_of_host("n2-0")));
  EXPECT_FALSE(r.affected_pairs.empty());
}

TEST(Checker, StaticRouteLoopDetected) {
  Rig rig = ospf_ring(3);
  const auto victim = *net::Ipv4Prefix::parse("203.0.113.0/24");
  rig.cfg.devices.at("r0").static_routes.push_back({victim, "to-r1", 1});
  rig.cfg.devices.at("r1").static_routes.push_back({victim, "to-r0", 1});
  const CheckResult r = rig.step();
  EXPECT_EQ(rig.checker.loop_count(), 1u);
  ASSERT_EQ(r.loops_begun.size(), 1u);

  // Fixing one side ends the loop (r1 now drops: a blackhole instead).
  rig.cfg.devices.at("r1").static_routes.clear();
  const CheckResult r2 = rig.step();
  EXPECT_EQ(rig.checker.loop_count(), 0u);
  ASSERT_EQ(r2.loops_ended.size(), 1u);
  EXPECT_EQ(rig.checker.blackhole_count(), 1u);
}

TEST(Checker, BlackholeDetected) {
  Rig rig = ospf_ring(3);
  const auto victim = *net::Ipv4Prefix::parse("203.0.113.0/24");
  // r0 forwards the victim prefix to r1, which has no route for it.
  rig.cfg.devices.at("r0").static_routes.push_back({victim, "to-r1", 1});
  const CheckResult r = rig.step();
  EXPECT_EQ(rig.checker.blackhole_count(), 1u);
  EXPECT_EQ(r.blackholes_begun.size(), 1u);

  rig.cfg.devices.at("r0").static_routes.clear();
  const CheckResult r2 = rig.step();
  EXPECT_EQ(rig.checker.blackhole_count(), 0u);
  EXPECT_EQ(r2.blackholes_ended.size(), 1u);
}

TEST(Checker, ReachabilityPolicyLifecycle) {
  topo::Topology t = topo::make_grid(3, 1);
  config::NetworkConfig c = config::build_ospf_network(t);
  Rig rig(std::move(t), std::move(c));
  rig.step();

  const topo::NodeId n0 = rig.topo.find_node("n0-0");
  const topo::NodeId n2 = rig.topo.find_node("n2-0");
  const PolicyId pid = rig.checker.add_reachability(
      n0, n2, rig.space.dst_prefix(config::host_prefix(n2)), "n0 reaches n2 hosts");
  EXPECT_TRUE(rig.checker.policy_satisfied(pid));

  config::fail_link(rig.cfg, rig.topo, 1);
  const CheckResult r = rig.step();
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_EQ(r.events[0].id, pid);
  EXPECT_FALSE(r.events[0].satisfied);
  EXPECT_FALSE(rig.checker.policy_satisfied(pid));

  // The paper: "policies that become satisfied ... helps operators test
  // whether a repair plan works."
  config::restore_link(rig.cfg, rig.topo, 1);
  const CheckResult r2 = rig.step();
  ASSERT_EQ(r2.events.size(), 1u);
  EXPECT_TRUE(r2.events[0].satisfied);
}

TEST(Checker, IsolationPolicyWithAcl) {
  Rig rig = ospf_ring(3);
  rig.step();
  const topo::NodeId r0 = rig.topo.find_node("r0");
  const topo::NodeId r2 = rig.topo.find_node("r2");

  const PolicyId pid = rig.checker.add_isolation(
      r0, r2, rig.space.dst_prefix(config::host_prefix(r2)), "r0 isolated from r2");
  EXPECT_FALSE(rig.checker.policy_satisfied(pid));  // healthy net: reachable

  // Deny everything inbound on both of r2's transit interfaces.
  for (const char* iface : {"to-r0", "to-r1"}) {
    auto& dev = rig.cfg.devices.at("r2");
    config::Acl acl;
    acl.name = std::string("DENY-") + iface;
    config::AclRule deny;
    deny.seq = 10;
    deny.action = config::Action::kDeny;
    acl.rules.push_back(deny);
    dev.acls[acl.name] = acl;
    dev.find_interface(iface)->acl_in = acl.name;
  }
  const CheckResult r = rig.step();
  EXPECT_TRUE(rig.checker.policy_satisfied(pid));
  bool flipped = false;
  for (const auto& e : r.events) flipped |= (e.id == pid && e.satisfied);
  EXPECT_TRUE(flipped);
}

TEST(Checker, WaypointPolicy) {
  // Chain n0 - n1 - n2: all n0->n2 traffic crosses n1. A ring would not.
  topo::Topology t = topo::make_grid(3, 1);
  config::NetworkConfig c = config::build_ospf_network(t);
  Rig rig(std::move(t), std::move(c));
  rig.step();
  const topo::NodeId n0 = rig.topo.find_node("n0-0");
  const topo::NodeId n1 = rig.topo.find_node("n1-0");
  const topo::NodeId n2 = rig.topo.find_node("n2-0");
  const PolicyId pid = rig.checker.add_waypoint(
      n0, n2, n1, rig.space.dst_prefix(config::host_prefix(n2)), "via n1");
  EXPECT_TRUE(rig.checker.policy_satisfied(pid));
}

TEST(Checker, WaypointViolatedByEcmpBypass) {
  Rig rig = ospf_ring(4);
  rig.step();
  const topo::NodeId r0 = rig.topo.find_node("r0");
  const topo::NodeId r1 = rig.topo.find_node("r1");
  const topo::NodeId r2 = rig.topo.find_node("r2");
  // r0 -> r2 has two equal-cost paths (via r1 and via r3): requiring the r1
  // waypoint must fail.
  const PolicyId pid = rig.checker.add_waypoint(
      r0, r2, r1, rig.space.dst_prefix(config::host_prefix(r2)), "via r1");
  EXPECT_FALSE(rig.checker.policy_satisfied(pid));

  // Failing the bypass link (r3 -- r0... link r0-r3 is id 3) forces all
  // traffic through r1: the policy becomes satisfied.
  config::fail_link(rig.cfg, rig.topo, 3);
  const CheckResult r = rig.step();
  EXPECT_TRUE(rig.checker.policy_satisfied(pid));
  bool flipped = false;
  for (const auto& e : r.events) flipped |= (e.id == pid && e.satisfied);
  EXPECT_TRUE(flipped);
}

TEST(Checker, TraceEnumeratesEcmpPaths) {
  topo::Topology t = topo::make_fat_tree(4);
  config::NetworkConfig c = config::build_ospf_network(t);
  Rig rig(std::move(t), std::move(c));
  rig.step();
  const topo::NodeId src = rig.topo.find_node("edge0-0");
  const dpm::EcId ec = rig.ec_of_host("edge1-0");
  const auto paths = rig.checker.trace(src, ec);
  ASSERT_FALSE(paths.empty());
  EXPECT_GE(paths.size(), 2u);  // at least the two aggregation choices
  const topo::NodeId dst = rig.topo.find_node("edge1-0");
  for (const auto& p : paths) {
    EXPECT_EQ(p.front(), src);
    EXPECT_EQ(p.back(), dst);
  }
}

TEST(Checker, OnlyRegisteredPoliciesReevaluated) {
  Rig rig = ospf_ring(4);
  rig.step();
  const topo::NodeId r0 = rig.topo.find_node("r0");
  const topo::NodeId r2 = rig.topo.find_node("r2");
  // Policy on a prefix that no change will touch.
  const PolicyId quiet = rig.checker.add_isolation(
      r0, r2, rig.space.dst_prefix(*net::Ipv4Prefix::parse("198.51.100.0/24")), "quiet");
  EXPECT_TRUE(rig.checker.policy_satisfied(quiet));

  config::set_ospf_cost(rig.cfg, "r0", "to-r1", 10);
  const CheckResult r = rig.step();
  for (const auto& e : r.events) EXPECT_NE(e.id, quiet);
  EXPECT_TRUE(rig.checker.policy_satisfied(quiet));
}

}  // namespace
}  // namespace rcfg::verify
