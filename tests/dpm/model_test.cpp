#include "dpm/model.h"

#include <gtest/gtest.h>

#include "baseline/simulator.h"
#include "config/builders.h"
#include "core/rng.h"
#include "routing/generator.h"
#include "topo/generators.h"

namespace rcfg::dpm {
namespace {

net::Ipv4Prefix pfx(const char* s) { return *net::Ipv4Prefix::parse(s); }

routing::FibEntry fwd(topo::NodeId node, net::Ipv4Prefix p, std::vector<topo::IfaceId> ifaces) {
  routing::FibEntry e;
  e.node = node;
  e.prefix = p;
  e.action = routing::FibAction::kForward;
  e.out_ifaces = std::move(ifaces);
  return e;
}

routing::DataPlaneDelta delta_of(std::vector<std::pair<routing::FibEntry, dd::Weight>> entries) {
  routing::DataPlaneDelta d;
  for (auto& [e, w] : entries) d.fib.add(e, w);
  return d;
}

/// Oracle: the model's per-EC action must equal direct LPM evaluation over
/// the rule set for any probe address.
void check_against_lpm(PacketSpace& space, EcManager& ecs, const NetworkModel& model,
                       const dd::ZSet<routing::FibEntry>& fib, topo::NodeId nodes,
                       core::Rng& rng) {
  for (int probe = 0; probe < 64; ++probe) {
    const net::Ipv4Addr dst{static_cast<std::uint32_t>(rng.next())};
    const EcId ec = ecs.ec_of(space.dst_prefix(net::Ipv4Prefix{dst, 32}));
    for (topo::NodeId n = 0; n < nodes; ++n) {
      // LPM over the FIB rows of node n.
      const routing::FibEntry* best = nullptr;
      for (const auto& [e, w] : fib) {
        if (e.node != n || !e.prefix.contains(dst)) continue;
        if (best == nullptr || e.prefix.length() > best->prefix.length()) best = &e;
      }
      const PortKey expected = best != nullptr ? PortKey::of(*best) : PortKey::drop();
      ASSERT_EQ(model.port_of(n, ec), expected)
          << "node " << n << " dst " << dst.to_string();
    }
  }
}

TEST(Model, InsertMovesEcsFromDrop) {
  PacketSpace space;
  space.migrate_to_bdd();
  EcManager ecs(space);
  NetworkModel model(space, ecs, 2);

  const auto e = fwd(0, pfx("10.0.0.0/8"), {3});
  const ModelDelta d = model.apply_batch(delta_of({{e, +1}}), UpdateOrder::kInsertFirst);

  EXPECT_EQ(d.stats.rule_inserts, 1u);
  EXPECT_EQ(d.stats.ec_moves, 1u);
  ASSERT_EQ(d.moves.size(), 1u);
  EXPECT_EQ(d.moves[0].from, PortKey::drop());
  EXPECT_EQ(d.moves[0].to, PortKey::of(e));
  EXPECT_EQ(d.moves[0].device, 0u);

  // Device 1 untouched.
  const EcId in = ecs.ec_of(space.dst_prefix(pfx("10.1.1.1/32")));
  EXPECT_EQ(model.port_of(0, in), PortKey::of(e));
  EXPECT_EQ(model.port_of(1, in), PortKey::drop());
}

TEST(Model, DeleteRevertsToCoveringRule) {
  PacketSpace space;
  space.migrate_to_bdd();
  EcManager ecs(space);
  NetworkModel model(space, ecs, 1);

  const auto parent = fwd(0, pfx("10.0.0.0/8"), {1});
  const auto child = fwd(0, pfx("10.1.0.0/16"), {2});
  model.apply_batch(delta_of({{parent, +1}, {child, +1}}), UpdateOrder::kInsertFirst);

  const EcId in16 = ecs.ec_of(space.dst_prefix(pfx("10.1.9.9/32")));
  EXPECT_EQ(model.port_of(0, in16).ifaces, std::vector<topo::IfaceId>{2});

  const ModelDelta d = model.apply_batch(delta_of({{child, -1}}), UpdateOrder::kInsertFirst);
  EXPECT_EQ(d.stats.rule_deletes, 1u);
  EXPECT_EQ(model.port_of(0, in16).ifaces, std::vector<topo::IfaceId>{1});  // back to /8
}

TEST(Model, LpmShadowingLimitsEffectiveMatch) {
  PacketSpace space;
  space.migrate_to_bdd();
  EcManager ecs(space);
  NetworkModel model(space, ecs, 1);

  model.apply_batch(delta_of({{fwd(0, pfx("10.1.0.0/16"), {2}), +1}}),
                    UpdateOrder::kInsertFirst);
  // Inserting the /8 afterwards must NOT steal the /16's packets.
  model.apply_batch(delta_of({{fwd(0, pfx("10.0.0.0/8"), {1}), +1}}),
                    UpdateOrder::kInsertFirst);

  const EcId in16 = ecs.ec_of(space.dst_prefix(pfx("10.1.0.1/32")));
  const EcId in8 = ecs.ec_of(space.dst_prefix(pfx("10.2.0.1/32")));
  EXPECT_EQ(model.port_of(0, in16).ifaces, std::vector<topo::IfaceId>{2});
  EXPECT_EQ(model.port_of(0, in8).ifaces, std::vector<topo::IfaceId>{1});
}

TEST(Model, ModificationOrderAsymmetry) {
  // The Table 3 effect: a modification (delete old + insert new) costs one
  // EC move insertion-first and two deletion-first, with identical final
  // state.
  const auto old_rule = fwd(0, pfx("10.0.0.0/8"), {1});
  const auto new_rule = fwd(0, pfx("10.0.0.0/8"), {2});
  const auto batch = [&] {
    return delta_of({{old_rule, -1}, {new_rule, +1}});
  };

  PacketSpace s1;
  s1.migrate_to_bdd();
  EcManager e1(s1);
  NetworkModel m1(s1, e1, 1);
  m1.apply_batch(delta_of({{old_rule, +1}}), UpdateOrder::kInsertFirst);
  const ModelDelta d1 = m1.apply_batch(batch(), UpdateOrder::kInsertFirst);
  EXPECT_EQ(d1.stats.ec_moves, 1u);
  EXPECT_EQ(d1.stats.stale_ops, 1u);  // the delete no-ops

  PacketSpace s2;
  s2.migrate_to_bdd();
  EcManager e2(s2);
  NetworkModel m2(s2, e2, 1);
  m2.apply_batch(delta_of({{old_rule, +1}}), UpdateOrder::kInsertFirst);
  const ModelDelta d2 = m2.apply_batch(batch(), UpdateOrder::kDeleteFirst);
  EXPECT_EQ(d2.stats.ec_moves, 2u);  // via the drop port and back

  // Net result identical.
  ASSERT_EQ(d1.moves.size(), 1u);
  ASSERT_EQ(d2.moves.size(), 1u);
  EXPECT_EQ(d1.moves[0].to, d2.moves[0].to);
  const EcId ec = e1.ec_of(s1.dst_prefix(pfx("10.5.0.1/32")));
  const EcId ec2 = e2.ec_of(s2.dst_prefix(pfx("10.5.0.1/32")));
  EXPECT_EQ(m1.port_of(0, ec), m2.port_of(0, ec2));
}

TEST(Model, IdenticalDeleteInsertCancelsInDelta) {
  // A delete and insert of the identical rule annihilate already in the
  // Z-set delta (weights +1 and -1 sum to zero), so the model sees an empty
  // batch — modifications only surface when old and new rules differ.
  PacketSpace space;
  space.migrate_to_bdd();
  EcManager ecs(space);
  NetworkModel model(space, ecs, 1);
  const auto rule = fwd(0, pfx("10.0.0.0/8"), {1});
  model.apply_batch(delta_of({{rule, +1}}), UpdateOrder::kInsertFirst);

  const ModelDelta d =
      model.apply_batch(delta_of({{rule, -1}, {rule, +1}}), UpdateOrder::kDeleteFirst);
  EXPECT_EQ(d.stats.ec_moves, 0u);
  EXPECT_TRUE(d.empty());
}

TEST(Model, DeleteRevertingToEqualPortMovesNothing) {
  // Deleting a /16 whose action equals the covering /8's action: the ECs
  // "move" to the identical port, which must not count as churn.
  PacketSpace space;
  space.migrate_to_bdd();
  EcManager ecs(space);
  NetworkModel model(space, ecs, 1);
  model.apply_batch(delta_of({{fwd(0, pfx("10.0.0.0/8"), {1}), +1},
                              {fwd(0, pfx("10.1.0.0/16"), {1}), +1}}),
                    UpdateOrder::kInsertFirst);

  const ModelDelta d = model.apply_batch(delta_of({{fwd(0, pfx("10.1.0.0/16"), {1}), -1}}),
                                         UpdateOrder::kDeleteFirst);
  EXPECT_EQ(d.stats.rule_deletes, 1u);
  EXPECT_EQ(d.stats.ec_moves, 0u);
  EXPECT_TRUE(d.moves.empty());
}

TEST(Model, SplitsInheritParentPorts) {
  PacketSpace space;
  space.migrate_to_bdd();
  EcManager ecs(space);
  NetworkModel model(space, ecs, 2);

  // Device 0 forwards the /8; then a /16 rule on device 1 splits the /8 EC.
  model.apply_batch(delta_of({{fwd(0, pfx("10.0.0.0/8"), {1}), +1}}),
                    UpdateOrder::kInsertFirst);
  const ModelDelta d = model.apply_batch(delta_of({{fwd(1, pfx("10.1.0.0/16"), {2}), +1}}),
                                         UpdateOrder::kInsertFirst);
  ASSERT_EQ(d.splits.size(), 1u);

  // Device 0 must forward both halves of the former /8 EC.
  const EcId a = ecs.ec_of(space.dst_prefix(pfx("10.1.0.1/32")));
  const EcId b = ecs.ec_of(space.dst_prefix(pfx("10.2.0.1/32")));
  EXPECT_NE(a, b);
  EXPECT_EQ(model.port_of(0, a).ifaces, std::vector<topo::IfaceId>{1});
  EXPECT_EQ(model.port_of(0, b).ifaces, std::vector<topo::IfaceId>{1});
}

TEST(Model, AclBindingAffectsPermits) {
  PacketSpace space;
  space.migrate_to_bdd();
  EcManager ecs(space);
  NetworkModel model(space, ecs, 1);

  routing::FilterRule deny;
  deny.node = 0;
  deny.iface = 7;
  deny.inbound = true;
  deny.priority = 0;
  deny.permit = false;
  deny.dst = pfx("10.0.0.0/8");
  routing::FilterRule permit_rest;
  permit_rest.node = 0;
  permit_rest.iface = 7;
  permit_rest.inbound = true;
  permit_rest.priority = 1;
  permit_rest.permit = true;

  routing::DataPlaneDelta d;
  d.filters.add(deny, +1);
  d.filters.add(permit_rest, +1);
  const ModelDelta md = model.apply_batch(d, UpdateOrder::kInsertFirst);
  EXPECT_FALSE(md.acl_affected.empty());

  const EcId denied = ecs.ec_of(space.dst_prefix(pfx("10.1.1.1/32")));
  const EcId allowed = ecs.ec_of(space.dst_prefix(pfx("192.168.1.1/32")));
  EXPECT_FALSE(model.permits(0, 7, true, denied));
  EXPECT_TRUE(model.permits(0, 7, true, allowed));
  EXPECT_TRUE(model.permits(0, 7, false, denied));  // other direction unbound
  EXPECT_TRUE(model.permits(0, 8, true, denied));   // other iface unbound

  // Removing the binding restores permit-all.
  routing::DataPlaneDelta undo;
  undo.filters.add(deny, -1);
  undo.filters.add(permit_rest, -1);
  const ModelDelta md2 = model.apply_batch(undo, UpdateOrder::kInsertFirst);
  EXPECT_FALSE(md2.acl_affected.empty());
  EXPECT_TRUE(model.permits(0, 7, true, denied));
}

TEST(Model, RealFibBatchesMatchLpmOracle) {
  // Feed the model with real generator output across a change sequence and
  // check it against direct LPM evaluation after every batch.
  const topo::Topology t = topo::make_fat_tree(4);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  routing::IncrementalGenerator gen(t);

  PacketSpace space;
  space.migrate_to_bdd();
  EcManager ecs(space);
  NetworkModel model(space, ecs, t.node_count());
  core::Rng rng{99};

  auto step = [&](UpdateOrder order) {
    const routing::DataPlaneDelta d = gen.apply(cfg);
    model.apply_batch(d, order);
    check_against_lpm(space, ecs, model, gen.fib(), static_cast<topo::NodeId>(t.node_count()),
                      rng);
  };

  step(UpdateOrder::kInsertFirst);  // initial full FIB
  config::fail_link(cfg, t, 3);
  step(UpdateOrder::kInsertFirst);
  config::set_ospf_cost(cfg, "edge0-0", "to-agg0-1", 50);
  step(UpdateOrder::kDeleteFirst);
  config::restore_link(cfg, t, 3);
  step(UpdateOrder::kInterleaved);
}

TEST(Model, LookupReturnsLongestMatch) {
  PacketSpace space;
  space.migrate_to_bdd();
  EcManager ecs(space);
  NetworkModel model(space, ecs, 2);

  const auto wide = fwd(0, pfx("10.0.0.0/8"), {1});
  const auto narrow = fwd(0, pfx("10.1.0.0/16"), {2});
  const auto host = fwd(0, pfx("10.1.2.3/32"), {3});
  model.apply_batch(delta_of({{wide, +1}, {narrow, +1}, {host, +1}}),
                    UpdateOrder::kInsertFirst);

  // The /32 shadows the /16 shadows the /8 — lookup must report the rule
  // that actually takes the packet, not just any cover.
  const auto at_host = model.lookup(0, *net::Ipv4Addr::parse("10.1.2.3"));
  ASSERT_TRUE(at_host.has_value());
  EXPECT_EQ(at_host->first, pfx("10.1.2.3/32"));
  EXPECT_EQ(at_host->second, PortKey::of(host));

  const auto at_16 = model.lookup(0, *net::Ipv4Addr::parse("10.1.9.9"));
  ASSERT_TRUE(at_16.has_value());
  EXPECT_EQ(at_16->first, pfx("10.1.0.0/16"));
  EXPECT_EQ(at_16->second, PortKey::of(narrow));

  const auto at_8 = model.lookup(0, *net::Ipv4Addr::parse("10.200.0.1"));
  ASSERT_TRUE(at_8.has_value());
  EXPECT_EQ(at_8->first, pfx("10.0.0.0/8"));
  EXPECT_EQ(at_8->second, PortKey::of(wide));
}

TEST(Model, LookupImplicitDrop) {
  PacketSpace space;
  space.migrate_to_bdd();
  EcManager ecs(space);
  NetworkModel model(space, ecs, 2);
  model.apply_batch(delta_of({{fwd(0, pfx("10.0.0.0/8"), {1}), +1}}),
                    UpdateOrder::kInsertFirst);

  // Outside every rule: nullopt (implicit drop), distinct from an explicit
  // drop rule which would return a PortKey.
  EXPECT_FALSE(model.lookup(0, *net::Ipv4Addr::parse("192.168.1.1")).has_value());
  // Same address on a device with no rules at all.
  EXPECT_FALSE(model.lookup(1, *net::Ipv4Addr::parse("10.1.1.1")).has_value());

  // After deleting the rule, the former match reverts to implicit drop.
  model.apply_batch(delta_of({{fwd(0, pfx("10.0.0.0/8"), {1}), -1}}),
                    UpdateOrder::kInsertFirst);
  EXPECT_FALSE(model.lookup(0, *net::Ipv4Addr::parse("10.1.1.1")).has_value());
}

routing::FilterRule filter(topo::IfaceId iface, std::uint32_t priority, bool permit,
                           net::Ipv4Prefix dst) {
  routing::FilterRule r;
  r.node = 0;
  r.iface = iface;
  r.inbound = true;
  r.priority = priority;
  r.permit = permit;
  r.dst = dst;
  return r;
}

config::Flow flow_to(const char* dst) {
  config::Flow f;
  f.src = *net::Ipv4Addr::parse("172.16.0.1");
  f.dst = *net::Ipv4Addr::parse(dst);
  return f;
}

TEST(Model, FilterVerdictFirstMatchAndImplicitDeny) {
  PacketSpace space;
  space.migrate_to_bdd();
  EcManager ecs(space);
  NetworkModel model(space, ecs, 1);

  // Priority order matters: the specific deny sits before the broad permit,
  // so a 10.1/16 flow must report the deny rule even though both match.
  routing::DataPlaneDelta d;
  d.filters.add(filter(7, 0, false, pfx("10.1.0.0/16")), +1);
  d.filters.add(filter(7, 1, true, pfx("10.0.0.0/8")), +1);
  model.apply_batch(d, UpdateOrder::kInsertFirst);

  const auto denied = model.filter_verdict(0, 7, true, flow_to("10.1.2.3"));
  EXPECT_TRUE(denied.has_acl);
  EXPECT_FALSE(denied.permit);
  ASSERT_TRUE(denied.rule.has_value());
  EXPECT_EQ(denied.rule->dst, pfx("10.1.0.0/16"));
  EXPECT_EQ(denied.rule->priority, 0u);

  const auto permitted = model.filter_verdict(0, 7, true, flow_to("10.2.0.1"));
  EXPECT_TRUE(permitted.has_acl);
  EXPECT_TRUE(permitted.permit);
  ASSERT_TRUE(permitted.rule.has_value());
  EXPECT_EQ(permitted.rule->dst, pfx("10.0.0.0/8"));

  // No rule matches: ACL bound => implicit deny, and no deciding rule.
  const auto implicit = model.filter_verdict(0, 7, true, flow_to("192.168.1.1"));
  EXPECT_TRUE(implicit.has_acl);
  EXPECT_FALSE(implicit.permit);
  EXPECT_FALSE(implicit.rule.has_value());

  // Nothing bound on that iface/direction: permit with has_acl=false.
  const auto unbound_dir = model.filter_verdict(0, 7, false, flow_to("10.1.2.3"));
  EXPECT_FALSE(unbound_dir.has_acl);
  EXPECT_TRUE(unbound_dir.permit);
  const auto unbound_iface = model.filter_verdict(0, 8, true, flow_to("10.1.2.3"));
  EXPECT_FALSE(unbound_iface.has_acl);
  EXPECT_TRUE(unbound_iface.permit);
}

TEST(Model, FilterVerdictAgreesWithPermits) {
  // The rule-level trace verdict and the EC-level permit bitmap are two
  // views of the same ACL; they must agree on every probe.
  PacketSpace space;
  space.migrate_to_bdd();
  EcManager ecs(space);
  NetworkModel model(space, ecs, 1);

  routing::DataPlaneDelta d;
  d.filters.add(filter(3, 0, false, pfx("10.1.0.0/16")), +1);
  d.filters.add(filter(3, 1, true, pfx("10.0.0.0/8")), +1);
  model.apply_batch(d, UpdateOrder::kInsertFirst);

  for (const char* probe : {"10.1.2.3", "10.2.0.1", "192.168.1.1", "10.1.255.255"}) {
    const config::Flow f = flow_to(probe);
    const EcId ec = ecs.ec_of(space.dst_prefix(net::Ipv4Prefix{f.dst, 32}));
    EXPECT_EQ(model.filter_verdict(0, 3, true, f).permit, model.permits(0, 3, true, ec))
        << "probe " << probe;
  }
}

TEST(Model, RuleCountTracksFib) {
  const topo::Topology t = topo::make_ring(4);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  routing::IncrementalGenerator gen(t);
  PacketSpace space;
  space.migrate_to_bdd();
  EcManager ecs(space);
  NetworkModel model(space, ecs, t.node_count());
  model.apply_batch(gen.apply(cfg), UpdateOrder::kInsertFirst);
  EXPECT_EQ(model.rule_count(), gen.fib().size());
}

}  // namespace
}  // namespace rcfg::dpm
