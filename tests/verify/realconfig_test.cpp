#include "verify/realconfig.h"

#include <gtest/gtest.h>

#include "baseline/simulator.h"
#include "config/builders.h"
#include "core/rng.h"
#include "dd/graph.h"
#include "topo/generators.h"

namespace rcfg::verify {
namespace {

/// Oracle: walk the FIB hop by hop for a concrete destination address and
/// decide whether s's traffic can reach d (following every ECMP branch).
bool fib_walk_reaches(const topo::Topology& t, const dd::ZSet<routing::FibEntry>& fib,
                      topo::NodeId s, topo::NodeId d, net::Ipv4Addr dst) {
  std::vector<bool> visited(t.node_count(), false);
  std::vector<topo::NodeId> stack{s};
  while (!stack.empty()) {
    const topo::NodeId n = stack.back();
    stack.pop_back();
    if (visited[n]) continue;
    visited[n] = true;
    // LPM over n's rows.
    const routing::FibEntry* best = nullptr;
    for (const auto& [e, w] : fib) {
      if (e.node != n || !e.prefix.contains(dst)) continue;
      if (best == nullptr || e.prefix.length() > best->prefix.length()) best = &e;
    }
    if (best == nullptr) continue;
    if (best->action == routing::FibAction::kDeliver) {
      if (n == d) return true;
      continue;
    }
    if (best->action == routing::FibAction::kDrop) continue;
    for (const topo::IfaceId i : best->out_ifaces) {
      const auto& ifc = t.iface(i);
      if (ifc.link) stack.push_back(t.peer(*ifc.link, n));
    }
  }
  return false;
}

TEST(RealConfig, EndToEndPipelineTimesAndDeltas) {
  const topo::Topology t = topo::make_fat_tree(4);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t);

  const auto full = rc.apply(cfg);
  EXPECT_FALSE(full.dataplane.fib.empty());
  EXPECT_FALSE(full.model.moves.empty());
  EXPECT_FALSE(full.check.affected_pairs.empty());
  EXPECT_GT(full.generate_ms, 0.0);

  // No change: every stage reports an empty delta.
  const auto idle = rc.apply(cfg);
  EXPECT_TRUE(idle.dataplane.fib.empty());
  EXPECT_TRUE(idle.model.empty());
  EXPECT_TRUE(idle.check.empty());

  // A small change produces small deltas.
  config::set_ospf_cost(cfg, "edge0-0", "to-agg0-0", 100);
  const auto incr = rc.apply(cfg);
  EXPECT_FALSE(incr.dataplane.fib.empty());
  EXPECT_LT(incr.dataplane.fib.size(), full.dataplane.fib.size());
  EXPECT_LT(incr.model.stats.ec_moves, full.model.stats.ec_moves);
}

TEST(RealConfig, ReachabilityMatchesFibWalkOracle) {
  const topo::Topology t = topo::make_fat_tree(4);
  config::NetworkConfig cfg = config::build_bgp_network(t);
  RealConfig rc(t);
  rc.apply(cfg);

  core::Rng rng{42};
  auto check_probes = [&](const char* context) {
    for (int probe = 0; probe < 40; ++probe) {
      const auto s = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      const auto d = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      if (s == d) continue;
      const net::Ipv4Prefix host = config::host_prefix(d);
      const dpm::EcId ec = rc.ecs().ec_of(rc.packet_space().dst_prefix(host));
      const bool got = rc.checker().reachable(s, d, ec);
      const bool want =
          fib_walk_reaches(t, rc.generator().fib(), s, d, host.first());
      ASSERT_EQ(got, want) << context << ": " << t.node(s).name << " -> " << t.node(d).name;
    }
  };

  check_probes("initial");
  config::fail_link(cfg, t, 7);
  rc.apply(cfg);
  check_probes("after failure");
  config::set_local_pref(cfg, "edge0-0", "to-agg0-1", 150);
  rc.apply(cfg);
  check_probes("after LP change");
  config::restore_link(cfg, t, 7);
  rc.apply(cfg);
  check_probes("after restore");
}

TEST(RealConfig, IncrementalCheckerMatchesFreshInstance) {
  const topo::Topology t = topo::make_fat_tree(4);
  config::NetworkConfig cfg = config::build_ospf_network(t);

  RealConfig incremental(t);
  incremental.apply(cfg);

  core::Rng rng{7};
  for (int step = 0; step < 6; ++step) {
    const auto l = static_cast<topo::LinkId>(rng.next_below(t.link_count()));
    if (rng.next_bool(0.5)) {
      config::fail_link(cfg, t, l);
    } else {
      const auto& lk = t.link(l);
      config::set_ospf_cost(cfg, t.node(lk.a).name, t.iface(lk.a_iface).name,
                            static_cast<std::uint32_t>(rng.next_in(1, 40)));
    }
    incremental.apply(cfg);

    RealConfig fresh(t);
    fresh.apply(cfg);

    // Pair counts and anomaly counts must agree (EC ids may differ).
    ASSERT_EQ(incremental.checker().pair_count(), fresh.checker().pair_count())
        << "step " << step;
    ASSERT_EQ(incremental.checker().loop_count(), fresh.checker().loop_count());
    ASSERT_EQ(incremental.checker().blackhole_count(), fresh.checker().blackhole_count());
  }
}

TEST(RealConfig, PolicyHelpersByName) {
  const topo::Topology t = topo::make_grid(3, 1);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t);
  rc.apply(cfg);

  const auto p2 = config::host_prefix(t.find_node("n2-0"));
  const PolicyId reach = rc.require_reachable("n0-0", "n2-0", p2);
  const PolicyId way = rc.require_waypoint("n0-0", "n2-0", "n1-0", p2);
  EXPECT_TRUE(rc.checker().policy_satisfied(reach));
  EXPECT_TRUE(rc.checker().policy_satisfied(way));
  EXPECT_THROW(rc.require_reachable("ghost", "n2-0", p2), std::invalid_argument);

  config::fail_link(cfg, t, 1);
  const auto rep = rc.apply(cfg);
  EXPECT_FALSE(rc.checker().policy_satisfied(reach));
  ASSERT_FALSE(rep.check.events.empty());
}

TEST(RealConfig, UpdateOrderDoesNotChangeFinalState) {
  const topo::Topology t = topo::make_fat_tree(4);
  config::NetworkConfig cfg = config::build_bgp_network(t);

  RealConfigOptions ins;
  ins.update_order = dpm::UpdateOrder::kInsertFirst;
  RealConfigOptions del;
  del.update_order = dpm::UpdateOrder::kDeleteFirst;
  RealConfig a(t, ins), b(t, del);
  a.apply(cfg);
  b.apply(cfg);

  config::fail_link(cfg, t, 5);
  const auto ra = a.apply(cfg);
  const auto rb = b.apply(cfg);

  // Deletion-first moves ECs at least as often (via the drop port).
  EXPECT_GE(rb.model.stats.ec_moves, ra.model.stats.ec_moves);
  // Final semantics agree.
  EXPECT_EQ(a.checker().pair_count(), b.checker().pair_count());
  EXPECT_EQ(a.checker().loop_count(), b.checker().loop_count());
}

TEST(RealConfig, NonconvergentConfigThrows) {
  const topo::Topology t = topo::make_full_mesh(4);
  config::NetworkConfig cfg = config::build_bgp_network(t);
  for (unsigned i = 1; i <= 3; ++i) {
    cfg.devices.at("m" + std::to_string(i)).bgp->networks.clear();
  }
  config::set_local_pref(cfg, "m1", "to-m2", 200);
  config::set_local_pref(cfg, "m2", "to-m3", 200);
  config::set_local_pref(cfg, "m3", "to-m1", 200);

  // A diverged first apply leaves the instance empty and usable.
  RealConfig rc(t);
  EXPECT_THROW(rc.apply(cfg), dd::NonterminationError);
  EXPECT_TRUE(rc.generator().fib().empty());
  EXPECT_EQ(rc.checker().pair_count(), 0u);

  const config::NetworkConfig good = config::build_bgp_network(t);
  rc.apply(good);
  const auto fib = rc.generator().fib();
  const auto pairs = rc.checker().reachable_pairs();
  const std::size_t ecs = rc.ecs().ec_count();

  // A later one leaves the FIB, the EC partition and the pairs as they
  // were, and diverges again when retried.
  EXPECT_THROW(rc.apply(cfg), dd::NonterminationError);
  EXPECT_EQ(rc.generator().fib(), fib);
  EXPECT_EQ(rc.ecs().ec_count(), ecs);
  EXPECT_EQ(rc.checker().reachable_pairs(), pairs);
  EXPECT_THROW(rc.apply(cfg), dd::NonterminationError);

  // The instance keeps verifying: its next apply equals that of a fresh
  // verifier that never saw the diverged configuration.
  config::NetworkConfig after = good;
  config::fail_link(after, t, 2);
  rc.apply(after);
  RealConfig fresh(t);
  fresh.apply(good);
  fresh.apply(after);
  EXPECT_EQ(rc.generator().fib(), fresh.generator().fib());
  EXPECT_EQ(rc.ecs().ec_count(), fresh.ecs().ec_count());
  EXPECT_EQ(rc.checker().reachable_pairs(), fresh.checker().reachable_pairs());
}

TEST(RealConfig, ProvenanceAfterDivergenceDiffsLastConvergedFacts) {
  const topo::Topology t = topo::make_full_mesh(4);
  const config::NetworkConfig good = config::build_bgp_network(t);
  // The dispute wheel changes the facts of m1..m3 (origins, sessions).
  config::NetworkConfig wheel = good;
  for (unsigned i = 1; i <= 3; ++i) {
    wheel.devices.at("m" + std::to_string(i)).bgp->networks.clear();
  }
  config::set_local_pref(wheel, "m1", "to-m2", 200);
  config::set_local_pref(wheel, "m2", "to-m3", 200);
  config::set_local_pref(wheel, "m3", "to-m1", 200);

  RealConfigOptions opts;
  opts.provenance = true;
  RealConfig rc(t, opts);
  rc.apply(good);
  ASSERT_THROW(rc.apply(wheel), dd::NonterminationError);

  // Against `good` only m0 changed; a diff against the diverged facts
  // would name m1..m3 as well.
  config::NetworkConfig next = good;
  next.devices.at("m0").static_routes.push_back(
      {net::Ipv4Prefix{net::Ipv4Addr{203, 0, 113, 0}, 24}, "null0", 1});
  const RealConfig::Report report = rc.apply(next);
  EXPECT_EQ(report.changed_devices, std::vector<topo::NodeId>{t.find_node("m0")});
}

// ---------------------------------------------------------------------------
// Snapshot / fork
// ---------------------------------------------------------------------------

/// Griffin's BAD GADGET on full_mesh(4), stabilized: m1's strong preference
/// for its direct route from m0 breaks the dispute wheel, so the healthy
/// configuration converges — but failing link m0–m1 removes exactly that
/// route and re-exposes the oscillation.
config::NetworkConfig stabilized_gadget(const topo::Topology& t) {
  config::NetworkConfig cfg = config::build_bgp_network(t);
  for (unsigned i = 1; i <= 3; ++i) {
    cfg.devices.at("m" + std::to_string(i)).bgp->networks.clear();
  }
  config::set_local_pref(cfg, "m1", "to-m2", 200);
  config::set_local_pref(cfg, "m2", "to-m3", 200);
  config::set_local_pref(cfg, "m3", "to-m1", 200);
  config::set_local_pref(cfg, "m1", "to-m0", 300);
  return cfg;
}

topo::LinkId link_between(const topo::Topology& t, const std::string& a,
                          const std::string& b) {
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    const auto& lk = t.link(l);
    const std::string& na = t.node(lk.a).name;
    const std::string& nb = t.node(lk.b).name;
    if ((na == a && nb == b) || (na == b && nb == a)) return l;
  }
  throw std::logic_error("no link " + a + "-" + b);
}

TEST(RealConfigSnapshot, RestoreRewindsPipelineState) {
  // A chain, so a link failure genuinely partitions the network.
  const topo::Topology t = topo::make_grid(3, 1);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t);
  rc.apply(cfg);
  const PolicyId pid =
      rc.require_reachable("n0-0", "n2-0", config::host_prefix(t.find_node("n2-0")));

  const auto healthy_pairs = rc.checker().reachable_pairs();
  const auto snap = rc.snapshot();

  config::NetworkConfig failed = cfg;
  config::fail_link(failed, t, 1);
  rc.apply(failed);
  const auto failed_pairs = rc.checker().reachable_pairs();
  ASSERT_NE(failed_pairs, healthy_pairs);

  rc.restore(*snap);
  EXPECT_EQ(rc.checker().reachable_pairs(), healthy_pairs);
  EXPECT_TRUE(rc.checker().policy_satisfied(pid));

  // Incremental work from the restored state reproduces the first run
  // exactly: the whole pipeline (not just the checker) was rewound.
  rc.apply(failed);
  EXPECT_EQ(rc.checker().reachable_pairs(), failed_pairs);
}

TEST(RealConfigSnapshot, ForkedReplicaMatchesParentAndLeavesItUntouched) {
  const topo::Topology t = topo::make_fat_tree(4);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t);
  rc.apply(cfg);
  const auto healthy_pairs = rc.checker().reachable_pairs();

  const auto snap = rc.snapshot();
  const std::unique_ptr<RealConfig> replica = rc.fork(*snap);
  EXPECT_EQ(replica->checker().reachable_pairs(), healthy_pairs);

  // The replica diverges from the parent without touching it.
  config::NetworkConfig failed = cfg;
  config::fail_link(failed, t, 5);
  replica->apply(failed);
  EXPECT_EQ(rc.checker().reachable_pairs(), healthy_pairs);

  // The replica's incremental verdicts equal the parent's on the same delta.
  rc.apply(failed);
  EXPECT_EQ(replica->checker().reachable_pairs(), rc.checker().reachable_pairs());
  EXPECT_EQ(replica->checker().loop_count(), rc.checker().loop_count());
  EXPECT_EQ(replica->checker().blackhole_count(), rc.checker().blackhole_count());
}

TEST(RealConfigSnapshot, DivergedApplyLeavesStateUnchanged) {
  const topo::Topology t = topo::make_full_mesh(4);
  const config::NetworkConfig healthy = stabilized_gadget(t);
  RealConfig rc(t);
  rc.apply(healthy);
  const auto healthy_pairs = rc.checker().reachable_pairs();
  const auto healthy_fib = rc.generator().fib();
  const auto snap = rc.snapshot();

  config::NetworkConfig failed = healthy;
  config::fail_link(failed, t, link_between(t, "m0", "m1"));
  ASSERT_THROW(rc.apply(failed), dd::NonterminationError);
  EXPECT_EQ(rc.checker().reachable_pairs(), healthy_pairs);
  EXPECT_EQ(rc.generator().fib(), healthy_fib);

  // The unchanged state checkpoints, and restoring it (or the earlier
  // checkpoint) lands on the same healthy state.
  const auto after = rc.snapshot();
  rc.restore(*after);
  EXPECT_EQ(rc.generator().fib(), healthy_fib);
  rc.restore(*snap);
  EXPECT_EQ(rc.checker().reachable_pairs(), healthy_pairs);

  // And the recovered instance verifies converging deltas again.
  config::NetworkConfig other = healthy;
  config::fail_link(other, t, link_between(t, "m2", "m3"));
  EXPECT_NO_THROW(rc.apply(other));
}

// ---------------------------------------------------------------------------
// Memory reclamation
// ---------------------------------------------------------------------------

net::Ipv4Prefix churn_prefix(unsigned round, unsigned i) {
  return net::Ipv4Prefix{
      net::Ipv4Addr{192, 168, static_cast<std::uint8_t>(round * 8 + i), 0}, 24};
}

TEST(RealConfigReclaim, ChurnStaysBoundedAndMatchesFreshRebuild) {
  const topo::Topology t = topo::make_fat_tree(4);
  const config::NetworkConfig base = config::build_ospf_network(t);

  // Moved onto BDDs at construction: the node_count comparison below
  // measures BDD-arena hoarding, which the interval arena (append-only,
  // never collected) does not exhibit.
  RealConfigOptions eager;
  eager.reclamation = true;  // reclaim after every batch
  RealConfig reclaiming(t, eager);
  RealConfig hoarding(t);
  reclaiming.packet_space().migrate_to_bdd();
  hoarding.packet_space().migrate_to_bdd();
  reclaiming.apply(base);
  hoarding.apply(base);
  const std::size_t baseline_ecs = reclaiming.ecs().ec_count();

  // Insert/withdraw churn: each round announces 8 fresh discard prefixes and
  // then withdraws them again.
  config::NetworkConfig cfg = base;
  for (unsigned round = 0; round < 6; ++round) {
    auto& dev = cfg.devices.at("edge0-0");
    for (unsigned i = 0; i < 8; ++i) {
      dev.static_routes.push_back({churn_prefix(round, i), config::kNullInterface});
    }
    reclaiming.apply(cfg);
    hoarding.apply(cfg);
    ASSERT_EQ(reclaiming.checker().reachable_pairs(), hoarding.checker().reachable_pairs())
        << "round " << round << " after insert";

    dev.static_routes.clear();
    const auto rep = reclaiming.apply(cfg);
    hoarding.apply(cfg);
    ASSERT_EQ(reclaiming.checker().reachable_pairs(), hoarding.checker().reachable_pairs())
        << "round " << round << " after withdraw";
    EXPECT_TRUE(rep.reclaim.ran);
    // The withdrawn prefixes' atoms merged away again: no residue grows
    // round over round.
    EXPECT_EQ(reclaiming.ecs().ec_count(), baseline_ecs) << "round " << round;
  }

  // Without reclamation, every withdrawn prefix leaves its split behind.
  EXPECT_GT(hoarding.ecs().ec_count(), baseline_ecs);
  EXPECT_GT(hoarding.packet_space().bdd().node_count(),
            reclaiming.packet_space().bdd().node_count());

  // The churned-then-reclaimed verifier matches a fresh rebuild exactly.
  RealConfig fresh(t);
  fresh.packet_space().migrate_to_bdd();
  fresh.apply(cfg);
  EXPECT_EQ(reclaiming.ecs().ec_count(), fresh.ecs().ec_count());
  EXPECT_EQ(reclaiming.checker().pair_count(), fresh.checker().pair_count());
  EXPECT_EQ(reclaiming.checker().reachable_pairs(), fresh.checker().reachable_pairs());
}

TEST(RealConfigReclaim, ReportExposesReclaimTelemetry) {
  const topo::Topology t = topo::make_grid(3, 1);
  RealConfigOptions eager;
  eager.reclamation = true;
  RealConfig rc(t, eager);

  config::NetworkConfig cfg = config::build_ospf_network(t);
  const auto first = rc.apply(cfg);
  EXPECT_GT(first.ec_count, 0u);
  EXPECT_GT(first.bdd_nodes, 0u);

  auto& dev = cfg.devices.at("n0-0");
  dev.static_routes.push_back({churn_prefix(0, 0), config::kNullInterface});
  rc.apply(cfg);
  dev.static_routes.clear();
  const auto rep = rc.apply(cfg);

  ASSERT_TRUE(rep.reclaim.ran);
  EXPECT_GT(rep.reclaim.ecs_before, rep.reclaim.ecs_after);
  EXPECT_GE(rep.reclaim.bdd_before, rep.reclaim.bdd_after);
  ASSERT_TRUE(rep.reclaim.remap.has_value());
  EXPECT_EQ(rep.reclaim.remap->new_count, rep.reclaim.ecs_after);
  EXPECT_EQ(rep.ec_count, rep.reclaim.ecs_after);
  EXPECT_GE(rep.total_ms(), rep.reclaim.reclaim_ms);
}

TEST(RealConfigReclaim, SnapshotRestoreInterleavesWithReclaim) {
  const topo::Topology t = topo::make_fat_tree(4);
  RealConfigOptions eager;
  eager.reclamation = true;
  RealConfig rc(t, eager);

  config::NetworkConfig cfg = config::build_ospf_network(t);
  rc.apply(cfg);
  const auto healthy_pairs = rc.checker().reachable_pairs();
  const auto snap = rc.snapshot();

  // Churn (with reclaims firing) past the snapshot...
  auto& dev = cfg.devices.at("edge0-0");
  for (unsigned i = 0; i < 4; ++i) {
    dev.static_routes.push_back({churn_prefix(1, i), config::kNullInterface});
  }
  rc.apply(cfg);
  dev.static_routes.clear();
  ASSERT_TRUE(rc.apply(cfg).reclaim.ran);

  // ...then rewind: the snapshot's partition and verdicts come back, and
  // further incremental work (including fresh reclaims) behaves normally.
  rc.restore(*snap);
  EXPECT_EQ(rc.checker().reachable_pairs(), healthy_pairs);

  for (unsigned i = 0; i < 4; ++i) {
    dev.static_routes.push_back({churn_prefix(2, i), config::kNullInterface});
  }
  rc.apply(cfg);
  dev.static_routes.clear();
  const auto rep = rc.apply(cfg);
  EXPECT_TRUE(rep.reclaim.ran);
  EXPECT_EQ(rc.checker().reachable_pairs(), healthy_pairs);
}

}  // namespace
}  // namespace rcfg::verify
