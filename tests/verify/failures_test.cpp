#include "verify/failures.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "config/builders.h"
#include "routing/metrics.h"
#include "topo/generators.h"

namespace rcfg::verify {
namespace {

/// A verifier whose round budget is sized to the (unweighted) topology.
RealConfigOptions sized(const topo::Topology& t) {
  RealConfigOptions o;
  o.generator.max_rounds = routing::recommended_max_rounds(t);
  return o;
}

TEST(FailureSweep, FatTreeSurvivesEverySingleFailure) {
  const topo::Topology t = topo::make_fat_tree(4);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t, sized(t));
  rc.apply(cfg);

  const FailureSweepResult r = sweep_failures(rc, cfg);
  EXPECT_EQ(r.scenarios, t.link_count());
  // Host-prefix reachability is fully fault tolerant in a fat tree; only
  // the failed link's own /31 pairs disappear, so some pairs drop out of
  // the spec but no host pair does.
  EXPECT_FALSE(r.fault_tolerant_pairs.empty());
  EXPECT_LE(r.fault_tolerant_pairs.size(), r.healthy_pairs.size());
  EXPECT_TRUE(r.loop_scenarios.empty());

  // Host-to-host pairs all survive.
  std::size_t host_pairs = 0;
  for (const auto& [s, d] : r.fault_tolerant_pairs) {
    (void)s;
    (void)d;
    ++host_pairs;
  }
  EXPECT_GE(host_pairs, t.node_count() * (t.node_count() - 1) / 2);

  // The sweep leaves the verifier healthy.
  EXPECT_EQ(rc.checker().reachable_pairs(), r.healthy_pairs);
}

TEST(FailureSweep, ChainHasOnlyCriticalLinks) {
  const topo::Topology t = topo::make_grid(4, 1);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t, sized(t));
  rc.apply(cfg);

  const FailureSweepResult r = sweep_failures(rc, cfg);
  // Every link in a chain is a cut edge.
  EXPECT_EQ(r.critical_links.size(), t.link_count());
  // No pair survives every failure (each pair is cut by some link).
  EXPECT_TRUE(r.fault_tolerant_pairs.empty());
}

TEST(FailureSweep, RingToleratesAnySingleFailure) {
  const topo::Topology t = topo::make_ring(5);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t, sized(t));
  rc.apply(cfg);

  const FailureSweepResult r = sweep_failures(rc, cfg);
  // Host pairs survive (ring reroutes); only the dead link's /31 pairs drop,
  // which marks every link critical-for-its-own-subnet.
  std::size_t host_pair_count = 0;
  for (const auto& [s, d] : r.fault_tolerant_pairs) {
    if (config::host_prefix(d).address().bits() >> 24 == 10) ++host_pair_count;
  }
  EXPECT_EQ(host_pair_count, 5u * 4u);
}

TEST(FailureSweep, PolicyViolationsNameTheScenario) {
  const topo::Topology t = topo::make_grid(3, 1);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t, sized(t));
  rc.apply(cfg);
  const PolicyId pid =
      rc.require_reachable("n0-0", "n2-0", config::host_prefix(t.find_node("n2-0")));

  const FailureSweepResult r = sweep_failures(rc, cfg);
  ASSERT_TRUE(r.policy_violations.contains(pid));
  // Both chain links break the policy.
  EXPECT_EQ(r.policy_violations.at(pid).size(), 2u);
  // The sweep ran on replicas; the verifier still satisfies the policy.
  EXPECT_TRUE(rc.checker().policy_satisfied(pid));
}

TEST(FailureSweep, SubsetOfLinks) {
  const topo::Topology t = topo::make_ring(4);
  config::NetworkConfig cfg = config::build_bgp_network(t);
  RealConfig rc(t, sized(t));
  rc.apply(cfg);
  FailureSweepOptions options;
  options.links = {0, 2};
  const FailureSweepResult r = sweep_failures(rc, cfg, options);
  EXPECT_EQ(r.scenarios, 2u);
}

// ---------------------------------------------------------------------------
// Divergent scenarios and the snapshot-fork sweep
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

TEST(FailureSweep, DivergentScenarioIsRecordedNotFatal) {
  const topo::Topology t = topo::make_full_mesh(4);
  const config::NetworkConfig healthy = stabilized_gadget(t);
  RealConfig rc(t, sized(t));
  rc.apply(healthy);
  const topo::LinkId bad = link_between(t, "m0", "m1");

  // One lane: the divergent scenario is undone on the replica and the
  // scenarios after it still run and converge.
  const FailureSweepResult r = sweep_failures(rc, healthy);
  EXPECT_EQ(r.scenarios, t.link_count());
  ASSERT_EQ(r.diverged_links, std::vector<topo::LinkId>{bad});
  ASSERT_EQ(r.outcomes.size(), t.link_count());
  for (const ScenarioOutcome& out : r.outcomes) {
    EXPECT_EQ(out.diverged, out.scenario.links.front() == bad);
    if (!out.diverged) {
      EXPECT_EQ(out.reachable_pairs, r.healthy_pairs.size() - out.pairs_lost);
    }
  }

  // The sweep leaves the verifier as it was.
  EXPECT_EQ(rc.checker().reachable_pairs(), r.healthy_pairs);
  EXPECT_NO_THROW(rc.apply(healthy));
}

TEST(FailureSweep, ForkSweepRecordsDivergenceWithoutTouchingParent) {
  const topo::Topology t = topo::make_full_mesh(4);
  const config::NetworkConfig healthy = stabilized_gadget(t);
  RealConfig rc(t, sized(t));
  rc.apply(healthy);
  const topo::LinkId bad = link_between(t, "m0", "m1");

  FailureSweepOptions options;
  options.threads = 2;
  const FailureSweepResult r = sweep_failures(rc, healthy, options);
  EXPECT_EQ(r.scenarios, t.link_count());
  ASSERT_EQ(r.diverged_links, std::vector<topo::LinkId>{bad});
  ASSERT_EQ(r.outcomes.size(), t.link_count());
  for (const ScenarioOutcome& out : r.outcomes) {
    EXPECT_EQ(out.diverged, out.scenario.links.front() == bad);
  }

  // The divergent scenario ran on a replica: the parent is untouched and
  // still applies.
  EXPECT_EQ(rc.checker().reachable_pairs(), r.healthy_pairs);
  EXPECT_NO_THROW(rc.apply(healthy));
}

/// Pairs in sorted `a` but not in sorted `b`.
std::vector<std::pair<topo::NodeId, topo::NodeId>> pairs_minus(
    const std::vector<std::pair<topo::NodeId, topo::NodeId>>& a,
    const std::vector<std::pair<topo::NodeId, topo::NodeId>>& b) {
  std::vector<std::pair<topo::NodeId, topo::NodeId>> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

TEST(FailureSweep, ForkSweepAgreesWithScratchVerifier) {
  const topo::Topology t = topo::make_fat_tree(4);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t, sized(t));
  rc.apply(cfg);
  const PolicyId pid =
      rc.require_reachable("edge0-0", "edge1-1", config::host_prefix(t.find_node("edge1-1")));
  const std::vector<std::pair<topo::NodeId, topo::NodeId>> healthy_pairs =
      rc.checker().reachable_pairs();
  const std::size_t healthy_loops = rc.checker().loop_count();

  // Every scenario's verdicts, computed by a verifier built from scratch on
  // that scenario's configuration.
  std::vector<ScenarioOutcome> expected;
  std::vector<std::pair<topo::NodeId, topo::NodeId>> survivors = healthy_pairs;
  std::vector<topo::LinkId> critical;
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    config::NetworkConfig scenario_cfg = cfg;
    config::fail_link(scenario_cfg, t, l);
    RealConfig scratch(t, sized(t));
    scratch.require_reachable("edge0-0", "edge1-1",
                              config::host_prefix(t.find_node("edge1-1")));
    scratch.apply(scenario_cfg);
    const auto lost = pairs_minus(healthy_pairs, scratch.checker().reachable_pairs());
    ScenarioOutcome out;
    out.scenario.links = {l};
    out.reachable_pairs = scratch.checker().reachable_pairs().size();
    out.pairs_lost = lost.size();
    if (!scratch.checker().policy_satisfied(pid)) out.violated.push_back(pid);
    out.gained_loop = scratch.checker().loop_count() > healthy_loops;
    expected.push_back(std::move(out));
    survivors = pairs_minus(survivors, lost);
    if (!lost.empty()) critical.push_back(l);
  }

  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    FailureSweepOptions options;
    options.threads = threads;
    const FailureSweepResult forked = sweep_failures(rc, cfg, options);

    EXPECT_EQ(forked.scenarios, t.link_count());
    EXPECT_EQ(forked.healthy_pairs, healthy_pairs);
    EXPECT_EQ(forked.fault_tolerant_pairs, survivors);
    EXPECT_EQ(forked.critical_links, critical);
    EXPECT_TRUE(forked.loop_scenarios.empty());
    EXPECT_TRUE(forked.diverged_links.empty());
    ASSERT_EQ(forked.outcomes.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const ScenarioOutcome& a = expected[i];
      const ScenarioOutcome& b = forked.outcomes[i];
      EXPECT_EQ(b.scenario, a.scenario) << "scenario " << i;
      EXPECT_EQ(b.diverged, a.diverged) << "scenario " << i;
      EXPECT_EQ(b.reachable_pairs, a.reachable_pairs) << "scenario " << i;
      EXPECT_EQ(b.pairs_lost, a.pairs_lost) << "scenario " << i;
      EXPECT_EQ(b.violated, a.violated) << "scenario " << i;
      EXPECT_EQ(b.gained_loop, a.gained_loop) << "scenario " << i;
    }
  }
  // The fork sweep never touched the caller's verifier.
  EXPECT_EQ(rc.checker().reachable_pairs(), healthy_pairs);
}

TEST(FailureSweep, LinksDownInTheHealthyConfigStayDown) {
  const topo::Topology t = topo::make_ring(5);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  config::fail_link(cfg, t, 0);
  RealConfig rc(t, sized(t));
  rc.apply(cfg);

  // Both scenarios run on one lane; undoing {0} must leave link 0 down for
  // scenario {2}.
  FailureSweepOptions options;
  options.scenarios = {FailureScenario{{0}}, FailureScenario{{2}}};
  const FailureSweepResult r = sweep_failures(rc, cfg, options);
  ASSERT_EQ(r.outcomes.size(), 2u);
  EXPECT_EQ(r.outcomes[0].reachable_pairs, r.healthy_pairs.size());
  EXPECT_EQ(r.outcomes[0].pairs_lost, 0u);

  config::NetworkConfig both = cfg;
  config::fail_link(both, t, 2);
  RealConfig scratch(t, sized(t));
  scratch.apply(both);
  EXPECT_EQ(r.outcomes[1].reachable_pairs, scratch.checker().reachable_pairs().size());
  EXPECT_EQ(r.outcomes[1].pairs_lost,
            r.healthy_pairs.size() - scratch.checker().reachable_pairs().size());
}

TEST(FailureSweep, MaxFailuresTwoCoversEveryPair) {
  const topo::Topology t = topo::make_ring(4);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t, sized(t));
  rc.apply(cfg);

  FailureSweepOptions options;
  options.max_failures = 2;
  const FailureSweepResult r = sweep_failures(rc, cfg, options);
  const std::size_t n = t.link_count();
  ASSERT_EQ(r.scenarios, n + n * (n - 1) / 2);
  // Singles first, then pairs; link-keyed aggregates only see the singles.
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(r.outcomes[i].scenario.links.size(), 1u);
  for (std::size_t i = n; i < r.outcomes.size(); ++i) {
    EXPECT_EQ(r.outcomes[i].scenario.links.size(), 2u);
  }
  // A ring survives any single failure but is partitioned by any two
  // non-adjacent failures, so the two-failure spec is strictly smaller.
  const FailureSweepResult singles = sweep_failures(rc, cfg, {});
  EXPECT_LT(r.fault_tolerant_pairs.size(), singles.fault_tolerant_pairs.size());
}

}  // namespace
}  // namespace rcfg::verify
