#include "verify/sweep_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "config/builders.h"
#include "routing/metrics.h"
#include "topo/generators.h"
#include "verify/failures.h"

namespace rcfg::verify {
namespace {

/// A verifier whose round budget is sized to the (unweighted) topology.
RealConfigOptions sized(const topo::Topology& t) {
  RealConfigOptions o;
  o.generator.max_rounds = routing::recommended_max_rounds(t);
  return o;
}

FailureSweepOptions opts(unsigned max_failures, bool prune, bool symmetry,
                         std::uint64_t budget = 0, unsigned threads = 1) {
  FailureSweepOptions o;
  o.max_failures = max_failures;
  o.prune = prune;
  o.symmetry = symmetry;
  o.budget = budget;
  o.threads = threads;
  return o;
}

/// Every aggregate field that must be bit-identical between an exhaustive
/// sweep and a reduced (pruned-with-full-coverage or symmetry-deduped) one.
void expect_same_aggregates(const FailureSweepResult& a, const FailureSweepResult& b) {
  EXPECT_EQ(a.healthy_pairs, b.healthy_pairs);
  EXPECT_EQ(a.fault_tolerant_pairs, b.fault_tolerant_pairs);
  EXPECT_EQ(a.critical_links, b.critical_links);
  EXPECT_EQ(a.policy_violations, b.policy_violations);
  EXPECT_EQ(a.loop_scenarios, b.loop_scenarios);
  EXPECT_EQ(a.diverged_links, b.diverged_links);
  EXPECT_EQ(a.diverged_scenarios, b.diverged_scenarios);
  EXPECT_EQ(a.scenarios, b.scenarios);
}

std::map<std::vector<topo::LinkId>, const ScenarioOutcome*> by_scenario(
    const FailureSweepResult& r) {
  std::map<std::vector<topo::LinkId>, const ScenarioOutcome*> out;
  for (const ScenarioOutcome& o : r.outcomes) out[o.scenario.links] = &o;
  return out;
}

TEST(SweepSpace, RelevanceConesOnAChain) {
  // Chain n0-0 -- n1-0 -- n2-0. A policy from n0-0 to n1-0 depends only on
  // link 0: the downstream cone of n0-0 for the policy EC never crosses
  // link 1, and no /31 link subnet overlaps the host /24 the policy names.
  const topo::Topology t = topo::make_grid(3, 1);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t, sized(t));
  rc.apply(cfg);
  rc.require_reachable("n0-0", "n1-0", config::host_prefix(t.find_node("n1-0")));

  FailureSweepOptions o = opts(1, /*prune=*/true, /*symmetry=*/false);
  const SweepSpace space(rc, cfg, o);
  EXPECT_TRUE(space.link_relevant(0));
  EXPECT_FALSE(space.link_relevant(1));
  EXPECT_EQ(space.relevant_links(), 1u);
  ASSERT_EQ(space.reps().size(), 1u);
  EXPECT_EQ(space.reps()[0].links, (std::vector<topo::LinkId>{0}));
  EXPECT_EQ(space.total_scenarios(), 2u);
  EXPECT_EQ(space.pruned_scenarios(), 1u);
  EXPECT_TRUE(space.exhausted());
}

TEST(SweepSpace, PrunedPolicyVerdictsMatchExhaustive) {
  // Full mesh m0..m3, policy m0 -> m1. Only link 0 (m0-m1) is relevant, so
  // the k<=3 space of 41 scenarios shrinks to the 16 touching link 0 — and
  // every policy verdict must still match the exhaustive sweep, including
  // the k=3 isolation scenarios that actually violate the policy.
  const topo::Topology t = topo::make_full_mesh(4);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t, sized(t));
  rc.apply(cfg);
  const PolicyId pid =
      rc.require_reachable("m0", "m1", config::host_prefix(t.find_node("m1")));

  const FailureSweepResult full = sweep_failures(rc, cfg, opts(3, false, false));
  const FailureSweepResult pruned = sweep_failures(rc, cfg, opts(3, true, false));

  // Accounting: everything is explored or pruned, nothing is lost.
  EXPECT_EQ(full.total_scenarios, 41u);
  EXPECT_EQ(full.explored_scenarios, 41u);
  EXPECT_EQ(pruned.total_scenarios, 41u);
  EXPECT_GT(pruned.pruned_scenarios, 0u);
  EXPECT_EQ(pruned.explored_scenarios + pruned.pruned_scenarios, pruned.total_scenarios);
  EXPECT_DOUBLE_EQ(pruned.coverage, 1.0);

  // The single-link policy aggregate is exact under pruning.
  EXPECT_EQ(full.policy_violations, pruned.policy_violations);

  // Outcome-level: every explored scenario reports verdicts identical to
  // its exhaustive counterpart; every pruned scenario was policy-silent in
  // the exhaustive sweep (the soundness claim, checked directly).
  const auto full_by = by_scenario(full);
  const auto pruned_by = by_scenario(pruned);
  bool saw_violation = false;
  for (const auto& [links, out] : pruned_by) {
    const auto it = full_by.find(links);
    ASSERT_NE(it, full_by.end());
    EXPECT_EQ(out->violated, it->second->violated);
    EXPECT_EQ(out->pairs_lost, it->second->pairs_lost);
    EXPECT_EQ(out->gained_loop, it->second->gained_loop);
    EXPECT_EQ(out->diverged, it->second->diverged);
    saw_violation = saw_violation || !out->violated.empty();
  }
  EXPECT_TRUE(saw_violation);  // the k=3 isolations must be in the kept set
  for (const auto& [links, out] : full_by) {
    if (pruned_by.count(links)) continue;
    EXPECT_TRUE(out->violated.empty()) << "pruned scenario flipped policy " << pid;
    EXPECT_FALSE(out->diverged);
  }

  // Pair mining under pruning covers a subset of scenarios, so its spec is
  // a superset of the exhaustive one (fewer lost-pair unions).
  EXPECT_TRUE(std::includes(pruned.fault_tolerant_pairs.begin(),
                            pruned.fault_tolerant_pairs.end(),
                            full.fault_tolerant_pairs.begin(),
                            full.fault_tolerant_pairs.end()));
}

TEST(SweepSpace, PruneWithoutPoliciesPrunesEverything) {
  const topo::Topology t = topo::make_full_mesh(4);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t, sized(t));
  rc.apply(cfg);

  const FailureSweepResult r = sweep_failures(rc, cfg, opts(2, true, false));
  EXPECT_EQ(r.explored_scenarios, 0u);
  EXPECT_EQ(r.pruned_scenarios, r.total_scenarios);
  EXPECT_EQ(r.total_scenarios, 21u);  // C(6,1) + C(6,2)
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  EXPECT_TRUE(r.outcomes.empty());
  // No scenario was verified, so the mined spec degenerates to healthy.
  EXPECT_EQ(r.fault_tolerant_pairs, r.healthy_pairs);
}

TEST(SweepSpace, SymmetryDedupIsBitIdenticalOnAFatTree) {
  // The empirical equivariance check: a symmetry-deduped sweep must equal
  // the exhaustive sweep field for field. Policy endpoints pin pods 0 and
  // 1; pods 2 and 3 are interchangeable, so 8 of the 32 single-link
  // scenarios are replayed instead of verified.
  const topo::Topology t = topo::make_fat_tree(4);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t, sized(t));
  rc.apply(cfg);
  rc.require_reachable("edge0-0", "edge1-0",
                       config::host_prefix(t.find_node("edge1-0")));

  const FailureSweepResult full = sweep_failures(rc, cfg, opts(1, false, false));
  const FailureSweepResult sym = sweep_failures(rc, cfg, opts(1, false, true));

  EXPECT_EQ(full.explored_scenarios, 32u);
  EXPECT_EQ(sym.explored_scenarios, 24u);
  EXPECT_EQ(sym.replayed_scenarios, 8u);
  EXPECT_DOUBLE_EQ(sym.coverage, 1.0);
  expect_same_aggregates(full, sym);

  // Replayed orbits are visible per-outcome: pod-2 links stand for their
  // pod-3 siblings.
  std::size_t covered = 0;
  for (const ScenarioOutcome& o : sym.outcomes) covered += o.orbit;
  EXPECT_EQ(covered, 32u);
}

TEST(SweepSpace, AsymmetricPodDropsOutOfItsClass) {
  // Perturb one interface cost in pod 3: the config walk must refuse the
  // pod-3 swaps, shrinking the interchangeable class to {1, 2} (the policy
  // pins pod 0) — and the deduped sweep must still match the exhaustive
  // sweep, which handles the asymmetric pod honestly.
  const topo::Topology t = topo::make_fat_tree(4);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  config::DeviceConfig& dev = cfg.devices.at("agg3-0");
  ASSERT_FALSE(dev.interfaces.empty());
  dev.interfaces.front().ospf_cost += 7;
  RealConfig rc(t, sized(t));
  rc.apply(cfg);
  rc.require_reachable("edge0-0", "edge0-1",
                       config::host_prefix(t.find_node("edge0-1")));

  const FailureSweepResult full = sweep_failures(rc, cfg, opts(1, false, false));
  const FailureSweepResult sym = sweep_failures(rc, cfg, opts(1, false, true));

  // Pods 1 and 2 dedup; pods 0 (pinned) and 3 (asymmetric) are verified.
  EXPECT_EQ(full.explored_scenarios, 32u);
  EXPECT_EQ(sym.explored_scenarios, 24u);
  EXPECT_EQ(sym.replayed_scenarios, 8u);
  expect_same_aggregates(full, sym);
}

TEST(SweepSpace, DeterministicAcrossThreadCounts) {
  const topo::Topology t = topo::make_grid(3, 2);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t, sized(t));
  rc.apply(cfg);
  rc.require_reachable("n0-0", "n2-1", config::host_prefix(t.find_node("n2-1")));

  std::vector<FailureSweepResult> runs;
  for (const unsigned threads : {1u, 2u, 4u}) {
    runs.push_back(sweep_failures(rc, cfg, opts(3, true, false, /*budget=*/10, threads)));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    expect_same_aggregates(runs[0], runs[i]);
    ASSERT_EQ(runs[0].outcomes.size(), runs[i].outcomes.size());
    for (std::size_t j = 0; j < runs[0].outcomes.size(); ++j) {
      EXPECT_EQ(runs[0].outcomes[j].scenario, runs[i].outcomes[j].scenario);
      EXPECT_EQ(runs[0].outcomes[j].violated, runs[i].outcomes[j].violated);
      EXPECT_EQ(runs[0].outcomes[j].pairs_lost, runs[i].outcomes[j].pairs_lost);
    }
    EXPECT_EQ(runs[0].explored_scenarios, runs[i].explored_scenarios);
    EXPECT_DOUBLE_EQ(runs[0].coverage, runs[i].coverage);
  }
  EXPECT_EQ(runs[0].explored_scenarios, 10u);
  EXPECT_LT(runs[0].coverage, 1.0);
}

TEST(SweepSpace, BudgetIsAPrefixOfThePriorityStream) {
  const topo::Topology t = topo::make_grid(3, 2);
  config::NetworkConfig cfg = config::build_ospf_network(t);
  RealConfig rc(t, sized(t));
  rc.apply(cfg);
  rc.require_reachable("n0-0", "n2-1", config::host_prefix(t.find_node("n2-1")));

  FailureSweepOptions small = opts(2, true, false, /*budget=*/4);
  FailureSweepOptions large = opts(2, true, false, /*budget=*/1000);
  const SweepSpace a(rc, cfg, small);
  const SweepSpace b(rc, cfg, large);
  ASSERT_EQ(a.reps().size(), 4u);
  EXPECT_FALSE(a.exhausted());
  EXPECT_TRUE(b.exhausted());
  for (std::size_t i = 0; i < a.reps().size(); ++i) {
    EXPECT_EQ(a.reps()[i], b.reps()[i]);
  }

  // Without a budget the stream keeps the historical link-id order.
  FailureSweepOptions plain = opts(2, false, false);
  const SweepSpace c(rc, cfg, plain);
  ASSERT_EQ(c.reps().size(), c.total_scenarios());
  const std::size_t n = t.link_count();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(c.reps()[i].links, (std::vector<topo::LinkId>{static_cast<topo::LinkId>(i)}));
  }
  EXPECT_EQ(c.reps()[n].links, (std::vector<topo::LinkId>{0, 1}));
}

}  // namespace
}  // namespace rcfg::verify
