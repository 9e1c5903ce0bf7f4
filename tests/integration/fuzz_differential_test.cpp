// Randomized differential fuzzing of the whole pipeline: random connected
// topologies, random protocol/ACL/static-route mixes, random change
// sequences — and independent oracles per step:
//
//   (1) the incremental generator's FIB equals the baseline simulator's
//       (different algorithms, so agreement pins both down);
//   (2) RealConfig lanes at threads 1, 2 and 4 produce semantically
//       identical reports (the parallel checker's determinism claim);
//   (3) every registered policy holds the same verdict in every lane;
//   (4) NetworkModel::permits() never takes its BDD fallback — the eager
//       permit_by_ec maintenance provably keeps worker threads away from
//       the non-thread-safe BddManager.
//   (5) the snapshot-fork what-if sweep (sharded over 2 workers, and
//       including links the configuration already has down) agrees
//       scenario-for-scenario with a from-scratch verifier built directly
//       on each failed configuration; and deep (max_failures=2) pruned sweeps
//       stay bit-identical to exhaustive sweeps over the same universe
//       wherever both looked — identical policy_violations, identical
//       outcomes for every explored scenario, violation-free exhaustive
//       counterparts for every scenario the pruner skipped, and closed
//       accounting (explored + replayed + pruned == total). A separate
//       fat-tree lane throws random asymmetries (costs, null routes,
//       ACLs) at the pod-symmetry admission check, which must either
//       replay correctly or refuse — never replay wrong.
//   (6) lanes running online memory reclamation (eager EC merging + BDD GC
//       after every batch) stay pair- and verdict-equivalent to the
//       non-reclaiming lanes at every step, are bit-identical across thread
//       counts among themselves, and finish the change sequence with
//       exactly as many ECs as a fresh rebuild of the final configuration
//       (merging reclaimed everything withdrawals left behind — and nothing
//       more);
//   (7) the relational checker's incremental fork-pair diff is bit-identical
//       to a brute-force comparison of EVERY fork EC against its base
//       ancestor, and bit-identical across thread counts; and update-order
//       synthesis agrees exactly with a ground truth built by evaluating
//       every placed SET on a scratch verifier (disjoint steps commute, so
//       an order is safe iff every prefix set is safe): a safe order exists
//       iff the synthesizer finds one, every returned order walks only safe
//       sets, and a claimed minimal blocking pair really has no size-1
//       alternative.
//   (8) packet-space backend equivalence: lanes moved onto BDDs at
//       construction, lanes on "auto" (interval atoms until a multi-field
//       predicate), and reclaiming auto lanes run the identical change
//       sequence — with a deterministic mid-run ACL injection that forces
//       the one-time interval->BDD migration — and EC partitions, policy
//       verdicts, and explain witnesses stay bit-identical across backends
//       and across thread counts {1, 2, 4}.
//   (9) replica rollback: a replica restored onto one snapshot again and
//       again (its dataflow state rolled back through the dd undo
//       journals) equals a fresh fork of that snapshot after the same
//       apply — FIB, EC partition, check report and every verdict — along
//       random change sequences and around the bad-gadget BGP
//       configuration, whose apply diverges mid-commit.
//  (10) in-place divergence recovery: random ISP churn on a BGP full mesh
//       with the bad gadget's dispute-wheel local-prefs injected at random
//       steps. A diverged apply leaves the FIB, EC ids, reachable pairs and
//       verdicts exactly as they were; a converged one equals a fresh
//       verifier's and the baseline's FIB; a replica fed only the converged
//       applies stays bit-identical to the primary; and a replica restoring
//       its base after a diverged apply equals a deep copy of that base.
//
// Change selection follows the uniquely-convergent rule from
// tests/routing/differential_test.cpp: link failures/restores, OSPF costs,
// local-pref at a single fixed node, and static null routes — BGP networks
// with arbitrary preference structures can have several legitimate
// converged states, which would make FIB disagreement a false alarm.
//
// Every iteration is seeded deterministically and the seed is in the trace,
// so any failure replays with a one-line filter. Tier-1 runs a bounded
// number of iterations; FUZZ_ITERS=200 (or more) widens the sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <optional>
#include <tuple>

#include "baseline/simulator.h"
#include "config/builders.h"
#include "core/rng.h"
#include "dd/graph.h"
#include "explain/explain.h"
#include "relate/order.h"
#include "relate/relate.h"
#include "routing/generator.h"
#include "topo/generators.h"
#include "verify/failures.h"
#include "verify/realconfig.h"

#include "../service/service_test_util.h"

namespace rcfg {
namespace {

unsigned fuzz_iters() {
  const char* v = std::getenv("FUZZ_ITERS");
  if (v == nullptr || *v == '\0') return 6;  // tier-1 budget
  const long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<unsigned>(parsed) : 6;
}

/// The semantic fields of a CheckResult (everything except the
/// observability-only Parallelism block), comparable across lanes.
struct Semantics {
  std::vector<dpm::EcId> ecs, lb, le, bb, be;
  std::vector<std::pair<topo::NodeId, topo::NodeId>> affected, changed;
  std::vector<std::pair<verify::PolicyId, bool>> events;

  static Semantics of(const verify::CheckResult& c) {
    Semantics s;
    s.ecs = c.affected_ecs;
    s.affected = c.affected_pairs;
    s.changed = c.changed_pairs;
    for (const verify::PolicyEvent& e : c.events) s.events.emplace_back(e.id, e.satisfied);
    s.lb = c.loops_begun;
    s.le = c.loops_ended;
    s.bb = c.blackholes_begun;
    s.be = c.blackholes_ended;
    return s;
  }
  bool operator==(const Semantics&) const = default;
};

/// One random change from the uniquely-convergent set (file header): fail
/// or restore a link, toggle a null route, re-cost an OSPF link, or flip
/// local-pref at the one fixed LP node (node 0). `failed` holds the links
/// the sequence has failed so far.
void random_change(core::Rng& rng, const topo::Topology& t, bool bgp,
                   config::NetworkConfig& cfg, std::vector<topo::LinkId>& failed) {
  const topo::NodeId lp_node = 0;
  const double dice = rng.next_double();
  if (dice < 0.35) {
    const auto l = static_cast<topo::LinkId>(rng.next_below(t.link_count()));
    config::fail_link(cfg, t, l);
    failed.push_back(l);
  } else if (dice < 0.55 && !failed.empty()) {
    const auto idx = rng.next_below(failed.size());
    config::restore_link(cfg, t, failed[idx]);
    failed.erase(failed.begin() + static_cast<std::ptrdiff_t>(idx));
  } else if (dice < 0.7) {
    const auto victim = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
    const auto holder = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
    auto& routes = cfg.devices.at(t.node(holder).name).static_routes;
    if (routes.empty()) {
      routes.push_back({config::host_prefix(victim), config::kNullInterface, 1});
    } else {
      routes.pop_back();
    }
  } else if (!bgp) {
    const auto l = static_cast<topo::LinkId>(rng.next_below(t.link_count()));
    const topo::Link& lk = t.link(l);
    config::set_ospf_cost(cfg, t.node(lk.a).name, t.iface(lk.a_iface).name,
                          static_cast<std::uint32_t>(rng.next_in(1, 100)));
  } else {
    const auto adj = t.adjacencies(lp_node);
    const auto& ifc = t.iface(adj[rng.next_below(adj.size())].iface).name;
    config::set_local_pref(cfg, t.node(lp_node).name, ifc,
                           rng.next_bool(0.5) ? 150u : config::kDefaultLocalPref);
  }
}

TEST(FuzzDifferential, RandomNetworksAgreeAcrossOraclesAndThreadCounts) {
  constexpr unsigned kLaneThreads[] = {1, 2, 4};
  const unsigned iters = fuzz_iters();

  for (unsigned iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = 0xF0550000ULL + iter;
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) + " (iteration " +
                 std::to_string(iter) + ")");
    core::Rng rng(seed);

    // --- random network ---------------------------------------------------
    const unsigned n = static_cast<unsigned>(rng.next_in(5, 12));
    const unsigned links = n - 1 + static_cast<unsigned>(rng.next_below(n));
    const topo::Topology t = topo::make_random_connected(n, links, rng);
    const bool bgp = rng.next_bool(0.4);
    config::NetworkConfig cfg =
        bgp ? config::build_bgp_network(t) : config::build_ospf_network(t);

    // A sprinkle of data-plane-only state: ACLs and discard routes don't
    // touch the FIB oracle but push the model/checker down the filter and
    // blackhole paths.
    if (rng.next_bool(0.5)) {
      const auto node = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      const auto adj = t.adjacencies(node);
      const auto& ifc = t.iface(adj[rng.next_below(adj.size())].iface).name;
      config::attach_random_acl(cfg, t, t.node(node).name, ifc, rng.next_bool(0.5),
                                static_cast<unsigned>(rng.next_in(1, 4)), rng);
    }
    if (rng.next_bool(0.3)) {
      const auto victim = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      const auto holder = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      cfg.devices.at(t.node(holder).name)
          .static_routes.push_back({config::host_prefix(victim), config::kNullInterface, 1});
    }

    // --- lanes ------------------------------------------------------------
    // Lanes [0, kReclaimBase) run plain; lanes [kReclaimBase, ...) run with
    // eager online reclamation (merge + GC after every batch), same thread
    // spread.
    std::vector<std::unique_ptr<verify::RealConfig>> lanes;
    for (const bool reclaim : {false, true}) {
      for (const unsigned threads : kLaneThreads) {
        verify::RealConfigOptions o;
        o.threads = threads;
        o.reclamation = reclaim;
        lanes.push_back(std::make_unique<verify::RealConfig>(t, o));
      }
    }
    const std::size_t kReclaimBase = std::size(kLaneThreads);

    struct PolicySpec {
      bool isolated;
      topo::NodeId src, dst;
    };
    std::vector<PolicySpec> policy_specs;
    std::vector<verify::PolicyId> policies;
    for (int p = 0; p < 4; ++p) {
      const auto src = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      auto dst = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      if (dst == src) dst = (dst + 1) % static_cast<topo::NodeId>(t.node_count());
      const bool isolated = rng.next_bool(0.25);
      verify::PolicyId id = 0;
      for (auto& lane : lanes) {
        id = isolated
                 ? lane->require_isolated(t.node(src).name, t.node(dst).name,
                                          config::host_prefix(dst))
                 : lane->require_reachable(t.node(src).name, t.node(dst).name,
                                           config::host_prefix(dst));
      }
      policy_specs.push_back({isolated, src, dst});
      policies.push_back(id);
    }
    // Registers the same policies, in the same order (so with the same ids),
    // on a from-scratch verifier.
    const auto register_policies = [&](verify::RealConfig& rc) {
      for (const PolicySpec& p : policy_specs) {
        if (p.isolated) {
          rc.require_isolated(t.node(p.src).name, t.node(p.dst).name,
                              config::host_prefix(p.dst));
        } else {
          rc.require_reachable(t.node(p.src).name, t.node(p.dst).name,
                               config::host_prefix(p.dst));
        }
      }
    };

    // --- initial apply + change sequence ----------------------------------
    std::vector<topo::LinkId> failed;
    for (int step = -1; step < 4; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      if (step >= 0) random_change(rng, t, bgp, cfg, failed);

      std::vector<Semantics> reports;
      for (auto& lane : lanes) reports.push_back(Semantics::of(lane->apply(cfg).check));

      // Oracle 2: thread-count invariance of the whole report, within each
      // reclamation setting (across settings EC ids legitimately renumber
      // after merges, so only oracle 6's pair/verdict comparison applies).
      for (std::size_t base : {std::size_t{0}, kReclaimBase}) {
        for (std::size_t i = 1; i < std::size(kLaneThreads); ++i) {
          EXPECT_TRUE(reports[base] == reports[base + i])
              << "report at threads=" << kLaneThreads[i] << " (reclaim="
              << (base == kReclaimBase) << ") differs from threads=1";
        }
      }
      // Oracle 3: identical verdicts everywhere.
      for (const verify::PolicyId id : policies) {
        for (std::size_t lane = 1; lane < lanes.size(); ++lane) {
          EXPECT_EQ(lanes[0]->checker().policy_satisfied(id),
                    lanes[lane]->checker().policy_satisfied(id))
              << "policy " << id << " verdict at threads=" << kLaneThreads[lane];
        }
      }
      // Oracle 1: the engine's FIB equals the independent baseline's.
      const baseline::SimulationResult sim = baseline::simulate(t, cfg);
      EXPECT_TRUE(lanes[0]->generator().fib() == sim.fib)
          << "engine FIB differs from baseline simulator";

      // Oracle 4: permits() never fell back to a live BDD query — the
      // permit_by_ec bitmaps stayed complete, so the checker's worker
      // threads provably never touched the non-thread-safe BddManager.
      for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
        EXPECT_EQ(lanes[lane]->model().permit_fallback_count(), 0u)
            << "permits() BDD fallback reached in lane " << lane;
      }

      // Oracle 6 (per step): the reclaiming lane's pair-level semantics and
      // anomaly counts match the non-reclaiming lane's despite the merges.
      EXPECT_EQ(lanes[kReclaimBase]->checker().reachable_pairs(),
                lanes[0]->checker().reachable_pairs());
      EXPECT_EQ(lanes[kReclaimBase]->checker().loop_count(),
                lanes[0]->checker().loop_count());
      EXPECT_EQ(lanes[kReclaimBase]->checker().blackhole_count(),
                lanes[0]->checker().blackhole_count());
      EXPECT_LE(lanes[kReclaimBase]->ecs().ec_count(), lanes[0]->ecs().ec_count());

      if (::testing::Test::HasFailure()) return;
    }

    // --- Oracle 6 (end of sequence): fresh-rebuild minimality -------------
    // A brand-new verifier over the final configuration (with the same
    // policies) has the coarsest partition the current predicates allow; a
    // churned-then-reclaimed lane must land on exactly that size.
    {
      verify::RealConfigOptions o;
      o.reclamation = true;
      verify::RealConfig rebuilt(t, o);
      register_policies(rebuilt);
      rebuilt.apply(cfg);
      EXPECT_EQ(lanes[kReclaimBase]->ecs().ec_count(), rebuilt.ecs().ec_count())
          << "reclaimed partition is not as small as a fresh rebuild's";
      EXPECT_EQ(lanes[kReclaimBase]->checker().reachable_pairs(),
                rebuilt.checker().reachable_pairs());
    }

    // --- Oracle 5: what-if sweep agreement --------------------------------
    // Sample the links the final configuration already has down (up to
    // two, first, so each lane runs another scenario after one of them)
    // plus the lowest-numbered links. The fork sweep, sharded over 2
    // workers, must agree scenario-for-scenario with a from-scratch
    // verifier built directly on each failed configuration.
    std::vector<topo::LinkId> sweep_links;
    for (const topo::LinkId l : failed) {
      if (sweep_links.size() < 2 &&
          std::find(sweep_links.begin(), sweep_links.end(), l) == sweep_links.end()) {
        sweep_links.push_back(l);
      }
    }
    for (topo::LinkId l = 0; l < t.link_count() && sweep_links.size() < 6; ++l) {
      if (std::find(sweep_links.begin(), sweep_links.end(), l) == sweep_links.end()) {
        sweep_links.push_back(l);
      }
    }
    verify::FailureSweepOptions sweep_options;
    for (const topo::LinkId l : sweep_links) {
      sweep_options.scenarios.push_back(verify::FailureScenario{{l}});
    }
    sweep_options.threads = 2;
    const verify::FailureSweepResult forked =
        verify::sweep_failures(*lanes[0], cfg, sweep_options);

    using Pair = std::pair<topo::NodeId, topo::NodeId>;
    const std::vector<Pair> healthy_pairs = lanes[0]->checker().reachable_pairs();
    std::set<Pair> survivors(healthy_pairs.begin(), healthy_pairs.end());
    std::vector<topo::LinkId> critical;
    ASSERT_EQ(forked.outcomes.size(), sweep_links.size());
    for (std::size_t i = 0; i < sweep_links.size(); ++i) {
      SCOPED_TRACE("sweep scenario " + std::to_string(i));
      const verify::ScenarioOutcome& b = forked.outcomes[i];
      EXPECT_EQ(b.scenario.links, std::vector<topo::LinkId>{sweep_links[i]});

      config::NetworkConfig scenario_cfg = cfg;
      config::fail_link(scenario_cfg, t, sweep_links[i]);
      verify::RealConfig scratch(t);
      register_policies(scratch);
      try {
        scratch.apply(scenario_cfg);
      } catch (const dd::NonterminationError&) {
        EXPECT_TRUE(b.diverged) << "scratch diverged, the fork sweep did not";
        continue;
      }
      EXPECT_FALSE(b.diverged);
      const std::vector<Pair> now = scratch.checker().reachable_pairs();
      std::vector<Pair> lost;
      std::set_difference(healthy_pairs.begin(), healthy_pairs.end(), now.begin(),
                          now.end(), std::back_inserter(lost));
      EXPECT_EQ(b.reachable_pairs, now.size());
      EXPECT_EQ(b.pairs_lost, lost.size());
      std::vector<verify::PolicyId> violated;
      for (const verify::PolicyId id : policies) {
        if (lanes[0]->checker().policy_satisfied(id) &&
            !scratch.checker().policy_satisfied(id)) {
          violated.push_back(id);
        }
      }
      EXPECT_EQ(b.violated, violated);
      EXPECT_EQ(b.gained_loop,
                scratch.checker().loop_count() > lanes[0]->checker().loop_count());
      for (const Pair& p : lost) survivors.erase(p);
      if (!lost.empty()) critical.push_back(sweep_links[i]);
    }
    std::sort(critical.begin(), critical.end());
    EXPECT_EQ(forked.fault_tolerant_pairs,
              std::vector<Pair>(survivors.begin(), survivors.end()));
    EXPECT_EQ(forked.critical_links, critical);

    // The fork sweep hands the verifier back untouched.
    EXPECT_EQ(lanes[0]->checker().reachable_pairs(), forked.healthy_pairs);

    // --- Oracle 5 (deep space): pruned vs exhaustive, same universe -------
    // max_failures=2 over the sampled links: dependency pruning may only
    // skip scenarios that cannot move a policy, and must say how many.
    verify::FailureSweepOptions deep;
    deep.links = sweep_links;
    deep.max_failures = 2;
    deep.threads = 2;
    const verify::FailureSweepResult deep_full =
        verify::sweep_failures(*lanes[0], cfg, deep);
    verify::FailureSweepOptions deep_prune = deep;
    deep_prune.prune = true;
    const verify::FailureSweepResult deep_red =
        verify::sweep_failures(*lanes[0], cfg, deep_prune);

    EXPECT_EQ(deep_full.total_scenarios, deep_red.total_scenarios);
    EXPECT_EQ(deep_red.explored_scenarios + deep_red.replayed_scenarios +
                  deep_red.pruned_scenarios,
              deep_red.total_scenarios);
    EXPECT_EQ(deep_red.coverage, 1.0);
    EXPECT_EQ(deep_full.policy_violations, deep_red.policy_violations);
    std::map<std::vector<topo::LinkId>, const verify::ScenarioOutcome*> deep_ref;
    for (const verify::ScenarioOutcome& o : deep_full.outcomes) {
      deep_ref.emplace(o.scenario.links, &o);
    }
    std::set<std::vector<topo::LinkId>> deep_kept;
    for (const verify::ScenarioOutcome& o : deep_red.outcomes) {
      SCOPED_TRACE("deep pruned scenario");
      deep_kept.insert(o.scenario.links);
      const auto it = deep_ref.find(o.scenario.links);
      ASSERT_NE(it, deep_ref.end()) << "pruned sweep explored an unknown scenario";
      EXPECT_EQ(o.diverged, it->second->diverged);
      EXPECT_EQ(o.reachable_pairs, it->second->reachable_pairs);
      EXPECT_EQ(o.pairs_lost, it->second->pairs_lost);
      EXPECT_EQ(o.violated, it->second->violated);
      EXPECT_EQ(o.gained_loop, it->second->gained_loop);
    }
    // Soundness of the skip: everything the pruner never ran is
    // violation-free in the exhaustive sweep.
    for (const verify::ScenarioOutcome& o : deep_full.outcomes) {
      if (deep_kept.count(o.scenario.links) == 0) {
        EXPECT_TRUE(o.violated.empty())
            << "the pruner skipped a policy-violating scenario";
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Oracle 5 (symmetry admission): random asymmetries on a fat tree
// ---------------------------------------------------------------------------

// Pod-symmetry dedup replays one representative's outcome across its orbit,
// so a single wrongly-admitted pod permutation silently corrupts replayed
// aggregates. This lane perturbs a fat tree with random cost tweaks, null
// routes, and ACLs (multi-field predicates force the BDD backend, reaching
// the support-query path of the admission check), then demands the reduced
// sweep still matches the exhaustive one exactly where the reductions
// promise: admission must shrink pod orbits rather than replay wrong.
TEST(FuzzDifferential, SymmetryAdmissionSurvivesRandomAsymmetries) {
  const unsigned iters = fuzz_iters();

  for (unsigned iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = 0xF0AA0000ULL + iter;
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) + " (iteration " +
                 std::to_string(iter) + ")");
    core::Rng rng(seed);

    const topo::Topology t = topo::make_fat_tree(4);
    config::NetworkConfig cfg = config::build_ospf_network(t);
    const unsigned mutations = static_cast<unsigned>(rng.next_below(3));
    for (unsigned m = 0; m < mutations; ++m) {
      const auto node = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      const auto adj = t.adjacencies(node);
      const auto& ifc = t.iface(adj[rng.next_below(adj.size())].iface).name;
      const double dice = rng.next_double();
      if (dice < 0.4) {
        config::set_ospf_cost(cfg, t.node(node).name, ifc,
                              static_cast<std::uint32_t>(rng.next_in(1, 100)));
      } else if (dice < 0.7) {
        const auto victim = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
        cfg.devices.at(t.node(node).name)
            .static_routes.push_back({config::host_prefix(victim), config::kNullInterface, 1});
      } else {
        config::attach_random_acl(cfg, t, t.node(node).name, ifc, rng.next_bool(0.5),
                                  static_cast<unsigned>(rng.next_in(1, 4)), rng);
      }
    }

    std::vector<topo::NodeId> edges;
    for (topo::NodeId n = 0; n < static_cast<topo::NodeId>(t.node_count()); ++n) {
      if (t.node(n).name.rfind("edge", 0) == 0) edges.push_back(n);
    }
    verify::RealConfig rc(t);
    for (int p = 0; p < 2; ++p) {
      const topo::NodeId src = edges[rng.next_below(edges.size())];
      topo::NodeId dst = edges[rng.next_below(edges.size())];
      if (dst == src) dst = edges[(rng.next_below(edges.size() - 1) + 1) % edges.size()];
      rc.require_reachable(t.node(src).name, t.node(dst).name, config::host_prefix(dst));
    }
    rc.apply(cfg);

    verify::FailureSweepOptions exhaustive;
    exhaustive.max_failures = 1;
    exhaustive.threads = 2;
    const verify::FailureSweepResult full = sweep_failures(rc, cfg, exhaustive);
    verify::FailureSweepOptions reduced_options = exhaustive;
    reduced_options.prune = true;
    reduced_options.symmetry = true;
    reduced_options.threads = 2;
    const verify::FailureSweepResult reduced = sweep_failures(rc, cfg, reduced_options);

    // Accounting closes exactly, and orbit widths cover what replay claims.
    EXPECT_EQ(full.total_scenarios, reduced.total_scenarios);
    EXPECT_EQ(reduced.explored_scenarios + reduced.replayed_scenarios +
                  reduced.pruned_scenarios,
              reduced.total_scenarios);
    EXPECT_EQ(reduced.coverage, 1.0);
    std::uint64_t covered = 0;
    for (const verify::ScenarioOutcome& o : reduced.outcomes) covered += o.orbit;
    EXPECT_EQ(covered, reduced.explored_scenarios + reduced.replayed_scenarios);

    // Policy verdicts are exact under both reductions; a wrongly-admitted
    // orbit would relabel violations onto the wrong links and break this.
    EXPECT_EQ(full.policy_violations, reduced.policy_violations);

    // Representatives agree field-for-field with their exhaustive runs.
    std::map<std::vector<topo::LinkId>, const verify::ScenarioOutcome*> ref;
    for (const verify::ScenarioOutcome& o : full.outcomes) ref.emplace(o.scenario.links, &o);
    for (const verify::ScenarioOutcome& o : reduced.outcomes) {
      const auto it = ref.find(o.scenario.links);
      ASSERT_NE(it, ref.end());
      EXPECT_EQ(o.diverged, it->second->diverged);
      EXPECT_EQ(o.reachable_pairs, it->second->reachable_pairs);
      EXPECT_EQ(o.pairs_lost, it->second->pairs_lost);
      EXPECT_EQ(o.violated, it->second->violated);
      EXPECT_EQ(o.gained_loop, it->second->gained_loop);
    }

    // Mined aggregates are coverage-limited under pruning, never invented:
    // the reduced fault-tolerant spec can only be coarser (a superset), and
    // every critical link or loop/divergence report must exist exhaustively.
    EXPECT_TRUE(std::includes(reduced.fault_tolerant_pairs.begin(),
                              reduced.fault_tolerant_pairs.end(),
                              full.fault_tolerant_pairs.begin(),
                              full.fault_tolerant_pairs.end()));
    EXPECT_TRUE(std::includes(full.critical_links.begin(), full.critical_links.end(),
                              reduced.critical_links.begin(),
                              reduced.critical_links.end()));
    EXPECT_TRUE(std::includes(full.loop_scenarios.begin(), full.loop_scenarios.end(),
                              reduced.loop_scenarios.begin(),
                              reduced.loop_scenarios.end()));
    EXPECT_TRUE(std::includes(full.diverged_links.begin(), full.diverged_links.end(),
                              reduced.diverged_links.begin(),
                              reduced.diverged_links.end()));
    if (::testing::Test::HasFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Oracle 7: relational diffing and update-order synthesis
// ---------------------------------------------------------------------------

/// Mutate exactly one device of `cfg` (static null route, IGP cost, local
/// pref, or a random ACL) — the building block for both the relate proposal
/// and the pairwise-disjoint order steps.
void mutate_device(config::NetworkConfig& cfg, const topo::Topology& t, topo::NodeId node,
                   bool bgp, core::Rng& rng) {
  const auto adj = t.adjacencies(node);
  const auto& ifc = t.iface(adj[rng.next_below(adj.size())].iface).name;
  const double dice = rng.next_double();
  if (dice < 0.35) {
    const auto victim = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
    cfg.devices.at(t.node(node).name)
        .static_routes.push_back({config::host_prefix(victim), config::kNullInterface, 1});
  } else if (dice < 0.6) {
    config::attach_random_acl(cfg, t, t.node(node).name, ifc, true,
                              static_cast<unsigned>(rng.next_in(1, 4)), rng);
  } else if (!bgp) {
    config::set_ospf_cost(cfg, t.node(node).name, ifc,
                          static_cast<std::uint32_t>(rng.next_in(1, 100)));
  } else {
    config::set_local_pref(cfg, t.node(node).name, ifc,
                           rng.next_bool(0.5) ? 150u : config::kDefaultLocalPref);
  }
}

/// The lane-comparable projection of an OrderResult (timings dropped).
struct OrderSemantics {
  bool found = false, minimal = false;
  std::vector<std::size_t> order, blocking;
  std::vector<std::tuple<std::size_t, bool, std::vector<verify::PolicyId>>> verdicts;
  std::size_t explored = 0;

  static OrderSemantics of(const relate::OrderResult& r) {
    OrderSemantics s;
    s.found = r.found;
    s.minimal = r.blocking_minimal;
    s.order = r.order;
    s.blocking = r.blocking;
    for (const relate::StepVerdict& v : r.verdicts) {
      s.verdicts.emplace_back(v.step, v.converged, v.violated);
    }
    s.explored = r.explored;
    return s;
  }
  bool operator==(const OrderSemantics&) const = default;
};

TEST(FuzzDifferential, RelationalDiffAndOrderSynthesisAgreeWithGroundTruth) {
  constexpr unsigned kLaneThreads[] = {1, 2, 4};
  constexpr std::size_t kSteps = 3;
  const unsigned iters = fuzz_iters();

  for (unsigned iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = 0xF0770000ULL + iter;
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) + " (iteration " +
                 std::to_string(iter) + ")");
    core::Rng rng(seed);

    const unsigned n = static_cast<unsigned>(rng.next_in(5, 10));
    const unsigned links = n - 1 + static_cast<unsigned>(rng.next_below(n));
    const topo::Topology t = topo::make_random_connected(n, links, rng);
    const bool bgp = rng.next_bool(0.3);
    config::NetworkConfig cfg =
        bgp ? config::build_bgp_network(t) : config::build_ospf_network(t);

    // Identical policy slates on every lane and on the ground-truth scratch.
    struct PolicySpec {
      bool isolated;
      topo::NodeId src, dst;
    };
    std::vector<PolicySpec> policy_specs;
    for (int p = 0; p < 4; ++p) {
      const auto src = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      auto dst = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      if (dst == src) dst = (dst + 1) % static_cast<topo::NodeId>(t.node_count());
      policy_specs.push_back({rng.next_bool(0.25), src, dst});
    }
    const auto register_policies = [&](verify::RealConfig& rc) {
      for (const PolicySpec& p : policy_specs) {
        if (p.isolated) {
          rc.require_isolated(t.node(p.src).name, t.node(p.dst).name,
                              config::host_prefix(p.dst));
        } else {
          rc.require_reachable(t.node(p.src).name, t.node(p.dst).name,
                               config::host_prefix(p.dst));
        }
      }
    };

    std::vector<std::unique_ptr<verify::RealConfig>> lanes;
    for (const unsigned threads : kLaneThreads) {
      verify::RealConfigOptions o;
      o.threads = threads;
      lanes.push_back(std::make_unique<verify::RealConfig>(t, o));
      register_policies(*lanes.back());
      lanes.back()->apply(cfg);
    }

    // --- Oracle 7a: incremental diff == brute force, lane-invariant -------
    config::NetworkConfig proposed = cfg;
    const auto mutated = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
    mutate_device(proposed, t, mutated, bgp, rng);

    std::vector<relate::RelationalSpec> specs;
    const auto allowed_dst = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
    specs.push_back({relate::RelationalSpec::Kind::kOnlyDstIn,
                     {config::host_prefix(allowed_dst)},
                     "confined"});
    specs.push_back({relate::RelationalSpec::Kind::kNone, {}, "frozen"});

    std::optional<relate::RelationalResult> first;
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      SCOPED_TRACE("relate lane threads=" + std::to_string(kLaneThreads[lane]));
      relate::RelationalChecker checker(*lanes[lane]);
      relate::RelationalResult r = checker.check(proposed, specs);
      // The diff the affected-set walk produced is exactly what comparing
      // EVERY fork EC produces: the unexamined ECs really were identical.
      const relate::RelationalDiff brute = relate::relational_diff_bruteforce(
          *lanes[lane], checker.changed(), checker.base_of());
      EXPECT_EQ(r.diff, brute);
      if (!first.has_value()) {
        first = std::move(r);
        continue;
      }
      // Bit-identical across thread counts: same ECs, ports, pairs, flags,
      // same violating EC sets, same witness flows.
      EXPECT_EQ(r.diff, first->diff);
      EXPECT_EQ(r.holds, first->holds);
      ASSERT_EQ(r.violations.size(), first->violations.size());
      for (std::size_t v = 0; v < r.violations.size(); ++v) {
        EXPECT_EQ(r.violations[v].spec, first->violations[v].spec);
        EXPECT_EQ(r.violations[v].ecs, first->violations[v].ecs);
        ASSERT_EQ(r.violations[v].witness.has_value(),
                  first->violations[v].witness.has_value());
        if (r.violations[v].witness.has_value()) {
          EXPECT_EQ(r.violations[v].witness->flow, first->violations[v].witness->flow);
          EXPECT_EQ(r.violations[v].witness->ingress,
                    first->violations[v].witness->ingress);
        }
      }
    }
    if (::testing::Test::HasFailure()) return;

    // --- Oracle 7b: order synthesis vs placed-set ground truth ------------
    // kSteps pairwise-disjoint single-device steps.
    std::vector<topo::NodeId> devices;
    while (devices.size() < kSteps) {
      const auto d = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      if (std::find(devices.begin(), devices.end(), d) == devices.end()) {
        devices.push_back(d);
      }
    }
    std::vector<relate::UpdateStep> steps;
    for (std::size_t i = 0; i < kSteps; ++i) {
      config::NetworkConfig scratch_cfg = cfg;
      mutate_device(scratch_cfg, t, devices[i], bgp, rng);
      relate::UpdateStep step;
      step.name = "step-" + std::to_string(i);
      step.patch.devices[t.node(devices[i]).name] =
          scratch_cfg.devices.at(t.node(devices[i]).name);
      steps.push_back(std::move(step));
    }
    const auto compose = [&](std::uint64_t mask) {
      config::NetworkConfig c = cfg;
      for (std::size_t i = 0; i < kSteps; ++i) {
        if (!(mask & (std::uint64_t{1} << i))) continue;
        for (const auto& [device, dev_cfg] : steps[i].patch.devices) {
          c.devices[device] = dev_cfg;
        }
      }
      return c;
    };

    // Ground truth: disjoint steps commute, so an order is safe iff every
    // prefix SET is safe — evaluate all 2^kSteps sets on a scratch verifier.
    verify::RealConfig scratch(t);
    register_policies(scratch);
    scratch.apply(cfg);
    std::vector<verify::PolicyId> watched;
    for (verify::PolicyId id = 0; id < scratch.checker().policy_count(); ++id) {
      if (scratch.checker().policy_satisfied(id)) watched.push_back(id);
    }
    const auto snap = scratch.snapshot();
    std::vector<bool> safe(std::size_t{1} << kSteps, true);  // safe[0]: base holds
    for (std::uint64_t mask = 1; mask < safe.size(); ++mask) {
      scratch.restore(*snap);
      try {
        scratch.apply(compose(mask));
        for (const verify::PolicyId id : watched) {
          if (!scratch.checker().policy_satisfied(id)) safe[mask] = false;
        }
      } catch (const dd::NonterminationError&) {
        safe[mask] = false;  // a non-converging placement is unsafe
      }
    }
    // A safe chain from `from` to the full `allowed` set exists?
    const auto chain_exists = [&](std::uint64_t allowed) {
      std::vector<bool> reach(safe.size(), false);
      reach[0] = true;
      for (std::uint64_t mask = 0; mask < safe.size(); ++mask) {
        if (!reach[mask]) continue;
        if (mask == allowed) return true;
        for (std::size_t s = 0; s < kSteps; ++s) {
          const std::uint64_t next = mask | (std::uint64_t{1} << s);
          if ((allowed & (std::uint64_t{1} << s)) && next != mask && safe[next]) {
            reach[next] = true;
          }
        }
      }
      return false;
    };
    const std::uint64_t full = (std::uint64_t{1} << kSteps) - 1;

    std::optional<OrderSemantics> first_order;
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      SCOPED_TRACE("order lane threads=" + std::to_string(kLaneThreads[lane]));
      relate::UpdateOrderSynthesizer synth(*lanes[lane], cfg);
      const relate::OrderResult r = synth.synthesize(steps);

      // Sound and complete on the full set: found-with-no-blocking iff a
      // safe chain exists.
      EXPECT_EQ(r.found && r.blocking.empty(), chain_exists(full));
      if (r.found) {
        // Every prefix of the returned order is a safe placed set.
        std::uint64_t mask = 0;
        for (const std::size_t s : r.order) {
          mask |= std::uint64_t{1} << s;
          EXPECT_TRUE(safe[mask]) << "order walks through unsafe set " << mask;
        }
        std::uint64_t excluded = 0;
        for (const std::size_t s : r.blocking) excluded |= std::uint64_t{1} << s;
        EXPECT_EQ(mask, full & ~excluded);
        for (const relate::StepVerdict& v : r.verdicts) {
          EXPECT_TRUE(v.converged);
          EXPECT_TRUE(v.violated.empty());
        }
      }
      if (!r.blocking.empty()) {
        // The exclusion really unblocks the remainder...
        EXPECT_TRUE(chain_exists(full & ~[&] {
          std::uint64_t e = 0;
          for (const std::size_t s : r.blocking) e |= std::uint64_t{1} << s;
          return e;
        }()));
        // ...and a claimed-minimal pair has no single-step alternative.
        if (r.blocking_minimal && r.blocking.size() == 2) {
          for (std::size_t s = 0; s < kSteps; ++s) {
            EXPECT_FALSE(chain_exists(full & ~(std::uint64_t{1} << s)));
          }
        }
      }

      if (!first_order.has_value()) {
        first_order = OrderSemantics::of(r);
      } else {
        EXPECT_TRUE(OrderSemantics::of(r) == *first_order)
            << "order synthesis differs across thread counts";
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Oracle 8: packet-space backend equivalence under forced migration
// ---------------------------------------------------------------------------

TEST(FuzzDifferential, BackendsAgreeAcrossMigrationAndThreadCounts) {
  constexpr unsigned kLaneThreads[] = {1, 2, 4};
  constexpr int kAclStep = 1;  // deterministic mid-run migration trigger
  const unsigned iters = fuzz_iters();

  for (unsigned iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = 0xF0880000ULL + iter;
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) + " (iteration " +
                 std::to_string(iter) + ")");
    core::Rng rng(seed);

    const unsigned n = static_cast<unsigned>(rng.next_in(5, 12));
    const unsigned links = n - 1 + static_cast<unsigned>(rng.next_below(n));
    const topo::Topology t = topo::make_random_connected(n, links, rng);
    const bool bgp = rng.next_bool(0.4);
    // No ACLs in the base configuration: the auto lanes must provably run on
    // interval atoms until kAclStep injects the first multi-field predicate.
    config::NetworkConfig cfg =
        bgp ? config::build_bgp_network(t) : config::build_ospf_network(t);

    // Lanes [0, 6): {bdd, auto} x threads {1,2,4}, no reclamation — these
    // must be bit-identical in EVERY field, EC ids included (identical split
    // sequences produce identical ids on both backends). The bdd lanes
    // migrate right after construction, before their first apply. Lanes
    // [6, 9): auto with eager reclamation, compared like oracle 6's reclaim
    // lanes.
    std::vector<std::unique_ptr<verify::RealConfig>> lanes;
    std::vector<int> migrations;  // per-lane migration-listener fire count
    const auto add_lane = [&](bool bdd, bool reclaim, unsigned threads) {
      verify::RealConfigOptions o;
      o.threads = threads;
      o.reclamation = reclaim;
      lanes.push_back(std::make_unique<verify::RealConfig>(t, o));
      migrations.push_back(0);
      const std::size_t lane_idx = migrations.size() - 1;
      lanes.back()->packet_space().subscribe_migration(
          [&migrations, lane_idx] { ++migrations[lane_idx]; });
      if (bdd) lanes.back()->packet_space().migrate_to_bdd();
    };
    for (const bool bdd : {true, false}) {
      for (const unsigned threads : kLaneThreads) add_lane(bdd, false, threads);
    }
    for (const unsigned threads : kLaneThreads) add_lane(false, true, threads);
    const std::size_t kAutoBase = std::size(kLaneThreads);
    const std::size_t kReclaimBase = 2 * std::size(kLaneThreads);

    std::vector<verify::PolicyId> policies;
    for (int p = 0; p < 4; ++p) {
      const auto src = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      auto dst = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      if (dst == src) dst = (dst + 1) % static_cast<topo::NodeId>(t.node_count());
      const bool isolated = rng.next_bool(0.25);
      verify::PolicyId id = 0;
      for (auto& lane : lanes) {
        id = isolated
                 ? lane->require_isolated(t.node(src).name, t.node(dst).name,
                                          config::host_prefix(dst))
                 : lane->require_reachable(t.node(src).name, t.node(dst).name,
                                           config::host_prefix(dst));
      }
      policies.push_back(id);
    }

    std::vector<topo::LinkId> failed;
    for (int step = -1; step < 4; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      if (step == kAclStep) {
        // The forced migration point: the first multi-field predicate of the
        // run. Every lane sees the identical ACL.
        const auto node = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
        const auto adj = t.adjacencies(node);
        const auto& ifc = t.iface(adj[rng.next_below(adj.size())].iface).name;
        config::attach_random_acl(cfg, t, t.node(node).name, ifc, rng.next_bool(0.5),
                                  static_cast<unsigned>(rng.next_in(1, 4)), rng);
      } else if (step >= 0) {
        random_change(rng, t, bgp, cfg, failed);
      }

      std::vector<Semantics> reports;
      for (auto& lane : lanes) reports.push_back(Semantics::of(lane->apply(cfg).check));

      // Backend state: auto lanes run interval atoms strictly before the ACL
      // step and BDDs (after exactly one migration) from it onwards; bdd
      // lanes never migrate again after their migration at construction.
      for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
        const bool bdd_lane = lane < kAutoBase;
        const dpm::PacketSpace& space = lanes[lane]->packet_space();
        if (bdd_lane) {
          EXPECT_EQ(space.active_backend(), dpm::BackendKind::kBdd);
          EXPECT_EQ(migrations[lane], 1) << "lane " << lane;
        } else if (step < kAclStep) {
          EXPECT_EQ(space.active_backend(), dpm::BackendKind::kInterval)
              << "lane " << lane;
          EXPECT_EQ(migrations[lane], 0) << "lane " << lane;
        } else {
          EXPECT_EQ(space.active_backend(), dpm::BackendKind::kBdd) << "lane " << lane;
          EXPECT_TRUE(space.migrated()) << "lane " << lane;
          EXPECT_EQ(migrations[lane], 1) << "lane " << lane;
        }
      }

      // Full-report bit-identity across every non-reclaim lane: both
      // backends, all thread counts — EC ids and all.
      for (std::size_t lane = 1; lane < kReclaimBase; ++lane) {
        EXPECT_TRUE(reports[0] == reports[lane])
            << "lane " << lane << " report differs from bdd threads=1";
      }
      // Reclaim lanes: bit-identical among themselves, verdict/pair-level
      // equivalent to the rest (EC ids legitimately renumber after merges).
      for (std::size_t i = 1; i < std::size(kLaneThreads); ++i) {
        EXPECT_TRUE(reports[kReclaimBase] == reports[kReclaimBase + i])
            << "reclaim-auto lane threads=" << kLaneThreads[i] << " differs";
      }
      EXPECT_EQ(lanes[kReclaimBase]->checker().reachable_pairs(),
                lanes[0]->checker().reachable_pairs());

      // Identical verdicts and identical explain answers everywhere. The
      // witness comparison is the sharp end: same witness EC id, same
      // concrete packet — pick_one agrees bit for bit across backends.
      for (const verify::PolicyId id : policies) {
        const explain::Explanation ref = explain::explain_policy(*lanes[0], id, nullptr);
        for (std::size_t lane = 1; lane < lanes.size(); ++lane) {
          SCOPED_TRACE("policy " + std::to_string(id) + " lane " + std::to_string(lane));
          EXPECT_EQ(lanes[0]->checker().policy_satisfied(id),
                    lanes[lane]->checker().policy_satisfied(id));
          const explain::Explanation e = explain::explain_policy(*lanes[lane], id, nullptr);
          EXPECT_EQ(e.satisfied, ref.satisfied);
          EXPECT_EQ(e.has_witness, ref.has_witness);
          if (lane < kReclaimBase) {
            EXPECT_EQ(e.witness_ec, ref.witness_ec);
            EXPECT_EQ(e.witness, ref.witness);
          }
        }
      }

      // permits() never fell back to a live BDD query in any lane, on either
      // backend, before or after migration.
      for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
        EXPECT_EQ(lanes[lane]->model().permit_fallback_count(), 0u)
            << "permits() BDD fallback reached in lane " << lane;
      }

      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle 9: a rolled-back replica equals a fresh fork
// ---------------------------------------------------------------------------

/// Oracle 9's comparison: everything a verifier reports after an apply.
void expect_same_verifier(verify::RealConfig& replica, verify::RealConfig& fresh,
                          const std::vector<verify::PolicyId>& policies) {
  EXPECT_TRUE(replica.generator().fib() == fresh.generator().fib()) << "FIB differs";
  ASSERT_EQ(replica.ecs().ec_count(), fresh.ecs().ec_count());
  for (dpm::EcId ec = 0; ec < replica.ecs().ec_count(); ++ec) {
    EXPECT_EQ(replica.ecs().ec_bdd(ec), fresh.ecs().ec_bdd(ec)) << "EC " << ec;
  }
  EXPECT_EQ(replica.checker().reachable_pairs(), fresh.checker().reachable_pairs());
  EXPECT_EQ(replica.checker().loop_count(), fresh.checker().loop_count());
  EXPECT_EQ(replica.checker().blackhole_count(), fresh.checker().blackhole_count());
  for (const verify::PolicyId id : policies) {
    EXPECT_EQ(replica.checker().policy_satisfied(id), fresh.checker().policy_satisfied(id))
        << "policy " << id;
  }
}

TEST(FuzzDifferential, RolledBackReplicaMatchesFreshFork) {
  const unsigned iters = fuzz_iters();
  for (unsigned iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = 0xF0990000ULL + iter;
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) + " (iteration " +
                 std::to_string(iter) + ")");
    core::Rng rng(seed);

    const unsigned n = static_cast<unsigned>(rng.next_in(5, 12));
    const unsigned links = n - 1 + static_cast<unsigned>(rng.next_below(n));
    const topo::Topology t = topo::make_random_connected(n, links, rng);
    const bool bgp = rng.next_bool(0.4);
    config::NetworkConfig cfg =
        bgp ? config::build_bgp_network(t) : config::build_ospf_network(t);
    if (rng.next_bool(0.5)) {
      const auto node = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      const auto adj = t.adjacencies(node);
      const auto& ifc = t.iface(adj[rng.next_below(adj.size())].iface).name;
      config::attach_random_acl(cfg, t, t.node(node).name, ifc, rng.next_bool(0.5),
                                static_cast<unsigned>(rng.next_in(1, 4)), rng);
    }

    verify::RealConfig rc(t);
    std::vector<verify::PolicyId> policies;
    for (int p = 0; p < 4; ++p) {
      const auto src = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      auto dst = static_cast<topo::NodeId>(rng.next_below(t.node_count()));
      if (dst == src) dst = (dst + 1) % static_cast<topo::NodeId>(t.node_count());
      policies.push_back(rng.next_bool(0.25)
                             ? rc.require_isolated(t.node(src).name, t.node(dst).name,
                                                   config::host_prefix(dst))
                             : rc.require_reachable(t.node(src).name, t.node(dst).name,
                                                    config::host_prefix(dst)));
    }
    rc.apply(cfg);
    const auto snap = rc.snapshot();
    const std::unique_ptr<verify::RealConfig> replica = rc.fork(*snap);

    // Each step moves the scenario one random change further from the
    // snapshot; the replica returns to the snapshot before every apply.
    config::NetworkConfig scenario = cfg;
    std::vector<topo::LinkId> failed;
    for (int step = 0; step < 6; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      random_change(rng, t, bgp, scenario, failed);
      replica->restore(*snap);
      const Semantics rolled = Semantics::of(replica->apply(scenario).check);
      const std::unique_ptr<verify::RealConfig> fresh = rc.fork(*snap);
      const Semantics forked = Semantics::of(fresh->apply(scenario).check);
      EXPECT_TRUE(rolled == forked) << "check report differs from a fresh fork's";
      expect_same_verifier(*replica, *fresh, policies);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(FuzzDifferential, RolledBackReplicaRecoversFromDivergence) {
  const topo::Topology t = topo::make_full_mesh(4);
  const config::NetworkConfig healthy = config::build_bgp_network(t);
  const config::NetworkConfig gadget = service::testutil::bad_gadget(t);
  verify::RealConfig rc(t);
  std::vector<verify::PolicyId> policies;
  for (unsigned i = 1; i <= 3; ++i) {
    policies.push_back(rc.require_reachable("m" + std::to_string(i), "m0",
                                            config::host_prefix(t.find_node("m0"))));
  }
  rc.apply(healthy);
  const auto snap = rc.snapshot();
  const std::unique_ptr<verify::RealConfig> replica = rc.fork(*snap);

  // Alternate diverging applies with converging ones; every converging
  // apply starts from a rollback out of a commit that threw.
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    SCOPED_TRACE("link " + std::to_string(l));
    replica->restore(*snap);
    EXPECT_THROW(replica->apply(gadget), dd::NonterminationError);
    replica->restore(*snap);
    config::NetworkConfig scenario = healthy;
    config::fail_link(scenario, t, l);
    const Semantics rolled = Semantics::of(replica->apply(scenario).check);
    const std::unique_ptr<verify::RealConfig> fresh = rc.fork(*snap);
    const Semantics forked = Semantics::of(fresh->apply(scenario).check);
    EXPECT_TRUE(rolled == forked) << "check report differs from a fresh fork's";
    expect_same_verifier(*replica, *fresh, policies);
    if (::testing::Test::HasFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Oracle 10: a diverged apply changes nothing
// ---------------------------------------------------------------------------

/// What a diverged apply must leave untouched: the FIB, the EC partition
/// (ids and predicates), the reachable pairs and every verdict.
struct VerifierState {
  dd::ZSet<routing::FibEntry> fib;
  std::vector<dpm::BddRef> ecs;
  std::vector<std::pair<topo::NodeId, topo::NodeId>> pairs;
  std::vector<bool> verdicts;

  static VerifierState of(verify::RealConfig& rc,
                          const std::vector<verify::PolicyId>& policies) {
    VerifierState s;
    s.fib = rc.generator().fib();
    for (dpm::EcId ec = 0; ec < rc.ecs().ec_count(); ++ec) s.ecs.push_back(rc.ecs().ec_bdd(ec));
    s.pairs = rc.checker().reachable_pairs();
    for (const verify::PolicyId id : policies) {
      s.verdicts.push_back(rc.checker().policy_satisfied(id));
    }
    return s;
  }
  bool operator==(const VerifierState&) const = default;
};

TEST(FuzzDifferential, DivergedApplyLeavesVerifierUnchanged) {
  const unsigned iters = fuzz_iters();
  const topo::Topology t = topo::make_full_mesh(4);
  const net::Ipv4Prefix m0 = config::host_prefix(t.find_node("m0"));
  // Registered in the same order everywhere, so PolicyIds line up.
  const auto with_policies = [&](verify::RealConfig& rc) {
    std::vector<verify::PolicyId> ids;
    for (unsigned i = 1; i <= 3; ++i) {
      ids.push_back(rc.require_reachable("m" + std::to_string(i), "m0", m0));
    }
    ids.push_back(rc.require_isolated("m0", "m2", config::isp_extra_prefix(t.find_node("m2"))));
    return ids;
  };
  unsigned diverged = 0;
  unsigned converged = 0;
  for (unsigned iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = 0xF1000000ULL + iter;
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) + " (iteration " +
                 std::to_string(iter) + ")");
    core::Rng rng(seed);

    config::NetworkConfig cfg = config::build_bgp_network(t);
    verify::RealConfig rc(t);
    const std::vector<verify::PolicyId> policies = with_policies(rc);
    rc.apply(cfg);
    const auto base = rc.snapshot();
    // `lane` follows the converged applies only, as a service replica does;
    // `roller` returns to the base before every apply, as a sweep lane does.
    const std::unique_ptr<verify::RealConfig> lane = rc.fork(*base);
    const std::unique_ptr<verify::RealConfig> roller = rc.fork(*base);

    for (int step = 0; step < 12; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      config::NetworkConfig next = cfg;
      if (rng.next_bool(0.3)) {
        config::set_local_pref(next, "m1", "to-m2", 200);
        config::set_local_pref(next, "m2", "to-m3", 200);
        config::set_local_pref(next, "m3", "to-m1", 200);
      } else {
        config::isp_route_churn_step(next, t, rng);
      }

      const VerifierState before = VerifierState::of(rc, policies);
      bool ok = true;
      try {
        rc.apply(next);
      } catch (const dd::NonterminationError&) {
        ok = false;
      }
      roller->restore(*base);
      EXPECT_EQ(ok, [&] {
        try {
          roller->apply(next);
          return true;
        } catch (const dd::NonterminationError&) {
          return false;
        }
      }()) << "the primary and a replica disagree on convergence";

      if (!ok) {
        ++diverged;
        EXPECT_TRUE(VerifierState::of(rc, policies) == before)
            << "a diverged apply changed the primary";
        roller->restore(*base);
        const std::unique_ptr<verify::RealConfig> deep = rc.fork(*base);
        expect_same_verifier(*roller, *deep, policies);
      } else {
        ++converged;
        cfg = next;
        verify::RealConfig fresh(t);
        with_policies(fresh);
        fresh.apply(cfg);
        EXPECT_TRUE(rc.generator().fib() == fresh.generator().fib()) << "FIB differs";
        EXPECT_EQ(rc.checker().reachable_pairs(), fresh.checker().reachable_pairs());
        for (const verify::PolicyId id : policies) {
          EXPECT_EQ(rc.checker().policy_satisfied(id), fresh.checker().policy_satisfied(id))
              << "policy " << id;
        }
        EXPECT_TRUE(rc.generator().fib() == baseline::simulate(t, cfg).fib)
            << "engine FIB differs from baseline simulator";
        lane->apply(cfg);
        expect_same_verifier(*lane, rc, policies);
        const std::unique_ptr<verify::RealConfig> forked = rc.fork(*base);
        forked->apply(cfg);
        expect_same_verifier(*roller, *forked, policies);
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  // Both branches ran: the oracle is not vacuous.
  EXPECT_GT(diverged, 0u);
  EXPECT_GT(converged, 0u);
}

}  // namespace
}  // namespace rcfg
