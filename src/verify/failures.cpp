#include "verify/failures.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_set>

#include "config/builders.h"
#include "core/worker_pool.h"
#include "verify/sweep_space.h"

namespace rcfg::verify {

namespace {

using Pair = std::pair<topo::NodeId, topo::NodeId>;

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Everything a scenario's verdicts are compared against.
struct HealthyBaseline {
  std::vector<Pair> pairs;              ///< sorted
  std::size_t loops = 0;
  std::vector<PolicyId> watched;        ///< policies satisfied on the healthy net

  static HealthyBaseline of(RealConfig& rc) {
    HealthyBaseline base;
    base.pairs = rc.checker().reachable_pairs();
    base.loops = rc.checker().loop_count();
    for (PolicyId id = 0; id < rc.checker().policy_count(); ++id) {
      if (rc.checker().policy_satisfied(id)) base.watched.push_back(id);
    }
    return base;
  }
};

/// Read a successfully verified scenario's verdicts off a verifier.
/// `lost_out` receives the healthy pairs unreachable under the scenario
/// (sorted) — the only per-scenario pair state the merge needs, and small
/// enough to relabel cheaply during symmetry replay.
void read_outcome(RealConfig& rc, const HealthyBaseline& base, ScenarioOutcome& out,
                  std::vector<Pair>& lost_out) {
  const std::vector<Pair> now = rc.checker().reachable_pairs();
  out.reachable_pairs = now.size();
  lost_out.clear();
  std::set_difference(base.pairs.begin(), base.pairs.end(), now.begin(), now.end(),
                      std::back_inserter(lost_out));
  out.pairs_lost = lost_out.size();
  for (const PolicyId id : base.watched) {
    if (!rc.checker().policy_satisfied(id)) out.violated.push_back(id);
  }
  out.gained_loop = rc.checker().loop_count() > base.loops;
}

/// Pair-set accumulation across scenarios. The mined fault-tolerant spec is
/// healthy minus the union of every scenario's lost set — identical to the
/// historical per-scenario intersection, but replayable: an orbit member
/// contributes its (relabeled) lost set without materializing a full
/// reachable-pair vector.
struct MergeState {
  std::unordered_set<std::uint64_t> lost_union;

  static std::uint64_t key(const Pair& p) {
    return (std::uint64_t{p.first} << 32) | p.second;
  }
};

/// Fold one scenario into the sweep aggregates. Link-keyed aggregate fields
/// only see single-link scenarios; `lost` must match `out.pairs_lost`.
void merge_outcome(FailureSweepResult& result, MergeState& ms, const ScenarioOutcome& out,
                   const std::vector<Pair>& lost) {
  ++result.scenarios;
  const bool single = out.scenario.links.size() == 1;
  if (out.diverged) {
    if (single) result.diverged_links.push_back(out.scenario.links.front());
    result.diverged_scenarios.push_back(out.scenario);
    return;
  }
  for (const Pair& p : lost) ms.lost_union.insert(MergeState::key(p));

  if (!single) return;
  const topo::LinkId link = out.scenario.links.front();
  if (out.pairs_lost > 0) result.critical_links.push_back(link);
  for (const PolicyId id : out.violated) result.policy_violations[id].push_back(link);
  if (out.gained_loop) result.loop_scenarios.push_back(link);
}

/// Derive the final pair spec and put every aggregate into canonical
/// (sorted) order, so pruned/deduplicated sweeps compare bit-identical to
/// exhaustive ones regardless of merge order.
void finalize(FailureSweepResult& result, const MergeState& ms) {
  result.fault_tolerant_pairs.clear();
  for (const Pair& p : result.healthy_pairs) {
    if (!ms.lost_union.count(MergeState::key(p))) result.fault_tolerant_pairs.push_back(p);
  }
  std::sort(result.critical_links.begin(), result.critical_links.end());
  std::sort(result.loop_scenarios.begin(), result.loop_scenarios.end());
  std::sort(result.diverged_links.begin(), result.diverged_links.end());
  for (auto& [id, links] : result.policy_violations) std::sort(links.begin(), links.end());
  std::sort(result.diverged_scenarios.begin(), result.diverged_scenarios.end(),
            [](const FailureScenario& a, const FailureScenario& b) {
              return a.links < b.links;
            });
}

/// Undo a scenario's fail_link edits on `cfg` by copying the touched
/// interfaces' shutdown flags back from `healthy`. config::restore_link
/// would instead bring up a link that `healthy` itself has down, leaking
/// that link into every later scenario on the lane.
void reset_links(config::NetworkConfig& cfg, const config::NetworkConfig& healthy,
                 const topo::Topology& topo, const std::vector<topo::LinkId>& links) {
  for (const topo::LinkId l : links) {
    const topo::Link& lk = topo.link(l);
    for (const auto& [node, iface] :
         {std::pair{lk.a, lk.a_iface}, std::pair{lk.b, lk.b_iface}}) {
      const std::string& device = topo.node(node).name;
      const std::string& name = topo.iface(iface).name;
      cfg.devices.at(device).find_interface(name)->shutdown =
          healthy.devices.at(device).find_interface(name)->shutdown;
    }
  }
}

void normalize(FailureScenario& s) {
  std::sort(s.links.begin(), s.links.end());
  s.links.erase(std::unique(s.links.begin(), s.links.end()), s.links.end());
}

}  // namespace

FailureSweepResult sweep_failures(RealConfig& rc, const config::NetworkConfig& healthy,
                                  const FailureSweepOptions& options) {
  const topo::Topology& topo = rc.topology();

  const Timer sweep_timer;
  FailureSweepResult result;
  const HealthyBaseline base = HealthyBaseline::of(rc);
  result.healthy_pairs = base.pairs;

  std::vector<FailureScenario> scens;
  std::unique_ptr<SweepSpace> space;
  if (!options.scenarios.empty()) {
    // Explicit scenarios run verbatim (normalized to the sorted-unique
    // invariant); pruning/symmetry/budget apply to generated spaces only.
    scens = options.scenarios;
    for (FailureScenario& s : scens) normalize(s);
    result.total_scenarios = scens.size();
  } else {
    space = std::make_unique<SweepSpace>(rc, healthy, options);
    scens = space->reps();
    result.total_scenarios = space->total_scenarios();
    result.pruned_scenarios = space->pruned_scenarios();
  }

  const Timer snap_timer;
  const auto snap = rc.snapshot();
  result.snapshot_ms = snap_timer.ms();

  // Scenario slots are pre-sized and keyed by index; lanes write disjoint
  // strides and the merge below walks them in index order, so the report is
  // bit-identical for every thread count.
  std::vector<ScenarioOutcome> outcomes(scens.size());
  std::vector<std::vector<Pair>> scenario_lost(scens.size());

  // No more lanes than scenarios: every lane forks a whole verifier.
  const unsigned threads = static_cast<unsigned>(
      std::max<std::size_t>(1, std::min<std::size_t>(options.threads, scens.size())));
  core::WorkerPool pool(threads);
  pool.run(threads, [&](std::size_t lane) {
    auto replica = rc.fork(*snap);
    config::NetworkConfig scenario_cfg = healthy;
    for (std::size_t i = lane; i < scens.size(); i += threads) {
      const Timer scenario_timer;
      ScenarioOutcome& out = outcomes[i];
      out.scenario = scens[i];

      // Fork semantics: every scenario starts from the pristine healthy
      // checkpoint — no reconvergence debt and no EC-partition drift (a
      // diverged scenario's apply already left the replica unchanged).
      const Timer restore_timer;
      replica->restore(*snap);
      out.restore_ms = restore_timer.ms();

      for (const topo::LinkId l : out.scenario.links) {
        config::fail_link(scenario_cfg, topo, l);
      }
      try {
        replica->apply(scenario_cfg);
        read_outcome(*replica, base, out, scenario_lost[i]);
      } catch (const dd::NonterminationError&) {
        out.diverged = true;
      }
      reset_links(scenario_cfg, healthy, topo, out.scenario.links);
      out.total_ms = scenario_timer.ms();
    }
  });

  // Deterministic single-threaded merge, replaying each representative's
  // outcome across its symmetry orbit: the verifier is equivariant under
  // admitted pod permutations, so a member's verdicts are the
  // representative's with node-relabeled lost pairs (scalar fields are
  // invariant). finalize() re-sorts every aggregate, keeping the result
  // independent of orbit-visit order.
  MergeState ms;
  const bool replay = space != nullptr && space->symmetry_active();
  for (std::size_t i = 0; i < scens.size(); ++i) {
    ScenarioOutcome& out = outcomes[i];
    if (!replay) {
      merge_outcome(result, ms, out, scenario_lost[i]);
      continue;
    }
    const std::vector<SweepSpace::Member> members = space->expand(out.scenario);
    out.orbit = members.size();
    for (const SweepSpace::Member& member : members) {
      if (member.node_map.empty()) {
        merge_outcome(result, ms, out, scenario_lost[i]);
        continue;
      }
      ScenarioOutcome image;
      image.scenario = member.scenario;
      image.diverged = out.diverged;
      image.reachable_pairs = out.reachable_pairs;
      image.pairs_lost = out.pairs_lost;
      image.violated = out.violated;
      image.gained_loop = out.gained_loop;
      std::vector<Pair> lost;
      lost.reserve(scenario_lost[i].size());
      for (const Pair& p : scenario_lost[i]) {
        lost.emplace_back(member.node_map[p.first], member.node_map[p.second]);
      }
      std::sort(lost.begin(), lost.end());
      merge_outcome(result, ms, image, lost);
      ++result.replayed_scenarios;
    }
  }
  finalize(result, ms);

  result.explored_scenarios = outcomes.size();
  if (result.total_scenarios > 0) {
    result.coverage =
        static_cast<double>(result.explored_scenarios + result.replayed_scenarios +
                            result.pruned_scenarios) /
        static_cast<double>(result.total_scenarios);
  } else {
    result.coverage = 1.0;
  }
  result.outcomes = std::move(outcomes);
  result.sweep_ms = sweep_timer.ms();
  return result;
}

}  // namespace rcfg::verify
