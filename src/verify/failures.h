#pragma once

// Failure-scenario analysis (paper §2 "Specification mining"): sweep link
// failure scenarios by snapshot/fork instead of a from-scratch verification
// per scenario. sweep_failures checkpoints the healthy state once, then runs
// every scenario as "restore snapshot -> apply delta -> check -> discard" on
// forked replicas, optionally sharded over a worker pool (one replica per
// worker, so nothing is shared but the immutable snapshot). A scenario whose
// control plane oscillates is recorded as diverged (its apply left the
// replica unchanged). Supports k simultaneous link failures for any k,
// with Plankton-style pruning for the deep space (sweep_space.h): dependency
// pruning (skip scenarios that cannot move a registered policy), fat-tree
// pod symmetry dedup (verify one orbit representative, replay its outcome
// across the orbit), and prioritized budgeted generation with a coverage
// metric. DESIGN.md decision 13 states what each reduction does and does
// not preserve.
//
// Two consumers: Config2Spec-style mining ("which reachability guarantees
// survive every single-link failure?") and operational what-if analysis
// ("which links are critical?", "which scenarios violate my policies?").

#include <unordered_map>
#include <vector>

#include "verify/realconfig.h"

namespace rcfg::verify {

/// One what-if scenario: the links failed simultaneously (sorted, unique).
struct FailureScenario {
  std::vector<topo::LinkId> links;

  friend bool operator==(const FailureScenario&, const FailureScenario&) = default;
};

/// What one scenario did to the network, relative to the healthy state.
/// Semantic fields (everything except the timings) are identical for any
/// thread count.
struct ScenarioOutcome {
  FailureScenario scenario;
  /// The control plane has no stable state under this failure (the apply
  /// threw NonterminationError/RecurringStateError). No verdicts exist for
  /// the scenario; every other field below is left at its default.
  bool diverged = false;
  std::size_t reachable_pairs = 0;  ///< pairs reachable under the scenario
  std::size_t pairs_lost = 0;       ///< healthy pairs unreachable here
  std::vector<PolicyId> violated;   ///< healthy-satisfied policies now violated
  bool gained_loop = false;         ///< some EC developed a forwarding loop
  /// Scenarios this outcome stands for: the scenario itself plus every
  /// symmetry-equivalent scenario it was replayed onto (1 when symmetry
  /// dedup is off or the orbit is a singleton).
  std::size_t orbit = 1;
  double total_ms = 0;              ///< wall time incl. state reset + verify
  double restore_ms = 0;            ///< snapshot-restore share
};

struct FailureSweepResult {
  /// Ordered pairs (s, d) reachable on the healthy network.
  std::vector<std::pair<topo::NodeId, topo::NodeId>> healthy_pairs;
  /// The mined fault-tolerant spec: pairs reachable under EVERY scenario.
  /// Diverged scenarios contribute nothing (they have no stable data plane
  /// to mine; they are reported, not intersected).
  std::vector<std::pair<topo::NodeId, topo::NodeId>> fault_tolerant_pairs;
  /// Links whose single failure disconnects at least one healthy pair.
  std::vector<topo::LinkId> critical_links;
  /// Registered policies -> single-link scenarios that violate them.
  std::unordered_map<PolicyId, std::vector<topo::LinkId>> policy_violations;
  /// Single-link scenarios where some EC developed a forwarding loop.
  std::vector<topo::LinkId> loop_scenarios;
  /// Single-link scenarios whose control plane oscillates instead of
  /// converging (paper §6) — recorded and skipped, never fatal.
  std::vector<topo::LinkId> diverged_links;
  /// Every diverged scenario of any size, sorted by link set — the
  /// multi-link counterpart of `diverged_links`, so detail-free consumers
  /// don't lose k >= 2 oscillation reports.
  std::vector<FailureScenario> diverged_scenarios;
  /// Per-scenario records of the scenarios actually verified on a replica,
  /// in generation order (sizes ascending; within a size, link-id order, or
  /// priority order under a budget). The link-keyed aggregate fields above
  /// summarize only the single-link scenarios; multi-link results live
  /// here and in the aggregates that key by scenario.
  std::vector<ScenarioOutcome> outcomes;
  /// Scenarios covered by verdicts: explored + symmetry-replayed.
  std::size_t scenarios = 0;
  // --- failure-space accounting (sweep_space.h) --------------------------
  std::uint64_t total_scenarios = 0;     ///< |space|: sum of C(links, m), m <= k
  std::uint64_t explored_scenarios = 0;  ///< verified on a replica (== outcomes)
  std::uint64_t replayed_scenarios = 0;  ///< covered via orbit replay
  std::uint64_t pruned_scenarios = 0;    ///< skipped by dependency pruning
  /// (explored + replayed + pruned) / total — 1.0 means every scenario is
  /// accounted for; < 1.0 means the budget ran out first.
  double coverage = 0;
  double snapshot_ms = 0;  ///< cost of checkpointing the healthy state
  double sweep_ms = 0;     ///< total wall time of the sweep
};

struct FailureSweepOptions {
  /// Scenarios to run verbatim (normalized to sorted-unique). Empty =>
  /// generated from `links`/`max_failures` by the lazy generator: sizes
  /// 1..max_failures, each size enumerated in link-id order (or priority
  /// order under a budget), subject to pruning and symmetry dedup.
  std::vector<FailureScenario> scenarios;
  /// The link universe scenarios draw from (sorted + deduped internally).
  /// Empty => every link. A proper subset disables symmetry dedup (orbits
  /// may leave the universe).
  std::vector<topo::LinkId> links;
  unsigned max_failures = 1;  ///< generated-scenario size cap (>= 1)
  /// Cap on *explored* scenarios (replica verifications); 0 = unbounded.
  /// When the cap binds, generation is priority-ordered: links ranked by
  /// healthy-path betweenness over policy witness flows, so the most
  /// load-bearing scenarios are spent on first. Coverage reports the rest.
  std::uint64_t budget = 0;
  /// Dependency pruning: skip scenarios whose failed links touch no EC any
  /// registered policy depends on. Sound for policy verdicts (pruned
  /// scenarios cannot flip them); mined pair/loop/divergence aggregates
  /// then cover only the explored+replayed scenarios (see coverage).
  bool prune = false;
  /// Fat-tree pod symmetry dedup: verify one orbit representative per
  /// equivalence class (modulo config/policy-equivariant pod permutations)
  /// and replay its outcome across the orbit. Bit-identical to exhaustive
  /// sweeps; off by default to keep outcome listings exhaustive.
  bool symmetry = false;
  /// Worker-pool width. Each worker forks its own full replica from the
  /// healthy snapshot, so workers share no mutable state; results are
  /// bit-identical for every value (scenario slots are keyed by index and
  /// merged in order on the caller). Never more workers than scenarios.
  unsigned threads = 1;
};

/// Snapshot/fork sweep: checkpoint `rc`'s healthy state once, then every
/// scenario is "restore -> apply failure delta -> check -> discard" on a
/// forked replica — no reconvergence back to healthy between scenarios,
/// and `rc` itself is never touched (it keeps serving queries). `healthy`
/// must be the configuration most recently applied to `rc`.
FailureSweepResult sweep_failures(RealConfig& rc, const config::NetworkConfig& healthy,
                                  const FailureSweepOptions& options = {});

}  // namespace rcfg::verify
