#pragma once

// The incremental data plane generator — RealConfig's first pipeline stage
// (paper §4.2): configuration changes in, forwarding/filtering rule changes
// out.
//
// The control-plane semantics (OSPF, BGP, static routes, connected routes,
// route redistribution) are written once, as a dataflow program over the
// rcfg::dd engine, our stand-in for DDlog/Differential Dataflow. apply()
// lowers the new configuration to fact relations, stages the fact delta
// against the previous snapshot, and commits; the engine re-converges
// incrementally from the previous fixpoint and the FIB delta falls out of
// the output sink. Filter (ACL) rules never need simulation and are diffed
// directly from the configs.
//
// Round-stratified evaluation. Route propagation is a fixpoint of
//     best_r = select(origins ∪ extend(best_{r-1}))
// and the program materializes max_rounds explicit stages of it (the
// moral equivalent of differential dataflow's per-iteration timestamps).
// A stage is one Join (best_{r-1} extended over the links; a rejected
// extension derives nothing) feeding one Reduce (the protocol's selection
// over the origins and that Join). This keeps the dataflow acyclic, so
// deletions cost work proportional to the truly affected state per round —
// the naive cyclic formulation instead "path hunts" through exponentially
// many stale alternative routes when a route is withdrawn. Convergence is
// checked by comparing the last two stages; a difference means either
// max_rounds is too small for the network's diameter/metric structure
// (increase it) or the control plane genuinely oscillates (paper §6) —
// both reported as NonterminationError. A diverged apply() re-loads the
// last converged facts before it throws, so the generator is left exactly
// as it was: the paper's "discard and restart" becomes one more
// incremental commit.

#include <cstdint>
#include <memory>

#include "config/types.h"
#include "dd/graph.h"
#include "dd/operators.h"
#include "dd/zset.h"
#include "routing/facts.h"
#include "routing/types.h"
#include "topo/topology.h"

namespace rcfg::routing {

/// Rule-level changes produced by one configuration change.
struct DataPlaneDelta {
  dd::ZSet<FibEntry> fib;        ///< +1 inserted rule, -1 deleted rule
  dd::ZSet<FilterRule> filters;  ///< ditto for ACL rules

  bool empty() const { return fib.empty() && filters.empty(); }
  std::size_t insertions() const;
  std::size_t deletions() const;
};

struct GeneratorOptions {
  /// Number of synchronous propagation rounds materialized per protocol.
  /// Must exceed the longest minimal route's hop count (bounded by the
  /// node count; for fat-tree-like fabrics a couple dozen is plenty).
  unsigned max_rounds = 24;
};

class IncrementalGenerator {
 public:
  /// The topology is fixed for the generator's lifetime; configurations
  /// (including interface shutdowns) vary per apply().
  explicit IncrementalGenerator(const topo::Topology& topo, GeneratorOptions options = {});

  /// Load a configuration (the first call computes from scratch; later
  /// calls re-converge incrementally) and return the data plane delta.
  /// Throws dd::NonterminationError when the route computation has not
  /// converged within max_rounds (see header comment); the generator then
  /// holds the state of its last converged apply() again.
  DataPlaneDelta apply(const config::NetworkConfig& cfg);

  /// Current converged state.
  const dd::ZSet<FibEntry>& fib() const { return fib_out_->current(); }
  const dd::ZSet<FilterRule>& filters() const { return filters_; }

  /// Engine work done by the last apply() — the paper's "incremental
  /// computation is small" claim made measurable.
  std::uint64_t last_flushes() const { return graph_.last_commit_flushes(); }
  std::size_t operator_count() const { return graph_.operator_count(); }
  unsigned max_rounds() const { return options_.max_rounds; }

  /// Checkpoint of the generator's converged state: every dataflow
  /// operator's state, the directly diffed filter relation and the facts
  /// that state was converged on (shared, never copied). Restorable into
  /// this generator or any generator built over the same topology and
  /// options — build_program() is deterministic, so operator positions
  /// line up.
  struct Snapshot {
    dd::GraphSnapshot graph;
    dd::ZSet<FilterRule> filters;
    std::shared_ptr<const FactSnapshot> facts;  ///< null before the first apply()
  };

  /// Requires a quiescent graph (always true between apply() calls);
  /// throws std::logic_error otherwise.
  Snapshot snapshot() const;

  /// Restore converged state from `snap`. The provenance setting is not
  /// part of the snapshot and keeps its current value; the last apply()'s
  /// changed-device list is cleared.
  void restore(const Snapshot& snap);

  // --- provenance (pay-as-you-go: nothing is computed until enabled) ------
  /// When on, apply() records which devices' compiled facts changed since
  /// the last converged apply() — the fact-level origin of the rule delta,
  /// used by the explain layer to tie ops back to config edits.
  void set_provenance(bool on);
  bool provenance() const noexcept { return provenance_; }
  /// Devices whose facts changed in the last apply() (sorted, unique).
  /// Always empty while provenance is off.
  const std::vector<topo::NodeId>& last_changed_devices() const noexcept {
    return changed_devices_;
  }

 private:
  void build_program();
  void record_changed_devices_(const FactSnapshot& facts);
  /// Stage `facts` on the input relations and commit.
  void load_(const FactSnapshot& facts);
  /// Drain the convergence sinks; true when the last commit converged.
  bool converged_();
  /// Undo a diverged commit: re-load the last converged facts — after
  /// restoring the empty program when commit() itself threw, since that
  /// leaves operators half flushed — and drop the FIB delta, which then
  /// holds nothing the caller has not already seen.
  void revert_(bool commit_threw);

  const topo::Topology& topo_;
  GeneratorOptions options_;
  dd::Graph graph_;
  dd::GraphSnapshot empty_;  ///< the freshly built program, before any commit
  /// The facts of the last converged apply() (null before the first one).
  std::shared_ptr<const FactSnapshot> facts_;

  bool provenance_ = false;
  std::vector<topo::NodeId> changed_devices_;

  // Input relations.
  dd::Input<OspfLinkFact>* in_ospf_links_ = nullptr;
  dd::Input<OspfOriginFact>* in_ospf_origins_ = nullptr;
  dd::Input<BgpSessionFact>* in_bgp_sessions_ = nullptr;
  dd::Input<BgpOriginFact>* in_bgp_origins_ = nullptr;
  dd::Input<BgpAggregateFact>* in_bgp_aggregates_ = nullptr;
  dd::Input<RipLinkFact>* in_rip_links_ = nullptr;
  dd::Input<RipOriginFact>* in_rip_origins_ = nullptr;
  dd::Input<DynRedistFact>* in_redist_ = nullptr;
  dd::Input<StaticFact>* in_statics_ = nullptr;
  dd::Input<ConnectedFact>* in_connected_ = nullptr;

  // Output sinks.
  dd::Output<FibEntry>* fib_out_ = nullptr;
  // Convergence sinks: best_R - best_{R-1} (node-keyed, as the chains emit
  // best routes); nonempty => not converged.
  dd::Output<std::pair<topo::NodeId, OspfRoute>>* ospf_conv_ = nullptr;
  dd::Output<std::pair<topo::NodeId, BgpRoute>>* bgp_conv_ = nullptr;
  dd::Output<std::pair<topo::NodeId, RipRoute>>* rip_conv_ = nullptr;

  // Filter rules are maintained by direct diffing (no simulation needed).
  dd::ZSet<FilterRule> filters_;
};

}  // namespace rcfg::routing
