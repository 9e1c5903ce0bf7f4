#pragma once

// RealConfig — the end-to-end incremental configuration verifier
// (paper Figure 1): three incremental components chained in sequence.
//
//   configuration change
//        │  (1) incremental data plane generator (routing::IncrementalGenerator)
//        ▼
//   forwarding / filtering rule changes
//        │  (2) incremental data plane model updater (dpm::NetworkModel, batch mode)
//        ▼
//   affected ECs with old/new ports
//        │  (3) incremental policy checker (verify::IncrementalChecker)
//        ▼
//   changes in policy satisfaction
//
// Every apply() call takes the *whole* intended configuration; RealConfig
// itself discovers what changed and re-verifies only that. The first call
// is the from-scratch baseline run.

#include <chrono>
#include <memory>
#include <optional>
#include <string>

#include "config/types.h"
#include "dpm/ec.h"
#include "dpm/model.h"
#include "dpm/packet_space.h"
#include "routing/generator.h"
#include "topo/topology.h"
#include "verify/checker.h"

namespace rcfg::verify {

struct RealConfigOptions {
  dpm::UpdateOrder update_order = dpm::UpdateOrder::kInsertFirst;
  routing::GeneratorOptions generator;
  /// Checker worker-pool width (stage 3 shards the affected-EC set).
  /// 1 (the default) is the historical single-threaded path; any value
  /// produces bit-identical reports — see CheckerOptions::threads.
  unsigned threads = 1;
  /// Record which devices caused each delta (generator fact-origin
  /// tracking; see IncrementalGenerator::set_provenance). Off by default:
  /// the explain path is pay-as-you-go.
  bool provenance = false;
  /// Online memory reclamation for long-lived sessions (see DESIGN.md
  /// "Memory reclamation"). When enabled, apply() runs a reclaim step
  /// after the check phase of every batch: merge ECs that predicate
  /// withdrawals left indistinguishable (fanned out as an EcRemap), then
  /// garbage-collect unrooted BDD nodes. Policy verdicts and pair-level
  /// results are unaffected; EC *ids* in subsequent reports are renumbered
  /// by merges.
  bool reclamation = false;
};

class RealConfig {
 public:
  explicit RealConfig(const topo::Topology& topo, RealConfigOptions options = {});

  /// One verification round. Throws dd::NonterminationError (possibly the
  /// RecurringStateError subclass) when the control plane cannot converge
  /// (paper §6); the instance is then exactly as it was before the call —
  /// the generator re-loads its last converged facts and stages 2–3 never
  /// see the diverged delta — and keeps verifying.
  struct Report {
    routing::DataPlaneDelta dataplane;
    dpm::ModelDelta model;
    CheckResult check;
    /// Devices whose compiled facts changed (sorted, unique) — the
    /// fact-level origin of `dataplane`. Filled only with
    /// RealConfigOptions::provenance on; empty otherwise.
    std::vector<topo::NodeId> changed_devices;
    /// What the post-check reclaim step did (all zeros when reclamation is
    /// disabled or nothing was due this round).
    struct Reclamation {
      bool ran = false;  ///< the reclaim step fired this apply()
      std::size_t ecs_before = 0, ecs_after = 0;
      std::size_t bdd_before = 0, bdd_after = 0;  ///< live BDD nodes
      /// The merge's old-id → new-id mapping (absent when no atoms
      /// merged). Consumers holding EC ids from *earlier* reports — the
      /// provenance log, external caches — must translate through it.
      std::optional<dpm::EcRemap> remap;
      double reclaim_ms = 0;
    };
    Reclamation reclaim;
    /// End-of-apply state levels (for the service's gauges).
    std::size_t ec_count = 0;
    std::size_t bdd_nodes = 0;
    double generate_ms = 0;  ///< stage 1 (includes config-to-facts diffing)
    double model_ms = 0;     ///< stage 2
    double check_ms = 0;     ///< stage 3
    double total_ms() const {
      return generate_ms + model_ms + check_ms + reclaim.reclaim_ms;
    }
  };
  Report apply(const config::NetworkConfig& cfg);

  // --- checkpoint / fork ---------------------------------------------------
  /// A converged pipeline state: generator operator state, the whole BDD
  /// manager (so every stored BddRef — EC atoms, policy packet sets, ACL
  /// permit sets — stays meaningful), the EC partition, the model's device
  /// state, and the checker's pair/policy state. Immutable and cheap to
  /// share: one snapshot can seed any number of restores/forks.
  ///
  /// See DESIGN.md "Snapshot / fork" for the deep-copy-vs-shared contract.
  struct Snapshot;

  /// Checkpoint the current (always converged) state.
  std::shared_ptr<const Snapshot> snapshot() const;

  /// Reset the pipeline to `snap` (taken from this instance or from any
  /// RealConfig over the same topology and equivalent options). Component
  /// wiring (EC-split subscriptions, the checker's worker pool) is
  /// untouched; only state is replaced. Restoring the snapshot this
  /// instance was last restored (or forked) from again rolls the
  /// generator's dataflow state back in O(change) while its undo journals
  /// stay bounded (dd/graph.h) — the restore → apply → restore loop of a
  /// sweep replica; the EC partition, model, checker and BDD manager are
  /// still deep-copied.
  void restore(const Snapshot& snap);

  /// Build an independent replica seeded from `snap`: a new RealConfig on
  /// the same topology whose next apply() re-converges incrementally from
  /// the snapshot instead of from scratch. The replica owns a private copy
  /// of every mutable structure (BDD manager included), so replicas are
  /// safe to drive from different threads concurrently (restores only read
  /// the shared snapshot). `snap` becomes the replica's rollback base, so
  /// restoring it again is O(change) in the dataflow layer. Replicas are
  /// built single-threaded (threads = 1) to keep nested worker pools out of
  /// sharded sweeps.
  std::unique_ptr<RealConfig> fork(const Snapshot& snap) const;

  /// fork() with caller-chosen options — for replicas that must deviate
  /// from the parent's tuning (the relational checker disables reclamation
  /// so fork EC ids stay relatable to base ids). The topology contract is
  /// unchanged.
  std::unique_ptr<RealConfig> fork(const Snapshot& snap, RealConfigOptions opts) const;

  // --- policy helpers (by device name; packets default to "everything") --
  PolicyId require_reachable(const std::string& src, const std::string& dst,
                             net::Ipv4Prefix dst_prefix);
  PolicyId require_isolated(const std::string& src, const std::string& dst,
                            net::Ipv4Prefix dst_prefix);
  PolicyId require_waypoint(const std::string& src, const std::string& dst,
                            const std::string& via, net::Ipv4Prefix dst_prefix);

  // --- component access ----------------------------------------------------
  const topo::Topology& topology() const { return topo_; }
  const RealConfigOptions& options() const { return options_; }
  routing::IncrementalGenerator& generator() { return generator_; }
  dpm::PacketSpace& packet_space() { return space_; }
  const dpm::PacketSpace& packet_space() const { return space_; }
  dpm::EcManager& ecs() { return ecs_; }
  const dpm::EcManager& ecs() const { return ecs_; }
  dpm::NetworkModel& model() { return model_; }
  const dpm::NetworkModel& model() const { return model_; }
  IncrementalChecker& checker() { return checker_; }
  const IncrementalChecker& checker() const { return checker_; }

 private:
  topo::NodeId node_or_throw(const std::string& name) const;
  /// The post-check reclaim step (run only with options_.reclamation).
  /// Fills report.reclaim.
  void maybe_reclaim(Report& report);

  const topo::Topology& topo_;
  RealConfigOptions options_;
  routing::IncrementalGenerator generator_;
  dpm::PacketSpace space_;
  dpm::EcManager ecs_;
  dpm::NetworkModel model_;
  IncrementalChecker checker_;
};

struct RealConfig::Snapshot {
  routing::IncrementalGenerator::Snapshot generator;
  dpm::PacketSpace space;  ///< full BDD manager copy: keeps every BddRef valid
  dpm::EcManager::Snapshot ecs;
  dpm::NetworkModel::Snapshot model;
  IncrementalChecker::Snapshot checker;
};

}  // namespace rcfg::verify
