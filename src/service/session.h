#pragma once

// One long-lived verification session: a RealConfig instance wrapped with
//
//   * change transactions — propose(cfg) runs a what-if verification on the
//     live incremental state and stages the configuration; commit() makes
//     it the new baseline; abort() rolls the live state back to the last
//     committed configuration *incrementally* (re-applying it, which only
//     touches what the aborted proposal changed);
//   * a named-policy registry — the session remembers each policy's spec,
//     so replicas and forks can register it by name;
//   * automatic nontermination recovery — when a proposal's control plane
//     does not converge (dd::NonterminationError, paper §6), the diverged
//     apply leaves the verifier as it was, the session rolls back to the
//     last committed configuration exactly as abort() does, and the caller
//     gets a structured "nonconvergent" outcome. The paper's
//     discard-and-restart caveat becomes an O(change) service-level
//     guarantee: a session is never left unusable by a bad proposal.
//
// A Session is NOT thread-safe; the Engine serializes access per session.

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "config/types.h"
#include "explain/explain.h"
#include "explain/provenance.h"
#include "net/ipv4.h"
#include "relate/order.h"
#include "relate/relate.h"
#include "topo/topology.h"
#include "verify/failures.h"
#include "verify/realconfig.h"

namespace rcfg::service {

/// A policy by name + node names: everything needed to register it on a
/// verifier.
struct PolicySpec {
  enum class Kind : std::uint8_t { kReachable, kIsolated, kWaypoint };
  Kind kind = Kind::kReachable;
  std::string name;
  std::string src;
  std::string dst;
  std::string via;  ///< waypoint only
  net::Ipv4Prefix prefix;
};

/// Provenance ring size of a traced session: the batches `explain` can name.
inline constexpr std::size_t kTraceCapacity = 32;

struct SessionOptions {
  verify::RealConfigOptions verifier;
  /// Record per-batch provenance (config diff → rule delta → EC moves →
  /// verdict flips) for the `explain` verb. Pay-as-you-go: off (the
  /// default) means zero recording overhead on every batch.
  bool trace = false;
  /// Read replicas forked off the session at open (engine-managed): queries
  /// fan out across them while mutations stream deltas from the primary.
  /// 0 (the default) keeps the single-verifier path.
  unsigned replicas = 0;
};

/// Result of propose(): the proposal's verification report (converged), or
/// the report of the recovery's re-apply of the committed configuration
/// (nonconvergent; the session rolled back and is usable).
struct ProposeOutcome {
  bool converged = true;
  verify::RealConfig::Report report;
  std::string error;  ///< nontermination message when not converged
};

struct ReplicaDelta;

class Session {
 public:
  /// Builds the verifier and runs the from-scratch verification of
  /// `initial`, which becomes the committed baseline. Throws
  /// dd::NonterminationError if even the initial configuration does not
  /// converge (there is no earlier state to recover to).
  Session(std::string name, topo::Topology topology, config::NetworkConfig initial,
          SessionOptions options = {});

  const std::string& name() const { return name_; }
  const topo::Topology& topology() const { return *topo_; }
  const config::NetworkConfig& committed() const { return committed_; }
  const verify::RealConfig::Report& baseline_report() const { return baseline_report_; }

  // --- change transaction --------------------------------------------------
  /// Verify `cfg` against the live state and stage it. Proposing on top of
  /// an uncommitted proposal is allowed (the staged config is replaced; the
  /// verification is incremental from the previous proposal — this is what
  /// the engine's coalescing leans on). On nontermination the session rolls
  /// back to the committed baseline as abort() does (dropping any staged
  /// proposal) and reports converged=false.
  ProposeOutcome propose(const config::NetworkConfig& cfg);

  bool has_staged() const { return staged_.has_value(); }

  /// Promote the staged configuration to committed. Metadata-only: the live
  /// verifier already reflects it. Throws std::logic_error with no staged
  /// proposal.
  void commit();

  /// Discard the staged proposal and roll the live verifier back to the
  /// committed configuration (an incremental re-apply). Returns the
  /// rollback's report. Throws std::logic_error with no staged proposal.
  verify::RealConfig::Report abort();

  // --- named policies ------------------------------------------------------
  /// Registers the policy on the live verifier and records its spec.
  /// Returns its current satisfaction.
  /// Throws std::invalid_argument on duplicate name or unknown node.
  bool add_policy(const PolicySpec& spec);

  bool has_policy(const std::string& name) const { return ids_.count(name) != 0; }
  /// Throws std::invalid_argument on unknown name.
  bool policy_satisfied(const std::string& name) const;
  const std::vector<PolicySpec>& policies() const { return specs_; }
  /// Display name for a checker PolicyId ("" if unknown — e.g. registered
  /// directly on the checker, bypassing the session).
  std::string policy_name(verify::PolicyId id) const;

  // --- failure sweep -------------------------------------------------------
  /// Snapshot-fork what-if sweep over the configuration the live verifier
  /// currently reflects (the staged proposal when one exists, else the
  /// committed baseline). Every scenario runs on a forked replica; the live
  /// verifier itself is checkpointed but never mutated, so the session keeps
  /// serving queries mid-sweep. Diverging scenarios are reported, never
  /// fatal.
  verify::FailureSweepResult sweep(const verify::FailureSweepOptions& options = {});

  // --- relational verification --------------------------------------------
  /// Relational check of `proposed` against the configuration the live
  /// verifier currently reflects: fork-pair behavioural diff + spec
  /// evaluation (see relate::RelationalChecker). The live verifier is
  /// checkpointed but never mutated. Throws dd::NonterminationError when
  /// the proposal does not converge on the fork (the session stays
  /// healthy — nothing to recover).
  relate::RelationalResult relate(const config::NetworkConfig& proposed,
                                  const std::vector<relate::RelationalSpec>& specs,
                                  bool witnesses = true);

  /// Safe update-order synthesis over the live configuration and this
  /// session's registered policies (see relate::UpdateOrderSynthesizer).
  /// All search work happens on a scratch fork. Throws
  /// std::invalid_argument on overlapping/unknown-device steps.
  relate::OrderResult order(const std::vector<relate::UpdateStep>& steps,
                            const relate::OrderOptions& options = {});

  // --- explain -------------------------------------------------------------
  /// Explain `policy_name`, or — with an empty name — the most recent
  /// violation (newest verdict-flip-to-false in the provenance window,
  /// falling back to any currently violated policy). Works without tracing
  /// (the path replay needs only the live model); causes then stay empty.
  /// Throws std::invalid_argument on unknown name / nothing violated.
  struct ExplainResult {
    std::string policy;  ///< resolved name
    ::rcfg::explain::Explanation explanation;
  };
  ExplainResult explain(const std::string& policy_name) const;

  bool tracing() const { return log_ != nullptr; }
  /// The provenance window, or nullptr when the session was opened
  /// without tracing.
  const ::rcfg::explain::ProvenanceLog* provenance() const { return log_.get(); }

  // --- read replicas -------------------------------------------------------
  /// Clone the whole session state for a read replica: a forked verifier
  /// (EC ids preserved — see RealConfig::fork), the policy registry with
  /// identical PolicyIds, copies of committed/staged, and the provenance
  /// window (so explain answers, including cause spans, match the primary's
  /// byte for byte). The clone shares the immutable topology. The caller
  /// must not mutate primary and clone concurrently *with each other's
  /// construction*; afterwards they are fully independent.
  std::unique_ptr<Session> fork_replica() const;

  /// Replay one primary mutation on this replica (see ReplicaDelta). The
  /// verifier's apply() is deterministic, so replaying the same committed
  /// stream from an identical fork keeps the replica bit-identical to the
  /// primary — EC ids, verdicts, witnesses, and provenance all line up.
  void apply_replica_delta(const ReplicaDelta& delta);

  // --- introspection -------------------------------------------------------
  /// Nonconvergent proposals recovered from (the wire's "rebuilds").
  std::size_t recoveries() const { return recoveries_; }
  verify::RealConfig& verifier() { return *rc_; }
  const verify::RealConfig& verifier() const { return *rc_; }

 private:
  verify::PolicyId register_on_verifier_(const PolicySpec& spec);
  /// Drop the staged proposal and re-apply `committed_` (abort, and the
  /// recovery from a nonconvergent proposal), recorded under `label`.
  verify::RealConfig::Report roll_back_(const char* label);
  /// Append one batch to the provenance log (no-op when tracing is off).
  void record_(const char* label, const config::NetworkConfig& old_cfg,
               const config::NetworkConfig& new_cfg,
               const verify::RealConfig::Report& report);
  /// The configuration the live verifier currently reflects.
  const config::NetworkConfig& live_() const {
    return staged_.has_value() ? *staged_ : committed_;
  }

  /// Uninitialized shell for fork_replica (fills every member by hand).
  Session() = default;

  std::string name_;
  /// Shared with replica clones (immutable after construction); rc_ holds a
  /// reference into it, so clones keep it alive together.
  std::shared_ptr<const topo::Topology> topo_;
  SessionOptions options_;
  std::unique_ptr<verify::RealConfig> rc_;
  verify::RealConfig::Report baseline_report_;

  config::NetworkConfig committed_;
  std::optional<config::NetworkConfig> staged_;

  std::vector<PolicySpec> specs_;
  std::unordered_map<std::string, verify::PolicyId> ids_;
  std::unordered_map<verify::PolicyId, std::string> names_by_id_;

  /// Present iff SessionOptions::trace.
  std::unique_ptr<::rcfg::explain::ProvenanceLog> log_;

  std::size_t recoveries_ = 0;
};

/// One primary-side mutation, as streamed to a session's read replicas.
///
/// Every request the primary processes advances the session's acknowledged
/// epoch by exactly one and enqueues one delta per replica — kNoop for
/// non-mutating verbs — so a query fenced at epoch E can always be answered
/// once a replica has consumed deltas up to E (the fence never waits on
/// anything that was not already acknowledged).
///
/// kApply deltas carry the *whole* proposed configuration, not a diff: the
/// verifier's apply() is itself incremental (cost scales with the change),
/// and replaying the identical input stream on an identical fork is what
/// keeps replicas bit-identical — including EC ids, whose split history
/// depends on every intermediate configuration. For the same reason replica
/// catch-up never coalesces kApply deltas.
///
/// kResync replaces incremental replay where id-stability breaks: after a
/// reclamation merge (EcRemap — replaying it would renumber independently)
/// and after a packet-space backend migration. The delta carries a fresh
/// fork of the post-mutation primary. (The engine also squashes a lagging
/// lane's backlog into one.) A nonconvergent proposal streams the
/// recovery's re-apply of the committed configuration as a kApply, like
/// abort: the diverged apply changed nothing on the primary.
struct ReplicaDelta {
  enum class Kind : std::uint8_t {
    kNoop,       ///< non-mutating request; advances the epoch only
    kApply,      ///< propose/abort/recovery: re-apply `config` on the replica
    kCommit,     ///< promote staged -> committed (metadata only)
    kAddPolicy,  ///< register `policy` (same PolicyId by construction)
    kResync,     ///< adopt `resync`, a fresh fork of the primary
  };

  Kind kind = Kind::kNoop;
  std::uint64_t epoch = 0;  ///< the acknowledged epoch this delta completes

  std::shared_ptr<const config::NetworkConfig> config;  ///< kApply
  bool staged_after = false;  ///< kApply: propose stages, abort un-stages
  bool recovery = false;      ///< kApply: a nonconvergent proposal's roll back
  std::shared_ptr<const PolicySpec> policy;  ///< kAddPolicy
  /// kApply, tracing sessions only: the primary's provenance record for
  /// this batch, so replica explain answers carry the primary's timings.
  std::shared_ptr<const ::rcfg::explain::BatchRecord> record;
  std::unique_ptr<Session> resync;  ///< kResync
};

}  // namespace rcfg::service
