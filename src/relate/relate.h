#pragma once

// Relational change verification (ROADMAP item 3; Relational Network
// Verification, PAPERS.md): instead of asking "does the proposed network
// satisfy my policies?", ask "how does the proposed network BEHAVE
// DIFFERENTLY from the running one — and is every difference intended?".
//
// The architecture makes this cheap. A proposed change is verified against
// the running state by forking the pipeline from a snapshot (PR 4) and
// applying the change to the fork; the fork's BDD manager starts as a copy
// of the base's, so the two replicas share one packet space and the EC
// partitions are relatable: every fork EC descends from exactly one base
// EC through the apply's split chain. The behavioural diff is then a
// per-EC comparison restricted to the ECs the incremental apply actually
// touched — everything else is provably identical, which is why the diff
// costs a fork + incremental apply instead of two scratch builds plus a
// full pairwise EC comparison (BENCH_whatif.json's relate section
// quantifies the gap).
//
// Relational specs say which traffic is ALLOWED to change behaviour:
//   only_dst_in P / only_src_in P  — only packets to/from prefix-set P
//   none                           — the change must be behaviour-preserving
// Any diffed EC whose packets escape the allowed set is a violation,
// reported with the exact EC set and a concrete witness flow traced hop by
// hop through both data planes (trace_flow).

#include <memory>
#include <string>
#include <vector>

#include "config/types.h"
#include "verify/realconfig.h"
#include "verify/trace.h"

namespace rcfg::relate {

/// "Only traffic matching the prefix set may change behaviour."
struct RelationalSpec {
  enum class Kind : std::uint8_t {
    kNone,       ///< no traffic may change behaviour at all
    kOnlyDstIn,  ///< only packets whose destination lies in `prefixes`
    kOnlySrcIn,  ///< only packets whose source lies in `prefixes`
  };
  Kind kind = Kind::kNone;
  std::vector<net::Ipv4Prefix> prefixes;  ///< the allowed set P (union); empty for kNone
  std::string name;                       ///< optional display name
};

const char* to_string(RelationalSpec::Kind k);
/// Parses "none" / "only_dst_in" / "only_src_in"; throws std::invalid_argument.
RelationalSpec::Kind spec_kind_of(const std::string& s);

/// One device whose forwarding action for a diffed EC differs.
struct DeviceDivergence {
  topo::NodeId device = topo::kInvalidNode;
  dpm::PortKey before;  ///< base port
  dpm::PortKey after;   ///< changed port

  friend bool operator==(const DeviceDivergence&, const DeviceDivergence&) = default;
};

/// One equivalence class whose behaviour differs between base and fork.
/// `changed_ec`/`packets`/`example` live in the fork's EC partition and
/// packet space; `base_ec` is the base-partition ancestor the fork EC
/// descends from (identical packets when no split refined it).
struct EcDiff {
  dpm::EcId base_ec = 0;
  dpm::EcId changed_ec = 0;
  dpm::BddRef packets = dpm::kBddFalse;  ///< the EC's atom BDD (fork space)
  config::Flow example;                  ///< one concrete packet of the EC
  std::vector<DeviceDivergence> devices;  ///< sorted by device id
  /// Delivered (src, dst) pairs gained/lost by the change, sorted.
  std::vector<std::pair<topo::NodeId, topo::NodeId>> pairs_gained;
  std::vector<std::pair<topo::NodeId, topo::NodeId>> pairs_lost;
  bool loop_before = false, loop_after = false;
  bool blackhole_before = false, blackhole_after = false;

  friend bool operator==(const EcDiff&, const EcDiff&) = default;
};

/// The full behavioural diff, sorted by changed_ec.
struct RelationalDiff {
  std::vector<EcDiff> ecs;

  std::size_t pairs_gained() const;
  std::size_t pairs_lost() const;
  /// Unique devices appearing in any divergence.
  std::size_t devices_diverged() const;

  friend bool operator==(const RelationalDiff&, const RelationalDiff&) = default;
};

/// A concrete flow that proves a spec violation, traced through both
/// data planes.
struct RelationalWitness {
  config::Flow flow;
  topo::NodeId ingress = topo::kInvalidNode;
  verify::FlowTrace before;  ///< trace through the base data plane
  verify::FlowTrace after;   ///< trace through the changed data plane
};

struct SpecViolation {
  std::size_t spec = 0;                ///< index into the spec list
  std::vector<dpm::EcId> ecs;          ///< violating fork ECs, sorted
  std::optional<RelationalWitness> witness;  ///< for the first violating EC
};

struct RelationalResult {
  RelationalDiff diff;
  std::vector<SpecViolation> violations;  ///< one entry per violated spec
  bool holds = true;                      ///< no spec violated
  std::size_t ecs_compared = 0;  ///< candidate ECs examined (incremental set)
  double snapshot_ms = 0;        ///< checkpointing the base state
  double fork_ms = 0;            ///< building the fork replica
  double apply_ms = 0;           ///< incremental apply of the proposal
  double diff_ms = 0;            ///< per-EC comparison + spec evaluation
  double total_ms() const { return snapshot_ms + fork_ms + apply_ms + diff_ms; }
};

/// Relational checker over a live base verifier. check() never mutates the
/// base: the proposal is applied to a private fork kept alive afterwards
/// for witness extraction and oracle cross-checks.
class RelationalChecker {
 public:
  explicit RelationalChecker(verify::RealConfig& base) : base_(base) {}

  /// Diff the proposed configuration against the base state and evaluate
  /// `specs`. Throws dd::NonterminationError when the proposal does not
  /// converge (the base is untouched either way).
  RelationalResult check(const config::NetworkConfig& proposed,
                         const std::vector<RelationalSpec>& specs = {},
                         bool witnesses = true);

  /// The fork the last check() applied the proposal to (valid until the
  /// next check()). Used by the brute-force oracle and the benches.
  verify::RealConfig& changed() { return *changed_; }
  bool has_changed() const { return changed_ != nullptr; }

  /// Fork EC id -> base EC id it descends from (size = fork ec_count).
  const std::vector<dpm::EcId>& base_of() const { return base_of_; }

 private:
  verify::RealConfig& base_;
  std::unique_ptr<verify::RealConfig> changed_;
  std::vector<dpm::EcId> base_of_;
};

/// Reference implementation for the fuzz oracle and the naive-cost bench:
/// compare EVERY fork EC against its base ancestor — all devices' ports,
/// full delivered-pair sets, loop/blackhole flags — with no use of the
/// incremental apply's affected set. Produces the same RelationalDiff as
/// RelationalChecker::check (witness `example` included) or the comparison
/// is wrong.
RelationalDiff relational_diff_bruteforce(verify::RealConfig& base,
                                          verify::RealConfig& changed,
                                          const std::vector<dpm::EcId>& base_of);

}  // namespace rcfg::relate
