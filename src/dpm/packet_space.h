#pragma once

// The packet header space and its set encoding.
//
// Layout (variable 0 tested first — destination bits lead because FIB
// prefixes are by far the most common predicates):
//   [0, 32)    dst IPv4 address, MSB first
//   [32, 64)   src IPv4 address, MSB first
//   [64, 66)   protocol (2 bits: tcp=0, udp=1, icmp=2, other=3)
//   [66, 82)   src port, MSB first
//   [82, 98)   dst port, MSB first
//
// PacketSpace owns both packet-set representations and routes every set
// operation to the active one:
//
//   * the interval-atom arena (interval_set.h) — Delta-net-style half-open
//     [lo, hi) ranges over the 32-bit destination address space. Only
//     destination-prefix predicates are expressible, which covers every FIB
//     rule, and operations are linear merges of boundary arrays instead of
//     memoized BDD traversals, roughly an order of magnitude cheaper on
//     prefix-only churn. Every space starts here.
//   * the ROBDD manager (bdd.h) — hash-consed BDDs over the full 98-variable
//     header space. Complete: any field combination is expressible.
//
// Both are deterministic — the same operation sequence yields the same
// handle values and the same answers, independent of hash-map iteration
// order — which keeps EC ids and compact() remaps bit-identical whichever
// representation a space runs on.
//
// The first predicate outside the interval vocabulary (src prefix, proto,
// port range, ACL filter) triggers the one-time migration to BDDs
// (migrate_to_bdd(), also callable directly by code that wants a BDD space
// from the start). Handle spaces are disjoint by construction — interval
// handles carry kIntervalTag in the top bit, BDD node ids grow from 0 — so a
// stored handle always names the representation it was created in. Retained
// interval handles stay valid forever (the interval arena is append-only)
// and are translated lazily through canonical() wherever they meet a BDD
// operation, so EC tables, snapshots and provenance built before the
// migration need no rewriting beyond the EcManager's own rekey (which
// subscribes via subscribe_migration()).

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "config/matchers.h"
#include "config/types.h"
#include "dpm/bdd.h"
#include "dpm/interval_set.h"
#include "net/ipv4.h"
#include "routing/types.h"

namespace rcfg::dpm {

inline constexpr unsigned kDstIpBase = 0;
inline constexpr unsigned kSrcIpBase = 32;
inline constexpr unsigned kProtoBase = 64;
inline constexpr unsigned kSrcPortBase = 66;
inline constexpr unsigned kDstPortBase = 82;
inline constexpr unsigned kPacketVars = 98;

/// Which representation a space's set operations run on: kInterval until
/// the migration, kBdd after it.
enum class BackendKind : std::uint8_t { kBdd, kInterval };

/// Owns both packet-set representations, the field encoders, and the
/// migration machinery.
class PacketSpace {
 public:
  PacketSpace();

  /// Copies carry full set state (both arenas, the migration flag, the
  /// translation memo) but NOT migration subscriptions: a subscription
  /// wires a live EcManager to *its* space, and a snapshot copy firing into
  /// somebody else's EcManager would corrupt it. Mirrors EcManager::restore
  /// keeping its own listeners — subscriptions are pipeline topology, not
  /// state. Moves fall back to these (handles stay valid either way).
  PacketSpace(const PacketSpace& other);
  PacketSpace& operator=(const PacketSpace& other);

  BddManager& bdd() noexcept { return bdd_; }
  const BddManager& bdd() const noexcept { return bdd_; }
  IntervalAtomBackend& interval() noexcept { return interval_; }
  const IntervalAtomBackend& interval() const noexcept { return interval_; }

  /// The representation currently executing operations.
  BackendKind active_backend() const noexcept {
    return migrated_ ? BackendKind::kBdd : BackendKind::kInterval;
  }
  /// True once the one-time interval→BDD migration has happened.
  bool migrated() const noexcept { return migrated_; }

  /// Subscribe to the one-time migration event. Fired after the space has
  /// flipped to BDD, so handlers may call canonical().
  /// Subscriptions are intentionally not copied with the space.
  void subscribe_migration(std::function<void()> listener);

  /// Flip to BDDs (idempotent). Every handle minted so far remains valid —
  /// interval handles translate through canonical() from here on.
  void migrate_to_bdd();

  /// The handle's meaning in the active representation: identity before
  /// the migration and for BDD handles; after it, interval handles map
  /// (memoized, pinned across gc()) to the ROBDD of the same destination
  /// set.
  BddRef canonical(BddRef r);

  // ---- set algebra over the active representation ------------------------
  // After the migration operands may be handles from either representation;
  // they are canonicalized first, so callers never need to care when a
  // handle was minted relative to the migration.
  BddRef set_and(BddRef a, BddRef b) {
    return migrated_ ? bdd_.bdd_and(canonical(a), canonical(b)) : interval_.set_and(a, b);
  }
  BddRef set_or(BddRef a, BddRef b) {
    return migrated_ ? bdd_.bdd_or(canonical(a), canonical(b)) : interval_.set_or(a, b);
  }
  BddRef set_diff(BddRef a, BddRef b) {
    return migrated_ ? bdd_.bdd_diff(canonical(a), canonical(b)) : interval_.set_diff(a, b);
  }
  BddRef set_xor(BddRef a, BddRef b) {
    return migrated_ ? bdd_.bdd_xor(canonical(a), canonical(b)) : interval_.set_xor(a, b);
  }
  BddRef set_not(BddRef a) {
    return migrated_ ? bdd_.bdd_not(canonical(a)) : interval_.set_not(a);
  }
  bool disjoint(BddRef a, BddRef b) {
    return migrated_ ? bdd_.disjoint(canonical(a), canonical(b)) : interval_.disjoint(a, b);
  }
  /// a ⊆ b (as sets)
  bool implies(BddRef a, BddRef b) {
    return migrated_ ? bdd_.implies(canonical(a), canonical(b)) : interval_.implies(a, b);
  }
  /// Number of satisfying packets over the full header space.
  double sat_count(BddRef a) {
    return migrated_ ? bdd_.sat_count(canonical(a)) : interval_.sat_count(a);
  }
  /// True when the set's membership can depend on a variable in [lo, hi).
  /// Exact on BDDs (support walk); interval sets constrain the destination
  /// address only, so non-trivial handles report dependence exactly on
  /// ranges meeting the dst bits.
  bool depends_on(BddRef a, unsigned lo, unsigned hi);
  /// The lexicographically minimal member in variable order (unconstrained
  /// variables 0), or nullopt for the empty set; both representations
  /// answer the same packet, so witnesses agree across the migration.
  std::optional<std::vector<bool>> pick_one(BddRef a) {
    return migrated_ ? bdd_.pick_one(canonical(a)) : interval_.pick_one(a);
  }
  /// Pin/unpin a handle across gc(), routed by the handle's own
  /// representation (the interval arena stays live after migration, so its
  /// refcounts stay honest too). Terminals are always live.
  void add_ref(BddRef a) noexcept {
    is_interval_ref(a) ? interval_.add_ref(a) : bdd_.add_ref(a);
  }
  void release(BddRef a) noexcept {
    is_interval_ref(a) ? interval_.release(a) : bdd_.release(a);
  }
  /// Collect unpinned BDD nodes; the append-only interval arena has nothing
  /// to collect, so this is 0 before the migration.
  std::size_t gc() { return migrated_ ? bdd_.gc() : 0; }
  /// Live representation nodes (BDD nodes / interval sets) for the gauges.
  std::size_t live_nodes() const noexcept {
    return migrated_ ? bdd_.node_count() : interval_.set_count();
  }

  // ---- field encoders ----------------------------------------------------
  /// Packets whose destination lies in `p`. The one encoder the interval
  /// backend answers natively; everything below migrates if non-trivial.
  BddRef dst_prefix(net::Ipv4Prefix p);
  /// Packets whose source lies in `p`.
  BddRef src_prefix(net::Ipv4Prefix p);
  /// Packets with the given protocol (kAny => all packets).
  BddRef proto(config::IpProto proto);
  /// Packets whose src/dst port lies in [lo, hi].
  BddRef src_port_range(std::uint16_t lo, std::uint16_t hi);
  BddRef dst_port_range(std::uint16_t lo, std::uint16_t hi);

  /// The match set of one ACL filter rule (conjunction of all fields).
  BddRef filter_match(const routing::FilterRule& rule);

  /// First-match permit set of an ordered rule list (rules sorted by
  /// priority ascending = evaluation order); unmatched packets are denied.
  BddRef acl_permit_set(const std::vector<routing::FilterRule>& rules);

  /// Destination address encoded by a satisfying assignment from pick_one.
  static net::Ipv4Addr dst_of(const std::vector<bool>& assignment);

  /// The full concrete flow encoded by a satisfying assignment — a witness
  /// packet for tracing. The "other" protocol value decodes to kAny.
  static config::Flow flow_of(const std::vector<bool>& assignment);

 private:
  BddRef ip_prefix(unsigned base, net::Ipv4Prefix p);
  BddRef uint_range(unsigned base, unsigned bits, std::uint32_t lo, std::uint32_t hi);

  BddManager bdd_;
  IntervalAtomBackend interval_;
  bool migrated_ = false;
  /// interval handle -> pinned BDD translation (see canonical()).
  std::unordered_map<BddRef, BddRef> interval_to_bdd_;
  std::vector<std::function<void()>> migration_listeners_;
};

}  // namespace rcfg::dpm
