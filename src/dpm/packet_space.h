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
// PacketSpace owns both packet-set representations — the ROBDD manager and
// the interval-atom arena (backend.h / interval_set.h) — and routes every
// set operation through the *active* backend. Pipelines that never see a
// multi-field predicate run entirely on interval atoms; the first predicate
// outside the interval vocabulary (src prefix, proto, port range, ACL
// filter) triggers a one-time migration to the BDD backend. Retained
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
#include "dpm/backend.h"
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

/// Owns the packet-set backends, the field encoders, and the migration
/// machinery. The default is the all-BDD backend so existing call sites
/// (and anything poking bdd() directly) behave exactly as before; kAuto
/// starts on interval atoms and migrates to BDDs on demand.
class PacketSpace {
 public:
  explicit PacketSpace(BackendKind kind = BackendKind::kBdd);

  /// Copies carry full set state (both arenas, the active-backend choice,
  /// the translation memo) but NOT migration subscriptions: a subscription
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

  /// The backend requested at construction (never changes).
  BackendKind requested_backend() const noexcept { return requested_; }
  /// The backend currently executing operations (kInterval until the first
  /// multi-field predicate, kBdd after — or always kBdd in kBdd mode).
  BackendKind active_backend() const noexcept { return active_->kind(); }
  /// True once the one-time interval→BDD migration has happened.
  bool migrated() const noexcept { return migrated_; }

  /// Subscribe to the one-time migration event. Fired after the active
  /// backend has flipped to BDD, so handlers may call canonical().
  /// Subscriptions are intentionally not copied with the space.
  void subscribe_migration(std::function<void()> listener);

  /// Flip to the BDD backend (idempotent; no-op when already on BDDs).
  /// Every handle minted so far remains valid — interval handles translate
  /// through canonical() from here on.
  void migrate_to_bdd();

  /// The handle's meaning in the active backend: identity for BDD handles
  /// and for interval handles while the interval backend is active; after
  /// migration, interval handles map (memoized, pinned across gc()) to the
  /// ROBDD of the same destination set.
  BddRef canonical(BddRef r);

  // ---- set algebra over the active backend -------------------------------
  // Operands may be handles from either representation; they are
  // canonicalized first, so callers never need to care when a handle was
  // minted relative to the migration.
  BddRef set_and(BddRef a, BddRef b) { return active_->set_and(canonical(a), canonical(b)); }
  BddRef set_or(BddRef a, BddRef b) { return active_->set_or(canonical(a), canonical(b)); }
  BddRef set_diff(BddRef a, BddRef b) { return active_->set_diff(canonical(a), canonical(b)); }
  BddRef set_xor(BddRef a, BddRef b) { return active_->set_xor(canonical(a), canonical(b)); }
  BddRef set_not(BddRef a) { return active_->set_not(canonical(a)); }
  bool disjoint(BddRef a, BddRef b) { return active_->disjoint(canonical(a), canonical(b)); }
  bool implies(BddRef a, BddRef b) { return active_->implies(canonical(a), canonical(b)); }
  double sat_count(BddRef a) { return active_->sat_count(canonical(a)); }
  /// True when the set's membership can depend on a variable in [lo, hi).
  /// Exact on the BDD backend (support walk); interval-backend sets
  /// constrain the destination address only, so non-trivial handles report
  /// dependence exactly on ranges meeting the dst bits.
  bool depends_on(BddRef a, unsigned lo, unsigned hi);
  std::optional<std::vector<bool>> pick_one(BddRef a) {
    return active_->pick_one(canonical(a));
  }
  /// Pin/unpin route by the handle's own representation (the interval arena
  /// stays live after migration, so its refcounts stay honest too).
  void add_ref(BddRef a) noexcept {
    is_interval_ref(a) ? interval_.add_ref(a) : bdd_.add_ref(a);
  }
  void release(BddRef a) noexcept {
    is_interval_ref(a) ? interval_.release(a) : bdd_.release(a);
  }
  std::size_t gc() { return active_->gc(); }
  std::size_t live_nodes() const noexcept { return active_->live_nodes(); }

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
  bool interval_active() const noexcept {
    return active_->kind() == BackendKind::kInterval;
  }
  /// Migrate if the interval backend is active (called by encoders whose
  /// predicate the interval vocabulary cannot express).
  void require_bdd();

  BddRef ip_prefix(unsigned base, net::Ipv4Prefix p);
  BddRef uint_range(unsigned base, unsigned bits, std::uint32_t lo, std::uint32_t hi);

  BddManager bdd_;
  IntervalAtomBackend interval_;
  BddSetBackend bdd_backend_;
  PacketSpaceBackend* active_;
  BackendKind requested_;
  bool migrated_ = false;
  /// interval handle -> pinned BDD translation (see canonical()).
  std::unordered_map<BddRef, BddRef> interval_to_bdd_;
  std::vector<std::function<void()>> migration_listeners_;
};

}  // namespace rcfg::dpm
