#pragma once

// The packet-space backend interface: the set algebra the equivalence-class
// partition is computed over. EcManager, NetworkModel, the checker and every
// downstream stage manipulate packet sets exclusively through opaque BddRef
// handles and the operations below, so the *representation* of a set is a
// backend decision:
//
//   * BddSetBackend — the historical representation: hash-consed ROBDDs over
//     the full 98-variable packet header space (dst/src IP, proto, ports).
//     Complete: any field combination is expressible.
//   * IntervalAtomBackend (interval_set.h) — Delta-net-style half-open
//     [lo, hi) ranges over the 32-bit destination address space, kept in
//     sorted boundary arrays. Only destination-prefix predicates are
//     expressible — which covers every FIB rule — and operations are linear
//     merges of boundary arrays instead of memoized BDD traversals, roughly
//     an order of magnitude cheaper on prefix-only churn.
//
// PacketSpace owns one of each and routes through the active one; when a
// predicate outside the interval backend's vocabulary appears (an ACL's
// filter_match, a source prefix, a proto/port range), it migrates the
// partition to the BDD backend exactly once (see PacketSpace::migrate_to_bdd).
// Handle spaces are disjoint by construction — interval handles carry
// kIntervalTag in the top bit, BDD node ids grow from 0 — so a stored handle
// always names the representation it was created in, even across migration.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "dpm/bdd.h"

namespace rcfg::dpm {

/// Which packet-space backend a pipeline runs on. A pipeline requests kAuto
/// or kBdd. kAuto starts on the interval-atom backend (FIB rules dominate
/// every real workload) and falls back to BDDs on the first multi-field
/// predicate; kBdd pins the historical all-BDD path. kInterval is not a
/// request: it is the kind the interval-atom backend reports, i.e. what
/// PacketSpace::active_backend() says before a kAuto space migrates.
enum class BackendKind : std::uint8_t { kBdd, kInterval, kAuto };

const char* to_string(BackendKind kind);
/// Parse a service-facing backend request ("bdd" | "auto").
std::optional<BackendKind> backend_kind_of(std::string_view name);

/// The set algebra over packet-set handles. Implementations must be
/// deterministic: the same operation sequence yields the same handle values
/// and the same results, independent of hash-map iteration order — EC ids
/// and compact() remaps downstream are bit-identical across backends
/// because of this.
class PacketSpaceBackend {
 public:
  virtual ~PacketSpaceBackend() = default;

  virtual BackendKind kind() const noexcept = 0;

  virtual BddRef set_and(BddRef a, BddRef b) = 0;
  virtual BddRef set_or(BddRef a, BddRef b) = 0;
  /// a ∧ ¬b
  virtual BddRef set_diff(BddRef a, BddRef b) = 0;
  virtual BddRef set_xor(BddRef a, BddRef b) = 0;
  virtual BddRef set_not(BddRef a) = 0;

  virtual bool disjoint(BddRef a, BddRef b) = 0;
  /// a ⊆ b (as sets)
  virtual bool implies(BddRef a, BddRef b) = 0;

  /// Pin/unpin a handle across gc(). Terminals are always live.
  virtual void add_ref(BddRef a) noexcept = 0;
  virtual void release(BddRef a) noexcept = 0;
  virtual std::size_t gc() = 0;

  /// Number of satisfying packets over the full header space.
  virtual double sat_count(BddRef a) = 0;
  /// One satisfying assignment over all packet variables, or nullopt for
  /// the empty set. Must be the *lexicographically minimal* member in
  /// variable order (unconstrained variables 0) so witness packets agree
  /// across backends.
  virtual std::optional<std::vector<bool>> pick_one(BddRef a) const = 0;

  /// Live representation nodes (BDD nodes / interval sets) for the gauges.
  virtual std::size_t live_nodes() const noexcept = 0;
};

/// The ROBDD implementation: thin adapter over the BddManager that
/// PacketSpace owns anyway. Stateless beyond the manager pointer, so
/// PacketSpace re-seats it on copy.
class BddSetBackend final : public PacketSpaceBackend {
 public:
  explicit BddSetBackend(BddManager* bdd) : bdd_(bdd) {}

  BackendKind kind() const noexcept override { return BackendKind::kBdd; }
  BddRef set_and(BddRef a, BddRef b) override { return bdd_->bdd_and(a, b); }
  BddRef set_or(BddRef a, BddRef b) override { return bdd_->bdd_or(a, b); }
  BddRef set_diff(BddRef a, BddRef b) override { return bdd_->bdd_diff(a, b); }
  BddRef set_xor(BddRef a, BddRef b) override { return bdd_->bdd_xor(a, b); }
  BddRef set_not(BddRef a) override { return bdd_->bdd_not(a); }
  bool disjoint(BddRef a, BddRef b) override { return bdd_->disjoint(a, b); }
  bool implies(BddRef a, BddRef b) override { return bdd_->implies(a, b); }
  void add_ref(BddRef a) noexcept override { bdd_->add_ref(a); }
  void release(BddRef a) noexcept override { bdd_->release(a); }
  std::size_t gc() override { return bdd_->gc(); }
  double sat_count(BddRef a) override { return bdd_->sat_count(a); }
  std::optional<std::vector<bool>> pick_one(BddRef a) const override {
    return bdd_->pick_one(a);
  }
  std::size_t live_nodes() const noexcept override { return bdd_->node_count(); }

  void reseat(BddManager* bdd) noexcept { bdd_ = bdd; }

 private:
  BddManager* bdd_;
};

}  // namespace rcfg::dpm
