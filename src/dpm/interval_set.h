#pragma once

// The Delta-net-style interval-atom arena every PacketSpace starts on:
// packet sets that constrain only the destination address, represented as sorted boundary arrays of
// half-open [lo, hi) ranges over the 32-bit destination space.
//
// A destination prefix a.b.c.d/len is exactly one such range
// [base, base + 2^(32-len)); boolean combinations of prefixes are unions of
// disjoint ranges. Every operation is a linear two-pointer merge of two
// boundary arrays — no memo tables, no node allocation per operation — which
// is why prefix-only EC maintenance runs an order of magnitude faster here
// than on BDDs (Delta-net, PAPERS.md).
//
// Sets are canonicalized (sorted, disjoint, adjacent ranges coalesced,
// empty/full collapsed to the shared kBddFalse/kBddTrue terminals) and
// hash-consed, so equal sets always get equal handles — the property the
// EcManager's atom index and predicate refcounts rely on, and the property
// that makes the interval handle space behave exactly like the BDD handle
// space. Nontrivial handles carry kIntervalTag in the top bit so they can
// never collide with BDD node ids (a BDD arena would need 2^31 live nodes
// to reach the tag bit).
//
// The arena is append-only: handles are never recycled, so a handle stays
// valid (and keeps denoting the same set) for the life of the PacketSpace —
// including after the migration to BDDs, when retained interval handles (in
// policy tables, snapshots, provenance) are translated lazily through
// PacketSpace::canonical(). add_ref/release maintain honest refcounts for
// parity with the BDD contract, but nothing is ever collected: a set is a
// few dozen bytes and the reclamation lever that matters stays BDD-side.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/hash.h"
#include "dpm/bdd.h"
#include "net/ipv4.h"

namespace rcfg::dpm {

/// Top bit of a BddRef marks an interval-arena handle.
inline constexpr BddRef kIntervalTag = 0x8000'0000u;

inline constexpr bool is_interval_ref(BddRef r) noexcept {
  return (r & kIntervalTag) != 0;
}

class IntervalAtomBackend {
 public:
  /// A half-open destination-address range [lo, hi), 0 <= lo < hi <= 2^32.
  using Range = std::pair<std::uint64_t, std::uint64_t>;
  static constexpr std::uint64_t kSpaceEnd = std::uint64_t{1} << 32;

  /// `var_count` is the full packet-variable width (PacketSpace's
  /// kPacketVars): pick_one() answers assignments over the whole header
  /// space and sat_count() scales by the unconstrained non-dst variables,
  /// so results are comparable with the BDD manager's bit for bit.
  explicit IntervalAtomBackend(unsigned var_count) : var_count_(var_count) {}

  /// The handle for "destination lies in p": a single half-open range.
  BddRef dst_prefix(net::Ipv4Prefix p);
  /// Hash-cons an arbitrary range list (canonicalized first).
  BddRef from_ranges(std::vector<Range> ranges);
  /// The defining boundary array of a handle (empty for kBddFalse, the full
  /// space for kBddTrue). Used by PacketSpace::canonical() to rebuild the
  /// set as a BDD after migration.
  const std::vector<Range>& ranges(BddRef h) const;

  BddRef set_and(BddRef a, BddRef b);
  BddRef set_or(BddRef a, BddRef b);
  BddRef set_diff(BddRef a, BddRef b);
  BddRef set_xor(BddRef a, BddRef b);
  BddRef set_not(BddRef a);

  bool disjoint(BddRef a, BddRef b);
  bool implies(BddRef a, BddRef b);

  void add_ref(BddRef a) noexcept;
  void release(BddRef a) noexcept;
  std::uint32_t ref_count(BddRef a) const noexcept;

  double sat_count(BddRef a);
  std::optional<std::vector<bool>> pick_one(BddRef a) const;

  /// Distinct sets interned so far (terminals excluded).
  std::size_t set_count() const noexcept { return sets_.size(); }

  /// Total addresses covered (exact; <= 2^32).
  std::uint64_t address_count(BddRef a) const;

 private:
  struct Entry {
    std::vector<Range> ranges;
    std::uint32_t refs = 0;
  };

  const Entry& entry(BddRef h) const;
  static std::size_t hash_ranges(const std::vector<Range>& ranges);

  unsigned var_count_;
  std::vector<Entry> sets_;                           ///< arena, index = handle & ~tag
  std::unordered_map<std::size_t, std::vector<BddRef>> index_;  ///< hash -> candidates
};

}  // namespace rcfg::dpm
