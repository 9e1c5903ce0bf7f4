#include "dpm/ec.h"

#include <gtest/gtest.h>

#include "core/rng.h"

namespace rcfg::dpm {
namespace {

net::Ipv4Prefix pfx(const char* s) { return *net::Ipv4Prefix::parse(s); }

/// Partition invariants: atoms are pairwise disjoint, nonempty, and cover
/// the full space.
void check_partition(PacketSpace& s, const EcManager& ecs) {
  BddManager& bdd = s.bdd();
  BddRef cover = kBddFalse;
  for (EcId i = 0; i < ecs.ec_count(); ++i) {
    ASSERT_NE(ecs.ec_bdd(i), kBddFalse) << "empty atom " << i;
    for (EcId j = i + 1; j < ecs.ec_count(); ++j) {
      ASSERT_TRUE(bdd.disjoint(ecs.ec_bdd(i), ecs.ec_bdd(j)))
          << "atoms " << i << " and " << j << " overlap";
    }
    cover = bdd.bdd_or(cover, ecs.ec_bdd(i));
  }
  ASSERT_EQ(cover, kBddTrue) << "atoms do not cover the space";
}

TEST(EcManager, StartsWithOneUniversalEc) {
  PacketSpace s;
  s.migrate_to_bdd();
  EcManager ecs(s);
  EXPECT_EQ(ecs.ec_count(), 1u);
  EXPECT_EQ(ecs.ec_bdd(0), kBddTrue);
}

TEST(EcManager, FirstPredicateSplitsInTwo) {
  PacketSpace s;
  s.migrate_to_bdd();
  EcManager ecs(s);
  const BddRef p = s.dst_prefix(pfx("10.0.0.0/8"));
  const auto splits = ecs.register_predicate(p);
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_EQ(splits[0].parent, 0u);
  EXPECT_EQ(splits[0].child, 1u);
  EXPECT_EQ(ecs.ec_count(), 2u);
  // Child holds the inside part.
  EXPECT_EQ(ecs.ec_bdd(1), p);
  check_partition(s, ecs);
}

TEST(EcManager, DuplicateRegistrationNoSplit) {
  PacketSpace s;
  s.migrate_to_bdd();
  EcManager ecs(s);
  const BddRef p = s.dst_prefix(pfx("10.0.0.0/8"));
  ecs.register_predicate(p);
  EXPECT_TRUE(ecs.register_predicate(p).empty());
  EXPECT_EQ(ecs.ec_count(), 2u);
}

TEST(EcManager, DisjointPrefixesGrowLinearly) {
  // APKeep's headline property: n disjoint prefixes => n+1 atoms, not 2^n.
  PacketSpace s;
  s.migrate_to_bdd();
  EcManager ecs(s);
  for (unsigned i = 0; i < 16; ++i) {
    ecs.register_predicate(s.dst_prefix(net::Ipv4Prefix{net::Ipv4Addr{10, 0, (uint8_t)i, 0}, 24}));
  }
  EXPECT_EQ(ecs.ec_count(), 17u);
  check_partition(s, ecs);
}

TEST(EcManager, NestedPrefixesSplitCorrectly) {
  PacketSpace s;
  s.migrate_to_bdd();
  EcManager ecs(s);
  ecs.register_predicate(s.dst_prefix(pfx("10.0.0.0/8")));
  ecs.register_predicate(s.dst_prefix(pfx("10.1.0.0/16")));
  // Atoms: outside /8; /8 minus /16; /16. => 3
  EXPECT_EQ(ecs.ec_count(), 3u);
  check_partition(s, ecs);
}

TEST(EcManager, EcsInRequiresContainment) {
  PacketSpace s;
  s.migrate_to_bdd();
  EcManager ecs(s);
  const BddRef p8 = s.dst_prefix(pfx("10.0.0.0/8"));
  const BddRef p16 = s.dst_prefix(pfx("10.1.0.0/16"));
  ecs.register_predicate(p8);
  ecs.register_predicate(p16);

  const auto in8 = ecs.ecs_in(p8);
  EXPECT_EQ(in8.size(), 2u);  // (/8 minus /16) and /16
  const auto in16 = ecs.ecs_in(p16);
  EXPECT_EQ(in16.size(), 1u);
  EXPECT_TRUE(ecs.ecs_in(kBddFalse).empty());
  EXPECT_EQ(ecs.ecs_in(kBddTrue).size(), ecs.ec_count());
}

TEST(EcManager, EcOfFindsTheAtom) {
  PacketSpace s;
  s.migrate_to_bdd();
  EcManager ecs(s);
  const BddRef p = s.dst_prefix(pfx("10.0.0.0/8"));
  ecs.register_predicate(p);
  const EcId inside = ecs.ec_of(s.dst_prefix(pfx("10.1.2.3/32")));
  const EcId outside = ecs.ec_of(s.dst_prefix(pfx("192.168.0.1/32")));
  EXPECT_NE(inside, outside);
  EXPECT_EQ(ecs.ec_bdd(inside), p);
}

TEST(EcManager, CompactRebuildsMinimalPartition) {
  PacketSpace s;
  s.migrate_to_bdd();
  EcManager ecs(s);
  const BddRef a = s.dst_prefix(pfx("10.0.0.0/8"));
  const BddRef b = s.dst_prefix(pfx("20.0.0.0/8"));
  ecs.register_predicate(a);
  ecs.register_predicate(b);
  EXPECT_EQ(ecs.ec_count(), 3u);
  ecs.unregister_predicate(b);
  ecs.compact();
  EXPECT_EQ(ecs.ec_count(), 2u);  // only `a` still referenced
  check_partition(s, ecs);
}

TEST(EcManager, RefcountLifecycle) {
  PacketSpace s;
  s.migrate_to_bdd();
  EcManager ecs(s);
  const BddRef p = s.dst_prefix(pfx("10.0.0.0/8"));
  EXPECT_EQ(ecs.predicate_refs(p), 0u);
  ecs.register_predicate(p);
  ecs.register_predicate(p);
  EXPECT_EQ(ecs.predicate_refs(p), 2u);
  EXPECT_GT(s.bdd().ref_count(p), 0u);  // registered => pinned as a GC root
  ecs.unregister_predicate(p);
  EXPECT_EQ(ecs.predicate_refs(p), 1u);
  EXPECT_EQ(ecs.dropped_since_compact(), 0u);
  ecs.unregister_predicate(p);
  EXPECT_EQ(ecs.predicate_refs(p), 0u);
  EXPECT_EQ(ecs.predicate_count(), 0u);
  EXPECT_EQ(ecs.dropped_since_compact(), 1u);
  // Re-registering against the still-refined partition splits nothing.
  EXPECT_TRUE(ecs.register_predicate(p).empty());
  EXPECT_EQ(ecs.predicate_refs(p), 1u);
  EXPECT_EQ(ecs.stats().unknown_unregisters, 0u);
}

TEST(EcManager, TrivialPredicatesAreNeverTracked) {
  PacketSpace s;
  s.migrate_to_bdd();
  EcManager ecs(s);
  EXPECT_TRUE(ecs.register_predicate(kBddTrue).empty());
  EXPECT_TRUE(ecs.register_predicate(kBddFalse).empty());
  EXPECT_EQ(ecs.predicate_count(), 0u);
  ecs.unregister_predicate(kBddTrue);  // mirrors register: a no-op, not a bug
  ecs.unregister_predicate(kBddFalse);
  EXPECT_EQ(ecs.stats().unknown_unregisters, 0u);
}

TEST(EcManagerDeathTest, UnknownUnregisterAssertsAndCounts) {
  PacketSpace s;
  s.migrate_to_bdd();
  EcManager ecs(s);
  const BddRef p = s.dst_prefix(pfx("10.0.0.0/8"));
  // Debug builds assert (a register/unregister pairing bug); release
  // builds survive and count the event instead of masking it.
  EXPECT_DEBUG_DEATH(ecs.unregister_predicate(p), "never registered");
#ifdef NDEBUG
  EXPECT_EQ(ecs.stats().unknown_unregisters, 1u);
#endif
}

TEST(EcManager, CompactMergesAndNotifiesRemapListeners) {
  PacketSpace s;
  s.migrate_to_bdd();
  EcManager ecs(s);
  std::vector<EcRemap> seen;
  ecs.subscribe_remap([&](const EcRemap& r) { seen.push_back(r); });
  const BddRef a = s.dst_prefix(pfx("10.0.0.0/8"));
  const BddRef b = s.dst_prefix(pfx("10.1.0.0/16"));
  ecs.register_predicate(a);
  ecs.register_predicate(b);
  ASSERT_EQ(ecs.ec_count(), 3u);  // outside /8; /8 minus /16; /16
  ecs.unregister_predicate(b);
  const auto remap = ecs.compact();
  ASSERT_TRUE(remap.has_value());
  EXPECT_EQ(remap->new_count, 2u);
  ASSERT_EQ(remap->forward.size(), 3u);
  EXPECT_EQ(remap->forward[0], 0u);  // unmerged prefix keeps its id
  EXPECT_EQ(remap->forward[1], remap->forward[2]);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].forward, remap->forward);
  check_partition(s, ecs);
  // The merged atom is exactly the still-registered predicate.
  EXPECT_EQ(ecs.ec_bdd(remap->forward[1]), a);
  EXPECT_EQ(ecs.stats().compactions, 1u);
  EXPECT_EQ(ecs.stats().merged_atoms, 1u);
  EXPECT_EQ(ecs.dropped_since_compact(), 0u);
  // A minimal partition compacts to nothing.
  EXPECT_FALSE(ecs.compact().has_value());
}

TEST(EcManager, CompactPreservesRefcountsAndPartitionSemantics) {
  PacketSpace s;
  s.migrate_to_bdd();
  EcManager ecs(s);
  const BddRef a = s.dst_prefix(pfx("10.0.0.0/8"));
  const BddRef b = s.dst_prefix(pfx("20.0.0.0/8"));
  const BddRef c = s.src_prefix(pfx("30.0.0.0/8"));
  ecs.register_predicate(a);
  ecs.register_predicate(a);
  ecs.register_predicate(b);
  ecs.register_predicate(c);
  ecs.unregister_predicate(b);
  ASSERT_TRUE(ecs.compact().has_value());
  EXPECT_EQ(ecs.predicate_refs(a), 2u);
  EXPECT_EQ(ecs.predicate_refs(c), 1u);
  EXPECT_EQ(ecs.ec_count(), 4u);  // {a, not a} x {c, not c}
  check_partition(s, ecs);
  // Every surviving predicate is still a union of atoms.
  for (const BddRef p : {a, c}) {
    BddRef uni = kBddFalse;
    for (EcId e : ecs.ecs_in(p)) uni = s.bdd().bdd_or(uni, ecs.ec_bdd(e));
    EXPECT_EQ(uni, p);
  }
}

TEST(EcManager, EcsInFastPathsMatchFullScan) {
  PacketSpace s;
  s.migrate_to_bdd();
  EcManager ecs(s);
  const BddRef a = s.dst_prefix(pfx("10.0.0.0/8"));
  ecs.register_predicate(a);
  ecs.register_predicate(s.dst_prefix(pfx("10.1.0.0/16")));

  // Single-atom fast path: an atom's own BDD names exactly that atom.
  for (EcId i = 0; i < ecs.ec_count(); ++i) {
    const auto v = ecs.ecs_in(ecs.ec_bdd(i));
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], i);
  }

  const auto check_members = [&](BddRef p) {
    std::vector<EcId> expect;
    for (EcId i = 0; i < ecs.ec_count(); ++i) {
      if (!s.bdd().disjoint(ecs.ec_bdd(i), p)) expect.push_back(i);
    }
    EXPECT_EQ(ecs.ecs_in(p), expect);
  };
  check_members(a);  // fills the per-predicate cache
  // A later registration splits atoms; the cached list must follow.
  ecs.register_predicate(s.src_prefix(pfx("30.0.0.0/8")));
  check_members(a);
  // And survive a compact (ids renumbered wholesale).
  ecs.unregister_predicate(s.dst_prefix(pfx("10.1.0.0/16")));
  ASSERT_TRUE(ecs.compact().has_value());
  check_members(a);
}

/// Property: after registering random (overlapping) predicates the atom set
/// is always a partition, and each predicate is exactly a union of atoms.
TEST(EcManagerProperty, RandomPredicatesKeepInvariants) {
  core::Rng rng{5555};
  PacketSpace s;
  s.migrate_to_bdd();
  EcManager ecs(s);
  std::vector<BddRef> preds;
  for (int i = 0; i < 24; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.next_in(4, 16));
    const net::Ipv4Prefix p{net::Ipv4Addr{static_cast<std::uint32_t>(rng.next())}, len};
    const BddRef bp = s.dst_prefix(p);
    preds.push_back(bp);
    ecs.register_predicate(bp);
  }
  check_partition(s, ecs);
  for (const BddRef p : preds) {
    BddRef uni = kBddFalse;
    for (EcId e : ecs.ecs_in(p)) {
      ASSERT_TRUE(s.bdd().implies(ecs.ec_bdd(e), p));
      uni = s.bdd().bdd_or(uni, ecs.ec_bdd(e));
    }
    ASSERT_EQ(uni, p) << "predicate is not a union of atoms";
  }
}

}  // namespace
}  // namespace rcfg::dpm
