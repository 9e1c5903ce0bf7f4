// Backend-parity suite: the interval-atom and BDD packet-space backends
// must be observationally identical through the EcManager — same split
// sequences, same EC ids, same membership answers, same remaps — and the
// interval backend's own set algebra must agree with the BDD oracle on
// every operation. The parameterized fixture replays identical scripts on
// a reference stack moved onto BDDs at construction and on a stack started
// either the same way or on interval atoms; the interval-specific
// tests pin the edge cases (/0, /32, adjacent-range coalescing, minimal
// witnesses) that the shared scripts could miss.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "dpm/ec.h"
#include "dpm/interval_set.h"
#include "dpm/packet_space.h"

namespace rcfg::dpm {
namespace {

net::Ipv4Prefix pfx(const char* s) { return *net::Ipv4Prefix::parse(s); }

/// Partition invariants via the facade (works for either backend): atoms
/// pairwise disjoint, nonempty, covering the full space.
void check_partition(PacketSpace& s, const EcManager& ecs) {
  BddRef cover = kBddFalse;
  for (EcId i = 0; i < ecs.ec_count(); ++i) {
    ASSERT_NE(ecs.ec_bdd(i), kBddFalse) << "empty atom " << i;
    for (EcId j = i + 1; j < ecs.ec_count(); ++j) {
      ASSERT_TRUE(s.disjoint(ecs.ec_bdd(i), ecs.ec_bdd(j)))
          << "atoms " << i << " and " << j << " overlap";
    }
    cover = s.set_or(cover, ecs.ec_bdd(i));
  }
  ASSERT_EQ(cover, kBddTrue) << "atoms do not cover the space";
}

/// A deterministic mixed script of prefixes: nested, disjoint, adjacent,
/// and the /0 and /32 extremes.
std::vector<net::Ipv4Prefix> script_prefixes() {
  return {pfx("10.0.0.0/8"),    pfx("10.1.0.0/16"),   pfx("10.1.2.0/24"),
          pfx("20.0.0.0/8"),    pfx("10.0.0.0/9"),    pfx("10.128.0.0/9"),
          pfx("0.0.0.0/0"),     pfx("10.1.2.3/32"),   pfx("192.168.0.0/24"),
          pfx("192.168.1.0/24"), pfx("10.1.0.0/16"),  pfx("172.16.0.0/12")};
}

/// How the stack under test starts. The byte values are what gtest prints
/// for each instance's parameter, so they keep the instance ids stable.
enum class Start : std::uint8_t { kBdd = 0, kInterval = 2 };

/// A space already on BDDs: the reference representation.
PacketSpace bdd_space() {
  PacketSpace s;
  s.migrate_to_bdd();
  return s;
}

PacketSpace space_for(Start start) {
  return start == Start::kBdd ? bdd_space() : PacketSpace();
}

class BackendParity : public ::testing::TestWithParam<Start> {};

INSTANTIATE_TEST_SUITE_P(Backends, BackendParity,
                         ::testing::Values(Start::kBdd, Start::kInterval),
                         [](const auto& info) {
                           return info.param == Start::kBdd ? "bdd" : "auto";
                         });

TEST_P(BackendParity, RegisterSplitsAreBitIdentical) {
  PacketSpace ref_space = bdd_space();
  EcManager ref(ref_space);
  PacketSpace space = space_for(GetParam());
  EcManager ecs(space);

  for (const net::Ipv4Prefix& p : script_prefixes()) {
    const auto want = ref.register_predicate(ref_space.dst_prefix(p));
    const auto got = ecs.register_predicate(space.dst_prefix(p));
    ASSERT_EQ(got.size(), want.size()) << p.to_string();
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].parent, want[i].parent);
      EXPECT_EQ(got[i].child, want[i].child);
    }
  }
  ASSERT_EQ(ecs.ec_count(), ref.ec_count());
  check_partition(space, ecs);
  // Same membership answers per EC id: each atom denotes the same set.
  for (const net::Ipv4Prefix& p : script_prefixes()) {
    EXPECT_EQ(ecs.ecs_in(space.dst_prefix(p)), ref.ecs_in(ref_space.dst_prefix(p)))
        << p.to_string();
  }
}

TEST_P(BackendParity, EcOfAgreesWithReference) {
  PacketSpace ref_space = bdd_space();
  EcManager ref(ref_space);
  PacketSpace space = space_for(GetParam());
  EcManager ecs(space);
  for (const net::Ipv4Prefix& p : script_prefixes()) {
    ref.register_predicate(ref_space.dst_prefix(p));
    ecs.register_predicate(space.dst_prefix(p));
  }
  for (const char* a : {"10.1.2.3/32", "10.1.9.9/32", "10.200.0.1/32", "20.0.0.1/32",
                        "172.16.1.1/32", "192.168.1.77/32", "8.8.8.8/32"}) {
    EXPECT_EQ(ecs.ec_of(space.dst_prefix(pfx(a))), ref.ec_of(ref_space.dst_prefix(pfx(a))))
        << a;
  }
}

TEST_P(BackendParity, UnregisterCompactRemapsIdentically) {
  PacketSpace ref_space = bdd_space();
  EcManager ref(ref_space);
  PacketSpace space = space_for(GetParam());
  EcManager ecs(space);
  const auto script = script_prefixes();
  for (const net::Ipv4Prefix& p : script) {
    ref.register_predicate(ref_space.dst_prefix(p));
    ecs.register_predicate(space.dst_prefix(p));
  }
  // Withdraw every other prefix, then compact both stacks.
  for (std::size_t i = 0; i < script.size(); i += 2) {
    ref.unregister_predicate(ref_space.dst_prefix(script[i]));
    ecs.unregister_predicate(space.dst_prefix(script[i]));
  }
  const auto want = ref.compact();
  const auto got = ecs.compact();
  ASSERT_EQ(got.has_value(), want.has_value());
  if (got) {
    EXPECT_EQ(got->forward, want->forward);
    EXPECT_EQ(got->new_count, want->new_count);
  }
  EXPECT_EQ(ecs.ec_count(), ref.ec_count());
  check_partition(space, ecs);
  // Boundary coalescing after compact: the merged atoms must behave as one
  // coalesced set, so re-registering a withdrawn prefix splits again in the
  // same places on both stacks.
  for (std::size_t i = 0; i < script.size(); i += 2) {
    const auto w = ref.register_predicate(ref_space.dst_prefix(script[i]));
    const auto g = ecs.register_predicate(space.dst_prefix(script[i]));
    ASSERT_EQ(g.size(), w.size());
    for (std::size_t k = 0; k < g.size(); ++k) {
      EXPECT_EQ(g[k].parent, w[k].parent);
      EXPECT_EQ(g[k].child, w[k].child);
    }
  }
  EXPECT_EQ(ecs.ec_count(), ref.ec_count());
}

TEST_P(BackendParity, SnapshotRestoreRoundTrips) {
  PacketSpace space = space_for(GetParam());
  EcManager ecs(space);
  ecs.register_predicate(space.dst_prefix(pfx("10.0.0.0/8")));
  ecs.register_predicate(space.dst_prefix(pfx("10.1.0.0/16")));
  const std::size_t count_at_snap = ecs.ec_count();
  const auto ec_snap = ecs.snapshot();
  const PacketSpace space_snap = space;  // value copy, listeners dropped

  ecs.register_predicate(space.dst_prefix(pfx("30.0.0.0/8")));
  ecs.register_predicate(space.dst_prefix(pfx("40.0.0.0/8")));
  ecs.unregister_predicate(space.dst_prefix(pfx("10.1.0.0/16")));
  ecs.compact();
  ASSERT_NE(ecs.ec_count(), count_at_snap);

  space = space_snap;
  ecs.restore(ec_snap);
  EXPECT_EQ(ecs.ec_count(), count_at_snap);
  check_partition(space, ecs);
  // Post-restore the stack keeps working: fresh registrations still split.
  const auto splits = ecs.register_predicate(space.dst_prefix(pfx("10.1.2.0/24")));
  EXPECT_FALSE(splits.empty());
  check_partition(space, ecs);
}

TEST_P(BackendParity, WitnessAndCountsMatchReference) {
  PacketSpace ref_space = bdd_space();
  EcManager ref(ref_space);
  PacketSpace space = space_for(GetParam());
  EcManager ecs(space);
  for (const net::Ipv4Prefix& p : script_prefixes()) {
    ref.register_predicate(ref_space.dst_prefix(p));
    ecs.register_predicate(space.dst_prefix(p));
  }
  ASSERT_EQ(ecs.ec_count(), ref.ec_count());
  for (EcId e = 0; e < ecs.ec_count(); ++e) {
    EXPECT_EQ(space.pick_one(ecs.ec_bdd(e)), ref_space.pick_one(ref.ec_bdd(e)))
        << "witness for EC " << e;
    EXPECT_EQ(space.sat_count(ecs.ec_bdd(e)), ref_space.sat_count(ref.ec_bdd(e)))
        << "sat_count for EC " << e;
  }
}

TEST_P(BackendParity, RandomScriptsStayBitIdentical) {
  core::Rng rng{0xBACC0000u + static_cast<unsigned>(GetParam())};
  PacketSpace ref_space = bdd_space();
  EcManager ref(ref_space);
  PacketSpace space = space_for(GetParam());
  EcManager ecs(space);
  std::vector<net::Ipv4Prefix> live;
  for (int step = 0; step < 120; ++step) {
    if (live.empty() || rng.next_in(0, 3) != 0) {
      const auto len = static_cast<std::uint8_t>(rng.next_in(0, 32));
      const net::Ipv4Prefix p{net::Ipv4Addr{static_cast<std::uint32_t>(rng.next())}, len};
      live.push_back(p);
      const auto want = ref.register_predicate(ref_space.dst_prefix(p));
      const auto got = ecs.register_predicate(space.dst_prefix(p));
      ASSERT_EQ(got.size(), want.size()) << "step " << step;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].parent, want[i].parent);
        ASSERT_EQ(got[i].child, want[i].child);
      }
    } else {
      const std::size_t k = rng.next_in(0, live.size() - 1);
      ref.unregister_predicate(ref_space.dst_prefix(live[k]));
      ecs.unregister_predicate(space.dst_prefix(live[k]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      if (rng.next_in(0, 4) == 0) {
        const auto want = ref.compact();
        const auto got = ecs.compact();
        ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
        if (got) {
          ASSERT_EQ(got->forward, want->forward);
          ASSERT_EQ(got->new_count, want->new_count);
        }
      }
    }
    ASSERT_EQ(ecs.ec_count(), ref.ec_count()) << "step " << step;
  }
  check_partition(space, ecs);
}

// ---- interval-backend specifics -------------------------------------------

TEST(IntervalBackend, TerminalAndTaggedHandles) {
  PacketSpace s;
  EXPECT_EQ(s.active_backend(), BackendKind::kInterval);
  // /0 is the whole space: the shared true terminal, not an arena entry.
  EXPECT_EQ(s.dst_prefix(pfx("0.0.0.0/0")), kBddTrue);
  const BddRef p = s.dst_prefix(pfx("10.0.0.0/8"));
  EXPECT_TRUE(is_interval_ref(p));
  // Hash-consing: the same prefix interns to the same handle.
  EXPECT_EQ(s.dst_prefix(pfx("10.0.0.0/8")), p);
}

TEST(IntervalBackend, Slash32IsOneAddress) {
  PacketSpace s;
  const BddRef p = s.dst_prefix(pfx("10.1.2.3/32"));
  EXPECT_EQ(s.interval().address_count(p), 1u);
  // One dst address x 2^66 free non-dst variable assignments.
  PacketSpace b = bdd_space();
  EXPECT_EQ(s.sat_count(p), b.sat_count(b.dst_prefix(pfx("10.1.2.3/32"))));
  const auto w = s.pick_one(p);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(PacketSpace::dst_of(*w), net::Ipv4Addr(10, 1, 2, 3));
}

TEST(IntervalBackend, AdjacentRangesCoalesce) {
  PacketSpace s;
  const BddRef lo = s.dst_prefix(pfx("10.0.0.0/25"));
  const BddRef hi = s.dst_prefix(pfx("10.0.0.128/25"));
  // The union of two adjacent halves IS the covering /24 — same handle,
  // because canonicalization coalesces the boundary and interning is by
  // canonical form.
  EXPECT_EQ(s.set_or(lo, hi), s.dst_prefix(pfx("10.0.0.0/24")));
  // Complement halves reassemble the full space exactly.
  const BddRef p = s.dst_prefix(pfx("77.0.0.0/8"));
  EXPECT_EQ(s.set_or(p, s.set_not(p)), kBddTrue);
  EXPECT_EQ(s.set_and(p, s.set_not(p)), kBddFalse);
}

TEST(IntervalBackend, ImpliesAndDisjointEdgeCases) {
  PacketSpace s;
  const BddRef p24a = s.dst_prefix(pfx("10.0.0.0/24"));
  const BddRef p24b = s.dst_prefix(pfx("10.0.1.0/24"));  // adjacent, disjoint
  const BddRef p23 = s.dst_prefix(pfx("10.0.0.0/23"));   // their union
  EXPECT_TRUE(s.disjoint(p24a, p24b));
  EXPECT_TRUE(s.implies(p24a, p23));
  EXPECT_TRUE(s.implies(p24b, p23));
  EXPECT_FALSE(s.implies(p23, p24a));
  EXPECT_EQ(s.set_or(p24a, p24b), p23);
  // A union with a gap does NOT cover a range spanning the gap.
  const BddRef gappy = s.set_or(p24a, s.dst_prefix(pfx("10.0.2.0/24")));
  EXPECT_FALSE(s.implies(p23, gappy));
  EXPECT_FALSE(s.disjoint(p23, gappy));
  // diff/xor agree with their definitions.
  EXPECT_EQ(s.set_diff(p23, p24a), p24b);
  EXPECT_EQ(s.set_xor(p23, p24a), p24b);
  EXPECT_EQ(s.set_xor(p24a, p24b), p23);
}

TEST(IntervalBackend, RandomSetAlgebraMatchesBddOracle) {
  core::Rng rng{0x1A7e57};
  PacketSpace iv;
  PacketSpace bd = bdd_space();
  // Build matched pools of random sets via identical op sequences, then
  // compare every observable: implies/disjoint matrices, sat counts,
  // minimal witnesses.
  std::vector<BddRef> is, bs;
  for (int i = 0; i < 10; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.next_in(4, 28));
    const net::Ipv4Prefix p{net::Ipv4Addr{static_cast<std::uint32_t>(rng.next())}, len};
    is.push_back(iv.dst_prefix(p));
    bs.push_back(bd.dst_prefix(p));
  }
  for (int i = 0; i < 40; ++i) {
    const std::size_t a = rng.next_in(0, is.size() - 1);
    const std::size_t b = rng.next_in(0, is.size() - 1);
    switch (rng.next_in(0, 4)) {
      case 0: is.push_back(iv.set_and(is[a], is[b])); bs.push_back(bd.set_and(bs[a], bs[b])); break;
      case 1: is.push_back(iv.set_or(is[a], is[b]));  bs.push_back(bd.set_or(bs[a], bs[b])); break;
      case 2: is.push_back(iv.set_diff(is[a], is[b])); bs.push_back(bd.set_diff(bs[a], bs[b])); break;
      case 3: is.push_back(iv.set_xor(is[a], is[b])); bs.push_back(bd.set_xor(bs[a], bs[b])); break;
      case 4: is.push_back(iv.set_not(is[a]));        bs.push_back(bd.set_not(bs[a])); break;
    }
  }
  for (std::size_t i = 0; i < is.size(); ++i) {
    ASSERT_EQ(iv.sat_count(is[i]), bd.sat_count(bs[i])) << "set " << i;
    ASSERT_EQ(iv.pick_one(is[i]), bd.pick_one(bs[i])) << "set " << i;
    for (std::size_t j = 0; j < is.size(); ++j) {
      ASSERT_EQ(iv.implies(is[i], is[j]), bd.implies(bs[i], bs[j])) << i << "," << j;
      ASSERT_EQ(iv.disjoint(is[i], is[j]), bd.disjoint(bs[i], bs[j])) << i << "," << j;
    }
  }
}

TEST(IntervalBackend, RefcountsAreHonest) {
  PacketSpace s;
  const BddRef p = s.dst_prefix(pfx("10.0.0.0/8"));
  EXPECT_EQ(s.interval().ref_count(p), 0u);
  s.add_ref(p);
  s.add_ref(p);
  EXPECT_EQ(s.interval().ref_count(p), 2u);
  s.release(p);
  EXPECT_EQ(s.interval().ref_count(p), 1u);
  s.release(p);
  EXPECT_EQ(s.interval().ref_count(p), 0u);
  // Terminals are never pinned.
  s.add_ref(kBddTrue);
  s.release(kBddTrue);
  // gc() is a no-op for the append-only arena: the handle stays valid.
  EXPECT_EQ(s.gc(), 0u);
  EXPECT_EQ(s.dst_prefix(pfx("10.0.0.0/8")), p);
}

// ---- migration mechanics ---------------------------------------------------

TEST(BackendMigration, MultiFieldEncodersTriggerOnce) {
  int fired = 0;
  {
    PacketSpace s;
    s.subscribe_migration([&] { ++fired; });
    ASSERT_EQ(s.active_backend(), BackendKind::kInterval);
    // Trivial non-dst fields do NOT migrate.
    EXPECT_EQ(s.src_prefix(pfx("0.0.0.0/0")), kBddTrue);
    EXPECT_EQ(s.proto(config::IpProto::kAny), kBddTrue);
    EXPECT_EQ(s.src_port_range(0, 0xFFFF), kBddTrue);
    EXPECT_EQ(s.active_backend(), BackendKind::kInterval);
    EXPECT_EQ(fired, 0);
    // A real source prefix cannot be an interval over dst: migrate.
    s.src_prefix(pfx("192.168.0.0/16"));
    EXPECT_EQ(s.active_backend(), BackendKind::kBdd);
    EXPECT_TRUE(s.migrated());
    EXPECT_EQ(fired, 1);
    // Further triggers are no-ops.
    s.proto(config::IpProto::kTcp);
    s.dst_port_range(80, 80);
    s.migrate_to_bdd();
    EXPECT_EQ(fired, 1);
  }
  // Each trigger kind migrates a fresh space.
  for (int kind = 0; kind < 3; ++kind) {
    PacketSpace s;
    switch (kind) {
      case 0: s.proto(config::IpProto::kUdp); break;
      case 1: s.src_port_range(1024, 2048); break;
      case 2: {
        routing::FilterRule r;  // default rule matches everything — still an ACL
        s.filter_match(r);
        break;
      }
    }
    EXPECT_TRUE(s.migrated()) << "trigger kind " << kind;
  }
}

TEST(BackendMigration, EcIdsAndAnswersSurviveMigration) {
  PacketSpace s;
  EcManager ecs(s);
  for (const net::Ipv4Prefix& p : script_prefixes()) {
    ecs.register_predicate(s.dst_prefix(p));
  }
  const std::size_t count_before = ecs.ec_count();
  // Record pre-migration observables, keyed by EC id.
  std::vector<std::optional<std::vector<bool>>> witnesses;
  std::vector<BddRef> old_atoms;
  for (EcId e = 0; e < count_before; ++e) {
    witnesses.push_back(s.pick_one(ecs.ec_bdd(e)));
    old_atoms.push_back(ecs.ec_bdd(e));
  }
  const BddRef retained = s.dst_prefix(pfx("10.1.0.0/16"));  // pre-migration handle

  s.src_prefix(pfx("192.168.0.0/16"));  // force migration
  ASSERT_TRUE(s.migrated());

  // Same partition, same ids, same witnesses; atoms now live as BDDs.
  ASSERT_EQ(ecs.ec_count(), count_before);
  for (EcId e = 0; e < count_before; ++e) {
    EXPECT_FALSE(is_interval_ref(ecs.ec_bdd(e))) << "atom " << e << " not rekeyed";
    EXPECT_EQ(s.pick_one(ecs.ec_bdd(e)), witnesses[e]) << "witness for EC " << e;
    // The old interval handle still denotes the same set through canonical().
    EXPECT_EQ(s.canonical(old_atoms[e]), ecs.ec_bdd(e));
  }
  check_partition(s, ecs);
  // Retained pre-migration handles keep answering queries...
  const auto members = ecs.ecs_in(retained);
  EXPECT_EQ(members, ecs.ecs_in(s.dst_prefix(pfx("10.1.0.0/16"))));
  EXPECT_FALSE(members.empty());
  // ...and the partition keeps refining across the representation switch.
  const auto splits = ecs.register_predicate(s.src_prefix(pfx("10.0.0.0/8")));
  EXPECT_FALSE(splits.empty());
  check_partition(s, ecs);
  // Pairing survives too: predicates registered pre-migration unregister
  // cleanly post-migration via canonical rekeying.
  ecs.unregister_predicate(retained);
  EXPECT_EQ(ecs.stats().unknown_unregisters, 0u);
}

TEST(BackendMigration, CompactAfterMigrationMatchesAllBddRun) {
  const auto run = [](Start start) {
    PacketSpace s = space_for(start);
    EcManager ecs(s);
    const auto script = script_prefixes();
    for (const net::Ipv4Prefix& p : script) ecs.register_predicate(s.dst_prefix(p));
    s.migrate_to_bdd();  // no-op for Start::kBdd
    for (std::size_t i = 0; i < script.size(); i += 2) {
      ecs.unregister_predicate(s.dst_prefix(script[i]));
    }
    const auto remap = ecs.compact();
    return std::make_pair(remap, ecs.ec_count());
  };
  const auto [remap_bdd, count_bdd] = run(Start::kBdd);
  const auto [remap_auto, count_auto] = run(Start::kInterval);
  ASSERT_EQ(remap_auto.has_value(), remap_bdd.has_value());
  if (remap_auto) {
    EXPECT_EQ(remap_auto->forward, remap_bdd->forward);
    EXPECT_EQ(remap_auto->new_count, remap_bdd->new_count);
  }
  EXPECT_EQ(count_auto, count_bdd);
}

TEST(BackendMigration, CopiesDropMigrationSubscriptions) {
  PacketSpace original;
  int fired = 0;
  original.subscribe_migration([&] { ++fired; });
  original.dst_prefix(pfx("10.0.0.0/8"));

  // A value copy (what snapshots take) migrating must NOT fire the
  // original's listener — it would rekey a live EcManager against the
  // wrong space.
  PacketSpace copy = original;
  copy.src_prefix(pfx("1.2.0.0/16"));
  EXPECT_TRUE(copy.migrated());
  EXPECT_FALSE(original.migrated());
  EXPECT_EQ(fired, 0);

  // Copy-assign back (what restore does): set state rewinds, the original's
  // own subscription stays wired and fires on a later live migration.
  original = copy;
  EXPECT_TRUE(original.migrated());  // snapshot state carried over
  PacketSpace fresh;
  int fresh_fired = 0;
  fresh.subscribe_migration([&] { ++fresh_fired; });
  original = fresh;  // rewind to a pre-migration state
  EXPECT_FALSE(original.migrated());
  original.src_prefix(pfx("1.2.0.0/16"));
  EXPECT_TRUE(original.migrated());
  EXPECT_EQ(fired, 1);        // the original's listener, not the donor's
  EXPECT_EQ(fresh_fired, 0);  // the donor's listener never crossed over
}

}  // namespace
}  // namespace rcfg::dpm
