#include "dpm/packet_space.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"

namespace rcfg::dpm {
namespace {

net::Ipv4Prefix pfx(const char* s) { return *net::Ipv4Prefix::parse(s); }

TEST(PacketSpace, DstPrefixCardinality) {
  PacketSpace s;
  s.migrate_to_bdd();
  // A /24 constrains 24 of 98 bits: 2^(98-24) satisfying assignments.
  const BddRef p = s.dst_prefix(pfx("10.1.2.0/24"));
  EXPECT_DOUBLE_EQ(s.bdd().sat_count(p), std::pow(2.0, 98 - 24));
  EXPECT_EQ(s.dst_prefix(pfx("0.0.0.0/0")), kBddTrue);
}

TEST(PacketSpace, PrefixContainmentMirrorsBddImplication) {
  PacketSpace s;
  s.migrate_to_bdd();
  const BddRef p8 = s.dst_prefix(pfx("10.0.0.0/8"));
  const BddRef p16 = s.dst_prefix(pfx("10.1.0.0/16"));
  const BddRef other = s.dst_prefix(pfx("11.0.0.0/8"));
  EXPECT_TRUE(s.bdd().implies(p16, p8));
  EXPECT_FALSE(s.bdd().implies(p8, p16));
  EXPECT_TRUE(s.bdd().disjoint(p8, other));
}

TEST(PacketSpace, SrcAndDstAreIndependentFields) {
  PacketSpace s;
  s.migrate_to_bdd();
  const BddRef d = s.dst_prefix(pfx("10.0.0.0/8"));
  const BddRef src = s.src_prefix(pfx("10.0.0.0/8"));
  EXPECT_NE(d, src);
  EXPECT_FALSE(s.bdd().disjoint(d, src));  // both constraints can hold
}

TEST(PacketSpace, ProtoEncoding) {
  PacketSpace s;
  s.migrate_to_bdd();
  const BddRef tcp = s.proto(config::IpProto::kTcp);
  const BddRef udp = s.proto(config::IpProto::kUdp);
  const BddRef icmp = s.proto(config::IpProto::kIcmp);
  EXPECT_TRUE(s.bdd().disjoint(tcp, udp));
  EXPECT_TRUE(s.bdd().disjoint(tcp, icmp));
  EXPECT_TRUE(s.bdd().disjoint(udp, icmp));
  EXPECT_EQ(s.proto(config::IpProto::kAny), kBddTrue);
}

TEST(PacketSpace, PortRangeCardinality) {
  PacketSpace s;
  s.migrate_to_bdd();
  EXPECT_EQ(s.dst_port_range(0, 65535), kBddTrue);
  const BddRef one = s.dst_port_range(80, 80);
  EXPECT_DOUBLE_EQ(s.bdd().sat_count(one), std::pow(2.0, 98 - 16));
  const BddRef range = s.dst_port_range(1000, 1999);
  EXPECT_DOUBLE_EQ(s.bdd().sat_count(range), 1000.0 * std::pow(2.0, 98 - 16));
  EXPECT_EQ(s.dst_port_range(5, 4), kBddFalse);
}

/// Property: random port ranges have exactly (hi-lo+1) * 2^82 solutions and
/// nest/intersect correctly.
TEST(PacketSpaceProperty, RandomPortRanges) {
  PacketSpace s;
  s.migrate_to_bdd();
  core::Rng rng{808};
  for (int trial = 0; trial < 50; ++trial) {
    const auto lo = static_cast<std::uint16_t>(rng.next_below(65536));
    const auto hi = static_cast<std::uint16_t>(lo + rng.next_below(65536 - lo));
    const BddRef r = s.src_port_range(lo, hi);
    ASSERT_DOUBLE_EQ(s.bdd().sat_count(r),
                     (static_cast<double>(hi) - lo + 1) * std::pow(2.0, 98 - 16));
    // A sub-range implies the range.
    if (hi > lo) {
      const BddRef sub = s.src_port_range(lo + 1, hi);
      ASSERT_TRUE(s.bdd().implies(sub, r));
    }
  }
}

TEST(PacketSpace, FilterMatchConjunction) {
  PacketSpace s;
  s.migrate_to_bdd();
  routing::FilterRule r;
  r.proto = static_cast<std::uint8_t>(config::IpProto::kTcp);
  r.src = pfx("10.0.0.0/8");
  r.dst = pfx("192.168.0.0/16");
  r.dst_port_lo = 80;
  r.dst_port_hi = 80;
  const BddRef m = s.filter_match(r);
  // 8 + 16 dst... : src /8 (8 bits) + dst /16 (16) + proto (2) + dport (16)
  EXPECT_DOUBLE_EQ(s.bdd().sat_count(m), std::pow(2.0, 98 - 8 - 16 - 2 - 16));
}

TEST(PacketSpace, AclPermitFirstMatchWins) {
  PacketSpace s;
  s.migrate_to_bdd();
  // 10 permit tcp any eq 80; 20 deny tcp; 30 permit ip any any
  routing::FilterRule permit_web;
  permit_web.priority = 0;
  permit_web.permit = true;
  permit_web.proto = static_cast<std::uint8_t>(config::IpProto::kTcp);
  permit_web.dst_port_lo = permit_web.dst_port_hi = 80;
  routing::FilterRule deny_tcp;
  deny_tcp.priority = 1;
  deny_tcp.permit = false;
  deny_tcp.proto = static_cast<std::uint8_t>(config::IpProto::kTcp);
  routing::FilterRule permit_all;
  permit_all.priority = 2;
  permit_all.permit = true;

  const BddRef permit = s.acl_permit_set({permit_web, deny_tcp, permit_all});
  const BddRef tcp80 = s.bdd().bdd_and(s.proto(config::IpProto::kTcp), s.dst_port_range(80, 80));
  const BddRef tcp22 = s.bdd().bdd_and(s.proto(config::IpProto::kTcp), s.dst_port_range(22, 22));
  const BddRef icmp = s.proto(config::IpProto::kIcmp);
  EXPECT_TRUE(s.bdd().implies(tcp80, permit));
  EXPECT_TRUE(s.bdd().disjoint(tcp22, permit));
  EXPECT_TRUE(s.bdd().implies(icmp, permit));
}

TEST(PacketSpace, EmptyAclDeniesEverything) {
  PacketSpace s;
  s.migrate_to_bdd();
  EXPECT_EQ(s.acl_permit_set({}), kBddFalse);
}

TEST(PacketSpace, DstOfRoundTrip) {
  PacketSpace s;
  s.migrate_to_bdd();
  const auto addr = *net::Ipv4Addr::parse("10.1.2.3");
  const BddRef p = s.dst_prefix(net::Ipv4Prefix{addr, 32});
  const auto assignment = s.bdd().pick_one(p);
  ASSERT_TRUE(assignment.has_value());
  EXPECT_EQ(PacketSpace::dst_of(*assignment), addr);
}

}  // namespace
}  // namespace rcfg::dpm
