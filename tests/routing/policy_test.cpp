#include "routing/policy.h"

#include <gtest/gtest.h>

#include "core/rng.h"

namespace rcfg::routing {
namespace {

using config::Action;
using config::RouteAttrs;

net::Ipv4Prefix pfx(const char* s) { return *net::Ipv4Prefix::parse(s); }

config::DeviceConfig device_with_policy() {
  config::DeviceConfig dev;
  config::PrefixList pl;
  pl.name = "PL";
  pl.entries.push_back(config::PrefixListEntry{10, Action::kPermit, pfx("10.0.0.0/8"), 0, 32});
  dev.prefix_lists["PL"] = pl;

  config::RouteMap rm;
  rm.name = "RM";
  config::RouteMapClause c1;
  c1.seq = 10;
  c1.match_prefix_list = "PL";
  c1.set_local_pref = 200;
  rm.clauses.push_back(c1);
  config::RouteMapClause c2;
  c2.seq = 20;
  c2.action = Action::kDeny;
  rm.clauses.push_back(c2);
  dev.route_maps["RM"] = rm;
  return dev;
}

TEST(CompilePolicy, ResolvesPrefixLists) {
  const config::DeviceConfig dev = device_with_policy();
  const CompiledPolicy p = compile_policy(dev, "RM");
  ASSERT_EQ(p.clauses.size(), 2u);
  EXPECT_TRUE(p.clauses[0].has_match);
  ASSERT_EQ(p.clauses[0].match_entries.size(), 1u);
  EXPECT_EQ(p.clauses[0].match_entries[0].prefix, pfx("10.0.0.0/8"));
  EXPECT_FALSE(p.clauses[1].has_match);
}

TEST(CompilePolicy, DanglingRouteMapRejectsAll) {
  const config::DeviceConfig dev;
  const CompiledPolicy p = compile_policy(dev, "NOPE");
  EXPECT_TRUE(p.clauses.empty());
  EXPECT_FALSE(apply_policy(p, pfx("10.0.0.0/8"), RouteAttrs{}).has_value());
}

TEST(CompilePolicy, DanglingPrefixListFailsClosed) {
  config::DeviceConfig dev;
  config::RouteMap rm;
  config::RouteMapClause c;
  c.seq = 10;
  c.match_prefix_list = "MISSING";
  rm.clauses.push_back(c);
  dev.route_maps["RM"] = rm;
  const CompiledPolicy p = compile_policy(dev, "RM");
  EXPECT_FALSE(apply_policy(p, pfx("10.0.0.0/8"), RouteAttrs{}).has_value());
}

TEST(ApplyPolicy, MatchesUncompiledSemantics) {
  const config::DeviceConfig dev = device_with_policy();
  const CompiledPolicy p = compile_policy(dev, "RM");
  const config::RouteMap& rm = dev.route_maps.at("RM");

  for (const char* s : {"10.0.0.0/8", "10.1.0.0/16", "10.1.2.3/32", "192.168.0.0/16", "0.0.0.0/0"}) {
    const auto a = apply_policy(p, pfx(s), RouteAttrs{});
    const auto b = config::apply_route_map(rm, dev, pfx(s), RouteAttrs{});
    EXPECT_EQ(a.has_value(), b.has_value()) << s;
    if (a && b) {
      EXPECT_EQ(*a, *b) << s;
    }
  }
}

/// Property: compiled and uncompiled evaluation agree on random policies
/// and random routes.
TEST(ApplyPolicyProperty, RandomPoliciesAgree) {
  core::Rng rng{31337};
  for (int trial = 0; trial < 50; ++trial) {
    config::DeviceConfig dev;
    config::PrefixList pl;
    pl.name = "P";
    for (int i = 0; i < 4; ++i) {
      config::PrefixListEntry e;
      e.seq = (i + 1) * 10;
      e.action = rng.next_bool(0.7) ? Action::kPermit : Action::kDeny;
      const auto len = static_cast<std::uint8_t>(rng.next_in(4, 28));
      e.prefix = net::Ipv4Prefix{net::Ipv4Addr{static_cast<std::uint32_t>(rng.next())}, len};
      if (rng.next_bool(0.5)) e.ge = static_cast<std::uint8_t>(rng.next_in(len, 32));
      if (rng.next_bool(0.5)) e.le = static_cast<std::uint8_t>(rng.next_in(e.ge ? e.ge : len, 32));
      pl.entries.push_back(e);
    }
    dev.prefix_lists["P"] = pl;

    config::RouteMap rm;
    rm.name = "R";
    for (int i = 0; i < 3; ++i) {
      config::RouteMapClause c;
      c.seq = (i + 1) * 10;
      c.action = rng.next_bool(0.8) ? Action::kPermit : Action::kDeny;
      if (rng.next_bool(0.6)) c.match_prefix_list = "P";
      if (rng.next_bool(0.5)) c.set_local_pref = static_cast<std::uint32_t>(rng.next_in(50, 300));
      if (rng.next_bool(0.3)) c.set_med = static_cast<std::uint32_t>(rng.next_in(0, 100));
      rm.clauses.push_back(c);
    }
    dev.route_maps["R"] = rm;

    const CompiledPolicy p = compile_policy(dev, "R");
    for (int probe = 0; probe < 40; ++probe) {
      const auto len = static_cast<std::uint8_t>(rng.next_in(0, 32));
      const net::Ipv4Prefix route{net::Ipv4Addr{static_cast<std::uint32_t>(rng.next())}, len};
      RouteAttrs in;
      in.local_pref = static_cast<std::uint32_t>(rng.next_in(1, 400));
      const auto a = apply_policy(p, route, in);
      const auto b = config::apply_route_map(rm, dev, route, in);
      ASSERT_EQ(a.has_value(), b.has_value()) << route.to_string();
      if (a) {
        ASSERT_EQ(*a, *b) << route.to_string();
      }
    }
  }
}

TEST(CompiledPolicy, HashAndEqualityTrackContent) {
  const config::DeviceConfig dev = device_with_policy();
  const CompiledPolicy a = compile_policy(dev, "RM");
  CompiledPolicy b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::hash<CompiledPolicy>{}(a), std::hash<CompiledPolicy>{}(b));
  b.clauses[0].set_local_pref = 201;
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace rcfg::routing
