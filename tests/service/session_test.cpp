#include "service/session.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "config/builders.h"
#include "dd/graph.h"
#include "service_test_util.h"
#include "topo/generators.h"

namespace rcfg::service {
namespace {

PolicySpec reach(const std::string& name, const std::string& src, const std::string& dst,
                 net::Ipv4Prefix prefix) {
  PolicySpec spec;
  spec.kind = PolicySpec::Kind::kReachable;
  spec.name = name;
  spec.src = src;
  spec.dst = dst;
  spec.prefix = prefix;
  return spec;
}

TEST(Session, CommitRoundTrip) {
  const topo::Topology t = topo::make_ring(4);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  Session s("net", t, cfg);
  EXPECT_EQ(s.name(), "net");
  EXPECT_FALSE(s.has_staged());
  EXPECT_GT(s.baseline_report().dataplane.fib.size(), 0u);

  const auto p2 = config::host_prefix(t.find_node("r2"));
  EXPECT_TRUE(s.add_policy(reach("r0-r2", "r0", "r2", p2)));
  EXPECT_TRUE(s.policy_satisfied("r0-r2"));

  config::NetworkConfig changed = cfg;
  config::fail_link(changed, t, 1);  // ring reroutes the long way
  const ProposeOutcome outcome = s.propose(changed);
  ASSERT_TRUE(outcome.converged);
  EXPECT_FALSE(outcome.report.dataplane.empty());
  EXPECT_TRUE(s.has_staged());
  EXPECT_TRUE(s.policy_satisfied("r0-r2"));

  s.commit();
  EXPECT_FALSE(s.has_staged());
  EXPECT_EQ(s.committed(), changed);
}

TEST(Session, AbortRollsBackIncrementally) {
  const topo::Topology t = topo::make_ring(4);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  Session s("net", t, cfg);
  const auto p2 = config::host_prefix(t.find_node("r2"));
  s.add_policy(reach("r0-r2", "r0", "r2", p2));
  const std::size_t baseline_pairs = s.verifier().checker().pair_count();

  // Cut r2 off entirely: the policy flips to violated.
  config::NetworkConfig broken = cfg;
  config::fail_link(broken, t, 1);
  config::fail_link(broken, t, 2);
  ASSERT_TRUE(s.propose(broken).converged);
  EXPECT_FALSE(s.policy_satisfied("r0-r2"));

  // Abort: live state returns to the committed config, incrementally.
  const auto rollback = s.abort();
  EXPECT_FALSE(s.has_staged());
  EXPECT_FALSE(rollback.dataplane.empty());
  EXPECT_TRUE(s.policy_satisfied("r0-r2"));
  EXPECT_EQ(s.verifier().checker().pair_count(), baseline_pairs);
  EXPECT_EQ(s.committed(), cfg);
}

TEST(Session, ReProposeReplacesStagedConfig) {
  const topo::Topology t = topo::make_ring(5);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  Session s("net", t, cfg);

  config::NetworkConfig c1 = cfg;
  config::fail_link(c1, t, 0);
  config::NetworkConfig c2 = cfg;
  config::fail_link(c2, t, 3);

  ASSERT_TRUE(s.propose(c1).converged);
  ASSERT_TRUE(s.propose(c2).converged);  // allowed: replaces the staged c1
  s.commit();
  EXPECT_EQ(s.committed(), c2);

  // Final state is as if only c2 had ever been applied.
  verify::RealConfig oracle(t);
  oracle.apply(cfg);
  oracle.apply(c2);
  EXPECT_EQ(s.verifier().checker().pair_count(), oracle.checker().pair_count());
}

TEST(Session, TransactionMisuseThrows) {
  const topo::Topology t = topo::make_ring(4);
  Session s("net", t, config::build_ospf_network(t));
  EXPECT_THROW(s.commit(), std::logic_error);
  EXPECT_THROW(s.abort(), std::logic_error);
}

TEST(Session, PolicyRegistryValidation) {
  const topo::Topology t = topo::make_ring(4);
  Session s("net", t, config::build_ospf_network(t));
  const auto p2 = config::host_prefix(t.find_node("r2"));
  s.add_policy(reach("p", "r0", "r2", p2));
  EXPECT_THROW(s.add_policy(reach("p", "r1", "r2", p2)), std::invalid_argument);
  EXPECT_THROW(s.add_policy(reach("q", "nosuch", "r2", p2)), std::invalid_argument);
  EXPECT_THROW(s.add_policy(reach("", "r0", "r2", p2)), std::invalid_argument);
  EXPECT_THROW(s.policy_satisfied("unknown"), std::invalid_argument);
  EXPECT_TRUE(s.has_policy("p"));
  EXPECT_FALSE(s.has_policy("q"));  // failed registration leaves no trace
}

TEST(Session, RecoversFromNonterminatingProposal) {
  const topo::Topology t = topo::make_full_mesh(4);
  const config::NetworkConfig good = config::build_bgp_network(t);
  Session s("net", t, good);

  const auto p1 = config::host_prefix(t.find_node("m1"));
  s.add_policy(reach("m0-m1", "m0", "m1", p1));
  EXPECT_TRUE(s.policy_satisfied("m0-m1"));

  // Stage something first: recovery must also discard the staged proposal.
  config::NetworkConfig staged = good;
  config::fail_link(staged, t, 0);
  ASSERT_TRUE(s.propose(staged).converged);
  EXPECT_TRUE(s.has_staged());
  const std::size_t ecs = s.verifier().ecs().ec_count();

  const ProposeOutcome bad = s.propose(testutil::bad_gadget(t));
  EXPECT_FALSE(bad.converged);
  EXPECT_FALSE(bad.error.empty());

  // The session transparently rolled back to the last committed config,
  // keeping its EC partition.
  EXPECT_EQ(s.recoveries(), 1u);
  EXPECT_FALSE(s.has_staged());
  EXPECT_EQ(s.verifier().ecs().ec_count(), ecs);
  EXPECT_TRUE(s.policy_satisfied("m0-m1"));
  EXPECT_EQ(s.committed(), good);

  // And it keeps verifying incrementally afterwards.
  config::NetworkConfig after = good;
  config::fail_link(after, t, 2);
  const ProposeOutcome ok = s.propose(after);
  ASSERT_TRUE(ok.converged);
  EXPECT_FALSE(ok.report.dataplane.empty());
  s.commit();
  EXPECT_EQ(s.committed(), after);

  // Recovered state matches a fresh verifier over the same history.
  verify::RealConfig oracle(t);
  oracle.apply(good);
  oracle.apply(after);
  EXPECT_EQ(s.verifier().checker().pair_count(), oracle.checker().pair_count());
}

TEST(Session, PoliciesFireAfterRecovery) {
  // Policies registered before a nonconvergent proposal stay LIVE after
  // the recovery — wired into the checker's per-EC policy index so the
  // next committed change produces events — not merely present in the
  // registry.
  const topo::Topology t = topo::make_full_mesh(4);
  const config::NetworkConfig good = config::build_bgp_network(t);
  Session s("net", t, good);
  const auto p1 = config::host_prefix(t.find_node("m1"));
  s.add_policy(reach("m0-m1", "m0", "m1", p1));
  ASSERT_TRUE(s.policy_satisfied("m0-m1"));

  const ProposeOutcome bad = s.propose(testutil::bad_gadget(t));
  ASSERT_FALSE(bad.converged);
  ASSERT_EQ(s.recoveries(), 1u);
  ASSERT_TRUE(s.policy_satisfied("m0-m1"));

  // Cut m1 off entirely in the first post-recovery change.
  config::NetworkConfig cut = good;
  for (const auto& adj : t.adjacencies(t.find_node("m1"))) {
    config::fail_link(cut, t, adj.link);
  }
  const ProposeOutcome outcome = s.propose(cut);
  ASSERT_TRUE(outcome.converged);
  EXPECT_FALSE(s.policy_satisfied("m0-m1"));

  // The flip arrived as a checker event naming the re-registered policy.
  bool fired = false;
  for (const verify::PolicyEvent& e : outcome.report.check.events) {
    if (s.policy_name(e.id) == "m0-m1") {
      fired = true;
      EXPECT_FALSE(e.satisfied);
    }
  }
  EXPECT_TRUE(fired) << "policy produced no event on the first change after recovery";
  s.commit();

  // And it flips back (with an event) when the repair lands.
  const ProposeOutcome repair = s.propose(good);
  ASSERT_TRUE(repair.converged);
  EXPECT_TRUE(s.policy_satisfied("m0-m1"));
  fired = false;
  for (const verify::PolicyEvent& e : repair.report.check.events) {
    if (s.policy_name(e.id) == "m0-m1") {
      fired = true;
      EXPECT_TRUE(e.satisfied);
    }
  }
  EXPECT_TRUE(fired);
}

TEST(Session, NonterminatingInitialConfigThrows) {
  const topo::Topology t = topo::make_full_mesh(4);
  // No committed baseline to fall back to: construction must fail loudly.
  EXPECT_THROW(Session("net", t, testutil::bad_gadget(t)), dd::NonterminationError);
}

}  // namespace
}  // namespace rcfg::service
