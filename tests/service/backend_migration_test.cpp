// Migration regression: a session opened on the interval backend, driven
// through prefix-only commits, then hit with an ACL proposal must migrate
// to BDDs exactly once — preserving live EC ids, registered-policy
// verdicts, and provenance explain answers across the switch. A twin
// session moved onto BDDs right after open runs the identical script and
// the two must agree bit for bit at every step.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "config/builders.h"
#include "core/rng.h"
#include "service/session.h"
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

SessionOptions traced_options() {
  SessionOptions opts;
  opts.trace = true;  // provenance on: explain answers carry cause batches
  return opts;
}

/// Everything the two sessions must agree on after every step: partition
/// size, per-EC minimal witnesses (EC ids line up across backends), policy
/// verdicts, and explain answers.
void expect_sessions_agree(Session& a, Session& b, const char* where) {
  ASSERT_EQ(a.verifier().ecs().ec_count(), b.verifier().ecs().ec_count()) << where;
  for (dpm::EcId e = 0; e < a.verifier().ecs().ec_count(); ++e) {
    EXPECT_EQ(a.verifier().packet_space().pick_one(a.verifier().ecs().ec_bdd(e)),
              b.verifier().packet_space().pick_one(b.verifier().ecs().ec_bdd(e)))
        << where << ": EC " << e;
  }
  for (const PolicySpec& spec : a.policies()) {
    EXPECT_EQ(a.policy_satisfied(spec.name), b.policy_satisfied(spec.name))
        << where << ": policy " << spec.name;
    const auto ea = a.explain(spec.name);
    const auto eb = b.explain(spec.name);
    EXPECT_EQ(ea.explanation.has_witness, eb.explanation.has_witness)
        << where << ": " << spec.name;
    EXPECT_EQ(ea.explanation.witness_ec, eb.explanation.witness_ec)
        << where << ": " << spec.name;
    EXPECT_EQ(ea.explanation.witness, eb.explanation.witness)
        << where << ": " << spec.name;
    EXPECT_EQ(ea.explanation.offending_batch, eb.explanation.offending_batch)
        << where << ": " << spec.name;
  }
}

TEST(BackendMigrationSession, AclProposalMigratesOncePreservingEverything) {
  const topo::Topology t = topo::make_fat_tree(4);
  const config::NetworkConfig cfg = config::build_ospf_network(t);

  Session interval("iv", t, cfg, traced_options());
  Session bdd("bd", t, cfg, traced_options());
  bdd.verifier().packet_space().migrate_to_bdd();
  ASSERT_EQ(interval.verifier().packet_space().active_backend(),
            dpm::BackendKind::kInterval);
  ASSERT_EQ(bdd.verifier().packet_space().active_backend(), dpm::BackendKind::kBdd);

  const std::string edge0 = t.node(0).name;
  const std::string edge1 = t.node(1).name;
  const std::string iface0 = t.iface(t.adjacencies(0)[0].iface).name;
  const std::string iface1 = t.iface(t.adjacencies(1)[0].iface).name;
  for (Session* s : {&interval, &bdd}) {
    s->add_policy(reach("p0", edge0, edge1, config::host_prefix(t.find_node(edge1))));
    s->add_policy(reach("p1", edge1, edge0, config::host_prefix(t.find_node(edge0))));
  }
  expect_sessions_agree(interval, bdd, "baseline");

  // Prefix-only churn: static routes + a link flap, committed. The interval
  // session must still be running on interval atoms afterwards.
  config::NetworkConfig churned = cfg;
  churned.devices.at(edge0).static_routes.push_back(
      {*net::Ipv4Prefix::parse("203.0.113.0/24"), config::kNullInterface, 1});
  config::fail_link(churned, t, 0);
  for (Session* s : {&interval, &bdd}) {
    ASSERT_TRUE(s->propose(churned).converged);
    s->commit();
  }
  config::NetworkConfig healed = churned;
  config::restore_link(healed, t, 0);
  for (Session* s : {&interval, &bdd}) {
    ASSERT_TRUE(s->propose(healed).converged);
    s->commit();
  }
  EXPECT_EQ(interval.verifier().packet_space().active_backend(),
            dpm::BackendKind::kInterval);
  EXPECT_FALSE(interval.verifier().packet_space().migrated());
  expect_sessions_agree(interval, bdd, "after prefix-only commits");

  // Pre-migration observables, keyed by live EC id.
  auto& ivrc = interval.verifier();
  const std::size_t ec_count_before = ivrc.ecs().ec_count();
  std::vector<std::optional<std::vector<bool>>> witnesses_before;
  for (dpm::EcId e = 0; e < ec_count_before; ++e) {
    witnesses_before.push_back(ivrc.packet_space().pick_one(ivrc.ecs().ec_bdd(e)));
    ASSERT_TRUE(witnesses_before.back().has_value()) << "EC " << e;
  }

  // Migration in isolation (no concurrent splits): every live EC id must
  // denote exactly the same packets afterwards.
  int migrations = 0;
  ivrc.packet_space().subscribe_migration([&] { ++migrations; });
  ivrc.packet_space().migrate_to_bdd();
  EXPECT_EQ(migrations, 1);
  EXPECT_TRUE(ivrc.packet_space().migrated());
  ASSERT_EQ(ivrc.ecs().ec_count(), ec_count_before);
  for (dpm::EcId e = 0; e < ec_count_before; ++e) {
    EXPECT_EQ(ivrc.packet_space().pick_one(ivrc.ecs().ec_bdd(e)), witnesses_before[e])
        << "EC " << e;
  }
  expect_sessions_agree(interval, bdd, "after isolated migration");

  // The ACL proposal would have been the organic trigger; after the manual
  // migration it must NOT fire a second one, and both sessions stay in
  // lockstep through the multi-field splits.
  config::NetworkConfig with_acl = healed;
  core::Rng rng{0xAC11};
  config::attach_random_acl(with_acl, t, edge0, iface0, true, 4, rng);
  for (Session* s : {&interval, &bdd}) {
    ASSERT_TRUE(s->propose(with_acl).converged);
    s->commit();
  }
  EXPECT_EQ(interval.verifier().packet_space().active_backend(), dpm::BackendKind::kBdd);
  EXPECT_EQ(migrations, 1);
  expect_sessions_agree(interval, bdd, "after ACL proposal");

  // And the migrated session keeps verifying: more prefix churn + a second
  // ACL, still in lockstep with the BDD twin (no second migration).
  config::NetworkConfig more = with_acl;
  more.devices.at(edge1).static_routes.push_back(
      {*net::Ipv4Prefix::parse("198.51.100.0/24"), config::kNullInterface, 1});
  config::attach_random_acl(more, t, edge1, iface1, false, 3, rng);
  for (Session* s : {&interval, &bdd}) {
    ASSERT_TRUE(s->propose(more).converged);
    s->commit();
  }
  EXPECT_EQ(migrations, 1);
  expect_sessions_agree(interval, bdd, "post-migration churn");
}

TEST(BackendMigrationSession, AutoStartsOnIntervalAtoms) {
  const topo::Topology t = topo::make_ring(4);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  Session s("auto", t, cfg, traced_options());
  // Prefix-only workload: never migrates, answers from interval atoms.
  EXPECT_EQ(s.verifier().packet_space().active_backend(), dpm::BackendKind::kInterval);
  EXPECT_GT(s.verifier().ecs().ec_count(), 1u);
  // The BDD arena holds only its two terminals: nothing was ever built there.
  EXPECT_EQ(s.verifier().packet_space().bdd().node_count(), 2u);
}

}  // namespace
}  // namespace rcfg::service
