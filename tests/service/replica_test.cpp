// Read-replica correctness: sessions opened with "replicas":N must answer
// reads bit-identically to the primary at the acknowledged epoch, across
// delta replay (propose/commit/abort/add_policy and nontermination
// recovery), snapshot resyncs (reclamation remaps), and the round-robin
// lane routing.

#include <gtest/gtest.h>

#include <string>

#include "config/builders.h"
#include "config/print.h"
#include "service/engine.h"
#include "service_test_util.h"
#include "topo/generators.h"

namespace rcfg::service {
namespace {

Request open_request(std::uint64_t id, const std::string& session, const std::string& kind,
                     unsigned k, const config::NetworkConfig& cfg,
                     const SessionOptions& opts = {}) {
  Request req;
  req.id = id;
  req.verb = Verb::kOpen;
  req.session = session;
  req.topology.kind = kind;
  req.topology.k = k;
  req.config_text = config::print_network(cfg);
  req.options = opts;
  return req;
}

Request propose_request(std::uint64_t id, const std::string& session,
                        const config::NetworkConfig& cfg) {
  Request req;
  req.id = id;
  req.verb = Verb::kPropose;
  req.session = session;
  req.config_text = config::print_network(cfg);
  return req;
}

Request verb_request(std::uint64_t id, const std::string& session, Verb verb) {
  Request req;
  req.id = id;
  req.verb = verb;
  req.session = session;
  return req;
}

Request query_request(std::uint64_t id, const std::string& session, bool primary,
                      const std::string& policy = "") {
  Request req = verb_request(id, session, Verb::kQuery);
  req.force_primary = primary;
  req.query_policy = policy;
  return req;
}

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

/// One replica-served read and its primary-pinned twin must serialize to
/// the same bytes (ids are aligned so only the answered state can differ).
void expect_parity(Engine& engine, const std::string& session, const std::string& policy = "") {
  const Response replica = engine.call(query_request(900, session, false, policy));
  const Response primary = engine.call(query_request(900, session, true, policy));
  ASSERT_TRUE(replica.ok) << replica.error;
  ASSERT_TRUE(primary.ok) << primary.error;
  EXPECT_EQ(serialize_response(replica), serialize_response(primary));
}

TEST(Replica, QueriesMatchPrimaryBitForBitAcrossLanes) {
  const topo::Topology t = topo::make_ring(6);
  const config::NetworkConfig cfg = config::build_ospf_network(t);

  SessionOptions sopts;
  sopts.replicas = 2;
  EngineOptions opts;
  opts.read_workers = 2;
  Engine engine(opts);

  ASSERT_TRUE(engine.call(open_request(1, "net", "ring", 6, cfg, sopts)).ok);
  Request add = verb_request(2, "net", Verb::kAddPolicy);
  add.policy = reach("r0-r3", "r0", "r3", config::host_prefix(t.find_node("r3")));
  ASSERT_TRUE(engine.call(add).ok);

  config::NetworkConfig c1 = cfg;
  config::fail_link(c1, t, 0);
  ASSERT_TRUE(engine.call(propose_request(3, "net", c1)).ok);

  // More reads than lanes: round-robin forces both replicas to answer, and
  // each answer must equal the primary's.
  for (int i = 0; i < 6; ++i) {
    SCOPED_TRACE("read " + std::to_string(i));
    expect_parity(engine, "net");
    expect_parity(engine, "net", "r0-r3");
  }
  engine.drain();
  EXPECT_GE(engine.metrics().replica_queries.value(), 12u);
  EXPECT_EQ(engine.metrics().replicas_open.value(), 2);
  // open + add_policy + propose each streamed one delta to each of 2 lanes.
  EXPECT_GE(engine.metrics().replica_deltas.value(), 4u);
  EXPECT_EQ(engine.metrics().replica_lane_failures.value(), 0u);
}

TEST(Replica, ReadsObserveAcknowledgedWritesImmediately) {
  const topo::Topology t = topo::make_ring(6);
  const config::NetworkConfig base = config::build_ospf_network(t);

  SessionOptions sopts;
  sopts.replicas = 1;
  Engine engine;
  ASSERT_TRUE(engine.call(open_request(1, "net", "ring", 6, base, sopts)).ok);

  // call() returns only after the engine acknowledged the mutation, so the
  // very next replica read is fenced at (at least) that epoch: it must see
  // the staged flag and the post-apply counts, never the previous state.
  verify::RealConfig oracle(t);
  oracle.apply(base);
  for (unsigned link = 0; link < 4; ++link) {
    SCOPED_TRACE("churn round " + std::to_string(link));
    config::NetworkConfig cfg = base;
    config::fail_link(cfg, t, link);
    ASSERT_TRUE(engine.call(propose_request(10 + link, "net", cfg)).ok);
    oracle.apply(cfg);

    const Response q = engine.call(query_request(100 + link, "net", false));
    ASSERT_TRUE(q.ok) << q.error;
    EXPECT_TRUE(q.body.get_bool("staged"));
    EXPECT_EQ(q.body.get_int("pairs"),
              static_cast<std::int64_t>(oracle.checker().pair_count()));

    ASSERT_TRUE(engine.call(verb_request(200 + link, "net", Verb::kAbort)).ok);
    oracle.apply(base);
    const Response after = engine.call(query_request(300 + link, "net", false));
    ASSERT_TRUE(after.ok) << after.error;
    EXPECT_FALSE(after.body.get_bool("staged"));
    EXPECT_EQ(after.body.get_int("pairs"),
              static_cast<std::int64_t>(oracle.checker().pair_count()));
  }
}

TEST(Replica, CommitAndAbortStreamToLanes) {
  const topo::Topology t = topo::make_ring(4);
  const config::NetworkConfig base = config::build_ospf_network(t);
  SessionOptions sopts;
  sopts.replicas = 2;
  Engine engine;
  ASSERT_TRUE(engine.call(open_request(1, "net", "ring", 4, base, sopts)).ok);

  config::NetworkConfig c1 = base;
  config::fail_link(c1, t, 1);
  ASSERT_TRUE(engine.call(propose_request(2, "net", c1)).ok);
  ASSERT_TRUE(engine.call(verb_request(3, "net", Verb::kCommit)).ok);
  expect_parity(engine, "net");

  config::NetworkConfig c2 = c1;
  config::fail_link(c2, t, 2);
  ASSERT_TRUE(engine.call(propose_request(4, "net", c2)).ok);
  expect_parity(engine, "net");
  ASSERT_TRUE(engine.call(verb_request(5, "net", Verb::kAbort)).ok);
  expect_parity(engine, "net");
  engine.drain();
  EXPECT_EQ(engine.metrics().replica_lane_failures.value(), 0u);
}

TEST(Replica, ExplainMatchesPrimaryIncludingProvenanceTimings) {
  const topo::Topology t = topo::make_ring(6);
  const config::NetworkConfig base = config::build_ospf_network(t);

  SessionOptions sopts;
  sopts.replicas = 2;
  sopts.trace = true;
  Engine engine;
  ASSERT_TRUE(engine.call(open_request(1, "net", "ring", 6, base, sopts)).ok);
  Request add = verb_request(2, "net", Verb::kAddPolicy);
  add.policy = reach("r0-r3", "r0", "r3", config::host_prefix(t.find_node("r3")));
  ASSERT_TRUE(engine.call(add).ok);

  // Cut r3 off so the policy is violated and explain has a cause to name.
  config::NetworkConfig broken = base;
  config::fail_link(broken, t, 2);
  config::fail_link(broken, t, 3);
  ASSERT_TRUE(engine.call(propose_request(3, "net", broken)).ok);

  // kApply streams the primary's BatchRecord, so even the cause's
  // generate/model/check millisecond spans must agree byte-for-byte.
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE("explain " + std::to_string(i));
    Request replica_req = verb_request(50, "net", Verb::kExplain);
    replica_req.query_policy = "r0-r3";
    Request primary_req = replica_req;
    primary_req.force_primary = true;
    const Response replica = engine.call(replica_req);
    const Response primary = engine.call(primary_req);
    ASSERT_TRUE(replica.ok) << replica.error;
    ASSERT_TRUE(primary.ok) << primary.error;
    EXPECT_EQ(serialize_response(replica), serialize_response(primary));
    EXPECT_EQ(replica.body.get_bool("satisfied"), false);
  }
}

TEST(Replica, NonterminationRecoveryReplaysOnLanes) {
  const topo::Topology t = topo::make_full_mesh(4);
  const config::NetworkConfig good = config::build_bgp_network(t);
  const config::NetworkConfig bad = testutil::bad_gadget(t);

  SessionOptions sopts;
  sopts.replicas = 1;
  sopts.trace = true;  // the lane's provenance window must match too
  Engine engine;
  ASSERT_TRUE(engine.call(open_request(1, "net", "full_mesh", 4, good, sopts)).ok);
  Request add = verb_request(2, "net", Verb::kAddPolicy);
  add.policy = reach("m0-m1", "m0", "m1", config::host_prefix(t.find_node("m1")));
  ASSERT_TRUE(engine.call(add).ok);

  // Stage a proposal first: the recovery has to roll it back on both sides.
  config::NetworkConfig staged = good;
  config::fail_link(staged, t, 0);
  ASSERT_TRUE(engine.call(propose_request(3, "net", staged)).ok);
  expect_parity(engine, "net");

  const Response p = engine.call(propose_request(4, "net", bad));
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.body.get_string("status"), "nonconvergent");
  EXPECT_TRUE(p.body.get_bool("recovered"));

  // The diverged apply left the primary as it was, so the lane replays the
  // recovery's re-apply of the committed config like an abort: no resync.
  engine.drain();
  EXPECT_EQ(engine.metrics().replica_resyncs.value(), 0u);
  expect_parity(engine, "net");
  expect_parity(engine, "net", "m0-m1");
  Request explain = verb_request(60, "net", Verb::kExplain);
  explain.query_policy = "m0-m1";
  Request explain_primary = explain;
  explain_primary.force_primary = true;
  EXPECT_EQ(serialize_response(engine.call(explain)),
            serialize_response(engine.call(explain_primary)));
  EXPECT_EQ(engine.metrics().replica_lane_failures.value(), 0u);

  // And both sides keep verifying in step.
  config::NetworkConfig after = good;
  config::fail_link(after, t, 2);
  ASSERT_TRUE(engine.call(propose_request(5, "net", after)).ok);
  expect_parity(engine, "net");
  EXPECT_EQ(engine.metrics().replica_resyncs.value(), 0u);
}

TEST(Replica, ReclamationRemapResyncsLanes) {
  const topo::Topology t = topo::make_ring(4);
  config::NetworkConfig base = config::build_ospf_network(t);

  SessionOptions sopts;
  sopts.replicas = 1;
  sopts.verifier.reclamation = true;  // eager: merge after every check
  Engine engine;
  ASSERT_TRUE(engine.call(open_request(1, "net", "ring", 4, base, sopts)).ok);

  // Register extra /24s then withdraw them: the withdrawal leaves atoms
  // that split for no live prefix, which the eager reclaimer merges away —
  // producing an EcRemap, which must resync (not delta-replay) the lane.
  config::NetworkConfig widened = base;
  auto& routes = widened.devices.at("r1").static_routes;
  for (unsigned i = 0; i < 4; ++i) {
    routes.push_back({net::Ipv4Prefix{net::Ipv4Addr{203, 0, static_cast<std::uint8_t>(i), 0},
                                      24},
                      config::kNullInterface});
  }
  ASSERT_TRUE(engine.call(propose_request(2, "net", widened)).ok);
  ASSERT_TRUE(engine.call(verb_request(3, "net", Verb::kCommit)).ok);
  expect_parity(engine, "net");

  ASSERT_TRUE(engine.call(propose_request(4, "net", base)).ok);
  ASSERT_TRUE(engine.call(verb_request(5, "net", Verb::kCommit)).ok);
  engine.drain();
  EXPECT_GE(engine.metrics().replica_resyncs.value(), 1u);
  expect_parity(engine, "net");
  EXPECT_EQ(engine.metrics().replica_lane_failures.value(), 0u);
}

TEST(Replica, BacklogSquashResyncsLaggingLaneAndKeepsParity) {
  const topo::Topology t = topo::make_ring(6);
  const config::NetworkConfig base = config::build_ospf_network(t);

  SessionOptions sopts;
  sopts.replicas = 1;
  Engine engine;
  ASSERT_TRUE(engine.call(open_request(1, "net", "ring", 6, base, sopts)).ok);

  // Catch-up is read-driven, so with no reads in flight the lane's backlog
  // grows one delta per mutation until the squash threshold collapses it
  // into a snapshot resync.
  for (unsigned i = 0; i < kLaneResyncBacklog; ++i) {
    config::NetworkConfig cfg = base;
    config::fail_link(cfg, t, static_cast<topo::LinkId>(i % t.link_count()));
    ASSERT_TRUE(engine.call(propose_request(10 + i, "net", cfg)).ok);
  }
  engine.drain();
  EXPECT_GE(engine.metrics().replica_squashes.value(), 1u);

  // The first read after the squash answers from the snapshot — and must
  // still be byte-identical to the primary.
  expect_parity(engine, "net");
  EXPECT_EQ(engine.metrics().replica_lane_failures.value(), 0u);
}

TEST(Replica, ParseRejectsMoreThanMaxReplicas) {
  const std::string line =
      R"({"id":1,"op":"open","session":"s","topology":{"kind":"ring","n":4},)"
      R"("config":"x","replicas":17})";
  EXPECT_THROW(parse_request(line), ProtocolError);
  // 2^32 + 16 must not truncate to 16 and slip under the cap.
  const std::string wrapped_line =
      R"({"id":1,"op":"open","session":"s","topology":{"kind":"ring","n":4},)"
      R"("config":"x","replicas":4294967312})";
  EXPECT_THROW(parse_request(wrapped_line), ProtocolError);
  const std::string ok_line =
      R"({"id":1,"op":"open","session":"s","topology":{"kind":"ring","n":4},)"
      R"("config":"x","replicas":16})";
  EXPECT_EQ(parse_request(ok_line).options.replicas, 16u);
}

TEST(Replica, RejectOnFullAnswersBackpressure) {
  const topo::Topology t = topo::make_ring(4);
  const config::NetworkConfig cfg = config::build_ospf_network(t);

  EngineOptions opts;
  opts.queue_capacity = 1;
  opts.reject_on_full = true;
  Engine engine(opts);

  engine.pause();  // nothing is claimed: the queue fills deterministically
  std::vector<Response> responses(3);
  engine.submit(open_request(1, "net", "ring", 4, cfg),
                [&](Response r) { responses[0] = std::move(r); });
  // Queue is now at capacity 1: the next submit must be rejected
  // immediately on the calling thread, not block.
  Response rejected;
  engine.submit(verb_request(2, "net", Verb::kCommit),
                [&](Response r) { rejected = std::move(r); });
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("backpressure"), std::string::npos) << rejected.error;
  engine.resume();
  engine.drain();
  EXPECT_TRUE(responses[0].ok);
  EXPECT_GE(engine.metrics().rejected_total.value(), 1u);
}

}  // namespace
}  // namespace rcfg::service
