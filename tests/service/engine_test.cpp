#include "service/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "config/builders.h"
#include "config/print.h"
#include "service_test_util.h"
#include "topo/generators.h"

namespace rcfg::service {
namespace {

Request open_request(std::uint64_t id, const std::string& session, const std::string& kind,
                     unsigned k, const config::NetworkConfig& cfg) {
  Request req;
  req.id = id;
  req.verb = Verb::kOpen;
  req.session = session;
  req.topology.kind = kind;
  req.topology.k = k;
  req.config_text = config::print_network(cfg);
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

TEST(Engine, CoalescedBatchMatchesSequentialApplies) {
  const topo::Topology t = topo::make_ring(6);
  const config::NetworkConfig cfg = config::build_ospf_network(t);

  // Three successive change proposals: c1, c2, c3 (cumulative link failures).
  config::NetworkConfig c1 = cfg;
  config::fail_link(c1, t, 0);
  config::NetworkConfig c2 = c1;
  config::fail_link(c2, t, 2);
  config::NetworkConfig c3 = c2;
  config::restore_link(c3, t, 0);

  EngineOptions opts;
  opts.workers = 2;
  Engine engine(opts);

  // pause() keeps everything in one queue => one batch, deterministically.
  engine.pause();
  std::vector<Response> responses(5);
  std::atomic<int> done{0};
  const auto record = [&responses, &done](std::size_t i) {
    return [&responses, &done, i](Response r) {
      responses[i] = std::move(r);
      ++done;
    };
  };
  engine.submit(open_request(1, "net", "ring", 6, cfg), record(0));
  engine.submit(propose_request(2, "net", c1), record(1));
  engine.submit(propose_request(3, "net", c2), record(2));
  engine.submit(propose_request(4, "net", c3), record(3));
  engine.submit(verb_request(5, "net", Verb::kCommit), record(4));
  engine.resume();
  engine.drain();
  ASSERT_EQ(done.load(), 5);

  // The run c1,c2 was coalesced into c3; every request got an answer.
  EXPECT_TRUE(responses[0].ok);
  EXPECT_EQ(responses[1].body.get_string("status"), "coalesced");
  EXPECT_EQ(responses[1].body.get_int("superseded_by"), 4);
  EXPECT_EQ(responses[2].body.get_string("status"), "coalesced");
  EXPECT_EQ(responses[3].body.get_string("status"), "staged");
  EXPECT_EQ(responses[4].body.get_string("status"), "committed");
  EXPECT_EQ(engine.metrics().coalesced_proposes.value(), 2u);
  EXPECT_EQ(engine.metrics().coalesced_batches.value(), 1u);
  EXPECT_GE(engine.metrics().batch_size.max(), 5.0);

  // Batching correctness: the coalesced final state equals applying the
  // whole change sequence one by one on a plain RealConfig.
  verify::RealConfig oracle(t);
  oracle.apply(cfg);
  oracle.apply(c1);
  oracle.apply(c2);
  oracle.apply(c3);

  const Response q = engine.call(verb_request(9, "net", Verb::kQuery));
  ASSERT_TRUE(q.ok);
  EXPECT_EQ(q.body.get_int("pairs"),
            static_cast<std::int64_t>(oracle.checker().pair_count()));
  EXPECT_EQ(q.body.get_int("loops"),
            static_cast<std::int64_t>(oracle.checker().loop_count()));
  EXPECT_EQ(q.body.get_int("blackholes"),
            static_cast<std::int64_t>(oracle.checker().blackhole_count()));
}

TEST(Engine, NoCoalesceProcessesEveryPropose) {
  const topo::Topology t = topo::make_ring(4);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  config::NetworkConfig c1 = cfg;
  config::fail_link(c1, t, 0);
  config::NetworkConfig c2 = cfg;
  config::fail_link(c2, t, 1);

  EngineOptions opts;
  opts.coalesce = false;
  Engine engine(opts);
  engine.pause();
  std::vector<Response> responses(3);
  engine.submit(open_request(1, "net", "ring", 4, cfg), [&](Response r) { responses[0] = r; });
  engine.submit(propose_request(2, "net", c1), [&](Response r) { responses[1] = r; });
  engine.submit(propose_request(3, "net", c2), [&](Response r) { responses[2] = r; });
  engine.resume();
  engine.drain();

  EXPECT_EQ(responses[1].body.get_string("status"), "staged");
  EXPECT_EQ(responses[2].body.get_string("status"), "staged");
  EXPECT_EQ(engine.metrics().coalesced_proposes.value(), 0u);
}

TEST(Engine, RoutingErrors) {
  Engine engine;
  const topo::Topology t = topo::make_ring(4);
  const config::NetworkConfig cfg = config::build_ospf_network(t);

  // Unknown session.
  Response r = engine.call(verb_request(1, "ghost", Verb::kCommit));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown session"), std::string::npos);

  // Duplicate open.
  ASSERT_TRUE(engine.call(open_request(2, "net", "ring", 4, cfg)).ok);
  r = engine.call(open_request(3, "net", "ring", 4, cfg));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("already open"), std::string::npos);

  // Commit with nothing staged: the session's logic_error becomes an error
  // response, not a dead worker.
  r = engine.call(verb_request(4, "net", Verb::kCommit));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no staged proposal"), std::string::npos);

  // Malformed config DSL.
  Request bad;
  bad.id = 5;
  bad.verb = Verb::kPropose;
  bad.session = "net";
  bad.config_text = "hostname r0\nthis is not a stanza\n";
  r = engine.call(std::move(bad));
  EXPECT_FALSE(r.ok);

  // A failed open leaves no session behind: the name is reusable.
  Request bad_open = open_request(6, "net2", "ring", 4, cfg);
  bad_open.config_text = "not a config";
  EXPECT_FALSE(engine.call(std::move(bad_open)).ok);
  EXPECT_EQ(engine.session_count(), 1u);
  EXPECT_TRUE(engine.call(open_request(7, "net2", "ring", 4, cfg)).ok);
  EXPECT_EQ(engine.session_count(), 2u);

  EXPECT_GE(engine.metrics().errors_total.value(), 4u);
}

TEST(Engine, NonterminatingProposeRecoversViaSession) {
  const topo::Topology t = topo::make_full_mesh(4);
  const config::NetworkConfig good = config::build_bgp_network(t);

  Engine engine;
  Request open = open_request(1, "net", "full_mesh", 4, good);
  ASSERT_TRUE(engine.call(std::move(open)).ok);

  const Response r =
      engine.call(propose_request(2, "net", testutil::bad_gadget(t)));
  ASSERT_TRUE(r.ok);  // handled: the verdict is "does not converge"
  EXPECT_EQ(r.body.get_string("status"), "nonconvergent");
  EXPECT_TRUE(r.body.get_bool("recovered"));
  EXPECT_EQ(r.body.get_int("rebuilds"), 1);
  EXPECT_EQ(engine.metrics().recoveries.value(), 1u);

  // The session still works.
  config::NetworkConfig after = good;
  config::fail_link(after, t, 1);
  EXPECT_EQ(engine.call(propose_request(3, "net", after)).body.get_string("status"),
            "staged");
  EXPECT_TRUE(engine.call(verb_request(4, "net", Verb::kAbort)).ok);
}

TEST(Engine, BackpressureBoundsQueueDepth) {
  const topo::Topology t = topo::make_ring(4);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  config::NetworkConfig changed = cfg;
  config::fail_link(changed, t, 0);

  EngineOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  Engine engine(opts);
  ASSERT_TRUE(engine.call(open_request(1, "net", "ring", 4, cfg)).ok);

  std::atomic<int> done{0};
  const auto count = [&done](Response r) {
    EXPECT_TRUE(r.ok);
    ++done;
  };
  // Two submitter threads hammer one session; submit() must block rather
  // than grow the queue beyond capacity.
  std::vector<std::thread> submitters;
  for (int s = 0; s < 2; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < 10; ++i) {
        const bool fail = (i % 2 == 0) != (s == 0);
        engine.submit(propose_request(100 + 10 * s + i, "net", fail ? changed : cfg), count);
      }
    });
  }
  for (std::thread& th : submitters) th.join();
  engine.drain();
  EXPECT_EQ(done.load(), 20);
  EXPECT_LE(engine.metrics().queue_depth.max(),
            static_cast<std::int64_t>(opts.queue_capacity));
  EXPECT_EQ(engine.metrics().queue_depth.value(), 0);
}

TEST(Engine, ConcurrentSessionsVerifyIndependently) {
  constexpr int kSessions = 4;
  constexpr int kChangesPerSession = 6;

  const topo::Topology t = topo::make_ring(5);
  const config::NetworkConfig base = config::build_ospf_network(t);

  // Per-session change sequences over distinct links.
  std::vector<std::vector<config::NetworkConfig>> sequences(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    config::NetworkConfig current = base;
    for (int i = 0; i < kChangesPerSession; ++i) {
      const topo::LinkId link = static_cast<topo::LinkId>((s + i) % t.link_count());
      if (i % 2 == 0) {
        config::fail_link(current, t, link);
      } else {
        config::restore_link(current, t, link);
      }
      sequences[s].push_back(current);
    }
  }

  EngineOptions opts;
  opts.workers = 4;
  Engine engine(opts);
  std::atomic<int> done{0};
  std::atomic<int> failed{0};
  const auto count = [&done, &failed](Response r) {
    if (!r.ok) ++failed;
    ++done;
  };

  for (int s = 0; s < kSessions; ++s) {
    engine.submit(open_request(1000 + s, "net" + std::to_string(s), "ring", 5, base), count);
  }
  // Interleave proposes (and periodic commits) across sessions from
  // multiple threads, so distinct sessions are in flight concurrently.
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSessions; ++s) {
    submitters.emplace_back([&, s] {
      const std::string name = "net" + std::to_string(s);
      for (int i = 0; i < kChangesPerSession; ++i) {
        engine.submit(propose_request(10 * s + i, name, sequences[s][i]), count);
        if (i % 3 == 2) engine.submit(verb_request(500 + 10 * s + i, name, Verb::kCommit), count);
      }
    });
  }
  for (std::thread& th : submitters) th.join();
  engine.drain();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(engine.session_count(), static_cast<std::size_t>(kSessions));

  // Every session's live state must equal a sequential oracle that applied
  // its full change sequence (coalescing only skips intermediate states).
  for (int s = 0; s < kSessions; ++s) {
    verify::RealConfig oracle(t);
    oracle.apply(base);
    for (const auto& cfg : sequences[s]) oracle.apply(cfg);
    const Response q = engine.call(verb_request(9000 + s, "net" + std::to_string(s), Verb::kQuery));
    ASSERT_TRUE(q.ok);
    EXPECT_EQ(q.body.get_int("pairs"),
              static_cast<std::int64_t>(oracle.checker().pair_count()))
        << "session " << s;
  }
}

TEST(Engine, StatsWaitsForInFlightWork) {
  const topo::Topology t = topo::make_ring(4);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  Engine engine;
  std::atomic<int> done{0};
  engine.submit(open_request(1, "a", "ring", 4, cfg), [&](Response) { ++done; });
  engine.submit(open_request(2, "b", "ring", 4, cfg), [&](Response) { ++done; });

  Request stats;
  stats.id = 3;
  stats.verb = Verb::kStats;
  const Response r = engine.call(std::move(stats));
  ASSERT_TRUE(r.ok);
  // By the time stats answers, both opens have been fully processed.
  EXPECT_EQ(done.load(), 2);
  EXPECT_EQ(r.body.find("sessions")->as_array().size(), 2u);
  EXPECT_EQ(r.body.find("metrics")->find("requests")->get_int("open"), 2);
  EXPECT_EQ(r.body.find("metrics")->find("load")->get_int("sessions_open"), 2);
}

TEST(Engine, DeniesOpensBeyondMaxSessions) {
  const topo::Topology t = topo::make_ring(4);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  EngineOptions opts;
  opts.max_sessions = 2;
  Engine engine(opts);

  ASSERT_TRUE(engine.call(open_request(1, "a", "ring", 4, cfg)).ok);
  ASSERT_TRUE(engine.call(open_request(2, "b", "ring", 4, cfg)).ok);
  const Response denied = engine.call(open_request(3, "c", "ring", 4, cfg));
  EXPECT_FALSE(denied.ok);
  EXPECT_NE(denied.error.find("admission denied"), std::string::npos) << denied.error;
  EXPECT_EQ(denied.id, 3u);
  EXPECT_EQ(engine.metrics().admission_denied.value(), 1u);
  EXPECT_EQ(engine.session_count(), 2u);

  // Non-open traffic to live sessions is unaffected by the cap.
  EXPECT_TRUE(engine.call(verb_request(4, "a", Verb::kQuery)).ok);

  const Response stats = engine.call(verb_request(5, "", Verb::kStats));
  ASSERT_TRUE(stats.ok);
  const json::Value* load = stats.body.find("metrics")->find("load");
  EXPECT_EQ(load->get_int("sessions_open"), 2);
  EXPECT_EQ(load->get_int("admission_denied"), 1);
  EXPECT_EQ(stats.body.find("sessions")->as_array().size(), 2u);
}

TEST(Engine, ConcurrentOpensStopAtMaxSessions) {
  // Four submitters race opens on distinct names; the admission count is
  // taken under the engine lock, so exactly max_sessions of them survive.
  constexpr std::size_t kMax = 5;
  constexpr int kThreads = 4;
  constexpr int kOpensPerThread = 4;
  const topo::Topology t = topo::make_ring(3);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  EngineOptions opts;
  opts.workers = 4;
  opts.max_sessions = kMax;
  Engine engine(opts);

  std::atomic<int> ok{0};
  std::atomic<int> denied{0};
  std::vector<std::thread> submitters;
  for (int th = 0; th < kThreads; ++th) {
    submitters.emplace_back([&, th] {
      for (int i = 0; i < kOpensPerThread; ++i) {
        const int n = th * kOpensPerThread + i;
        engine.submit(open_request(static_cast<std::uint64_t>(n + 1), "s" + std::to_string(n),
                                   "ring", 3, cfg),
                      [&](Response r) {
                        if (r.ok) {
                          ++ok;
                        } else if (r.error.find("admission denied") != std::string::npos) {
                          ++denied;
                        }
                      });
      }
    });
  }
  for (std::thread& th : submitters) th.join();
  engine.drain();

  EXPECT_EQ(engine.session_count(), kMax);
  EXPECT_EQ(ok.load(), static_cast<int>(kMax));
  EXPECT_EQ(denied.load(), kThreads * kOpensPerThread - static_cast<int>(kMax));
}

TEST(Engine, FailedOpenFreesItsAdmissionPlace) {
  const topo::Topology t = topo::make_ring(4);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  EngineOptions opts;
  opts.max_sessions = 2;
  Engine engine(opts);
  ASSERT_TRUE(engine.call(open_request(1, "a", "ring", 4, cfg)).ok);

  // A failed open holds a place only until it is answered: the very next
  // open, even on the same name, is admitted.
  Request bad = open_request(2, "b", "ring", 4, cfg);
  bad.config_text = "not a config";
  const Response failed = engine.call(std::move(bad));
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.error.find("admission denied"), std::string::npos) << failed.error;
  ASSERT_TRUE(engine.call(open_request(3, "b", "ring", 4, cfg)).ok);
  EXPECT_FALSE(engine.call(open_request(4, "c", "ring", 4, cfg)).ok);

  // A duplicate open queued behind the one that creates the session also
  // gives its place back once answered.
  Engine dup(opts);
  dup.pause();
  std::atomic<int> answered{0};
  const auto count = [&answered](Response) { ++answered; };
  dup.submit(open_request(1, "x", "ring", 4, cfg), count);
  dup.submit(open_request(2, "x", "ring", 4, cfg), count);
  dup.resume();
  dup.drain();
  EXPECT_EQ(answered.load(), 2);
  EXPECT_EQ(dup.session_count(), 1u);
  EXPECT_TRUE(dup.call(open_request(3, "y", "ring", 4, cfg)).ok);
  EXPECT_EQ(dup.metrics().admission_denied.value(), 0u);
}

TEST(Engine, SweepVerbMinesCriticalLinksAndViolations) {
  // A 3-node chain: both links are critical, and each breaks the policy.
  const topo::Topology t = topo::make_grid(3, 1);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  Engine engine;

  Request open;
  open.id = 1;
  open.verb = Verb::kOpen;
  open.session = "net";
  open.topology.kind = "grid";
  open.topology.w = 3;
  open.topology.h = 1;
  open.config_text = config::print_network(cfg);
  ASSERT_TRUE(engine.call(std::move(open)).ok);

  Request policy = verb_request(2, "net", Verb::kAddPolicy);
  policy.policy.name = "p";
  policy.policy.src = "n0-0";
  policy.policy.dst = "n2-0";
  policy.policy.prefix = config::host_prefix(t.find_node("n2-0"));
  ASSERT_TRUE(engine.call(std::move(policy)).ok);

  Request sweep = verb_request(3, "net", Verb::kSweep);
  sweep.sweep.threads = 2;
  sweep.sweep.detail = true;
  const Response r = engine.call(std::move(sweep));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.body.get_int("scenarios"), 2);
  ASSERT_NE(r.body.find("critical_links"), nullptr);
  EXPECT_EQ(r.body.find("critical_links")->as_array().size(), 2u);
  EXPECT_TRUE(r.body.find("diverged_links")->as_array().empty());
  const json::Value* violated = r.body.find("policy_violations")->find("p");
  ASSERT_NE(violated, nullptr);
  EXPECT_EQ(violated->as_array().size(), 2u);
  ASSERT_NE(r.body.find("outcomes"), nullptr);
  const auto& outcomes = r.body.find("outcomes")->as_array();
  ASSERT_EQ(outcomes.size(), 2u);
  for (const json::Value& o : outcomes) {
    EXPECT_FALSE(o.get_bool("diverged"));
    EXPECT_GT(o.get_int("pairs_lost"), 0);
  }

  // A link subset narrows the sweep; without detail there is no outcome
  // array. Out-of-range links are rejected.
  Request subset = verb_request(4, "net", Verb::kSweep);
  subset.sweep.links = {0};
  const Response rs = engine.call(std::move(subset));
  ASSERT_TRUE(rs.ok);
  EXPECT_EQ(rs.body.get_int("scenarios"), 1);
  EXPECT_EQ(rs.body.find("outcomes"), nullptr);

  Request bad = verb_request(5, "net", Verb::kSweep);
  bad.sweep.links = {99};
  EXPECT_FALSE(engine.call(std::move(bad)).ok);

  EXPECT_EQ(engine.metrics().requests(Verb::kSweep).value(), 3u);
  EXPECT_EQ(engine.metrics().sweep_scenarios.value(), 3u);
  EXPECT_EQ(engine.metrics().sweep_diverged.value(), 0u);
}

TEST(Engine, SweepVerbNormalizesLinkSubsets) {
  // A duplicated, unsorted subset must collapse to the sorted-unique
  // universe before scenario generation: {1,0,1,0} is exactly {0,1}.
  // The unnormalized list used to leak duplicate scenarios (and {l,l}
  // "pairs") straight into the report.
  const topo::Topology t = topo::make_grid(3, 1);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  Engine engine;
  Request open = open_request(1, "net", "grid", 0, cfg);
  open.topology.w = 3;
  open.topology.h = 1;
  ASSERT_TRUE(engine.call(std::move(open)).ok);

  Request sweep = verb_request(2, "net", Verb::kSweep);
  sweep.sweep.links = {1, 0, 1, 0};
  sweep.sweep.max_failures = 2;
  sweep.sweep.detail = true;
  const Response r = engine.call(std::move(sweep));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.body.get_int("scenarios"), 3);  // {0}, {1}, {0,1}
  const auto& outcomes = r.body.find("outcomes")->as_array();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].find("links")->as_array().size(), 1u);
  EXPECT_EQ(outcomes[1].find("links")->as_array().size(), 1u);
  EXPECT_EQ(outcomes[2].find("links")->as_array().size(), 2u);
}

TEST(Engine, SweepVerbDeepSpaceWithPruneAndBudget) {
  // Full mesh with one policy pinned to link 0: the k<=3 space holds 41
  // scenarios of which only the 16 touching link 0 are policy-relevant.
  const topo::Topology t = topo::make_full_mesh(4);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  Engine engine;
  ASSERT_TRUE(engine.call(open_request(1, "net", "full_mesh", 4, cfg)).ok);

  Request policy = verb_request(2, "net", Verb::kAddPolicy);
  policy.policy.name = "p";
  policy.policy.src = "m0";
  policy.policy.dst = "m1";
  policy.policy.prefix = config::host_prefix(t.find_node("m1"));
  ASSERT_TRUE(engine.call(std::move(policy)).ok);

  Request sweep = verb_request(3, "net", Verb::kSweep);
  sweep.sweep.max_failures = 3;
  sweep.sweep.prune = true;
  sweep.sweep.threads = 2;
  const Response r = engine.call(std::move(sweep));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.body.get_int("total_scenarios"), 41);
  EXPECT_EQ(r.body.get_int("explored_scenarios"), 16);
  EXPECT_EQ(r.body.get_int("pruned_scenarios"), 25);
  EXPECT_EQ(r.body.find("coverage")->as_double(), 1.0);
  EXPECT_EQ(engine.metrics().sweep_pruned.value(), 25u);

  // A budget caps exploration and the shortfall shows up in coverage.
  Request budgeted = verb_request(4, "net", Verb::kSweep);
  budgeted.sweep.max_failures = 3;
  budgeted.sweep.prune = true;
  budgeted.sweep.budget = 5;
  const Response rb = engine.call(std::move(budgeted));
  ASSERT_TRUE(rb.ok) << rb.error;
  EXPECT_EQ(rb.body.get_int("explored_scenarios"), 5);
  EXPECT_LT(rb.body.find("coverage")->as_double(), 1.0);
}

TEST(Engine, SweepVerbSymmetryReplaysFatTreePods) {
  const topo::Topology t = topo::make_fat_tree(4);
  const config::NetworkConfig cfg = config::build_ospf_network(t);
  Engine engine;
  ASSERT_TRUE(engine.call(open_request(1, "net", "fat_tree", 4, cfg)).ok);

  Request policy = verb_request(2, "net", Verb::kAddPolicy);
  policy.policy.name = "p";
  policy.policy.src = "edge0-0";
  policy.policy.dst = "edge1-0";
  policy.policy.prefix = config::host_prefix(t.find_node("edge1-0"));
  ASSERT_TRUE(engine.call(std::move(policy)).ok);

  // Pods 2 and 3 are interchangeable (the policy pins 0 and 1): 8 of the
  // 32 single-link scenarios are replayed from their orbit representative.
  Request sweep = verb_request(3, "net", Verb::kSweep);
  sweep.sweep.symmetry = true;
  sweep.sweep.threads = 2;
  sweep.sweep.detail = true;
  const Response r = engine.call(std::move(sweep));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.body.get_int("scenarios"), 32);
  EXPECT_EQ(r.body.get_int("explored_scenarios"), 24);
  EXPECT_EQ(r.body.get_int("replayed_scenarios"), 8);
  EXPECT_EQ(r.body.find("coverage")->as_double(), 1.0);
  EXPECT_EQ(engine.metrics().sweep_replayed.value(), 8u);

  // Replayed coverage is visible per-outcome through the orbit counts.
  std::int64_t covered = 0;
  for (const json::Value& o : r.body.find("outcomes")->as_array()) {
    covered += o.get_int("orbit", 1);
  }
  EXPECT_EQ(covered, 32);
}

TEST(Engine, SweepVerbSurvivesDivergentScenarios) {
  // The stabilized bad gadget: healthy converges because m1 strongly
  // prefers its direct route from m0; failing link m0-m1 re-exposes the
  // dispute wheel. The sweep must report that scenario as diverged and
  // leave the session fully usable.
  const topo::Topology t = topo::make_full_mesh(4);
  config::NetworkConfig cfg = testutil::bad_gadget(t);
  config::set_local_pref(cfg, "m1", "to-m0", 300);

  Engine engine;
  Request open = open_request(1, "net", "full_mesh", 4, cfg);
  ASSERT_TRUE(engine.call(std::move(open)).ok);

  Request sweep = verb_request(2, "net", Verb::kSweep);
  sweep.sweep.threads = 2;
  const Response r = engine.call(std::move(sweep));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.body.get_int("scenarios"), static_cast<std::int64_t>(t.link_count()));
  EXPECT_EQ(r.body.find("diverged_links")->as_array().size(), 1u);
  EXPECT_EQ(engine.metrics().sweep_diverged.value(), 1u);

  // k >= 2 oscillations have no single-link slot in diverged_links; they
  // must still surface through diverged_scenarios even without detail.
  // Give m1 a second escape hatch through m4 (outside the dispute wheel):
  // every single failure converges, but cutting any two of
  // {m0-m1, m0-m4, m1-m4} strands m1 on the wheel and oscillates.
  const topo::Topology t5 = topo::make_full_mesh(5);
  config::NetworkConfig c5 = config::build_bgp_network(t5);
  for (unsigned i = 1; i <= 3; ++i) {
    c5.devices.at("m" + std::to_string(i)).bgp->networks.clear();
  }
  config::set_local_pref(c5, "m1", "to-m2", 200);
  config::set_local_pref(c5, "m2", "to-m3", 200);
  config::set_local_pref(c5, "m3", "to-m1", 200);
  config::set_local_pref(c5, "m1", "to-m0", 300);
  config::set_local_pref(c5, "m1", "to-m4", 250);
  Request open5 = open_request(3, "net5", "full_mesh", 5, c5);
  ASSERT_TRUE(engine.call(std::move(open5)).ok);

  Request pairs = verb_request(4, "net5", Verb::kSweep);
  pairs.sweep.max_failures = 2;
  pairs.sweep.threads = 2;
  const Response rp = engine.call(std::move(pairs));
  ASSERT_TRUE(rp.ok) << rp.error;
  EXPECT_EQ(rp.body.find("outcomes"), nullptr);  // detail:false
  EXPECT_TRUE(rp.body.find("diverged_links")->as_array().empty());
  const auto& diverged = rp.body.find("diverged_scenarios")->as_array();
  ASSERT_EQ(diverged.size(), 3u);
  for (const json::Value& s : diverged) EXPECT_EQ(s.as_array().size(), 2u);
  EXPECT_EQ(diverged[0].as_array()[0].as_int(), 0);  // {m0-m1, m0-m4}
  EXPECT_EQ(diverged[0].as_array()[1].as_int(), 3);

  // The sweep ran on forked replicas: the live verifier is untouched and
  // the session keeps serving.
  const Response q = engine.call(verb_request(5, "net", Verb::kQuery));
  ASSERT_TRUE(q.ok);
  EXPECT_EQ(q.body.get_int("rebuilds"), 0);
}

/// The top-level keys of a response as it goes on the wire, sorted.
std::string keys_of(const Response& r) {
  const json::Value wire = response_value(r);
  std::string out;
  for (const auto& entry : wire.as_object()) {
    if (!out.empty()) out += ',';
    out += entry.first;
  }
  return out;
}

/// One request line: {"id":id,"op":op,"session":session,<fields>}.
std::string request_line(std::uint64_t id, const char* op, const std::string& session,
                         json::Value::Object fields = {}) {
  fields["id"] = json::Value(id);
  fields["op"] = json::Value(op);
  if (!session.empty()) fields["session"] = json::Value(session);
  return json::Value(std::move(fields)).dump();
}

/// Request fields for a 3-node OSPF chain whose policy "p" (n0-0 -> n2-0)
/// a cut of link 0 breaks: enough for every verb to report something.
struct Chain {
  json::Value grid, healthy, cut, policy, step;

  Chain() {
    const topo::Topology t = topo::make_grid(3, 1);
    const config::NetworkConfig cfg = config::build_ospf_network(t);
    config::NetworkConfig cut_cfg = cfg;
    config::fail_link(cut_cfg, t, 0);
    config::NetworkConfig patch;  // an order step: n1-0 as it already is
    patch.devices["n1-0"] = cfg.devices.at("n1-0");
    grid["kind"] = json::Value("grid");
    grid["w"] = json::Value(3);
    grid["h"] = json::Value(1);
    healthy = json::Value(config::print_network(cfg));
    cut = json::Value(config::print_network(cut_cfg));
    policy["name"] = json::Value("p");
    policy["src"] = json::Value("n0-0");
    policy["dst"] = json::Value("n2-0");
    policy["prefix"] = json::Value(config::host_prefix(t.find_node("n2-0")).to_string());
    step["name"] = json::Value("n1");
    step["config"] = json::Value(config::print_network(patch));
  }
};

TEST(Engine, ResponseKeysPerVerb) {
  // Pins the wire shape of every verb's response: its top-level keys
  // (detail:true bodies included, on the primary and on a replica lane)
  // and the exact text of the envelope's error paths.
  const Chain chain;
  json::Value none_spec;
  none_spec["kind"] = json::Value("none");

  Engine engine;
  const auto call = [&](const std::string& line) {
    const Response r = engine.call(parse_request(line));
    EXPECT_TRUE(r.ok) << line << " -> " << r.error;
    return keys_of(r);
  };
  const auto fail = [&](const std::string& line) {
    const Response r = engine.call(parse_request(line));
    EXPECT_FALSE(r.ok) << line;
    EXPECT_EQ(keys_of(r), "error,id,ok");
    return r.error;
  };

  const std::string report =
      "affected_ecs,affected_pairs,bdd_nodes,changed_pairs,check_ms,ec_count,events,"
      "fib_changes,filter_changes,generate_ms,";
  const std::string summary =
      "blackholes,ecs,id,loops,ok,pairs,policies,rebuilds,session,staged";
  const std::string explained =
      "branches,cause,id,kind,ok,policy,satisfied,session,trace_enabled,witness";

  for (const std::string name : {"net", "rep"}) {
    json::Value::Object open{
        {"topology", chain.grid}, {"config", chain.healthy}, {"trace", json::Value(true)}};
    if (name == "rep") open["replicas"] = json::Value(1);
    EXPECT_EQ(call(request_line(1, "open", name, open)),
              "affected_ecs,affected_pairs,bdd_nodes,changed_pairs,check_ms,ec_count,ecs,events,"
              "fib_changes,filter_changes,generate_ms,id,links,model_ms,nodes,ok,pairs,rules,"
              "session,status,total_ms");
    EXPECT_EQ(call(request_line(2, "add_policy", name, {{"policy", chain.policy}})),
              "id,ok,policy,satisfied,session,status");
    EXPECT_EQ(call(request_line(3, "query", name)), summary);
    EXPECT_EQ(call(request_line(4, "query", name, {{"policy", json::Value("p")}})),
              "id,ok,policy,satisfied,session");
    EXPECT_EQ(call(request_line(5, "propose", name, {{"config", chain.cut}})),
              report + "id,model_ms,ok,session,status,total_ms");
    EXPECT_EQ(call(request_line(6, "explain", name)), explained);
    EXPECT_EQ(call(request_line(7, "explain", name, {{"policy", json::Value("p")}})),
              explained);
    EXPECT_EQ(call(request_line(8, "sweep", name, {{"detail", json::Value(true)}})),
              "coverage,critical_links,diverged_links,diverged_scenarios,explored_scenarios,"
              "fault_tolerant_pairs,healthy_pairs,id,loop_links,ok,outcomes,policy_violations,"
              "pruned_scenarios,replayed_scenarios,scenarios,session,snapshot_ms,sweep_ms,"
              "total_scenarios");
    EXPECT_EQ(call(request_line(9, "relate", name,
                                {{"config", chain.healthy},
                                 {"specs", json::Value(json::Value::Array{none_spec})},
                                 {"detail", json::Value(true)}})),
              "apply_ms,devices_diverged,diff,diff_ms,ecs_changed,ecs_compared,fork_ms,holds,"
              "id,ok,pairs_gained,pairs_lost,relate_ms,session,snapshot_ms,violations");
    EXPECT_EQ(call(request_line(10, "order", name,
                                {{"steps", json::Value(json::Value::Array{chain.step})},
                                 {"detail", json::Value(true)}})),
              "blocking,blocking_minimal,explored,found,id,ok,order,order_ms,restores,"
              "search_ms,session,snapshot_ms,steps");
    EXPECT_EQ(call(request_line(11, "abort", name)), "id,ok,rollback_ms,session,status");
    EXPECT_EQ(call(request_line(12, "propose", name, {{"config", chain.cut}})),
              report + "id,model_ms,ok,session,status,total_ms");
    EXPECT_EQ(call(request_line(13, "commit", name)), "id,ok,session,status");

    EXPECT_EQ(fail(request_line(14, "open", name, open)),
              "session already open: '" + name + "'");
    EXPECT_EQ(fail(request_line(15, "commit", name)),
              "commit: session '" + name + "': commit with no staged proposal");
    EXPECT_EQ(fail(request_line(16, "sweep", name,
                                {{"links", json::Value(json::Value::Array{json::Value(99)})}})),
              "sweep: link id 99 out of range");
    EXPECT_EQ(fail(request_line(17, "explain", name, {{"policy", json::Value("nope")}})),
              "explain: unknown policy: nope");
  }
  EXPECT_EQ(fail(request_line(18, "query", "ghost")), "unknown session: 'ghost'");
  EXPECT_EQ(call(request_line(19, "stats", "")), "id,metrics,ok,sessions");
  EXPECT_GT(engine.metrics().replica_queries.value(), 0u);
}

TEST(Engine, EveryVerbCountsOnlyItself) {
  const Chain chain;
  const std::vector<std::pair<Verb, std::string>> script = {
      {Verb::kOpen, request_line(1, "open", "net",
                                 {{"topology", chain.grid}, {"config", chain.healthy}})},
      {Verb::kAddPolicy, request_line(2, "add_policy", "net", {{"policy", chain.policy}})},
      {Verb::kPropose, request_line(3, "propose", "net", {{"config", chain.cut}})},
      {Verb::kQuery, request_line(4, "query", "net")},
      {Verb::kExplain, request_line(5, "explain", "net")},
      {Verb::kSweep, request_line(6, "sweep", "net")},
      {Verb::kRelate, request_line(7, "relate", "net", {{"config", chain.healthy}})},
      {Verb::kOrder, request_line(8, "order", "net",
                                  {{"steps", json::Value(json::Value::Array{chain.step})}})},
      {Verb::kAbort, request_line(9, "abort", "net")},
      {Verb::kCommit, request_line(10, "commit", "net")},
      {Verb::kStats, request_line(11, "stats", "")},
  };
  ASSERT_EQ(script.size(), kVerbCount);

  Engine engine;
  const auto counts = [&] {
    return *engine.call(parse_request(request_line(0, "stats", "")))
                .body.find("metrics")
                ->find("requests");
  };
  std::set<Verb> seen;
  for (const auto& [verb, line] : script) {
    EXPECT_TRUE(seen.insert(verb).second);
    const json::Value before = counts();
    engine.call(parse_request(line));
    const json::Value after = counts();
    ASSERT_EQ(after.as_object().size(), kVerbCount + 2);  // + total, errors
    for (const VerbInfo& v : kVerbs) {
      // The stats calls that read the counters count themselves.
      const std::int64_t expected = (v.verb == verb) + (v.verb == Verb::kStats);
      EXPECT_EQ(after.get_int(v.name) - before.get_int(v.name), expected)
          << "after " << verb_name(verb) << ": requests." << v.name;
    }
    EXPECT_EQ(after.get_int("total") - before.get_int("total"), 2);
    EXPECT_EQ(engine.metrics().requests(verb).value(),
              static_cast<std::uint64_t>(after.get_int(verb_name(verb))));
  }
}

}  // namespace
}  // namespace rcfg::service
