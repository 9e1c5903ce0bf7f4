#include "service/protocol.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "config/builders.h"
#include "config/print.h"
#include "service/io.h"
#include "service_test_util.h"
#include "topo/generators.h"

namespace rcfg::service {
namespace {

TEST(Protocol, ParsesEveryVerb) {
  Request r = parse_request(
      R"({"id":1,"op":"open","session":"s","topology":{"kind":"fat_tree","k":4},)"
      R"("config":"hostname r0","max_rounds":9,"update_order":"delete_first","threads":4})");
  EXPECT_EQ(r.id, 1u);
  EXPECT_EQ(r.verb, Verb::kOpen);
  EXPECT_EQ(r.session, "s");
  EXPECT_EQ(r.topology.kind, "fat_tree");
  EXPECT_EQ(r.topology.k, 4u);
  EXPECT_EQ(r.config_text, "hostname r0");
  EXPECT_EQ(r.options.verifier.generator.max_rounds, 9u);
  EXPECT_EQ(r.options.verifier.update_order, dpm::UpdateOrder::kDeleteFirst);
  EXPECT_EQ(r.options.verifier.threads, 4u);

  // Omitted => the single-threaded default survives parsing.
  r = parse_request(
      R"({"id":1,"op":"open","session":"s","topology":{"kind":"ring","n":4},)"
      R"("config":"hostname r0"})");
  EXPECT_EQ(r.options.verifier.threads, 1u);

  r = parse_request(R"({"id":2,"op":"propose","session":"s","config":"hostname r0"})");
  EXPECT_EQ(r.verb, Verb::kPropose);

  r = parse_request(R"({"id":3,"op":"commit","session":"s"})");
  EXPECT_EQ(r.verb, Verb::kCommit);
  r = parse_request(R"({"id":4,"op":"abort","session":"s"})");
  EXPECT_EQ(r.verb, Verb::kAbort);

  r = parse_request(
      R"({"id":5,"op":"add_policy","session":"s","policy":{"kind":"waypoint",)"
      R"("name":"w","src":"a","dst":"b","via":"c","prefix":"10.0.0.0/24"}})");
  EXPECT_EQ(r.verb, Verb::kAddPolicy);
  EXPECT_EQ(r.policy.kind, PolicySpec::Kind::kWaypoint);
  EXPECT_EQ(r.policy.via, "c");
  EXPECT_EQ(r.policy.prefix.to_string(), "10.0.0.0/24");

  r = parse_request(R"({"id":6,"op":"query","session":"s","policy":"w"})");
  EXPECT_EQ(r.verb, Verb::kQuery);
  EXPECT_EQ(r.query_policy, "w");

  r = parse_request(R"({"id":7,"op":"stats"})");
  EXPECT_EQ(r.verb, Verb::kStats);
  EXPECT_TRUE(r.session.empty());

  r = parse_request(
      R"({"id":8,"op":"sweep","session":"s","links":[3,0,7],"max_failures":2,)"
      R"("threads":4,"detail":true})");
  EXPECT_EQ(r.verb, Verb::kSweep);
  EXPECT_EQ(r.sweep.links, (std::vector<topo::LinkId>{3, 0, 7}));
  EXPECT_EQ(r.sweep.max_failures, 2u);
  EXPECT_EQ(r.sweep.threads, 4u);
  EXPECT_TRUE(r.sweep.detail);

  // Everything optional: defaults are a full single-failure serial sweep.
  r = parse_request(R"({"id":9,"op":"sweep","session":"s"})");
  EXPECT_TRUE(r.sweep.links.empty());
  EXPECT_EQ(r.sweep.max_failures, 1u);
  EXPECT_EQ(r.sweep.budget, 0u);
  EXPECT_FALSE(r.sweep.prune);
  EXPECT_FALSE(r.sweep.symmetry);
  EXPECT_EQ(r.sweep.threads, 1u);
  EXPECT_FALSE(r.sweep.detail);

  // Deep-space knobs: k up to 6, explored-scenario budget, pruning and
  // symmetry dedup flags.
  r = parse_request(
      R"({"id":9,"op":"sweep","session":"s","max_failures":3,"budget":500,)"
      R"("prune":true,"symmetry":true})");
  EXPECT_EQ(r.sweep.max_failures, 3u);
  EXPECT_EQ(r.sweep.budget, 500u);
  EXPECT_TRUE(r.sweep.prune);
  EXPECT_TRUE(r.sweep.symmetry);
}

TEST(Protocol, RejectsBadSweepRequests) {
  EXPECT_THROW(
      parse_request(R"({"id":1,"op":"sweep","session":"s","max_failures":0})"),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"id":2,"op":"sweep","session":"s","max_failures":7})"),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"id":3,"op":"sweep","session":"s","links":[-1]})"),
      ProtocolError);
  // 2^32 must not truncate to link 0 and silently alias a valid id.
  EXPECT_THROW(
      parse_request(R"({"id":4,"op":"sweep","session":"s","links":[4294967296]})"),
      ProtocolError);
  // The largest representable id still parses (the engine range-checks it
  // against the topology).
  Request r = parse_request(
      R"({"id":5,"op":"sweep","session":"s","links":[4294967295]})");
  EXPECT_EQ(r.sweep.links, (std::vector<topo::LinkId>{4294967295u}));

  // Integer fields must not truncate to 32 bits: 2^32 + 1 is not 1 (which
  // would pass the 1..6 check), and a 2^32 budget is not 0 (unbounded).
  EXPECT_THROW(
      parse_request(R"({"id":6,"op":"sweep","session":"s","max_failures":4294967297})"),
      ProtocolError);
  r = parse_request(R"({"id":7,"op":"sweep","session":"s","budget":4294967296})");
  EXPECT_EQ(r.sweep.budget, 4294967296u);
  // Each sweep lane forks a whole verifier: "threads" is capped.
  EXPECT_THROW(parse_request(R"({"id":8,"op":"sweep","session":"s","threads":100000})"),
               ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"id":9,"op":"sweep","session":"s","threads":4294967297})"),
      ProtocolError);
  r = parse_request(R"({"id":10,"op":"sweep","session":"s","threads":64})");
  EXPECT_EQ(r.sweep.threads, kMaxThreads);
  r = parse_request(R"({"id":11,"op":"sweep","session":"s","threads":0})");
  EXPECT_EQ(r.sweep.threads, 1u);
}

TEST(Protocol, EveryVerbRoundTripsThroughItsName) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kVerbCount; ++i) {
    const Verb v = static_cast<Verb>(i);
    EXPECT_EQ(verb_info(v).verb, v);
    const std::string name = verb_name(v);
    EXPECT_TRUE(names.insert(name).second) << "duplicate verb name " << name;
    // Only the verb's wire name and a session: parsing may then reject the
    // request for a missing field, but it must name this verb.
    json::Value doc;
    doc["op"] = json::Value(name);
    doc["session"] = json::Value("s");
    try {
      EXPECT_EQ(parse_request_doc(doc).verb, v) << name;
    } catch (const ProtocolError& e) {
      EXPECT_EQ(std::string(e.what()).rfind(name + " needs", 0), 0u) << e.what();
    }
    // Every verb but stats must name a session.
    doc = json::Value();
    doc["op"] = json::Value(name);
    if (verb_info(v).needs_session) {
      EXPECT_THROW(parse_request_doc(doc), ProtocolError) << name;
    } else {
      EXPECT_EQ(parse_request_doc(doc).verb, v) << name;
    }
  }
  EXPECT_EQ(names.size(), kVerbCount);
}

TEST(Protocol, ParsesRelateRequests) {
  Request r = parse_request(
      R"({"id":10,"op":"relate","session":"s","config":"hostname r0",)"
      R"("specs":[{"kind":"only_dst_in","prefixes":["10.0.2.0/24","10.0.3.0/24"],)"
      R"("name":"quarantine"},{"kind":"none"}],"witnesses":false,"detail":true})");
  EXPECT_EQ(r.verb, Verb::kRelate);
  EXPECT_STREQ(verb_name(r.verb), "relate");
  EXPECT_EQ(r.config_text, "hostname r0");
  ASSERT_EQ(r.relate.specs.size(), 2u);
  EXPECT_EQ(r.relate.specs[0].kind, relate::RelationalSpec::Kind::kOnlyDstIn);
  ASSERT_EQ(r.relate.specs[0].prefixes.size(), 2u);
  EXPECT_EQ(r.relate.specs[0].prefixes[1].to_string(), "10.0.3.0/24");
  EXPECT_EQ(r.relate.specs[0].name, "quarantine");
  EXPECT_EQ(r.relate.specs[1].kind, relate::RelationalSpec::Kind::kNone);
  EXPECT_FALSE(r.relate.witnesses);
  EXPECT_TRUE(r.relate.detail);

  // Specs optional (a bare behavioural diff); witnesses default on.
  r = parse_request(R"({"id":11,"op":"relate","session":"s","config":"hostname r0"})");
  EXPECT_TRUE(r.relate.specs.empty());
  EXPECT_TRUE(r.relate.witnesses);
  EXPECT_FALSE(r.relate.detail);
}

TEST(Protocol, ParsesOrderRequests) {
  Request r = parse_request(
      R"({"id":12,"op":"order","session":"s","steps":[)"
      R"({"name":"edge","config":"hostname e0"},{"name":"core","config":"hostname c0"}],)"
      R"("max_blocking":3,"detail":true})");
  EXPECT_EQ(r.verb, Verb::kOrder);
  EXPECT_STREQ(verb_name(r.verb), "order");
  ASSERT_EQ(r.order.steps.size(), 2u);
  EXPECT_EQ(r.order.steps[0].name, "edge");
  EXPECT_EQ(r.order.steps[1].config_text, "hostname c0");
  EXPECT_EQ(r.order.max_blocking, 3u);
  EXPECT_TRUE(r.order.detail);

  r = parse_request(
      R"({"id":13,"op":"order","session":"s","steps":[{"name":"a","config":"hostname a"}]})");
  EXPECT_EQ(r.order.max_blocking, 2u);
  EXPECT_FALSE(r.order.detail);
}

TEST(Protocol, RejectsMalformedRelateAndOrder) {
  // relate: missing config, bad spec kind, malformed prefixes, kind/prefix
  // mismatches.
  EXPECT_THROW(parse_request(R"({"op":"relate","session":"s"})"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"op":"relate","session":"s","config":"x",)"
                             R"("specs":[{"kind":"only_via","prefixes":["10.0.0.0/8"]}]})"),
               ProtocolError);  // unknown spec kind
  EXPECT_THROW(parse_request(R"({"op":"relate","session":"s","config":"x",)"
                             R"("specs":[{"prefixes":["10.0.0.0/8"]}]})"),
               ProtocolError);  // no kind
  EXPECT_THROW(parse_request(R"({"op":"relate","session":"s","config":"x",)"
                             R"("specs":[{"kind":"only_dst_in","prefixes":["299.0.0.0/8"]}]})"),
               ProtocolError);  // malformed prefix
  EXPECT_THROW(parse_request(R"({"op":"relate","session":"s","config":"x",)"
                             R"("specs":[{"kind":"only_dst_in","prefixes":"10.0.0.0/8"}]})"),
               ProtocolError);  // prefixes must be an array
  EXPECT_THROW(parse_request(R"({"op":"relate","session":"s","config":"x",)"
                             R"("specs":[{"kind":"only_dst_in"}]})"),
               ProtocolError);  // only_dst_in needs prefixes
  EXPECT_THROW(parse_request(R"({"op":"relate","session":"s","config":"x",)"
                             R"("specs":[{"kind":"none","prefixes":["10.0.0.0/8"]}]})"),
               ProtocolError);  // none takes no prefixes

  // order: empty or malformed step batches.
  EXPECT_THROW(parse_request(R"({"op":"order","session":"s"})"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"op":"order","session":"s","steps":[]})"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"op":"order","session":"s","steps":["a"]})"),
               ProtocolError);  // step must be an object
  EXPECT_THROW(parse_request(R"({"op":"order","session":"s","steps":[{"config":"x"}]})"),
               ProtocolError);  // step without name
  EXPECT_THROW(parse_request(R"({"op":"order","session":"s","steps":[{"name":"a"}]})"),
               ProtocolError);  // step without config
  EXPECT_THROW(parse_request(R"({"op":"order","session":"s","steps":[)"
                             R"({"name":"a","config":"x"},{"name":"a","config":"y"}]})"),
               ProtocolError);  // duplicate step name
}

TEST(Protocol, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request("not json"), ProtocolError);
  EXPECT_THROW(parse_request("[1,2]"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"op":"frobnicate","session":"s"})"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"op":"propose"})"), ProtocolError);  // no session
  EXPECT_THROW(parse_request(R"({"op":"propose","session":"s"})"), ProtocolError);  // no config
  EXPECT_THROW(parse_request(R"({"op":"open","session":"s","config":"x"})"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"op":"add_policy","session":"s"})"), ProtocolError);
  EXPECT_THROW(
      parse_request(
          R"({"op":"add_policy","session":"s","policy":{"kind":"waypoint","name":"w","src":"a","dst":"b"}})"),
      ProtocolError);  // waypoint without via
  EXPECT_THROW(
      parse_request(
          R"({"op":"add_policy","session":"s","policy":{"name":"p","src":"a","dst":"b","prefix":"299.0.0.0/8"}})"),
      ProtocolError);  // bad prefix
  EXPECT_THROW(parse_request(R"({"op":"sweep"})"), ProtocolError);  // no session
  EXPECT_THROW(parse_request(R"({"op":"sweep","session":"s","links":3})"),
               ProtocolError);  // links must be an array
  EXPECT_THROW(parse_request(R"({"op":"sweep","session":"s","links":[-1]})"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"op":"sweep","session":"s","max_failures":9})"),
               ProtocolError);  // deep spaces cap at kMaxSweepFailures

  // open's checker pool is capped like sweep's lanes; negative or
  // out-of-range integers are rejected, not cast.
  const std::string open =
      R"({"op":"open","session":"s","topology":{"kind":"ring","n":4},"config":"x",)";
  EXPECT_THROW(parse_request(open + R"("threads":65})"), ProtocolError);
  EXPECT_THROW(parse_request(open + R"("threads":4294967297})"), ProtocolError);
  EXPECT_EQ(parse_request(open + R"("threads":64})").options.verifier.threads, kMaxThreads);
}

TEST(Protocol, BuildTopologyKinds) {
  TopologySpec spec;
  spec.kind = "ring";
  spec.k = 5;
  EXPECT_EQ(build_topology(spec).node_count(), 5u);
  spec.kind = "full_mesh";
  spec.k = 4;
  EXPECT_EQ(build_topology(spec).node_count(), 4u);
  spec.kind = "fat_tree";
  spec.k = 4;
  EXPECT_EQ(build_topology(spec).node_count(), 20u);
  spec.kind = "grid";
  spec.w = 3;
  spec.h = 2;
  EXPECT_EQ(build_topology(spec).node_count(), 6u);
  spec.kind = "mobius";
  EXPECT_THROW(build_topology(spec), ProtocolError);
  spec.kind = "fat_tree";
  spec.k = 3;  // odd
  EXPECT_THROW(build_topology(spec), ProtocolError);
}

TEST(Protocol, SerializeResponse) {
  Response r;
  r.id = 12;
  r.body["status"] = json::Value("staged");
  EXPECT_EQ(serialize_response(r), R"({"id":12,"ok":true,"status":"staged"})");
  EXPECT_EQ(serialize_response(error_response(3, "boom")),
            R"({"error":"boom","id":3,"ok":false})");
}

// ---------------------------------------------------------------------------
// The acceptance transcript: open -> add_policy -> propose -> (coalesced)
// propose -> commit -> propose(nonterminating) -> automatic recovery ->
// query -> stats, driven through the same JSON-lines loop rcfgd runs.
// ---------------------------------------------------------------------------

std::string request_line(json::Value::Object fields) {
  return json::Value(std::move(fields)).dump();
}

TEST(Protocol, RcfgdTranscriptEndToEnd) {
  const topo::Topology t = topo::make_full_mesh(4);
  const config::NetworkConfig good = config::build_bgp_network(t);
  config::NetworkConfig c1 = good;
  config::fail_link(c1, t, 0);
  config::NetworkConfig c2 = c1;
  config::fail_link(c2, t, 3);

  json::Value topology;
  topology["kind"] = json::Value("full_mesh");
  topology["n"] = json::Value(4);
  json::Value policy;
  policy["kind"] = json::Value("reachable");
  policy["name"] = json::Value("m0-m1");
  policy["src"] = json::Value("m0");
  policy["dst"] = json::Value("m1");
  policy["prefix"] = json::Value(config::host_prefix(t.find_node("m1")).to_string());

  std::ostringstream script;
  script << "# rcfgd acceptance transcript\n";
  script << "#pause\n";  // force one deterministic batch
  // flush_budget / recurrence_threshold / packet_space / ec_watermark /
  // bdd_watermark are retired open options; an older client that still
  // sends them gets them ignored like any unknown key, even at values the
  // options used to reject.
  script << request_line({{"id", json::Value(1)},
                          {"op", json::Value("open")},
                          {"session", json::Value("net1")},
                          {"topology", topology},
                          {"config", json::Value(config::print_network(good))},
                          {"flush_budget", json::Value(2'000'000)},
                          {"recurrence_threshold", json::Value(500)},
                          {"packet_space", json::Value("zdd")},
                          {"ec_watermark", json::Value(-1)},
                          {"bdd_watermark", json::Value(1'000'000)}})
         << "\n";
  script << request_line({{"id", json::Value(2)},
                          {"op", json::Value("add_policy")},
                          {"session", json::Value("net1")},
                          {"policy", policy}})
         << "\n";
  script << request_line({{"id", json::Value(3)},
                          {"op", json::Value("propose")},
                          {"session", json::Value("net1")},
                          {"config", json::Value(config::print_network(c1))}})
         << "\n";
  script << request_line({{"id", json::Value(4)},
                          {"op", json::Value("propose")},
                          {"session", json::Value("net1")},
                          {"config", json::Value(config::print_network(c2))}})
         << "\n";
  script << request_line({{"id", json::Value(5)},
                          {"op", json::Value("commit")},
                          {"session", json::Value("net1")}})
         << "\n";
  script << request_line(
                {{"id", json::Value(6)},
                 {"op", json::Value("propose")},
                 {"session", json::Value("net1")},
                 {"config", json::Value(config::print_network(testutil::bad_gadget(t)))}})
         << "\n";
  script << request_line({{"id", json::Value(7)},
                          {"op", json::Value("query")},
                          {"session", json::Value("net1")}})
         << "\n";
  script << "#resume\n";
  script << request_line({{"id", json::Value(8)}, {"op", json::Value("stats")}}) << "\n";

  std::istringstream in(script.str());
  std::ostringstream out;
  ServiceOptions opts;
  opts.engine.workers = 2;
  run_service(in, out, opts);

  // One response line per request, keyed by id.
  std::map<std::int64_t, json::Value> by_id;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    const json::Value v = json::Value::parse(line);
    by_id[v.get_int("id")] = v;
  }
  ASSERT_EQ(by_id.size(), 8u) << out.str();
  for (const auto& [id, v] : by_id) {
    EXPECT_TRUE(v.get_bool("ok")) << "id " << id << ": " << v.dump();
  }

  EXPECT_EQ(by_id[1].get_string("status"), "open");
  EXPECT_EQ(by_id[1].get_int("nodes"), 4);
  EXPECT_GT(by_id[1].get_int("rules"), 0);

  EXPECT_EQ(by_id[2].get_string("status"), "policy_added");
  EXPECT_TRUE(by_id[2].get_bool("satisfied"));

  // propose #3 was coalesced into #4 inside the paused batch.
  EXPECT_EQ(by_id[3].get_string("status"), "coalesced");
  EXPECT_EQ(by_id[3].get_int("superseded_by"), 4);
  EXPECT_EQ(by_id[4].get_string("status"), "staged");
  EXPECT_GT(by_id[4].get_int("fib_changes"), 0);
  EXPECT_EQ(by_id[5].get_string("status"), "committed");

  // The nonterminating proposal triggered automatic recovery.
  EXPECT_EQ(by_id[6].get_string("status"), "nonconvergent");
  EXPECT_TRUE(by_id[6].get_bool("recovered"));
  EXPECT_EQ(by_id[6].get_int("rebuilds"), 1);

  // The query observes the recovered, committed state (policy intact).
  EXPECT_EQ(by_id[7].get_int("rebuilds"), 1);
  EXPECT_EQ(by_id[7].find("generation"), nullptr);
  EXPECT_FALSE(by_id[7].get_bool("staged"));
  const auto& policies = by_id[7].find("policies")->as_array();
  ASSERT_EQ(policies.size(), 1u);
  EXPECT_EQ(policies[0].get_string("name"), "m0-m1");
  EXPECT_TRUE(policies[0].get_bool("satisfied"));

  // Stats: >= 1 coalesced batch, per-stage latency histograms populated,
  // and the recovery counted.
  const json::Value& stats = by_id[8];
  const json::Value* metrics = stats.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GE(metrics->find("batching")->get_int("coalesced_batches"), 1);
  EXPECT_GE(metrics->find("batching")->get_int("coalesced_proposes"), 1);
  EXPECT_EQ(metrics->find("recoveries")->as_int(), 1);
  for (const char* stage : {"generate_ms", "model_ms", "check_ms", "total_ms"}) {
    const json::Value* h = metrics->find("latency")->find(stage);
    ASSERT_NE(h, nullptr) << stage;
    EXPECT_GE(h->get_int("count"), 2) << stage;  // open + surviving propose
    EXPECT_FALSE(h->find("buckets")->as_array().empty()) << stage;
  }
  ASSERT_EQ(stats.find("sessions")->as_array().size(), 1u);
  EXPECT_EQ(stats.find("sessions")->as_array()[0].get_string("name"), "net1");

  // Batched-vs-sequential equivalence on the surviving state: the session
  // saw (good, then c2-with-c1-coalesced, then recovery back to c2).
  verify::RealConfig oracle(t);
  oracle.apply(good);
  oracle.apply(c1);
  oracle.apply(c2);
  EXPECT_EQ(by_id[7].get_int("pairs"),
            static_cast<std::int64_t>(oracle.checker().pair_count()));
}

}  // namespace
}  // namespace rcfg::service
