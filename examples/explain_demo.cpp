// Provenance in action: why is my waypoint policy suddenly violated?
//
//   $ ./examples/explain_demo
//
// The script opens a traced session on a 4-node OSPF ring whose costs steer
// r0's traffic to r2 through r1, pins a waypoint policy to that path, then
// proposes a config that shuts the r0--r1 link. The `explain` verb answers
// with a witness packet, its hop-by-hop forwarding trace through the *new*
// data plane (LPM rule and ACL verdict per hop), and the provenance chain:
// which batch moved the policy's equivalence classes, and which config
// lines in that batch did it.

#include <cstdio>
#include <sstream>
#include <string>

#include "config/builders.h"
#include "config/print.h"
#include "service/io.h"
#include "topo/generators.h"

using namespace rcfg;
using service::json::Value;

namespace {

std::string line(Value::Object fields) { return Value(std::move(fields)).dump() + "\n"; }

void print_explanation(const Value& v) {
  std::printf("  policy '%s' (%s): %s\n", v.get_string("policy").c_str(),
              v.get_string("kind").c_str(),
              v.get_bool("satisfied") ? "satisfied" : "VIOLATED");
  const Value* witness = v.find("witness");
  if (witness == nullptr) return;
  std::printf("  witness: EC %lld, %s -> %s (%s) entering at %s\n",
              static_cast<long long>(witness->get_int("ec")),
              witness->get_string("src").c_str(), witness->get_string("dst").c_str(),
              witness->get_string("proto").c_str(), witness->get_string("ingress").c_str());
  for (const Value& branch : v.find("branches")->as_array()) {
    std::printf("  path (%s):\n", branch.get_string("disposition").c_str());
    for (const Value& hop : branch.find("hops")->as_array()) {
      std::printf("    %-4s lpm=%-18s action=%s", hop.get_string("node").c_str(),
                  hop.get_string("lpm").c_str(), hop.get_string("action").c_str());
      if (hop.find("egress") != nullptr) {
        std::printf(" egress=%s", hop.get_string("egress").c_str());
      }
      if (hop.find("egress_acl") != nullptr) {
        std::printf(" egress_acl=[%s]", hop.get_string("egress_acl").c_str());
      }
      if (hop.find("ingress_acl") != nullptr) {
        std::printf(" ingress_acl=[%s]", hop.get_string("ingress_acl").c_str());
      }
      std::printf("\n");
    }
  }
  const Value* cause = v.find("cause");
  if (cause == nullptr) {
    std::printf("  cause: none recorded (tracing off or no batch moved these ECs)\n");
    return;
  }
  std::printf("  cause: batch %lld (%s), stages %.3f/%.3f/%.3f ms\n",
              static_cast<long long>(cause->get_int("batch")),
              cause->get_string("label").c_str(), cause->find("generate_ms")->as_double(),
              cause->find("model_ms")->as_double(), cause->find("check_ms")->as_double());
  for (const Value& dev : cause->find("devices")->as_array()) {
    std::printf("    device %s%s:\n", dev.get_string("device").c_str(),
                dev.get_bool("direct") ? " (rules moved here)" : "");
    for (const Value& edit : dev.find("edits")->as_array()) {
      std::printf("      %s line %lld: %s\n", edit.get_string("op").c_str(),
                  static_cast<long long>(edit.get_int("line")),
                  edit.get_string("text").c_str());
    }
  }
}

}  // namespace

int main() {
  // A ring where r0 reaches r2 clockwise through the waypoint r1 (the
  // counter-clockwise exit costs 10), until maintenance shuts r0--r1.
  const topo::Topology topo = topo::make_ring(4);
  config::NetworkConfig good = config::build_ospf_network(topo);
  config::set_ospf_cost(good, "r0", "to-r3", 10);
  config::NetworkConfig drained = good;
  config::fail_link(drained, topo, 0);

  Value topology;
  topology["kind"] = Value("ring");
  topology["n"] = Value(4);
  Value policy;
  policy["kind"] = Value("waypoint");
  policy["name"] = Value("via-r1");
  policy["src"] = Value("r0");
  policy["dst"] = Value("r2");
  policy["via"] = Value("r1");
  policy["prefix"] = Value(config::host_prefix(topo.find_node("r2")).to_string());

  std::ostringstream script;
  script << line({{"id", Value(1)},
                  {"op", Value("open")},
                  {"session", Value("ring4")},
                  {"topology", topology},
                  {"trace", Value(true)},  // provenance on: record every batch
                  {"config", Value(config::print_network(good))}});
  script << line({{"id", Value(2)},
                  {"op", Value("add_policy")},
                  {"session", Value("ring4")},
                  {"policy", policy}});
  script << line({{"id", Value(3)},
                  {"op", Value("propose")},
                  {"session", Value("ring4")},
                  {"config", Value(config::print_network(drained))}});
  // Empty "policy" means "explain the most recent verdict flip".
  script << line({{"id", Value(4)}, {"op", Value("explain")}, {"session", Value("ring4")}});

  std::printf("request script:\n%s\n", script.str().c_str());

  std::istringstream in(script.str());
  std::ostringstream out;
  service::run_service(in, out);

  std::printf("responses:\n");
  std::istringstream lines(out.str());
  std::string response;
  while (std::getline(lines, response)) {
    const Value v = Value::parse(response);
    if (v.get_int("id") == 4) {
      std::printf("  id 4 (explain):\n");
      print_explanation(v);
    } else {
      std::printf("  %s\n", response.c_str());
    }
  }

  std::printf("\nnote: the explanation pairs the *symptom* (the witness detours\n"
              "r0 -> r3 -> r2, never crossing r1) with the *cause* (the propose\n"
              "batch whose 'shutdown' lines on r0/r1 moved the policy's ECs).\n");
  return 0;
}
