// A client-side walk through the rcfgd service layer: build JSON-lines
// requests programmatically, run them through the same loop `rcfgd` runs,
// and read the responses back — all in process, no daemon needed.
//
//   $ ./examples/service_client
//
// The same script, written to a file, drives the standalone daemon:
//
//   $ ./src/service/rcfgd script.jsonl responses.jsonl
//
// Covers the whole verb set: open, add_policy, propose (twice, so the second
// coalesces the first inside one batch), commit, query, and stats.

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

}  // namespace

int main() {
  // --- the network under management: a 4-node OSPF ring -------------------
  const topo::Topology topo = topo::make_ring(4);
  const config::NetworkConfig good = config::build_ospf_network(topo);
  config::NetworkConfig drained = good;
  config::fail_link(drained, topo, 0);  // r0--r1 taken down for maintenance
  config::NetworkConfig rerouted = drained;
  config::fail_link(rerouted, topo, 2);  // ...and r2--r3 as well

  Value topology;
  topology["kind"] = Value("ring");
  topology["n"] = Value(4);
  Value policy;
  policy["kind"] = Value("reachable");
  policy["name"] = Value("r0-r2");
  policy["src"] = Value("r0");
  policy["dst"] = Value("r2");
  policy["prefix"] = Value(config::host_prefix(topo.find_node("r2")).to_string());

  // --- the request script, one JSON object per line -----------------------
  std::ostringstream script;
  script << "#pause\n";  // queue everything, then verify as one batch
  script << line({{"id", Value(1)},
                  {"op", Value("open")},
                  {"session", Value("ring4")},
                  {"topology", topology},
                  {"config", Value(config::print_network(good))}});
  script << line({{"id", Value(2)},
                  {"op", Value("add_policy")},
                  {"session", Value("ring4")},
                  {"policy", policy}});
  script << line({{"id", Value(3)},
                  {"op", Value("propose")},
                  {"session", Value("ring4")},
                  {"config", Value(config::print_network(drained))}});
  script << line({{"id", Value(4)},
                  {"op", Value("propose")},
                  {"session", Value("ring4")},
                  {"config", Value(config::print_network(rerouted))}});
  script << line({{"id", Value(5)}, {"op", Value("commit")}, {"session", Value("ring4")}});
  script << line({{"id", Value(6)}, {"op", Value("query")}, {"session", Value("ring4")}});
  script << "#resume\n";
  script << line({{"id", Value(7)}, {"op", Value("stats")}});

  std::printf("request script:\n%s\n", script.str().c_str());

  // --- run it through the rcfgd loop --------------------------------------
  std::istringstream in(script.str());
  std::ostringstream out;
  service::ServiceOptions opts;
  opts.engine.workers = 2;
  service::run_service(in, out, opts);

  std::printf("responses:\n");
  std::istringstream lines(out.str());
  std::string response;
  while (std::getline(lines, response)) {
    const Value v = Value::parse(response);
    const std::int64_t id = v.get_int("id");
    if (id == 7) {
      // stats is a big nested object; summarise instead of dumping it raw.
      const Value* batching = v.find("metrics")->find("batching");
      std::printf("  id 7: ok, %lld batches, %lld proposes coalesced\n",
                  static_cast<long long>(batching->get_int("batches")),
                  static_cast<long long>(batching->get_int("coalesced_proposes")));
      continue;
    }
    std::printf("  %s\n", response.c_str());
  }

  std::printf("\nnote: propose #3 answers \"coalesced\" with superseded_by 4 — both\n"
              "proposals landed in one batch, and apply() takes the whole intended\n"
              "config, so verifying only the last one is equivalent.\n");
  return 0;
}
