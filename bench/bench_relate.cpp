// Relational verification economics: what does "how does the change behave
// differently?" cost when answered incrementally versus naively?
//
//   incremental  RelationalChecker::check — snapshot the live verifier,
//                fork a replica, apply the proposal incrementally, and
//                compare ONLY the ECs the apply touched (everything else is
//                provably identical through the fork's shared packet space);
//   naive        stand up TWO verifiers from scratch (base and proposed)
//                and compare every EC pair across the whole partition.
//
// The incremental diff is asserted bit-identical to the full pairwise walk
// before any timing is reported, so the bench doubles as the correctness
// check for the affected-set restriction. A second section measures
// update-order synthesis throughput (verified placements per second) on an
// upgrade-planning-style batch of pairwise-disjoint steps.
//
// Knobs (environment variables):
//   RCFG_FATTREE_K        fat-tree k (default 8)
//   RCFG_RELATE_POLICIES  registered reachability policies (default 16)
//   RCFG_SAMPLES          timing samples per strategy (default 5)
//
// Emits BENCH_relate.json in the working directory.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "config/builders.h"
#include "core/rng.h"
#include "relate/order.h"
#include "relate/relate.h"
#include "service/json.h"
#include "topo/generators.h"
#include "verify/realconfig.h"

using namespace rcfg;

namespace {

/// Quarantine `victim`'s host prefix at `device`: deny-then-permit ACL on
/// every transit interface.
void quarantine_at(config::NetworkConfig& cfg, const std::string& device,
                   net::Ipv4Prefix victim) {
  auto& dev = cfg.devices.at(device);
  config::Acl acl;
  acl.name = "QUARANTINE";
  config::AclRule deny;
  deny.seq = 10;
  deny.action = config::Action::kDeny;
  deny.dst = victim;
  acl.rules.push_back(deny);
  config::AclRule permit;
  permit.seq = 20;
  permit.action = config::Action::kPermit;
  acl.rules.push_back(permit);
  dev.acls[acl.name] = acl;
  for (auto& iface : dev.interfaces) {
    if (iface.name != "lan0") iface.acl_in = acl.name;
  }
}

}  // namespace

int main() {
  const unsigned k = bench::fat_tree_k();
  const unsigned n_policies = bench::env_unsigned("RCFG_RELATE_POLICIES", 16);
  const unsigned samples = bench::samples();

  const topo::Topology topo = topo::make_fat_tree(k);
  const config::NetworkConfig base = config::build_ospf_network(topo);

  verify::RealConfig rc(topo);
  core::Rng rng(0x9e3779b97f4a7c15ULL);
  for (unsigned p = 0; p < n_policies; ++p) {
    const topo::NodeId a = static_cast<topo::NodeId>(rng.next_below(topo.node_count()));
    topo::NodeId b = static_cast<topo::NodeId>(rng.next_below(topo.node_count()));
    if (b == a) b = (b + 1) % static_cast<topo::NodeId>(topo.node_count());
    rc.require_reachable(topo.node(a).name, topo.node(b).name, config::host_prefix(b));
  }
  rc.apply(base);

  // The proposed change: quarantine one edge switch's host prefix at every
  // core, plus an IGP cost bump — a routing change and a filter change in
  // one proposal, touching a handful of ECs out of the whole partition.
  const topo::NodeId victim_node = topo.find_node("edge1-1");
  const net::Ipv4Prefix victim = config::host_prefix(victim_node);
  config::NetworkConfig proposed = base;
  for (unsigned j = 0; j < k * k / 4; ++j) {
    quarantine_at(proposed, "core" + std::to_string(j), victim);
  }
  config::set_ospf_cost(proposed, "agg0-0", "to-core0", 5);

  std::printf("relational diff: fat-tree k=%u (%zu nodes, %zu links), %u policies\n\n", k,
              topo.node_count(), topo.link_count(), n_policies);

  // --- incremental: snapshot -> fork -> apply -> affected-set diff --------
  bench::Stats inc_ms, inc_diff_ms;
  std::size_t diff_ecs = 0, ecs_compared = 0, fork_ec_count = 0;
  relate::RelationalChecker checker(rc);
  relate::RelationalResult result;
  for (unsigned s = 0; s < samples; ++s) {
    result = checker.check(
        proposed, {{relate::RelationalSpec::Kind::kOnlyDstIn, {victim}, "quarantine"}});
    inc_ms.add(result.total_ms());
    inc_diff_ms.add(result.diff_ms);
    diff_ecs = result.diff.ecs.size();
    ecs_compared = result.ecs_compared;
    fork_ec_count = checker.changed().ecs().ec_count();
  }

  // --- naive: two scratch verifiers + full pairwise EC comparison ---------
  bench::Stats naive_ms, naive_walk_ms;
  bool identical = true;
  for (unsigned s = 0; s < samples; ++s) {
    const bench::Timer t_naive;
    verify::RealConfig fresh_base(topo);
    fresh_base.apply(base);
    verify::RealConfig fresh_proposed(topo);
    fresh_proposed.apply(proposed);
    // Scratch partitions live in unrelated packet spaces, so the honest
    // naive walk runs on the checker's fork pair — same comparisons, same
    // result, and it gives us the inline equality assertion for free.
    const bench::Timer t_walk;
    const relate::RelationalDiff brute =
        relate::relational_diff_bruteforce(rc, checker.changed(), checker.base_of());
    naive_walk_ms.add(t_walk.ms());
    naive_ms.add(t_naive.ms());
    identical = identical && brute == result.diff;
  }
  if (!identical) {
    std::fprintf(stderr, "FAIL: incremental diff differs from full pairwise walk\n");
    return 1;
  }

  const double ratio = inc_ms.mean() > 0 ? naive_ms.mean() / inc_ms.mean() : 0;
  std::printf("diffed %zu ECs (%zu candidates examined of %zu total)\n\n", diff_ecs,
              ecs_compared, fork_ec_count);
  std::printf("| Strategy    | Mean ms  | Diff-walk ms | ECs compared |\n");
  std::printf("|-------------|----------|--------------|--------------|\n");
  std::printf("| incremental | %8.1f | %12.2f | %12zu |\n", inc_ms.mean(),
              inc_diff_ms.mean(), ecs_compared);
  std::printf("| naive       | %8.1f | %12.2f | %12zu |\n", naive_ms.mean(),
              naive_walk_ms.mean(), fork_ec_count);
  std::printf("\nincremental diff is %.1fx cheaper; results bit-identical\n\n", ratio);

  // --- update-order synthesis throughput ----------------------------------
  // One quarantine step per pod's first edge switch — pairwise disjoint; the
  // synthesizer verifies placements until a safe total order emerges.
  std::vector<relate::UpdateStep> steps;
  for (unsigned pod = 0; pod < k; pod += 2) {
    config::NetworkConfig step_cfg = base;
    const std::string device = "edge" + std::to_string(pod) + "-0";
    quarantine_at(step_cfg, device, victim);
    relate::UpdateStep step;
    step.name = "quarantine-" + device;
    step.patch.devices[device] = step_cfg.devices.at(device);
    steps.push_back(std::move(step));
  }
  relate::UpdateOrderSynthesizer synth(rc, base);
  const relate::OrderResult order = synth.synthesize(steps);
  const double placements_per_sec =
      order.search_ms > 0 ? static_cast<double>(order.explored) / (order.search_ms / 1000.0)
                          : 0;
  std::printf("order synthesis: %zu steps, %zu placements verified, %zu restores\n",
              steps.size(), order.explored, order.restores);
  std::printf("  found=%s  search %.1f ms  (%.1f verified placements/sec)\n",
              order.found ? "yes" : "no", order.search_ms, placements_per_sec);

  service::json::Value doc;
  doc["bench"] = service::json::Value("relate");
  doc["fat_tree_k"] = service::json::Value(k);
  doc["nodes"] = service::json::Value(static_cast<std::uint64_t>(topo.node_count()));
  doc["links"] = service::json::Value(static_cast<std::uint64_t>(topo.link_count()));
  doc["policies"] = service::json::Value(n_policies);
  doc["diff_ecs"] = service::json::Value(static_cast<std::uint64_t>(diff_ecs));
  doc["ecs_compared"] = service::json::Value(static_cast<std::uint64_t>(ecs_compared));
  doc["ec_count"] = service::json::Value(static_cast<std::uint64_t>(fork_ec_count));
  doc["incremental_ms"] = service::json::Value(inc_ms.mean());
  doc["incremental_diff_walk_ms"] = service::json::Value(inc_diff_ms.mean());
  doc["naive_ms"] = service::json::Value(naive_ms.mean());
  doc["naive_walk_ms"] = service::json::Value(naive_walk_ms.mean());
  doc["speedup"] = service::json::Value(ratio);
  doc["diff_identical"] = service::json::Value(identical);
  service::json::Value order_doc;
  order_doc["steps"] = service::json::Value(static_cast<std::uint64_t>(steps.size()));
  order_doc["found"] = service::json::Value(order.found);
  order_doc["explored"] = service::json::Value(static_cast<std::uint64_t>(order.explored));
  order_doc["restores"] = service::json::Value(static_cast<std::uint64_t>(order.restores));
  order_doc["search_ms"] = service::json::Value(order.search_ms);
  order_doc["placements_per_sec"] = service::json::Value(placements_per_sec);
  doc["order"] = std::move(order_doc);
  std::ofstream("BENCH_relate.json") << doc.dump() << "\n";
  std::printf("wrote BENCH_relate.json\n");
  return 0;
}
