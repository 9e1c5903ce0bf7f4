// Memory reclamation under churn: a long-lived verifier absorbing rounds of
// route announce/withdraw batches, with online reclamation (incremental EC
// merging + BDD GC after every batch) on vs. off. The table tracks the live
// working set — EC count and live BDD nodes — sampled after every withdraw
// batch, plus the reclaim step's own cost.
//
// The headline claims measured here:
//   * with reclamation the working set is flat: EC count returns to the
//     baseline every round and the BDD arena stops growing;
//   * without it both grow linearly with churn history;
//   * the reclaimed state is within 10% of (in practice: identical to) a
//     fresh rebuild of the final configuration;
//   * reports stay semantically identical across thread counts {1,2,4} and
//     across the reclaim on/off settings at the pair level.
//
// Knobs (environment variables):
//   RCFG_FATTREE_K      fat-tree k (default 8)
//   RCFG_MEMORY_ROUNDS  announce/withdraw rounds (default 40)
//   RCFG_MEMORY_ROUTES  routes per announce batch (default 16)
//
// Emits BENCH_memory.json in the working directory.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "config/builders.h"
#include "core/rng.h"
#include "service/json.h"
#include "topo/generators.h"
#include "verify/realconfig.h"

using namespace rcfg;

namespace {

net::Ipv4Prefix churn_prefix(unsigned round, unsigned i) {
  const unsigned slot = round * 16 + i;
  return net::Ipv4Prefix{
      net::Ipv4Addr{static_cast<std::uint8_t>(192 + slot / 65536),
                    static_cast<std::uint8_t>((slot / 256) % 256),
                    static_cast<std::uint8_t>(slot % 256), 0},
      24};
}

struct Lane {
  std::vector<std::size_t> pair_counts;  ///< one per apply, in order
  std::size_t final_ecs = 0;
  std::size_t final_bdd = 0;
  std::size_t peak_ecs = 0;
  std::size_t peak_bdd = 0;
  std::uint64_t reclaims = 0;
  std::size_t merged_ecs = 0;
  bench::Stats reclaim_ms;
  double apply_sum_ms = 0;
};

Lane run(bool reclaim, unsigned threads, const topo::Topology& topo,
         const std::vector<config::NetworkConfig>& sequence) {
  verify::RealConfigOptions opts = bench::options_for(topo);
  opts.threads = threads;
  opts.reclamation = reclaim;
  verify::RealConfig rc(topo, opts);

  Lane lane;
  for (const config::NetworkConfig& cfg : sequence) {
    const verify::RealConfig::Report report = rc.apply(cfg);
    lane.pair_counts.push_back(rc.checker().reachable_pairs().size());
    lane.apply_sum_ms += report.total_ms();
    lane.peak_ecs = std::max(lane.peak_ecs, report.ec_count);
    lane.peak_bdd = std::max(lane.peak_bdd, report.bdd_nodes);
    if (report.reclaim.ran) {
      ++lane.reclaims;
      lane.merged_ecs += report.reclaim.ecs_before - report.reclaim.ecs_after;
      lane.reclaim_ms.add(report.reclaim.reclaim_ms);
    }
  }
  lane.final_ecs = rc.ecs().ec_count();
  lane.final_bdd = rc.packet_space().bdd().node_count();
  return lane;
}

}  // namespace

int main() {
  const unsigned k = bench::fat_tree_k();
  const unsigned rounds = bench::env_unsigned("RCFG_MEMORY_ROUNDS", 40);
  const unsigned routes = bench::env_unsigned("RCFG_MEMORY_ROUTES", 16);

  const topo::Topology topo = topo::make_fat_tree(k);
  const config::NetworkConfig base = config::build_ospf_network(topo);

  // The churn script: each round announces `routes` fresh discard prefixes
  // on a rotating edge device, then withdraws them all. Every lane replays
  // the identical sequence.
  core::Rng rng(0x3E3A11ULL);
  std::vector<std::string> edges;
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    if (topo.node(n).name.rfind("edge", 0) == 0) edges.push_back(topo.node(n).name);
  }
  std::vector<config::NetworkConfig> sequence;
  sequence.push_back(base);
  config::NetworkConfig cfg = base;
  for (unsigned round = 0; round < rounds; ++round) {
    auto& dev = cfg.devices.at(edges[rng.next_below(edges.size())]);
    for (unsigned i = 0; i < routes; ++i) {
      dev.static_routes.push_back({churn_prefix(round, i), config::kNullInterface});
    }
    sequence.push_back(cfg);
    dev.static_routes.clear();
    sequence.push_back(cfg);
  }

  std::printf("memory reclamation: fat-tree k=%u (%zu nodes), %u rounds x %u routes "
              "announce/withdraw\n\n",
              k, topo.node_count(), rounds, routes);

  // Fresh rebuild of the final configuration: the minimality yardstick.
  verify::RealConfig fresh(topo, bench::options_for(topo));
  fresh.apply(cfg);
  const std::size_t fresh_ecs = fresh.ecs().ec_count();
  const std::size_t fresh_pairs = fresh.checker().reachable_pairs().size();

  std::printf("| Reclaim | Threads | Final ECs | Peak ECs | Final BDD | Peak BDD | Reclaims | "
              "Merged | Reclaim mean ms |\n");
  std::printf("|---------|---------|-----------|----------|-----------|----------|----------|"
              "--------|-----------------|\n");

  service::json::Value out_rows;
  const std::vector<std::size_t>* reference_pairs = nullptr;
  std::vector<std::size_t> lane0_pairs;
  std::size_t reclaimed_final_ecs = 0;
  bool ok = true;
  for (const bool reclaim : {false, true}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      const Lane lane = run(reclaim, threads, topo, sequence);
      if (reference_pairs == nullptr) {
        lane0_pairs = lane.pair_counts;
        reference_pairs = &lane0_pairs;
      } else if (lane.pair_counts != *reference_pairs) {
        std::fprintf(stderr, "FAIL: pair counts diverge (reclaim=%d threads=%u)\n",
                     reclaim ? 1 : 0, threads);
        ok = false;
      }
      if (reclaim) reclaimed_final_ecs = lane.final_ecs;
      std::printf("| %7s | %7u | %9zu | %8zu | %9zu | %8zu | %8llu | %6zu | %15.3f |\n",
                  reclaim ? "on" : "off", threads, lane.final_ecs, lane.peak_ecs,
                  lane.final_bdd, lane.peak_bdd,
                  static_cast<unsigned long long>(lane.reclaims), lane.merged_ecs,
                  lane.reclaim_ms.mean());

      service::json::Value r;
      r["reclaim"] = service::json::Value(reclaim);
      r["threads"] = service::json::Value(threads);
      r["final_ecs"] = service::json::Value(static_cast<std::uint64_t>(lane.final_ecs));
      r["peak_ecs"] = service::json::Value(static_cast<std::uint64_t>(lane.peak_ecs));
      r["final_bdd_nodes"] = service::json::Value(static_cast<std::uint64_t>(lane.final_bdd));
      r["peak_bdd_nodes"] = service::json::Value(static_cast<std::uint64_t>(lane.peak_bdd));
      r["reclaims"] = service::json::Value(lane.reclaims);
      r["merged_ecs"] = service::json::Value(static_cast<std::uint64_t>(lane.merged_ecs));
      r["reclaim_mean_ms"] = service::json::Value(lane.reclaim_ms.mean());
      r["apply_sum_ms"] = service::json::Value(lane.apply_sum_ms);
      out_rows.push_back(std::move(r));
    }
  }

  const double ratio =
      fresh_ecs > 0 ? static_cast<double>(reclaimed_final_ecs) / static_cast<double>(fresh_ecs)
                    : 0;
  std::printf("\nfresh rebuild of final config: %zu ECs, %zu reachable pairs\n", fresh_ecs,
              fresh_pairs);
  std::printf("reclaimed lane final ECs / fresh: %.3f (acceptance: within 1.10)\n", ratio);
  if (ratio > 1.10) {
    std::fprintf(stderr, "FAIL: reclaimed EC count is >10%% above a fresh rebuild\n");
    ok = false;
  }
  if (!lane0_pairs.empty() && lane0_pairs.back() != fresh_pairs) {
    std::fprintf(stderr, "FAIL: final reachable pairs differ from fresh rebuild\n");
    ok = false;
  }
  if (ok) std::printf("pair counts identical across all lanes and the fresh rebuild\n");

  service::json::Value doc;
  doc["bench"] = service::json::Value("memory");
  doc["fat_tree_k"] = service::json::Value(k);
  doc["nodes"] = service::json::Value(static_cast<std::uint64_t>(topo.node_count()));
  doc["rounds"] = service::json::Value(rounds);
  doc["routes_per_round"] = service::json::Value(routes);
  doc["fresh_ecs"] = service::json::Value(static_cast<std::uint64_t>(fresh_ecs));
  doc["fresh_reachable_pairs"] = service::json::Value(static_cast<std::uint64_t>(fresh_pairs));
  doc["reclaimed_over_fresh_ecs"] = service::json::Value(ratio);
  doc["rows"] = std::move(out_rows);
  std::ofstream("BENCH_memory.json") << doc.dump() << "\n";
  std::printf("wrote BENCH_memory.json\n");
  return ok ? 0 : 1;
}
