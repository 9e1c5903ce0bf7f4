// Ablation: batch update order in the data plane model (paper §4.2 leaves
// "optimal scheduling of model updates" as future work; Table 3 shows the
// insertion-first / deletion-first gap). This bench adds our third
// strategy, per-(device,prefix) interleaving, and covers OSPF as well.
//
// Scale with RCFG_FATTREE_K (default 8).

#include <cstdio>

#include "bench_util.h"
#include "config/builders.h"
#include "core/rng.h"
#include "dpm/model.h"
#include "routing/generator.h"
#include "routing/metrics.h"
#include "topo/generators.h"

using namespace rcfg;

namespace {

constexpr dpm::UpdateOrder kOrders[] = {dpm::UpdateOrder::kInsertFirst,
                                        dpm::UpdateOrder::kDeleteFirst,
                                        dpm::UpdateOrder::kInterleaved};

void run_protocol(const topo::Topology& topo, bool bgp) {
  config::NetworkConfig cfg =
      bgp ? config::build_bgp_network(topo) : config::build_ospf_network(topo);

  routing::GeneratorOptions gopts;
  gopts.max_rounds = routing::recommended_max_rounds(topo);
  routing::IncrementalGenerator gen(topo, gopts);

  // One model per order, all fed the same batches.
  struct Lane {
    dpm::PacketSpace space;
    dpm::EcManager ecs{space};
    dpm::NetworkModel model;
    bench::Stats moves, t1;
    explicit Lane(std::size_t nodes) : model(space, ecs, nodes) { space.migrate_to_bdd(); }
  };
  // Lanes are self-referential (model holds references to space/ecs), so
  // they must never relocate: reserve before constructing in place.
  std::vector<Lane> lanes;
  lanes.reserve(3);
  for (std::size_t i = 0; i < 3; ++i) lanes.emplace_back(topo.node_count());

  auto feed = [&](const routing::DataPlaneDelta& delta, bool record) {
    for (std::size_t i = 0; i < 3; ++i) {
      bench::Timer t;
      const dpm::ModelDelta md = lanes[i].model.apply_batch(delta, kOrders[i]);
      if (record) {
        lanes[i].t1.add(t.ms());
        lanes[i].moves.add(static_cast<double>(md.stats.ec_moves));
      }
    }
  };

  feed(gen.apply(cfg), /*record=*/false);  // initial full FIB

  core::Rng rng{909};
  for (unsigned i = 0; i < bench::samples(); ++i) {
    const auto l = static_cast<topo::LinkId>(rng.next_below(topo.link_count()));
    config::fail_link(cfg, topo, l);
    feed(gen.apply(cfg), /*record=*/true);
    config::restore_link(cfg, topo, l);
    feed(gen.apply(cfg), /*record=*/false);

    const auto& lk = topo.link(l);
    if (bgp) {
      config::set_local_pref(cfg, topo.node(lk.a).name, topo.iface(lk.a_iface).name, 150);
    } else {
      config::set_ospf_cost(cfg, topo.node(lk.a).name, topo.iface(lk.a_iface).name, 100);
    }
    feed(gen.apply(cfg), /*record=*/true);
    if (bgp) {
      config::set_local_pref(cfg, topo.node(lk.a).name, topo.iface(lk.a_iface).name,
                             config::kDefaultLocalPref);
    } else {
      config::set_ospf_cost(cfg, topo.node(lk.a).name, topo.iface(lk.a_iface).name,
                            config::kDefaultOspfCost);
    }
    feed(gen.apply(cfg), /*record=*/false);
  }

  std::printf("%s:\n", bgp ? "BGP" : "OSPF");
  std::printf("  | order        | mean EC moves | mean T1    |\n");
  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("  | %-12s | %13.1f | %7.3f ms |\n", dpm::to_string(kOrders[i]),
                lanes[i].moves.mean(), lanes[i].t1.mean());
  }
  // Sanity: all orders converge to the same number of ECs.
  std::printf("  final ECs per lane: %zu / %zu / %zu (must match)\n\n",
              lanes[0].ecs.ec_count(), lanes[1].ecs.ec_count(), lanes[2].ecs.ec_count());
}

}  // namespace

int main() {
  const unsigned k = bench::fat_tree_k();
  const topo::Topology topo = topo::make_fat_tree(k);
  std::printf("Update-order ablation (fat tree k=%u, link failures + attribute changes)\n\n", k);
  run_protocol(topo, /*bgp=*/false);
  run_protocol(topo, /*bgp=*/true);
  return 0;
}
