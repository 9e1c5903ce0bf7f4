// Table 3 reproduction: model update and property checking on the fat-tree
// network running BGP.
//
// Paper (fat tree, 180 nodes / 864 links):
//   | Change      | #Rules        | Order | #ECs | T1   | #Pairs        | T2   |
//   | LinkFailure | +26/-28(0.3%) | +,-   | 28   | 3ms  | 286/10224     | 58ms |
//   |             |               | -,+   | 54   | 10ms | (2.79%)       |      |
//   | LP          | +54/-54(0.6%) | +,-   | 54   | 6ms  | 132/10224     | 61ms |
//   |             |               | -,+   | 108  | 20ms | (1.29%)       |      |
//
// Shape to check: affected rules are a fraction of a percent of the FIB;
// insertion-first ("+,-") moves each EC once while deletion-first ("-,+")
// detours via the drop port and roughly doubles the EC churn and T1; the
// affected pairs are a few percent of all pairs; T1+T2 stays well under the
// incremental generation time. A "from scratch" row reports T1/T2 of the
// initial apply, which loads every rule and checks every pair (the §4.2
// claim: only the affected ECs' policies are re-checked).
//
// Scale with RCFG_FATTREE_K (default 8; set 12 for paper scale).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "config/builders.h"
#include "core/rng.h"
#include "dpm/model.h"
#include "topo/generators.h"
#include "verify/realconfig.h"

using namespace rcfg;

namespace {

struct OrderStats {
  bench::Stats ecs;  // raw EC moves (paper's "#ECs")
  bench::Stats t1;   // model update ms
};

struct ChangeRow {
  std::string change;
  bench::Stats rule_inserts, rule_deletes;
  OrderStats orders[2];  // [0]=insert-first, [1]=delete-first
  bench::Stats pairs;    // affected pairs (measured on insert-first runs)
  bench::Stats t2;       // policy checking ms
};

/// One verification pipeline per update order, kept in sync with the same
/// change stream so both orders see identical rule batches.
struct Pipelines {
  verify::RealConfig insert_first;
  verify::RealConfig delete_first;

  /// `bdd`: move both pipelines onto BDDs before their first apply.
  Pipelines(const topo::Topology& t, bool bdd)
      : insert_first(t, make_options(t, dpm::UpdateOrder::kInsertFirst)),
        delete_first(t, make_options(t, dpm::UpdateOrder::kDeleteFirst)) {
    if (bdd) {
      insert_first.packet_space().migrate_to_bdd();
      delete_first.packet_space().migrate_to_bdd();
    }
  }

  static verify::RealConfigOptions make_options(const topo::Topology& t,
                                                dpm::UpdateOrder order) {
    verify::RealConfigOptions o = bench::options_for(t);
    o.update_order = order;
    return o;
  }
};

void run_change(Pipelines& p, const config::NetworkConfig& cfg, ChangeRow& row) {
  const auto ri = p.insert_first.apply(cfg);
  row.rule_inserts.add(static_cast<double>(ri.dataplane.insertions()));
  row.rule_deletes.add(static_cast<double>(ri.dataplane.deletions()));
  row.orders[0].ecs.add(static_cast<double>(ri.model.stats.ec_moves));
  row.orders[0].t1.add(ri.model_ms);
  row.pairs.add(static_cast<double>(ri.check.affected_pairs.size()));
  row.t2.add(ri.check_ms);

  const auto rd = p.delete_first.apply(cfg);
  row.orders[1].ecs.add(static_cast<double>(rd.model.stats.ec_moves));
  row.orders[1].t1.add(rd.model_ms);
}

void revert(Pipelines& p, const config::NetworkConfig& cfg) {
  p.insert_first.apply(cfg);
  p.delete_first.apply(cfg);
}

}  // namespace

int main() {
  const unsigned k = bench::fat_tree_k();
  const topo::Topology topo = topo::make_fat_tree(k);

  std::printf("Table 3: model update and property checking (BGP fat tree)\n");
  std::printf("fat tree k=%u: %zu nodes, %zu links; %u samples per change type\n", k,
              topo.node_count(), topo.link_count(), bench::samples());

  // Both packet-space backends replay the identical change script (the BGP
  // fat tree registers dst prefixes only, so the interval lane never
  // migrates); the T1 column is where the backends differ.
  ChangeRow t1_reference[2];  // per-backend LinkFailure rows, for the summary
  for (const bool interval : {false, true}) {
    std::printf("\n--- packet-space backend: %s ---\n\n", interval ? "interval" : "bdd");
    config::NetworkConfig cfg = config::build_bgp_network(topo);

    Pipelines pipelines(topo, !interval);
    const verify::RealConfig::Report scratch = pipelines.insert_first.apply(cfg);
    const verify::RealConfig::Report scratch_df = pipelines.delete_first.apply(cfg);
    const std::size_t total_rules = pipelines.insert_first.model().rule_count();
    const std::size_t total_pairs = pipelines.insert_first.checker().pair_count();
    std::fprintf(stderr, "  initial model: %zu rules, %zu ECs, %zu pairs\n", total_rules,
                 pipelines.insert_first.ecs().ec_count(), total_pairs);

    core::Rng rng{31};
    const unsigned samples = bench::samples();

    ChangeRow link_failure{"LinkFailure", {}, {}, {}, {}, {}};
    for (unsigned i = 0; i < samples; ++i) {
      const auto l = static_cast<topo::LinkId>(rng.next_below(topo.link_count()));
      config::fail_link(cfg, topo, l);
      run_change(pipelines, cfg, link_failure);
      config::restore_link(cfg, topo, l);
      revert(pipelines, cfg);
    }

    ChangeRow lp{"LP", {}, {}, {}, {}, {}};
    for (unsigned i = 0; i < samples; ++i) {
      const auto l = static_cast<topo::LinkId>(rng.next_below(topo.link_count()));
      const auto& lk = topo.link(l);
      const std::string dev = topo.node(lk.a).name;
      const std::string iface = topo.iface(lk.a_iface).name;
      config::set_local_pref(cfg, dev, iface, 150);
      run_change(pipelines, cfg, lp);
      config::set_local_pref(cfg, dev, iface, config::kDefaultLocalPref);
      revert(pipelines, cfg);
    }
    t1_reference[interval ? 1 : 0] = link_failure;

    std::printf(
        "| Change      | #Rules          | Order | #ECs  | T1       | #Pairs           | T2       |\n");
    std::printf(
        "|-------------|-----------------|-------|-------|----------|------------------|----------|\n");
    std::printf("| %-11s | +%zu (100%%)    | +,-   | %5zu | %6.2fms | %5zu/%zu (100%%) | %6.2fms |\n",
                "FromScratch", total_rules, scratch.model.stats.ec_moves, scratch.model_ms,
                scratch.check.affected_pairs.size(), total_pairs, scratch.check_ms);
    std::printf("| %-11s | %-15s | -,+   | %5zu | %6.2fms | %-16s | %-8s |\n", "", "",
                scratch_df.model.stats.ec_moves, scratch_df.model_ms, "", "");
    for (const ChangeRow* row : {&link_failure, &lp}) {
      const double rule_pct =
          100.0 * (row->rule_inserts.mean() + row->rule_deletes.mean()) / total_rules;
      std::printf("| %-11s | +%.0f/-%.0f (%.2f%%) | +,-   | %5.0f | %6.2fms | %5.0f/%zu (%.2f%%) | %6.2fms |\n",
                  row->change.c_str(), row->rule_inserts.mean(), row->rule_deletes.mean(),
                  rule_pct, row->orders[0].ecs.mean(), row->orders[0].t1.mean(),
                  row->pairs.mean(), total_pairs, 100.0 * row->pairs.mean() / total_pairs,
                  row->t2.mean());
      std::printf("| %-11s | %-15s | -,+   | %5.0f | %6.2fms | %-16s | %-8s |\n", "", "",
                  row->orders[1].ecs.mean(), row->orders[1].t1.mean(), "", "");
    }

    std::printf("\nshape checks:\n");
    std::printf("  deletion-first EC churn / insertion-first: %.1fx (LinkFailure), %.1fx (LP) — paper ~2x\n",
                link_failure.orders[1].ecs.mean() / std::max(1.0, link_failure.orders[0].ecs.mean()),
                lp.orders[1].ecs.mean() / std::max(1.0, lp.orders[0].ecs.mean()));
    std::printf("  affected rules: %.2f%% / %.2f%% of all rules — paper 0.32%% / 0.64%%\n",
                100.0 * (link_failure.rule_inserts.mean() + link_failure.rule_deletes.mean()) /
                    total_rules,
                100.0 * (lp.rule_inserts.mean() + lp.rule_deletes.mean()) / total_rules);
    std::printf("  from scratch / incremental (LinkFailure, +,-): T1 %.0fx, T2 %.0fx — paper: "
                "T1+T2 under 100ms per change\n",
                scratch.model_ms / std::max(1e-6, link_failure.orders[0].t1.mean()),
                scratch.check_ms / std::max(1e-6, link_failure.t2.mean()));
  }

  std::printf("\nbackend head-to-head (LinkFailure, insertion-first): T1 bdd/interval = %.1fx\n",
              t1_reference[0].orders[0].t1.mean() /
                  std::max(1e-6, t1_reference[1].orders[0].t1.mean()));
  return 0;
}
