// Continuous paper-scale performance tracking across the topology/workload
// matrix. One committed BENCH_scale.json per PR turns the scattered per-PR
// bench files into a single trajectory: if an incremental hot path regresses
// at paper scale, the fat-tree floors fail the build instead of hiding in a
// ratio measured at k=8.
//
// Four families run the full open -> churn -> verify -> sweep pipeline:
//   * fat_tree  — k=12 (paper scale: 180 nodes / 864 links), OSPF, the
//     paper's LC change (one interface cost 1 <-> 100) as churn. The
//     incremental-vs-scratch ratio and healthy policy verdicts carry
//     exit-code floors.
//   * torus3d   — s x s x s torus, OSPF, ACL-heavy campus churn
//     (campus_acl_churn_step): multi-field filters that force the
//     interval-atom backend through its one-time BDD migration.
//   * dragonfly — groups/routers/terminals (a=4, h=2, p=2), eBGP
//     everywhere, BGP-heavy ISP-edge churn (isp_route_churn_step:
//     local-pref rewrites + route announce/withdraw).
//   * wan       — weighted random graph, per-link metrics feeding
//     apply_link_costs, LC churn re-pricing one random link; the
//     generator's round budget comes from routing::recommended_max_rounds
//     (minimal-cost paths on weighted graphs are long in hops, so the
//     unweighted hop diameter under-provisions the stratified evaluation).
//
// Each family records wall-times (scratch apply, churn mean/max,
// failure-sweep), EC/BDD counts, and the incremental-vs-scratch ratio.
//
// The fat-tree entry also carries parallel-checker thread rows: replicas
// forked from the post-open snapshot at 1, 2 and 4 checker threads each
// replay the same batched maintenance event (~10% of links fail in one
// change, then the repair lands in one change) RCFG_SAMPLES times, and
// record stage-3 check latency, shard count and shard imbalance.
//
// Acceptance (exit 1 otherwise), all on the fat-tree entry:
//   * incremental-vs-scratch ratio >= RCFG_SCALE_FLOOR
//   * every registered policy holds on the healthy network, before and
//     after churn (LC churn must never break fat-tree reachability)
//   * the sweep accounts for every scenario it claims (accounted <= space)
//   * every thread row's reports carry the same semantics as threads=1's
//
// Knobs (environment variables, parse_count_arg-checked — junk exits 2):
//   RCFG_SCALE_K       fat-tree k (default 12, the paper scale)
//   RCFG_SCALE_TORUS   3-D torus side s (default 4 => 64 nodes)
//   RCFG_SCALE_GROUPS  dragonfly groups (default 9 => 36 routers + 72 terminals)
//   RCFG_SCALE_WAN     WAN node count (default 48; links = 2n)
//   RCFG_SCALE_CHURN   churn steps per family (default 8)
//   RCFG_SCALE_BUDGET  failure-sweep explored budget (default 12)
//   RCFG_SCALE_FLOOR   min fat-tree incremental-vs-scratch ratio (default 5)
//   RCFG_SAMPLES       fail/repair rounds per thread row (default 5)
//
// Writes BENCH_scale.json in the working directory.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "config/builders.h"
#include "core/rng.h"
#include "dd/graph.h"
#include "routing/metrics.h"
#include "service/json.h"
#include "topo/generators.h"
#include "verify/failures.h"
#include "verify/realconfig.h"

using namespace rcfg;

namespace {

topo::NodeId find_node(const topo::Topology& t, const std::string& name) {
  const topo::NodeId n = t.find_node(name);
  if (n == topo::kInvalidNode) {
    std::fprintf(stderr, "FAIL: no node named %s\n", name.c_str());
    std::exit(1);
  }
  return n;
}

/// One family's pipeline inputs.
struct Family {
  std::string name;
  topo::Topology topo;
  std::vector<std::uint32_t> link_cost;  ///< empty => unweighted
  config::NetworkConfig base;
  std::vector<std::pair<std::string, std::string>> policy_pairs;
  /// Mutates the configuration by one operator change.
  std::function<void(config::NetworkConfig&, const topo::Topology&, core::Rng&)> churn;
};

/// The semantic content of a report, flattened for equality comparison.
struct Semantics {
  std::vector<dpm::EcId> ecs;
  std::vector<std::pair<topo::NodeId, topo::NodeId>> affected, changed;
  std::vector<std::pair<verify::PolicyId, bool>> events;
  std::vector<dpm::EcId> lb, le, bb, be;

  static Semantics of(const verify::CheckResult& c) {
    Semantics s;
    s.ecs = c.affected_ecs;
    s.affected = c.affected_pairs;
    s.changed = c.changed_pairs;
    for (const verify::PolicyEvent& e : c.events) s.events.emplace_back(e.id, e.satisfied);
    s.lb = c.loops_begun;
    s.le = c.loops_ended;
    s.bb = c.blackholes_begun;
    s.be = c.blackholes_ended;
    return s;
  }
  bool operator==(const Semantics&) const = default;
};

/// One parallel-checker row: stage-3 latency at `threads` checker threads.
struct ThreadRow {
  unsigned threads = 0;
  unsigned shards = 0;
  bench::Stats check_ms;
  double imbalance = 0;            ///< slowest shard / mean shard, last apply
  std::vector<Semantics> reports;  ///< one per apply, in order
};

/// One family's recorded results.
struct FamilyResult {
  std::size_t nodes = 0, links = 0, policies = 0;
  unsigned max_rounds = 0;
  double scratch_ms = 0;
  unsigned churn_steps = 0, diverged_steps = 0;
  double churn_mean_ms = 0, churn_max_ms = 0;
  double ratio = 0;  ///< scratch_ms / churn_mean_ms
  std::size_t ec_count = 0, bdd_nodes = 0;
  std::size_t policies_holding = 0;  ///< after the churn sequence
  verify::FailureSweepResult sweep;
  double sweep_ms = 0;
  std::size_t links_failed = 0;  ///< per maintenance batch (thread rows)
  std::vector<ThreadRow> threads;
  bool ok = true;
};

/// `samples` maintenance events on `base`: ~10% of the links fail in one
/// change, then the repair lands in one change.
std::vector<config::NetworkConfig> maintenance_sequence(const topo::Topology& topo,
                                                        const config::NetworkConfig& base,
                                                        unsigned samples,
                                                        std::size_t& n_fail) {
  core::Rng rng(0x9e3779b97f4a7c15ULL);
  std::vector<topo::LinkId> links(topo.link_count());
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) links[l] = l;
  rng.shuffle(links);
  n_fail = std::max<std::size_t>(1, topo.link_count() / 10);
  std::vector<config::NetworkConfig> sequence;
  for (unsigned s = 0; s < samples; ++s) {
    config::NetworkConfig failed = base;
    for (std::size_t i = 0; i < n_fail; ++i) {
      config::fail_link(failed, topo, links[(s + i) % links.size()]);
    }
    sequence.push_back(std::move(failed));
    sequence.push_back(base);
  }
  return sequence;
}

/// Replays `sequence` on a replica of `snap` whose checker runs `threads`
/// wide.
ThreadRow run_threads(const verify::RealConfig& rc, const verify::RealConfig::Snapshot& snap,
                      verify::RealConfigOptions opts, unsigned threads,
                      const std::vector<config::NetworkConfig>& sequence) {
  opts.threads = threads;
  const std::unique_ptr<verify::RealConfig> replica = rc.fork(snap, opts);
  ThreadRow row;
  row.threads = threads;
  for (const config::NetworkConfig& cfg : sequence) {
    const verify::RealConfig::Report report = replica->apply(cfg);
    row.reports.push_back(Semantics::of(report.check));
    row.check_ms.add(report.check_ms);
    row.shards = report.check.parallel.shards;
    const std::vector<double>& ms = report.check.parallel.shard_ms;
    double sum = 0, slow = 0;
    for (const double m : ms) {
      sum += m;
      slow = std::max(slow, m);
    }
    if (ms.size() > 1 && sum > 0) row.imbalance = slow * static_cast<double>(ms.size()) / sum;
  }
  return row;
}

FamilyResult run_family(const Family& fam, unsigned churn_steps, unsigned sweep_budget,
                        unsigned samples, std::uint64_t seed) {
  FamilyResult res;
  res.nodes = fam.topo.node_count();
  res.links = fam.topo.link_count();
  res.policies = fam.policy_pairs.size();

  verify::RealConfigOptions opts;
  opts.generator.max_rounds = routing::recommended_max_rounds(fam.topo, fam.link_cost);
  res.max_rounds = opts.generator.max_rounds;
  verify::RealConfig rc(fam.topo, opts);
  std::vector<verify::PolicyId> policies;
  for (const auto& [src, dst] : fam.policy_pairs) {
    policies.push_back(
        rc.require_reachable(src, dst, config::host_prefix(find_node(fam.topo, dst))));
  }

  // --- open: the from-scratch baseline ------------------------------------
  const bench::Timer scratch_timer;
  verify::RealConfig::Report report = rc.apply(fam.base);
  res.scratch_ms = scratch_timer.ms();
  for (const verify::PolicyId p : policies) {
    if (!rc.checker().policy_satisfied(p)) {
      std::fprintf(stderr, "FAIL: %s: policy %u does not hold on the healthy network\n",
                   fam.name.c_str(), p);
      res.ok = false;
    }
  }

  // --- threads: the parallel checker on replicas of the opened network ----
  if (fam.name == "fat_tree") {
    const auto opened = rc.snapshot();
    const std::vector<config::NetworkConfig> sequence =
        maintenance_sequence(fam.topo, fam.base, samples, res.links_failed);
    for (const unsigned threads : {1u, 2u, 4u}) {
      res.threads.push_back(run_threads(rc, *opened, opts, threads, sequence));
      if (res.threads.back().reports != res.threads.front().reports) {
        std::fprintf(stderr, "FAIL: %s: reports at threads=%u differ from threads=1\n",
                     fam.name.c_str(), threads);
        res.ok = false;
      }
    }
  }

  // --- churn: incremental applies -----------------------------------------
  core::Rng rng(seed);
  config::NetworkConfig good = fam.base;
  double churn_sum = 0;
  for (unsigned step = 0; step < churn_steps; ++step) {
    config::NetworkConfig next = good;
    fam.churn(next, fam.topo, rng);
    const bench::Timer step_timer;
    try {
      report = rc.apply(next);
    } catch (const dd::NonterminationError&) {
      // A diverged apply leaves the verifier at `good`: recorded, never
      // fatal (mirrors the sweep's divergence handling).
      ++res.diverged_steps;
      continue;
    }
    const double ms = step_timer.ms();
    churn_sum += ms;
    res.churn_max_ms = std::max(res.churn_max_ms, ms);
    ++res.churn_steps;
    good = std::move(next);
  }
  res.churn_mean_ms = res.churn_steps > 0 ? churn_sum / res.churn_steps : 0;
  res.ratio = res.churn_mean_ms > 0 ? res.scratch_ms / res.churn_mean_ms : 0;

  // --- verify: end-of-churn state -----------------------------------------
  res.ec_count = report.ec_count;
  res.bdd_nodes = report.bdd_nodes;
  for (const verify::PolicyId p : policies) {
    if (rc.checker().policy_satisfied(p)) ++res.policies_holding;
  }

  // --- sweep: budgeted failure exploration on the churned network ---------
  verify::FailureSweepOptions sweep_opts;
  sweep_opts.max_failures = 2;
  sweep_opts.budget = sweep_budget;
  sweep_opts.prune = true;
  sweep_opts.symmetry = true;
  sweep_opts.threads = 1;
  const bench::Timer sweep_timer;
  res.sweep = sweep_failures(rc, good, sweep_opts);
  res.sweep_ms = sweep_timer.ms();
  const std::uint64_t accounted = res.sweep.explored_scenarios +
                                  res.sweep.replayed_scenarios +
                                  res.sweep.pruned_scenarios;
  if (accounted > res.sweep.total_scenarios) {
    std::fprintf(stderr, "FAIL: %s: sweep accounted %llu of %llu scenarios\n",
                 fam.name.c_str(), static_cast<unsigned long long>(accounted),
                 static_cast<unsigned long long>(res.sweep.total_scenarios));
    res.ok = false;
  }
  return res;
}

service::json::Value to_json(const std::string& name, const FamilyResult& r) {
  service::json::Value v;
  v["family"] = service::json::Value(name);
  v["nodes"] = service::json::Value(static_cast<std::uint64_t>(r.nodes));
  v["links"] = service::json::Value(static_cast<std::uint64_t>(r.links));
  v["policies"] = service::json::Value(static_cast<std::uint64_t>(r.policies));
  v["max_rounds"] = service::json::Value(r.max_rounds);
  v["scratch_apply_ms"] = service::json::Value(r.scratch_ms);
  v["churn_steps"] = service::json::Value(r.churn_steps);
  v["diverged_steps"] = service::json::Value(r.diverged_steps);
  v["churn_mean_ms"] = service::json::Value(r.churn_mean_ms);
  v["churn_max_ms"] = service::json::Value(r.churn_max_ms);
  v["incremental_vs_scratch"] = service::json::Value(r.ratio);
  v["ec_count"] = service::json::Value(static_cast<std::uint64_t>(r.ec_count));
  v["bdd_nodes"] = service::json::Value(static_cast<std::uint64_t>(r.bdd_nodes));
  v["policies_holding"] = service::json::Value(static_cast<std::uint64_t>(r.policies_holding));
  service::json::Value s;
  s["max_failures"] = service::json::Value(static_cast<std::uint64_t>(2));
  s["total_scenarios"] = service::json::Value(r.sweep.total_scenarios);
  s["explored"] = service::json::Value(r.sweep.explored_scenarios);
  s["replayed"] = service::json::Value(r.sweep.replayed_scenarios);
  s["pruned"] = service::json::Value(r.sweep.pruned_scenarios);
  s["coverage"] = service::json::Value(r.sweep.coverage);
  s["sweep_ms"] = service::json::Value(r.sweep_ms);
  v["sweep"] = std::move(s);
  if (r.threads.empty()) return v;
  v["links_failed_per_batch"] = service::json::Value(static_cast<std::uint64_t>(r.links_failed));
  service::json::Value rows;
  for (const ThreadRow& t : r.threads) {
    service::json::Value row;
    row["threads"] = service::json::Value(t.threads);
    row["shards"] = service::json::Value(t.shards);
    row["check_mean_ms"] = service::json::Value(t.check_ms.mean());
    row["check_min_ms"] = service::json::Value(t.check_ms.min);
    row["shard_imbalance"] = service::json::Value(t.imbalance);
    row["speedup"] = service::json::Value(r.threads.front().check_ms.mean() / t.check_ms.mean());
    rows.push_back(std::move(row));
  }
  v["threads"] = std::move(rows);
  return v;
}

void print_row(const std::string& name, const FamilyResult& r) {
  std::printf("| %-9s | %5zu | %5zu | %6u | %11.0f | %9.1f | %7.1fx | %5zu | %7zu | "
              "%5zu/%zu | %8.0f |\n",
              name.c_str(), r.nodes, r.links, r.max_rounds, r.scratch_ms, r.churn_mean_ms,
              r.ratio, r.ec_count, r.bdd_nodes, r.policies_holding, r.policies,
              r.sweep_ms);
}

void print_threads(const FamilyResult& r) {
  std::printf("\nparallel checker: %zu links fail per batch, %u applies per row\n",
              r.links_failed, r.threads.front().check_ms.n);
  std::printf("| Threads | Shards | Check mean ms | Check min ms | Imbalance | Speedup |\n");
  std::printf("|---------|--------|---------------|--------------|-----------|---------|\n");
  for (const ThreadRow& t : r.threads) {
    std::printf("| %7u | %6u | %13.2f | %12.2f | %9.2f | %6.2fx |\n", t.threads, t.shards,
                t.check_ms.mean(), t.check_ms.min, t.imbalance,
                r.threads.front().check_ms.mean() / t.check_ms.mean());
  }
}

}  // namespace

int main() {
  const unsigned k = bench::env_unsigned("RCFG_SCALE_K", 12);
  const unsigned torus_side = bench::env_unsigned("RCFG_SCALE_TORUS", 4);
  const unsigned groups = bench::env_unsigned("RCFG_SCALE_GROUPS", 9);
  const unsigned wan_nodes = bench::env_unsigned("RCFG_SCALE_WAN", 48);
  const unsigned churn_steps = bench::env_unsigned("RCFG_SCALE_CHURN", 8);
  const unsigned budget = bench::env_unsigned("RCFG_SCALE_BUDGET", 12);
  const unsigned floor = bench::env_unsigned("RCFG_SCALE_FLOOR", 5);
  const unsigned samples = bench::samples();
  bool ok = true;

  std::printf("paper-scale trajectory: open -> churn (%u steps) -> verify -> sweep "
              "(budget %u) per family\n\n",
              churn_steps, budget);

  std::vector<Family> families;

  // fat_tree: the paper's evaluation topology with the paper's LC change.
  {
    Family f;
    f.name = "fat_tree";
    f.topo = topo::make_fat_tree(k);
    f.base = config::build_ospf_network(f.topo);
    f.policy_pairs = {{"edge0-0", "edge1-0"},
                      {"edge0-1", "edge2-0"},
                      {"edge1-0", "edge0-1"},
                      {"edge2-1", "edge0-0"}};
    f.churn = [](config::NetworkConfig& cfg, const topo::Topology& t, core::Rng& rng) {
      // LC: flip one aggregation uplink cost between 1 and 100.
      std::vector<std::pair<std::string, std::string>> aggs;
      for (topo::NodeId n = 0; n < t.node_count(); ++n) {
        if (!t.node(n).name.starts_with("agg")) continue;
        for (const auto& adj : t.adjacencies(n)) {
          aggs.emplace_back(t.node(n).name, t.iface(adj.iface).name);
        }
      }
      const auto& [dev, iface] = aggs[rng.next_below(aggs.size())];
      const std::uint32_t now =
          cfg.devices.at(dev).find_interface(iface)->ospf_cost;
      config::set_ospf_cost(cfg, dev, iface, now == 1 ? 100 : 1);
    };
    families.push_back(std::move(f));
  }

  // torus3d: OSPF fabric under ACL-heavy campus churn.
  {
    Family f;
    f.name = "torus3d";
    f.topo = topo::make_torus(torus_side, torus_side, torus_side);
    f.base = config::build_ospf_network(f.topo);
    const std::string far = "ts" + std::to_string(torus_side - 1) + "-" +
                            std::to_string(torus_side - 1) + "-" +
                            std::to_string(torus_side - 1);
    f.policy_pairs = {{"ts0-0-0", far}, {far, "ts0-0-0"}};
    f.churn = [](config::NetworkConfig& cfg, const topo::Topology& t, core::Rng& rng) {
      config::campus_acl_churn_step(cfg, t, rng);
    };
    families.push_back(std::move(f));
  }

  // dragonfly: eBGP everywhere under ISP-edge churn.
  {
    Family f;
    f.name = "dragonfly";
    topo::DragonflyParams p;
    p.groups = groups;
    p.routers_per_group = 4;
    p.global_per_router = 2;
    p.terminals_per_router = 2;
    f.topo = topo::make_dragonfly(p);
    f.base = config::build_bgp_network(f.topo);
    const std::string far = "dft" + std::to_string(groups - 1) + "-3-1";
    f.policy_pairs = {{"dft0-0-0", far}, {far, "dft0-0-0"}};
    f.churn = [](config::NetworkConfig& cfg, const topo::Topology& t, core::Rng& rng) {
      config::isp_route_churn_step(cfg, t, rng);
    };
    families.push_back(std::move(f));
  }

  // wan: weighted random graph, metric-aware rounds, LC churn on metrics.
  {
    Family f;
    f.name = "wan";
    topo::WanParams p;
    p.nodes = wan_nodes;
    p.links = wan_nodes * 2;
    p.min_cost = 1;
    p.max_cost = 64;
    core::Rng rng(0x5CA1EBA5ULL);
    topo::WeightedTopology wan = topo::make_wan(p, rng);
    f.base = config::build_wan_ospf_network(wan);
    f.topo = std::move(wan.topo);
    f.link_cost = std::move(wan.link_cost);
    f.policy_pairs = {{"w0", "w" + std::to_string(wan_nodes - 1)},
                      {"w" + std::to_string(wan_nodes / 2), "w1"}};
    f.churn = [](config::NetworkConfig& cfg, const topo::Topology& t, core::Rng& step_rng) {
      // LC on a weighted graph: re-price one random link end to end.
      const auto l = static_cast<topo::LinkId>(step_rng.next_below(t.link_count()));
      const auto cost = static_cast<std::uint32_t>(step_rng.next_in(1, 64));
      const topo::Link& lk = t.link(l);
      config::set_ospf_cost(cfg, t.node(lk.a).name, t.iface(lk.a_iface).name, cost);
      config::set_ospf_cost(cfg, t.node(lk.b).name, t.iface(lk.b_iface).name, cost);
    };
    families.push_back(std::move(f));
  }

  std::printf("| Family    | Nodes | Links | Rounds | Scratch ms  | Churn ms  | "
              "Ratio    | ECs   | BDDs    | Policies | Sweep ms |\n");
  std::printf("|-----------|-------|-------|--------|-------------|-----------|"
              "----------|-------|---------|----------|----------|\n");

  service::json::Value rows;
  FamilyResult fat_tree;
  for (const Family& fam : families) {
    const FamilyResult r = run_family(fam, churn_steps, budget, samples, 0x5CA1E000ULL + k);
    print_row(fam.name, r);
    if (!r.ok) ok = false;
    if (fam.name == "fat_tree") {
      fat_tree = r;
      if (r.policies_holding != r.policies) {
        std::fprintf(stderr,
                     "FAIL: fat-tree LC churn broke %zu of %zu reachability policies\n",
                     r.policies - r.policies_holding, r.policies);
        ok = false;
      }
    }
    rows.push_back(to_json(fam.name, r));
  }
  print_threads(fat_tree);

  std::printf("\nfat-tree k=%u incremental-vs-scratch: %.1fx (acceptance: >= %u)\n",
              k, fat_tree.ratio, floor);
  if (fat_tree.ratio < static_cast<double>(floor)) {
    std::fprintf(stderr, "FAIL: fat-tree ratio %.1f below the %ux floor\n",
                 fat_tree.ratio, floor);
    ok = false;
  }

  service::json::Value doc;
  doc["bench"] = service::json::Value("scale");
  doc["fat_tree_k"] = service::json::Value(k);
  doc["churn_steps"] = service::json::Value(churn_steps);
  doc["sweep_budget"] = service::json::Value(budget);
  doc["thread_samples"] = service::json::Value(samples);
  doc["acceptance_min_ratio"] = service::json::Value(static_cast<std::uint64_t>(floor));
  doc["families"] = std::move(rows);
  std::ofstream("BENCH_scale.json") << doc.dump() << "\n";
  std::printf("wrote BENCH_scale.json\n");
  return ok ? 0 : 1;
}
