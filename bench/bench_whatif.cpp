// What-if sweep economics (paper §2 "Specification mining", the
// Config2Spec workload): the cost of standing up a failure-scenario replica
// by snapshot/fork versus building a verifier from scratch, and the cost of
// a single-link-failure sweep with sweep_failures — checkpoint once, every
// scenario is restore -> apply -> check on a forked replica, optionally
// sharded over a worker pool. The speedup column is the §2 claim measured
// end to end: the from-scratch rebuild's time over the sweep's time per
// scenario (the paper reports ~20x).
//
// Scenario outcomes at threads 2 and 4 are asserted identical, scenario for
// scenario, to the threads=1 sweep, so this bench doubles as the
// determinism check for forked replicas (exit 1 on a mismatch).
//
// The relate section asks the change-planning question "how does the
// proposal behave differently?" of the same verifier two ways:
//   incremental  RelationalChecker::check — snapshot, fork, apply the
//                proposal incrementally, and compare only the ECs the apply
//                touched (the rest are identical through the fork's shared
//                packet space);
//   naive        two verifiers built from scratch (base and proposed), then
//                the full pairwise walk over every EC.
// The incremental diff must equal the full walk (exit 1 otherwise). The
// section also measures update-order synthesis throughput (verified
// placements per second) on pairwise-disjoint quarantine steps.
//
// Knobs (environment variables):
//   RCFG_FATTREE_K        fat-tree k (default 8)
//   RCFG_WHATIF_LINKS     links swept (default 24, capped at the link count)
//   RCFG_WHATIF_POLICIES  registered reachability policies (default 16)
//   RCFG_SAMPLES          fork/rebuild/relate timing samples (default 5)
//
// Writes its fields into BENCH_whatif.json in the working directory,
// keeping any other section there (bench_sweep's "sweep_k3").

#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.h"
#include "config/builders.h"
#include "core/rng.h"
#include "relate/order.h"
#include "relate/relate.h"
#include "service/json.h"
#include "topo/generators.h"
#include "verify/failures.h"
#include "verify/realconfig.h"

using namespace rcfg;

namespace {

/// The semantic content of one scenario outcome (timings stripped).
struct Verdict {
  std::vector<topo::LinkId> links;
  bool diverged = false;
  std::size_t reachable_pairs = 0;
  std::size_t pairs_lost = 0;
  std::vector<verify::PolicyId> violated;
  bool gained_loop = false;

  static Verdict of(const verify::ScenarioOutcome& out) {
    return Verdict{out.scenario.links, out.diverged,    out.reachable_pairs,
                   out.pairs_lost,     out.violated,    out.gained_loop};
  }
  bool operator==(const Verdict&) const = default;
};

std::vector<Verdict> verdicts(const verify::FailureSweepResult& result) {
  std::vector<Verdict> out;
  out.reserve(result.outcomes.size());
  for (const verify::ScenarioOutcome& o : result.outcomes) out.push_back(Verdict::of(o));
  return out;
}

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
  const unsigned n_links = bench::env_unsigned("RCFG_WHATIF_LINKS", 24);
  const unsigned n_policies = bench::env_unsigned("RCFG_WHATIF_POLICIES", 16);
  const unsigned samples = bench::samples();

  const topo::Topology topo = topo::make_fat_tree(k);
  const config::NetworkConfig base = config::build_ospf_network(topo);
  const verify::RealConfigOptions rc_options = bench::options_for(topo);

  verify::RealConfig rc(topo, rc_options);
  core::Rng rng(0x9e3779b97f4a7c15ULL);
  for (unsigned p = 0; p < n_policies; ++p) {
    const topo::NodeId a = static_cast<topo::NodeId>(rng.next_below(topo.node_count()));
    topo::NodeId b = static_cast<topo::NodeId>(rng.next_below(topo.node_count()));
    if (b == a) b = (b + 1) % static_cast<topo::NodeId>(topo.node_count());
    rc.require_reachable(topo.node(a).name, topo.node(b).name, config::host_prefix(b));
  }

  bench::Timer scratch_timer;
  rc.apply(base);
  const double scratch_ms = scratch_timer.ms();

  std::vector<topo::LinkId> links(topo.link_count());
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) links[l] = l;
  rng.shuffle(links);
  if (links.size() > n_links) links.resize(n_links);

  std::printf("what-if sweeps: fat-tree k=%u (%zu nodes, %zu links), %zu links swept, "
              "%u policies\n\n",
              k, topo.node_count(), topo.link_count(), links.size(), n_policies);

  // --- replica standup: snapshot + fork-restore vs from-scratch rebuild ---
  bench::Stats snap_ms, fork_ms, rebuild_ms;
  for (unsigned s = 0; s < samples; ++s) {
    const bench::Timer t_snap;
    const auto snap = rc.snapshot();
    snap_ms.add(t_snap.ms());

    const bench::Timer t_fork;
    auto replica = rc.fork(*snap);
    fork_ms.add(t_fork.ms());

    const bench::Timer t_rebuild;
    verify::RealConfig fresh(topo, rc_options);
    fresh.apply(base);
    rebuild_ms.add(t_rebuild.ms());
  }
  std::printf("replica standup (mean over %u samples):\n", samples);
  std::printf("  snapshot        %8.2f ms\n", snap_ms.mean());
  std::printf("  fork + restore  %8.2f ms\n", fork_ms.mean());
  std::printf("  scratch rebuild %8.2f ms  (%.1fx the fork)\n\n", rebuild_ms.mean(),
              fork_ms.mean() > 0 ? rebuild_ms.mean() / fork_ms.mean() : 0);

  // --- full sweeps: snapshot-fork, sharded ---------------------------------
  struct Row {
    unsigned threads = 0;
    double sweep_ms = 0;
    double per_scenario_ms = 0;
    double speedup = 0;  ///< scratch rebuild / per-scenario sweep time
  };
  std::vector<Row> rows;

  verify::FailureSweepOptions options;
  for (const topo::LinkId l : links) options.scenarios.push_back(verify::FailureScenario{{l}});
  std::vector<Verdict> reference;
  for (const unsigned threads : {1u, 2u, 4u}) {
    options.threads = threads;
    const verify::FailureSweepResult forked = sweep_failures(rc, base, options);
    if (threads == 1) {
      reference = verdicts(forked);
    } else if (verdicts(forked) != reference) {
      std::fprintf(stderr,
                   "FAIL: fork-sweep outcomes at threads=%u differ from threads=1\n",
                   threads);
      return 1;
    }
    const double per_scenario = forked.sweep_ms / static_cast<double>(forked.scenarios);
    rows.push_back(Row{threads, forked.sweep_ms, per_scenario,
                       per_scenario > 0 ? rebuild_ms.mean() / per_scenario : 0});
  }

  std::printf("| Threads | Sweep ms | Per-scenario ms | vs scratch rebuild |\n");
  std::printf("|---------|----------|-----------------|--------------------|\n");
  for (const Row& row : rows) {
    std::printf("| %7u | %8.1f | %15.2f | %17.1fx |\n", row.threads, row.sweep_ms,
                row.per_scenario_ms, row.speedup);
  }
  std::printf("\noutcomes identical across all thread counts; the paper reports ~20x "
              "over from-scratch for this workload\n\n");

  // --- relate: incremental relational diff vs two scratch verifiers -------
  // The proposal quarantines one edge switch's host prefix at every core
  // and bumps one IGP cost: a filter change and a routing change in one
  // proposal, touching a handful of ECs out of the whole partition.
  const net::Ipv4Prefix victim = config::host_prefix(topo.find_node("edge1-1"));
  config::NetworkConfig proposed = base;
  for (unsigned j = 0; j < k * k / 4; ++j) {
    quarantine_at(proposed, "core" + std::to_string(j), victim);
  }
  config::set_ospf_cost(proposed, "agg0-0", "to-core0", 5);
  relate::RelationalChecker checker(rc);
  relate::RelationalResult related;
  bench::Stats inc_ms, inc_walk_ms, naive_ms, naive_walk_ms;
  for (unsigned s = 0; s < samples; ++s) {
    related = checker.check(
        proposed, {{relate::RelationalSpec::Kind::kOnlyDstIn, {victim}, "quarantine"}});
    inc_ms.add(related.total_ms());
    inc_walk_ms.add(related.diff_ms);
  }
  for (unsigned s = 0; s < samples; ++s) {
    const bench::Timer t_naive;
    verify::RealConfig fresh_base(topo, rc_options);
    fresh_base.apply(base);
    verify::RealConfig fresh_proposed(topo, rc_options);
    fresh_proposed.apply(proposed);
    // Scratch partitions live in unrelated packet spaces, so the naive walk
    // runs on the checker's fork pair: the same comparisons, and the
    // equality check against the incremental diff.
    const bench::Timer t_walk;
    const relate::RelationalDiff full =
        relate::relational_diff_bruteforce(rc, checker.changed(), checker.base_of());
    naive_walk_ms.add(t_walk.ms());
    naive_ms.add(t_naive.ms());
    if (!(full == related.diff)) {
      std::fprintf(stderr, "FAIL: incremental relational diff differs from the full walk\n");
      return 1;
    }
  }
  const std::size_t ec_count = checker.changed().ecs().ec_count();
  std::printf("relational diff: %zu ECs differ (%zu candidates examined of %zu)\n",
              related.diff.ecs.size(), related.ecs_compared, ec_count);
  std::printf("| Strategy    | Mean ms  | Diff-walk ms | ECs compared |\n");
  std::printf("|-------------|----------|--------------|--------------|\n");
  std::printf("| incremental | %8.1f | %12.2f | %12zu |\n", inc_ms.mean(), inc_walk_ms.mean(),
              related.ecs_compared);
  std::printf("| naive       | %8.1f | %12.2f | %12zu |\n", naive_ms.mean(),
              naive_walk_ms.mean(), ec_count);
  std::printf("incremental diff is %.1fx cheaper; diffs identical\n\n",
              naive_ms.mean() / inc_ms.mean());

  // One quarantine step per even pod's first edge switch — pairwise
  // disjoint; the synthesizer verifies placements until a safe order emerges.
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
  const relate::OrderResult order = relate::UpdateOrderSynthesizer(rc, base).synthesize(steps);
  const double placements_per_s = 1000.0 * static_cast<double>(order.explored) / order.search_ms;
  std::printf("order synthesis: %zu steps, %zu placements verified, %zu restores, found=%s, "
              "%.1f ms (%.1f placements/s)\n",
              steps.size(), order.explored, order.restores, order.found ? "yes" : "no",
              order.search_ms, placements_per_s);

  service::json::Value doc = bench::read_json_file("BENCH_whatif.json");
  doc["bench"] = service::json::Value("whatif");
  doc["fat_tree_k"] = service::json::Value(k);
  doc["nodes"] = service::json::Value(static_cast<std::uint64_t>(topo.node_count()));
  doc["links"] = service::json::Value(static_cast<std::uint64_t>(topo.link_count()));
  doc["links_swept"] = service::json::Value(static_cast<std::uint64_t>(links.size()));
  doc["policies"] = service::json::Value(n_policies);
  doc["scratch_apply_ms"] = service::json::Value(scratch_ms);
  doc["snapshot_ms"] = service::json::Value(snap_ms.mean());
  doc["fork_restore_ms"] = service::json::Value(fork_ms.mean());
  doc["rebuild_ms"] = service::json::Value(rebuild_ms.mean());
  service::json::Value out_rows;
  for (const Row& row : rows) {
    service::json::Value r;
    r["threads"] = service::json::Value(row.threads);
    r["sweep_ms"] = service::json::Value(row.sweep_ms);
    r["per_scenario_ms"] = service::json::Value(row.per_scenario_ms);
    r["speedup_vs_rebuild"] = service::json::Value(row.speedup);
    out_rows.push_back(std::move(r));
  }
  doc["rows"] = std::move(out_rows);
  service::json::Value rel;
  rel["diff_ecs"] = service::json::Value(static_cast<std::uint64_t>(related.diff.ecs.size()));
  rel["ecs_compared"] = service::json::Value(static_cast<std::uint64_t>(related.ecs_compared));
  rel["ec_count"] = service::json::Value(static_cast<std::uint64_t>(ec_count));
  rel["incremental_ms"] = service::json::Value(inc_ms.mean());
  rel["incremental_diff_walk_ms"] = service::json::Value(inc_walk_ms.mean());
  rel["naive_ms"] = service::json::Value(naive_ms.mean());
  rel["naive_walk_ms"] = service::json::Value(naive_walk_ms.mean());
  rel["speedup"] = service::json::Value(naive_ms.mean() / inc_ms.mean());
  rel["order_steps"] = service::json::Value(static_cast<std::uint64_t>(steps.size()));
  rel["order_found"] = service::json::Value(order.found);
  rel["order_explored"] = service::json::Value(static_cast<std::uint64_t>(order.explored));
  rel["order_restores"] = service::json::Value(static_cast<std::uint64_t>(order.restores));
  rel["order_search_ms"] = service::json::Value(order.search_ms);
  rel["placements_per_s"] = service::json::Value(placements_per_s);
  doc["relate"] = std::move(rel);
  std::ofstream("BENCH_whatif.json") << doc.dump() << "\n";
  std::printf("merged into BENCH_whatif.json\n");
  return 0;
}
