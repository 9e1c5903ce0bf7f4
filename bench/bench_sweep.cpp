// Deep failure-space exploration (k >= 3 simultaneous failures): how far
// dependency pruning, fat-tree pod-symmetry dedup, and prioritized budgeted
// generation stretch a fixed verification budget across a combinatorial
// scenario space (sweep_space.h, DESIGN.md decision 13).
//
// Two parts:
//   * parity (small k): on a fat-tree k=4 with two pod-pinned reachability
//     policies, a pruned sweep and a pruned+symmetry sweep must agree with
//     the exhaustive max_failures=2 sweep — identical policy_violations,
//     identical outcomes for every explored scenario, empty violation sets
//     on every scenario the pruner skipped, and exact accounting
//     (explored + replayed + pruned == total, coverage == 1). The three
//     sweeps run on 4, 3 and 2 lanes: a sweep's report is bit-identical
//     for any lane count, so the comparison checks that too.
//   * headline (recorded): fat-tree k=12 (paper scale: 180 nodes / 864
//     links, ~1.07e8 scenarios at max_failures=3), OSPF, four reachability
//     policies concentrated in pods 0-2, single core. Prune + symmetry +
//     budget account for the bulk of the space while verifying only
//     `budget` scenarios on replicas; the table records explored /
//     replayed / pruned / coverage and scenarios per second.
//
// Acceptance: parity must hold exactly, and the headline dedup ratio
// (pruned + replayed) / (explored + replayed + pruned) must be at least
// the floor (exit 1 otherwise).
//
// Knobs (environment variables):
//   RCFG_SWEEP_K          headline fat-tree k (default 12)
//   RCFG_SWEEP_MAXF       headline max simultaneous failures (default 3)
//   RCFG_SWEEP_BUDGET     headline explored-scenario budget (default 24)
//   RCFG_SWEEP_FLOOR_PCT  minimum headline dedup ratio, percent (default 50)
//
// Merges a "sweep_k3" section into BENCH_whatif.json in the working
// directory (the rest of the file, written by bench_whatif, is preserved).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "config/builders.h"
#include "service/json.h"
#include "topo/generators.h"
#include "verify/failures.h"
#include "verify/realconfig.h"

using namespace rcfg;

namespace {

topo::NodeId find_node(const topo::Topology& t, const std::string& name) {
  for (topo::NodeId n = 0; n < static_cast<topo::NodeId>(t.node_count()); ++n) {
    if (t.node(n).name == name) return n;
  }
  std::fprintf(stderr, "FAIL: no node named %s\n", name.c_str());
  std::exit(1);
}

void require(verify::RealConfig& rc, const topo::Topology& t, const std::string& src,
             const std::string& dst) {
  rc.require_reachable(src, dst, config::host_prefix(find_node(t, dst)));
}

/// The semantic content of one outcome (timings and orbit width stripped).
struct Verdict {
  bool diverged = false;
  std::size_t reachable_pairs = 0;
  std::size_t pairs_lost = 0;
  std::vector<verify::PolicyId> violated;
  bool gained_loop = false;

  static Verdict of(const verify::ScenarioOutcome& out) {
    return Verdict{out.diverged, out.reachable_pairs, out.pairs_lost, out.violated,
                   out.gained_loop};
  }
  bool operator==(const Verdict&) const = default;
};

std::map<std::vector<topo::LinkId>, Verdict> by_scenario(
    const verify::FailureSweepResult& result) {
  std::map<std::vector<topo::LinkId>, Verdict> out;
  for (const verify::ScenarioOutcome& o : result.outcomes) {
    out.emplace(o.scenario.links, Verdict::of(o));
  }
  return out;
}

bool same_aggregates(const verify::FailureSweepResult& a,
                     const verify::FailureSweepResult& b) {
  return a.healthy_pairs == b.healthy_pairs &&
         a.fault_tolerant_pairs == b.fault_tolerant_pairs &&
         a.critical_links == b.critical_links &&
         a.policy_violations == b.policy_violations &&
         a.loop_scenarios == b.loop_scenarios && a.diverged_links == b.diverged_links &&
         a.diverged_scenarios == b.diverged_scenarios && a.scenarios == b.scenarios;
}

/// Exhaustive vs pruned vs pruned+symmetry on a fat-tree k=4, policies
/// pinned to pods 0-1 so pods 2-3 stay symmetric. Returns false (and
/// prints why) on any disagreement the reductions promise cannot happen.
bool parity_check() {
  const topo::Topology t = topo::make_fat_tree(4);
  const config::NetworkConfig base = config::build_ospf_network(t);
  // The default 24 rounds, not bench::options_for(t): two failures can cut
  // a k=4 aggregation switch off from every core, and the detours that
  // leave need more rounds than the healthy fabric's hop diameter allows.
  // Dumping every outcome of the three sweeps at both settings shows it:
  // at recommended_max_rounds(t) = 8, 8 of the 528 scenarios (e.g. links
  // {0,3} and {1,2}) come back diverged with no pairs, and each converges
  // with full reachability at 24.
  verify::RealConfig rc(t);
  require(rc, t, "edge0-0", "edge1-0");
  require(rc, t, "edge1-1", "edge0-1");
  rc.apply(base);

  verify::FailureSweepOptions exhaustive;
  exhaustive.max_failures = 2;
  exhaustive.threads = 4;
  const verify::FailureSweepResult full = sweep_failures(rc, base, exhaustive);

  verify::FailureSweepOptions with_prune = exhaustive;
  with_prune.prune = true;
  with_prune.threads = 3;
  const verify::FailureSweepResult pruned = sweep_failures(rc, base, with_prune);

  verify::FailureSweepOptions with_symmetry = with_prune;
  with_symmetry.symmetry = true;
  with_symmetry.threads = 2;
  const verify::FailureSweepResult sym = sweep_failures(rc, base, with_symmetry);

  bool ok = true;
  if (pruned.explored_scenarios + pruned.pruned_scenarios != pruned.total_scenarios ||
      pruned.coverage != 1.0 || full.total_scenarios != pruned.total_scenarios) {
    std::fprintf(stderr, "FAIL: pruned-sweep accounting does not close\n");
    ok = false;
  }
  if (full.policy_violations != pruned.policy_violations ||
      full.policy_violations != sym.policy_violations) {
    std::fprintf(stderr, "FAIL: pruning/symmetry changed policy verdicts\n");
    ok = false;
  }
  const auto reference = by_scenario(full);
  for (const auto& [links, verdict] : by_scenario(pruned)) {
    const auto it = reference.find(links);
    if (it == reference.end() || !(it->second == verdict)) {
      std::fprintf(stderr, "FAIL: a pruned-sweep outcome differs from exhaustive\n");
      ok = false;
      break;
    }
  }
  // Soundness of the skip itself: every scenario the pruner never ran is
  // violation-free in the exhaustive sweep.
  const auto kept = by_scenario(pruned);
  for (const auto& [links, verdict] : reference) {
    if (kept.count(links) == 0 && !verdict.violated.empty()) {
      std::fprintf(stderr, "FAIL: the pruner skipped a violating scenario\n");
      ok = false;
      break;
    }
  }
  if (!same_aggregates(pruned, sym)) {
    std::fprintf(stderr, "FAIL: symmetry replay is not bit-identical to the pruned sweep\n");
    ok = false;
  }
  if (sym.replayed_scenarios == 0 ||
      sym.explored_scenarios + sym.replayed_scenarios != pruned.explored_scenarios) {
    std::fprintf(stderr, "FAIL: pod symmetry replayed nothing on a symmetric fat-tree\n");
    ok = false;
  }
  std::printf("parity (fat-tree k=4, max_failures=2, 4/3/2 lanes): total %llu, exhaustive "
              "explored %llu, pruned explored %llu, symmetry explored %llu + replayed "
              "%llu%s\n\n",
              static_cast<unsigned long long>(full.total_scenarios),
              static_cast<unsigned long long>(full.explored_scenarios),
              static_cast<unsigned long long>(pruned.explored_scenarios),
              static_cast<unsigned long long>(sym.explored_scenarios),
              static_cast<unsigned long long>(sym.replayed_scenarios),
              ok ? " — all verdicts agree" : "");
  return ok;
}

}  // namespace

int main() {
  const unsigned k = bench::env_unsigned("RCFG_SWEEP_K", 12);
  const unsigned max_failures = bench::env_unsigned("RCFG_SWEEP_MAXF", 3);
  const unsigned budget = bench::env_unsigned("RCFG_SWEEP_BUDGET", 24);
  const unsigned floor_pct = bench::env_unsigned("RCFG_SWEEP_FLOOR_PCT", 50);
  bool ok = true;

  std::printf("deep failure-space sweeps: prune + symmetry + budget vs the raw space\n\n");
  if (!parity_check()) ok = false;

  // --- headline: fat-tree k, max_failures-deep space, one core ------------
  const topo::Topology topo = topo::make_fat_tree(k);
  const config::NetworkConfig base = config::build_ospf_network(topo);
  // Rounds sized to the healthy hop diameter: from k=8 up every aggregation
  // switch keeps a core uplink under any three failures, so no scenario's
  // shortest paths outgrow it (the k=4 smoke's budgeted scenarios also
  // converge the same as at the default 24 rounds).
  verify::RealConfig rc(topo, bench::options_for(topo));
  require(rc, topo, "edge0-0", "edge1-0");
  require(rc, topo, "edge0-1", "edge2-0");
  require(rc, topo, "edge1-0", "edge0-1");
  require(rc, topo, "edge2-1", "edge0-0");

  const bench::Timer scratch_timer;
  rc.apply(base);
  const double scratch_ms = scratch_timer.ms();
  std::printf("fat-tree k=%u: %zu nodes, %zu links, 4 policies in pods 0-2, "
              "scratch apply %.0f ms\n",
              k, topo.node_count(), topo.link_count(), scratch_ms);

  verify::FailureSweepOptions options;
  options.max_failures = max_failures;
  options.budget = budget;
  options.prune = true;
  options.symmetry = true;
  options.threads = 1;
  const verify::FailureSweepResult result = sweep_failures(rc, base, options);

  const std::uint64_t accounted =
      result.explored_scenarios + result.replayed_scenarios + result.pruned_scenarios;
  const double dedup_ratio =
      accounted > 0
          ? static_cast<double>(result.replayed_scenarios + result.pruned_scenarios) /
                static_cast<double>(accounted)
          : 0;
  const double verify_ms = result.sweep_ms - result.snapshot_ms;
  const double per_scenario_ms =
      result.explored_scenarios > 0
          ? verify_ms / static_cast<double>(result.explored_scenarios)
          : 0;
  const double accounted_per_s =
      result.sweep_ms > 0 ? static_cast<double>(accounted) / (result.sweep_ms / 1000.0) : 0;

  std::printf("\n| max_failures | Space        | Explored | Replayed | Pruned       | "
              "Coverage | Per-scenario ms |\n");
  std::printf("|--------------|--------------|----------|----------|--------------|"
              "----------|-----------------|\n");
  std::printf("| %12u | %12llu | %8llu | %8llu | %12llu | %7.4f%% | %15.1f |\n",
              max_failures, static_cast<unsigned long long>(result.total_scenarios),
              static_cast<unsigned long long>(result.explored_scenarios),
              static_cast<unsigned long long>(result.replayed_scenarios),
              static_cast<unsigned long long>(result.pruned_scenarios),
              result.coverage * 100.0, per_scenario_ms);
  std::printf("\nsweep %.0f ms (snapshot %.0f ms), %.0f scenarios/s accounted, "
              "dedup ratio %.4f (acceptance: >= %.2f)\n",
              result.sweep_ms, result.snapshot_ms, accounted_per_s, dedup_ratio,
              floor_pct / 100.0);
  if (dedup_ratio * 100.0 < static_cast<double>(floor_pct)) {
    std::fprintf(stderr, "FAIL: dedup ratio %.4f below the %u%% floor\n", dedup_ratio,
                 floor_pct);
    ok = false;
  }
  if (accounted > result.total_scenarios) {
    std::fprintf(stderr, "FAIL: accounted scenarios exceed the space\n");
    ok = false;
  }

  // Merge into BENCH_whatif.json without disturbing bench_whatif's fields.
  service::json::Value doc = bench::read_json_file("BENCH_whatif.json");
  service::json::Value sweep;
  sweep["fat_tree_k"] = service::json::Value(k);
  sweep["nodes"] = service::json::Value(static_cast<std::uint64_t>(topo.node_count()));
  sweep["links"] = service::json::Value(static_cast<std::uint64_t>(topo.link_count()));
  sweep["policies"] = service::json::Value(static_cast<std::uint64_t>(4));
  sweep["max_failures"] = service::json::Value(max_failures);
  sweep["budget"] = service::json::Value(budget);
  sweep["threads"] = service::json::Value(static_cast<std::uint64_t>(1));
  sweep["scratch_apply_ms"] = service::json::Value(scratch_ms);
  sweep["snapshot_ms"] = service::json::Value(result.snapshot_ms);
  sweep["sweep_ms"] = service::json::Value(result.sweep_ms);
  sweep["total_scenarios"] = service::json::Value(result.total_scenarios);
  sweep["explored"] = service::json::Value(result.explored_scenarios);
  sweep["replayed"] = service::json::Value(result.replayed_scenarios);
  sweep["pruned"] = service::json::Value(result.pruned_scenarios);
  sweep["coverage"] = service::json::Value(result.coverage);
  sweep["dedup_ratio"] = service::json::Value(dedup_ratio);
  sweep["per_scenario_ms"] = service::json::Value(per_scenario_ms);
  sweep["acceptance_min_dedup"] = service::json::Value(floor_pct / 100.0);
  doc["sweep_k3"] = std::move(sweep);
  std::ofstream("BENCH_whatif.json") << doc.dump() << "\n";
  std::printf("merged sweep_k3 into BENCH_whatif.json\n");
  return ok ? 0 : 1;
}
