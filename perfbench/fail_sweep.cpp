// fail_sweep: verify::sweep_failures over single-link failure scenarios in
// link-id order — every third link from a seeded first one, wrapping round,
// so that a run's links spread over every layer and pod (consecutive ids
// would cover a seed-dependent mix of edge and core links) — with
// max_failures=1, no pruning, no symmetry and one thread, so every scenario
// is a real restore -> apply -> check on a forked replica. Here verify's
// snapshot/fork/restore is most of the time; lc_churn never restores, so
// the two together separate restore work from per-apply work.
//
// A run is a fixed number of sweeps of kChunk scenarios each, not one long
// sweep: a replica's restore gets slower with every restore it has done
// (verify.restore_drift reports it), so one sweep's per-scenario cost would
// depend on its length.
//
// The traced pass replays the sweep loop from outside — snapshot, fork,
// then restore and the three stage calls per scenario — and checks each
// scenario's outcome against sweep_failures on the same scenarios.

#include <algorithm>
#include <iterator>
#include <numeric>
#include <optional>

#include "config/builders.h"
#include "core/rng.h"
#include "dd/graph.h"
#include "stats.h"
#include "verify/failures.h"
#include "workloads.h"

namespace perfbench {

using namespace rcfg;

namespace {

constexpr unsigned kScenariosPerSecond = 6;
constexpr unsigned kTracedScenarios = 36;
constexpr unsigned kChunk = 6;
constexpr unsigned kReadsPerSweep = 24;

using Pair = std::pair<topo::NodeId, topo::NodeId>;

/// What a scenario did, as sweep_failures reports it.
struct Outcome {
  bool diverged = false;
  std::size_t pairs_lost = 0;
  std::vector<verify::PolicyId> violated;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// A single link failure may cost a fat tree no pair and no policy.
void check_outcome(const verify::ScenarioOutcome& o, Result& result) {
  if (o.diverged || o.pairs_lost != 0 || !o.violated.empty() || o.gained_loop) {
    result.fail("failing link " + std::to_string(o.scenario.links.front()) +
                " diverged, lost pairs, looped or violated a policy");
  }
}

}  // namespace

void run_fail_sweep(const Args& args, Result& result) {
  result.op_kind = "scenarios";
  Tracer tracer;
  std::uint64_t op = 0;

  std::vector<double> setup_s;
  std::unique_ptr<Network> net;
  std::unique_ptr<verify::RealConfig> rc;
  for (int i = 0; i < setups(args); ++i) {
    rc.reset();
    net.reset();
    if (i + 1 == setups(args)) reset_peak_rss();
    const Stopwatch sw;
    net = make_network(args.k);
    rc = make_verifier(*net);
    register_policies(*rc, *net);
    if (args.trace) {
      const Scope s(tracer, "setup", ++op);
      staged_apply(*rc, net->base, tracer, op);
    } else {
      rc->apply(net->base);
    }
    setup_s.push_back(sw.ms() / 1000);
  }

  const topo::Topology& topo = net->topo;
  const Verdicts healthy = read_verdicts(*rc);
  core::Rng rng(args.seed);
  const std::size_t first = rng.next_below(topo.link_count());
  std::size_t stride = 3;  // coprime with the link count, so no link repeats
  while (std::gcd(stride, topo.link_count()) != 1) ++stride;
  const unsigned scenarios = args.trace ? kTracedScenarios : kScenariosPerSecond * args.seconds;

  std::vector<double> scenario_ms, change_ms, query_us, sweep_ms, traced_ms, untraced_ms;
  std::vector<double> flushes, fib_delta, splits, moves, affected_ecs, affected_pairs, ecs, bdds;
  const double cpu0 = cpu_seconds();
  const Stopwatch phase;
  for (unsigned begin = 0; begin < scenarios; begin += kChunk) {
    verify::FailureSweepOptions options;
    for (unsigned i = begin; i < std::min(begin + kChunk, scenarios); ++i) {
      options.scenarios.push_back(
          {{static_cast<topo::LinkId>((first + i * stride) % topo.link_count())}});
    }

    std::vector<Outcome> outside;
    if (args.trace) {
      // The sweep loop, driven from outside (mirrors sweep_failures).
      const std::vector<Pair> healthy_pairs = rc->checker().reachable_pairs();
      std::vector<verify::PolicyId> watched;
      for (verify::PolicyId id = 0; id < rc->checker().policy_count(); ++id) {
        if (rc->checker().policy_satisfied(id)) watched.push_back(id);
      }
      std::shared_ptr<const verify::RealConfig::Snapshot> snap;
      {
        const Scope s(tracer, "verify.snapshot", ++op);
        snap = rc->snapshot();
      }
      std::unique_ptr<verify::RealConfig> replica;
      {
        const Scope s(tracer, "verify.fork", op);
        replica = rc->fork(*snap);
      }
      config::NetworkConfig cfg = net->base;
      for (const verify::FailureScenario& scenario : options.scenarios) {
        const topo::LinkId link = scenario.links.front();
        Outcome out;
        const Stopwatch sw;
        {
          const Scope s(tracer, "scenario", ++op);
          {
            const Scope r(tracer, "verify.restore", op);
            replica->restore(*snap);
          }
          config::fail_link(cfg, topo, link);
          try {
            const StagedReport rep = staged_apply(*replica, cfg, tracer, op);
            flushes.push_back(static_cast<double>(rep.flushes));
            fib_delta.push_back(static_cast<double>(rep.dataplane.fib.size()));
            splits.push_back(static_cast<double>(rep.model.stats.splits));
            moves.push_back(static_cast<double>(rep.model.moves.size()));
            affected_ecs.push_back(static_cast<double>(rep.check.affected_ecs.size()));
            affected_pairs.push_back(static_cast<double>(rep.check.affected_pairs.size()));
            const Scope r(tracer, "read", op);
            const std::vector<Pair> now = replica->checker().reachable_pairs();
            std::vector<Pair> lost;
            std::set_difference(healthy_pairs.begin(), healthy_pairs.end(), now.begin(),
                                now.end(), std::back_inserter(lost));
            out.pairs_lost = lost.size();
            for (const verify::PolicyId id : watched) {
              if (!replica->checker().policy_satisfied(id)) out.violated.push_back(id);
            }
          } catch (const dd::NonterminationError&) {
            out.diverged = true;
          }
          config::restore_link(cfg, topo, link);
        }
        traced_ms.push_back(sw.ms());
        ecs.push_back(static_cast<double>(replica->ecs().ec_count()));
        bdds.push_back(static_cast<double>(replica->packet_space().live_nodes()));
        outside.push_back(std::move(out));
      }
    }

    const Stopwatch sw;
    const verify::FailureSweepResult swept = verify::sweep_failures(*rc, net->base, options);
    sweep_ms.push_back(sw.ms());
    for (std::size_t i = 0; i < swept.outcomes.size(); ++i) {
      const verify::ScenarioOutcome& o = swept.outcomes[i];
      ++result.attempted;
      const std::size_t failed_before = result.failed;
      check_outcome(o, result);
      if (args.trace && result.failed == failed_before &&
          !(outside[i] == Outcome{o.diverged, o.pairs_lost, o.violated})) {
        result.fail("link " + std::to_string(o.scenario.links.front()) +
                    ": the outside-driven loop disagrees with sweep_failures");
      }
      scenario_ms.push_back(o.total_ms);
      change_ms.push_back(o.total_ms - o.restore_ms);
      untraced_ms.push_back(o.total_ms);
    }

    // Reads of the live verifier between sweeps: the sweep must leave it
    // exactly as healthy as it was. The first read after a sweep refills
    // the caches the sweep evicted; kReadsPerSweep keeps those first reads
    // well under a tenth of the sample, so p90 is not balanced on them.
    for (unsigned q = 0; q < kReadsPerSweep; ++q) {
      const Stopwatch qw;
      const Verdicts now = read_verdicts(*rc);
      query_us.push_back(qw.ms() * 1000);
      if (!(now == healthy)) result.fail("a sweep changed the live verifier's verdicts");
    }
  }
  const double phase_s = phase.ms() / 1000;
  const double cpu_util = (cpu_seconds() - cpu0) / phase_s;

  if (!args.trace) {
    result.set("setup_s", median(setup_s));
    result.set("peak_rss_mb", peak_rss_mb());
    result.latency("change", "ms", change_ms);
    result.set("changes_per_s", 1000.0 * static_cast<double>(change_ms.size()) / sum(change_ms));
    result.latency("query", "us", query_us);
    result.latency("scenario", "ms", scenario_ms);
    result.set("scenarios_per_s", 1000.0 * static_cast<double>(scenario_ms.size()) / sum(sweep_ms));
    return;
  }
  result.set("routing.apply_ms", median(span_ms(tracer, "routing.apply", "scenario")));
  result.set("dd.flushes", median(flushes));
  result.set("routing.fib_delta", median(fib_delta));
  result.set("routing.share", median(child_share(tracer, "routing.apply", "scenario")));
  result.set("dpm.apply_ms", median(span_ms(tracer, "dpm.apply", "scenario")));
  result.set("dpm.splits", median(splits));
  result.set("dpm.moves", median(moves));
  result.set("dpm.ec_count", median(ecs));
  result.set("dpm.bdd_nodes", median(bdds));
  result.set("verify.check_ms", median(span_ms(tracer, "verify.check", "scenario")));
  result.set("verify.affected_ecs", median(affected_ecs));
  result.set("verify.affected_pairs", median(affected_pairs));
  result.set("verify.snapshot_ms", median(tracer.durations_ms("verify.snapshot")));
  result.set("verify.fork_ms", median(tracer.durations_ms("verify.fork")));
  const std::vector<double> restore_ms = span_ms(tracer, "verify.restore", "scenario");
  result.set("verify.restore_ms", median(restore_ms));
  result.set("verify.restore_share", median(child_share(tracer, "verify.restore", "scenario")));
  result.set("verify.restore_drift", drift(restore_ms));
  result.set("routing.scratch_ms", median(span_ms(tracer, "routing.apply", "setup")));
  result.set("dpm.scratch_ms", median(span_ms(tracer, "dpm.apply", "setup")));
  result.set("verify.scratch_ms", median(span_ms(tracer, "verify.check", "setup")));
  result.set("change.drift", drift(traced_ms));
  result.set("proc.cpu_util", cpu_util);
  result.set("trace.overhead_ms", median(traced_ms) - median(untraced_ms));
  result.set("trace.stage_coverage", lowest(child_coverage(tracer, "scenario")));
  write_trace(tracer, args);
}

}  // namespace perfbench
