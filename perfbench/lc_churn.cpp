// lc_churn: the paper's LC change — one agg->core uplink, OSPF cost
// 1 -> 100 — followed by its revert, each through RealConfig::apply on one
// thread. Stage 1 (routing/dd) is most of each change, so this is where
// routing and dataflow work shows, and where dpm, snapshot/restore and the
// service should not move.
//
// Change-then-revert keeps the run stationary: after every pair the
// network is the one that was opened, so a change costs the same whether
// it is the 5th or the 500th. (A random walk of toggles leaves more
// cost-100 links behind every step, and its median then depends on how
// many steps a run gets through.)

#include <algorithm>
#include <optional>

#include "baseline/simulator.h"
#include "config/builders.h"
#include "core/rng.h"
#include "dd/graph.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace rcfg;

namespace {
constexpr unsigned kChangesPerSecond = 6;
}

void run_lc_churn(const Args& args, Result& result) {
  result.op_kind = "changes";
  Tracer tracer;
  std::uint64_t op = 0;

  std::vector<double> setup_s;
  std::unique_ptr<Network> net;
  std::unique_ptr<verify::RealConfig> rc;
  for (int i = 0; i < setups(args); ++i) {
    rc.reset();  // drop the previous set-up first: peak RSS holds one verifier
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

  const Verdicts open_verdicts = read_verdicts(*rc);
  const auto open_fib = rc->generator().fib();
  const auto uplinks = agg_uplinks(net->topo);
  core::Rng rng(args.seed);
  config::NetworkConfig cfg = net->base;

  std::vector<double> change_ms, query_us, scenario_ms;
  std::vector<double> traced_ms, untraced_ms;  // traced run: changes by mode
  std::vector<double> flushes, fib_delta, splits, moves, affected_ecs, affected_pairs;
  const unsigned pairs = kChangesPerSecond * args.seconds / 2;
  const double cpu0 = cpu_seconds();
  const Stopwatch phase;
  for (unsigned p = 0; p < pairs; ++p) {
    const auto& [device, iface] = uplinks[rng.next_below(uplinks.size())];
    // The traced run traces every other pair and runs the rest untraced;
    // the difference between the two medians is the tracing overhead.
    const bool traced = args.trace && p % 2 == 0;
    for (const std::uint32_t cost : {100u, 1u}) {
      config::set_ospf_cost(cfg, device, iface, cost);
      ++result.attempted;
      ++op;
      double ms = 0;
      try {
        if (traced) {
          const Stopwatch sw;
          StagedReport rep;
          {
            const Scope s(tracer, "change", op);
            rep = staged_apply(*rc, cfg, tracer, op);
          }
          ms = sw.ms();
          traced_ms.push_back(ms);
          flushes.push_back(static_cast<double>(rep.flushes));
          fib_delta.push_back(static_cast<double>(rep.dataplane.fib.size()));
          splits.push_back(static_cast<double>(rep.model.stats.splits));
          moves.push_back(static_cast<double>(rep.model.moves.size()));
          affected_ecs.push_back(static_cast<double>(rep.check.affected_ecs.size()));
          affected_pairs.push_back(static_cast<double>(rep.check.affected_pairs.size()));
        } else {
          const Stopwatch sw;
          rc->apply(cfg);
          ms = sw.ms();
          untraced_ms.push_back(ms);
        }
      } catch (const dd::NonterminationError& e) {
        result.fail(std::string("LC change did not converge: ") + e.what());
        return;  // the verifier is poisoned; nothing after this is valid
      }
      change_ms.push_back(ms);

      Verdicts now;
      {
        const Stopwatch sw;
        std::optional<Scope> s;
        if (traced) s.emplace(tracer, "query", op);
        now = read_verdicts(*rc);
        query_us.push_back(sw.ms() * 1000);
      }
      scenario_ms.push_back(ms + query_us.back() / 1000);

      // Oracles (untimed). A cost change never disconnects a fat tree, and
      // a revert must land exactly on the opened state.
      if (cost != 1) {
        if (!std::all_of(now.policies.begin(), now.policies.end(), [](bool b) { return b; })) {
          result.fail("a policy broke under an LC change on " + device + " " + iface);
        }
      } else if (!(now == open_verdicts) || !(rc->generator().fib() == open_fib)) {
        result.fail("revert on " + device + " " + iface + " did not restore the opened state");
      }
    }
  }
  const double phase_s = phase.ms() / 1000;
  const double cpu_util = (cpu_seconds() - cpu0) / phase_s;
  const double rss_mb = peak_rss_mb();

  if (!(rc->generator().fib() == baseline::simulate(net->topo, cfg).fib)) {
    result.fail("final generator FIB differs from the from-scratch simulation");
  }

  if (!args.trace) {
    result.set("setup_s", median(setup_s));
    result.set("peak_rss_mb", rss_mb);
    result.latency("change", "ms", change_ms);
    result.set("changes_per_s", 1000.0 * static_cast<double>(change_ms.size()) / sum(change_ms));
    result.latency("query", "us", query_us);
    result.latency("scenario", "ms", scenario_ms);
    result.set("scenarios_per_s",
               1000.0 * static_cast<double>(scenario_ms.size()) / sum(scenario_ms));
    return;
  }
  result.set("routing.apply_ms", median(span_ms(tracer, "routing.apply", "change")));
  result.set("dd.flushes", median(flushes));
  result.set("routing.fib_delta", median(fib_delta));
  result.set("routing.share", median(child_share(tracer, "routing.apply", "change")));
  result.set("dpm.apply_ms", median(span_ms(tracer, "dpm.apply", "change")));
  result.set("dpm.splits", median(splits));
  result.set("dpm.moves", median(moves));
  result.set("dpm.ec_count", static_cast<double>(rc->ecs().ec_count()));
  result.set("dpm.bdd_nodes", static_cast<double>(rc->packet_space().live_nodes()));
  result.set("verify.check_ms", median(span_ms(tracer, "verify.check", "change")));
  result.set("verify.affected_ecs", median(affected_ecs));
  result.set("verify.affected_pairs", median(affected_pairs));
  result.set("routing.scratch_ms", median(span_ms(tracer, "routing.apply", "setup")));
  result.set("dpm.scratch_ms", median(span_ms(tracer, "dpm.apply", "setup")));
  result.set("verify.scratch_ms", median(span_ms(tracer, "verify.check", "setup")));
  result.set("change.drift", drift(change_ms));
  result.set("proc.cpu_util", cpu_util);
  result.set("trace.overhead_ms", median(traced_ms) - median(untraced_ms));
  result.set("trace.stage_coverage", lowest(child_coverage(tracer, "change")));
  write_trace(tracer, args);
}

}  // namespace perfbench
