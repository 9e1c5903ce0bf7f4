#pragma once

// What the three workloads share: the network they run on, the staged
// (per-layer) pipeline pass, verdict reads, process counters, and the
// result every run prints.

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "config/types.h"
#include "routing/generator.h"
#include "topo/topology.h"
#include "trace.h"
#include "verify/realconfig.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  /// Sets the operation count (count = rate x seconds, the rate calibrated
  /// so a k=8 run measures roughly this long); the count, not a clock,
  /// ends the run, so every run with these arguments does the same work.
  unsigned seconds = 0;
  bool trace = false;
  unsigned k = 8;          ///< fat-tree parameter; the smoke tests use 4
  std::string trace_file;  ///< where the traced pass writes its spans ("" = nowhere)
};

/// Set-ups per run: setup_s is their median, so one descheduled set-up
/// does not move it. The traced pass does not report setup_s and sets up
/// once.
inline int setups(const Args& args) { return args.trace ? 1 : 2; }

/// One run's outcome: operation accounting plus named metrics.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string op_kind;  ///< what `attempted` counts ("changes", "scenarios", ...)
  std::vector<std::pair<std::string, double>> metrics;

  void set(std::string name, double value) { metrics.emplace_back(std::move(name), value); }
  /// As set(), for a statistic that needs more samples than the run had
  /// (the run then fails instead of printing a made-up value).
  void set(std::string name, const std::optional<double>& value);
  /// Count one failed operation and say why on stderr.
  void fail(const std::string& why);
  /// Set <what>_p50_<unit> and <what>_p90_<unit>; a p90 with fewer than ten
  /// samples beyond it is refused (the run fails).
  void latency(const std::string& what, const std::string& unit, const std::vector<double>& xs);
};

/// The network every workload runs on: a fat tree with single-area OSPF.
struct Network {
  rcfg::topo::Topology topo;
  rcfg::config::NetworkConfig base;
  unsigned max_rounds = 0;
};
std::unique_ptr<Network> make_network(unsigned k);

/// The four reachability policies (src, dst), each over dst's host prefix.
const std::vector<std::pair<std::string, std::string>>& policy_pairs();

/// A verifier over `net` with the network's round budget, policies not yet
/// registered.
std::unique_ptr<rcfg::verify::RealConfig> make_verifier(const Network& net);
void register_policies(rcfg::verify::RealConfig& rc, const Network& net);

/// The three stage calls RealConfig::apply makes, one by one, each inside
/// its own span: routing.apply, dpm.apply, verify.check.
struct StagedReport {
  rcfg::routing::DataPlaneDelta dataplane;
  rcfg::dpm::ModelDelta model;
  rcfg::verify::CheckResult check;
  std::uint64_t flushes = 0;
};
StagedReport staged_apply(rcfg::verify::RealConfig& rc, const rcfg::config::NetworkConfig& cfg,
                          Tracer& tracer, std::uint64_t op);

/// What a client reads after a change: every policy verdict and the
/// reachable-pair, loop and blackhole counts.
struct Verdicts {
  std::vector<bool> policies;
  std::size_t pairs = 0, loops = 0, blackholes = 0;
  friend bool operator==(const Verdicts&, const Verdicts&) = default;
};
Verdicts read_verdicts(const rcfg::verify::RealConfig& rc);

/// Each agg->core uplink as (device, interface): where the LC change lands.
std::vector<std::pair<std::string, std::string>> agg_uplinks(const rcfg::topo::Topology& topo);

class Stopwatch {
 public:
  double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

/// Open a fresh peak-RSS window: hand freed heap back to the OS, then reset
/// the kernel's resident high-water mark to the current RSS. Called before
/// the last set-up, so earlier set-ups' garbage does not count.
void reset_peak_rss();
/// Resident high-water mark (MiB) since the last reset_peak_rss().
double peak_rss_mb();
/// User plus system CPU time of the whole process, all threads.
double cpu_seconds();

/// Durations (ms) of the spans named `name` whose parent is named `parent`.
std::vector<double> span_ms(const Tracer& tracer, const std::string& name,
                            const std::string& parent);
/// Per span named `child` under a span named `parent`: child / parent.
std::vector<double> child_share(const Tracer& tracer, const std::string& child,
                                const std::string& parent);
/// Per span named `name`: the share of it that its child spans cover.
std::vector<double> child_coverage(const Tracer& tracer, const std::string& name);
/// Write the tracer's spans to args.trace_file, if one was given.
void write_trace(const Tracer& tracer, const Args& args);

}  // namespace perfbench
