// perfbench — the repository benchmark. One workload per process:
//
//   perfbench --workload lc_churn|acl_rw|fail_sweep --seed N --seconds N
//             --trace 0|1 [--k K] [--trace-file PATH]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced pass that gives the per-layer metrics. Every run checks the
// verifier's outputs against oracles; a mismatch is a failed operation.
// The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// The exit code is 0 only when every operation passed its oracle.
//
// Every workload prints the same metric names; a per-layer metric whose
// layer the workload never calls reads 0 (README.md lists which apply).

#include <sched.h>
#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "service/cli.h"
#include "service/json.h"
#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::Result;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},       {"change_p50_ms", "ms"},
    {"change_p90_ms", "ms"},    {"changes_per_s", "1/s"},    {"query_p50_us", "us"},
    {"query_p90_us", "us"},     {"scenario_p50_ms", "ms"},   {"scenario_p90_ms", "ms"},
    {"scenarios_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"routing.apply_ms", "ms"},        {"dd.flushes", "count"},
    {"routing.fib_delta", "rules"},    {"routing.share", "ratio"},
    {"dpm.apply_ms", "ms"},            {"dpm.splits", "count"},
    {"dpm.moves", "count"},            {"dpm.ec_count", "count"},
    {"dpm.bdd_nodes", "count"},        {"verify.check_ms", "ms"},
    {"verify.affected_ecs", "count"},  {"verify.affected_pairs", "count"},
    {"verify.snapshot_ms", "ms"},      {"verify.fork_ms", "ms"},
    {"verify.restore_ms", "ms"},       {"verify.restore_share", "ratio"},
    {"verify.restore_drift", "ratio"}, {"service.propose_ms", "ms"},
    {"service.commit_ms", "ms"},       {"service.abort_ms", "ms"},
    {"service.hop_ms", "ms"},          {"service.parse_request_us", "us"},
    {"service.query_us", "us"},        {"routing.scratch_ms", "ms"},
    {"dpm.scratch_ms", "ms"},          {"verify.scratch_ms", "ms"},
    {"change.drift", "ratio"},         {"proc.cpu_util", "ratio"},
    {"trace.overhead_ms", "ms"},       {"trace.stage_coverage", "ratio"},
};

// Address-space layout randomization moved acl_rw's change_p50_ms by up to
// +-20% between otherwise identical runs on a shared 4-vCPU x86-64 VM; without
// it, runs differ only in their seed. Where the personality call is not
// permitted the benchmark runs randomized, as it is.
void exec_without_aslr(char** argv) {
  const int current = personality(0xffffffff);
  if (current == -1 || (current & ADDR_NO_RANDOMIZE) != 0) return;
  if (personality(static_cast<unsigned long>(current) | ADDR_NO_RANDOMIZE) == -1) return;
  execv("/proc/self/exe", argv);
  std::fprintf(stderr, "perfbench: re-exec without ASLR failed; running randomized\n");
}

// Every workload is one closed-loop client with one thread busy at a time,
// and the vCPUs of a shared VM do not run at one speed: on a 4-vCPU x86-64
// VM the same loop took 0.40 s on one vCPU and 0.79 s on another, and a run
// pinned to one vCPU took on that vCPU's speed for its whole length. So the
// process keeps all its threads on one CPU at a time — each acl_rw handoff
// between the client and the engine's worker is then a same-CPU switch; a
// cross-CPU wake-up's latency varied threefold between runs — and moves
// them together to the next CPU it may use every kPeriod, so every run
// spends the same share of its time on each CPU.
class CpuRotation {
 public:
  static constexpr std::chrono::milliseconds kPeriod{200};

  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
    const auto here = std::find(cpus_.begin(), cpus_.end(), sched_getcpu());
    if (here == cpus_.end()) return;
    next_ = static_cast<std::size_t>(here - cpus_.begin());
    if (!pin_all(cpus_[next_])) {
      std::fprintf(stderr, "perfbench: cannot pin to a CPU; running unpinned\n");
      return;
    }
    if (cpus_.size() > 1) thread_ = std::jthread([this](std::stop_token stop) { run(stop); });
  }

  ~CpuRotation() {
    thread_.request_stop();  // the jthread joins as it is destroyed
  }

 private:
  void run(const std::stop_token& stop) {
    std::mutex m;
    std::condition_variable_any wake;
    std::unique_lock lock(m);
    for (;;) {
      wake.wait_for(lock, stop, kPeriod, [] { return false; });
      if (stop.stop_requested()) return;
      next_ = (next_ + 1) % cpus_.size();
      pin_all(cpus_[next_]);
    }
  }

  /// Every thread of the process, this one included, onto `cpu`. Threads
  /// started since the last move are caught here; one that has exited is
  /// skipped.
  static bool pin_all(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    bool any = false;
    std::error_code ec;
    for (std::filesystem::directory_iterator it("/proc/self/task", ec), end; !ec && it != end;
         it.increment(ec)) {
      const pid_t tid = static_cast<pid_t>(std::stol(it->path().filename().string()));
      any = sched_setaffinity(tid, sizeof set, &set) == 0 || any;
    }
    return any;
  }

  std::vector<int> cpus_;
  std::size_t next_ = 0;
  std::jthread thread_;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload lc_churn|acl_rw|fail_sweep "
               "--seed N --seconds N --trace 0|1 [--k K] [--trace-file PATH]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-') usage(flag + " needs a number");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  std::optional<std::uint64_t> seed;
  std::optional<unsigned> trace;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      seed = parse_u64(flag, value);
    } else if (flag == "--seconds" || flag == "--k") {
      const std::optional<unsigned> n = rcfg::service::parse_count_arg(value.c_str());
      if (!n) usage(flag + " needs a positive count");
      (flag == "--k" ? a.k : a.seconds) = *n;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace is 0 or 1");
      trace = value == "1";
    } else if (flag == "--trace-file") {
      a.trace_file = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !seed || a.seconds == 0 || !trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  a.seed = *seed;
  a.trace = *trace == 1;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  exec_without_aslr(argv);
  const CpuRotation rotation;
  Result result;
  try {
    if (args.workload == "lc_churn") {
      perfbench::run_lc_churn(args, result);
    } else if (args.workload == "acl_rw") {
      perfbench::run_acl_rw(args, result);
    } else if (args.workload == "fail_sweep") {
      perfbench::run_fail_sweep(args, result);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  std::map<std::string, double> measured(result.metrics.begin(), result.metrics.end());
  rcfg::service::json::Value metrics;
  bool complete = true;
  for (const MetricDef& m : args.trace ? std::span<const MetricDef>(kPerLayer)
                                       : std::span<const MetricDef>(kEndToEnd)) {
    auto it = measured.find(m.name);
    if (it == measured.end()) {
      if (!args.trace) complete = false;  // every end-to-end metric is measured
      it = measured.emplace(m.name, 0.0).first;
    }
    rcfg::service::json::Value v;
    v["value"] = rcfg::service::json::Value(it->second);
    v["unit"] = rcfg::service::json::Value(m.unit);
    metrics[m.name] = std::move(v);
  }
  const bool correct = complete && result.failed == 0 && result.attempted > 0;
  std::printf("%s: %llu of %llu %s failed\n", args.workload.c_str(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted), result.op_kind.c_str());

  rcfg::service::json::Value out;
  out["correct"] = rcfg::service::json::Value(correct);
  out["attempted"] = rcfg::service::json::Value(result.attempted);
  out["failed"] = rcfg::service::json::Value(result.failed);
  out["metrics"] = std::move(metrics);
  std::printf("%s\n", out.dump().c_str());
  return correct ? 0 : 1;
}
