#include "fixture.h"

#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "config/builders.h"
#include "routing/metrics.h"
#include "stats.h"
#include "topo/generators.h"

namespace perfbench {

using namespace rcfg;

void Result::fail(const std::string& why) {
  ++failed;
  std::fprintf(stderr, "FAILED: %s\n", why.c_str());
}

void Result::set(std::string name, const std::optional<double>& value) {
  if (!value) throw std::runtime_error(name + ": too few samples");
  set(std::move(name), *value);
}

void Result::latency(const std::string& what, const std::string& unit,
                     const std::vector<double>& xs) {
  if (xs.empty()) throw std::runtime_error("no " + what + " samples");
  const std::optional<double> p90 = tail_percentile(xs, 90);
  if (!p90) {
    throw std::runtime_error(what + ": " + std::to_string(xs.size()) +
                             " samples leave fewer than 10 beyond p90");
  }
  set(what + "_p50_" + unit, median(xs));
  set(what + "_p90_" + unit, *p90);
  std::printf("%s: %zu samples\n", what.c_str(), xs.size());
}

std::unique_ptr<Network> make_network(unsigned k) {
  auto net = std::make_unique<Network>();
  net->topo = topo::make_fat_tree(k);
  net->base = config::build_ospf_network(net->topo);
  net->max_rounds = routing::recommended_max_rounds(net->topo);
  return net;
}

const std::vector<std::pair<std::string, std::string>>& policy_pairs() {
  static const std::vector<std::pair<std::string, std::string>> pairs = {
      {"edge0-0", "edge1-0"}, {"edge0-1", "edge2-0"}, {"edge1-0", "edge0-1"},
      {"edge2-1", "edge0-0"}};
  return pairs;
}

std::unique_ptr<verify::RealConfig> make_verifier(const Network& net) {
  verify::RealConfigOptions opts;
  opts.generator.max_rounds = net.max_rounds;
  return std::make_unique<verify::RealConfig>(net.topo, opts);
}

void register_policies(verify::RealConfig& rc, const Network& net) {
  for (const auto& [src, dst] : policy_pairs()) {
    rc.require_reachable(src, dst, config::host_prefix(net.topo.find_node(dst)));
  }
}

StagedReport staged_apply(verify::RealConfig& rc, const config::NetworkConfig& cfg,
                          Tracer& tracer, std::uint64_t op) {
  StagedReport r;
  {
    const Scope s(tracer, "routing.apply", op);
    r.dataplane = rc.generator().apply(cfg);
  }
  r.flushes = rc.generator().last_flushes();
  {
    const Scope s(tracer, "dpm.apply", op);
    r.model = rc.model().apply_batch(r.dataplane, rc.options().update_order);
  }
  {
    const Scope s(tracer, "verify.check", op);
    r.check = rc.checker().process(r.model);
  }
  return r;
}

Verdicts read_verdicts(const verify::RealConfig& rc) {
  Verdicts v;
  const verify::IncrementalChecker& c = rc.checker();
  for (verify::PolicyId id = 0; id < c.policy_count(); ++id) {
    v.policies.push_back(c.policy_satisfied(id));
  }
  v.pairs = c.reachable_pairs().size();
  v.loops = c.loop_count();
  v.blackholes = c.blackhole_count();
  return v;
}

std::vector<std::pair<std::string, std::string>> agg_uplinks(const topo::Topology& topo) {
  std::vector<std::pair<std::string, std::string>> out;
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    if (!topo.node(n).name.starts_with("agg")) continue;
    for (const auto& adj : topo.adjacencies(n)) {
      if (topo.node(adj.peer).name.starts_with("core")) {
        out.emplace_back(topo.node(n).name, topo.iface(adj.iface).name);
      }
    }
  }
  return out;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // 5: reset the peak RSS (Linux >= 4.0)
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

std::vector<double> span_ms(const Tracer& tracer, const std::string& name,
                            const std::string& parent) {
  std::vector<double> out;
  const std::vector<Span>& spans = tracer.spans();
  for (const Span& s : spans) {
    if (s.name != name || s.parent < 0) continue;
    if (spans[static_cast<std::size_t>(s.parent)].name == parent) out.push_back(s.ms());
  }
  return out;
}

std::vector<double> child_share(const Tracer& tracer, const std::string& child,
                                const std::string& parent) {
  std::vector<double> out;
  const std::vector<Span>& spans = tracer.spans();
  for (const Span& s : spans) {
    if (s.name != child || s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (p.name == parent && p.end_ns > p.start_ns) out.push_back(s.ms() / p.ms());
  }
  return out;
}

std::vector<double> child_coverage(const Tracer& tracer, const std::string& name) {
  const std::vector<std::int64_t> self = self_times_ns(tracer.spans());
  std::vector<double> out;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    if (s.name == name && dur > 0) {
      out.push_back(1.0 - static_cast<double>(self[i]) / static_cast<double>(dur));
    }
  }
  return out;
}

void write_trace(const Tracer& tracer, const Args& args) {
  if (args.trace_file.empty()) return;
  std::ofstream out(args.trace_file);
  tracer.write_jsonl(out);
  if (!out) throw std::runtime_error("cannot write trace file " + args.trace_file);
}

}  // namespace perfbench
