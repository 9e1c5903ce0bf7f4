#include "verify/realconfig.h"

#include <stdexcept>

namespace rcfg::verify {

namespace {
double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
}  // namespace

RealConfig::RealConfig(const topo::Topology& topo, RealConfigOptions options)
    : topo_(topo),
      options_(options),
      generator_(topo, options.generator),
      ecs_(space_),
      model_(space_, ecs_, topo.node_count()),
      checker_(topo, space_, ecs_, model_, CheckerOptions{options.threads}) {
  if (options_.provenance) generator_.set_provenance(true);
}

RealConfig::Report RealConfig::apply(const config::NetworkConfig& cfg) {
  Report report;
  const auto t0 = std::chrono::steady_clock::now();
  report.dataplane = generator_.apply(cfg);  // leaves every stage as it was on a throw
  const auto t1 = std::chrono::steady_clock::now();
  if (options_.provenance) report.changed_devices = generator_.last_changed_devices();
  report.model = model_.apply_batch(report.dataplane, options_.update_order);
  const auto t2 = std::chrono::steady_clock::now();
  report.check = checker_.process(report.model);
  const auto t3 = std::chrono::steady_clock::now();
  report.generate_ms = ms_between(t0, t1);
  report.model_ms = ms_between(t1, t2);
  report.check_ms = ms_between(t2, t3);
  if (options_.reclamation) maybe_reclaim(report);
  report.ec_count = ecs_.ec_count();
  report.bdd_nodes = space_.live_nodes();
  return report;
}

void RealConfig::maybe_reclaim(Report& report) {
  const auto t0 = std::chrono::steady_clock::now();
  Report::Reclamation& r = report.reclaim;
  const std::size_t ecs_now = ecs_.ec_count();
  const std::size_t nodes_now = space_.live_nodes();
  // Merging is only worth attempting after a predicate fully dropped —
  // register_predicate() splits from an already-minimal partition, so
  // growth without drops never creates mergeable atoms.
  const bool merge_due = ecs_.dropped_since_compact() > 0;
  // An interval arena that interned nothing yet has nothing to sweep.
  if (!merge_due && nodes_now == 0) return;
  r.ran = true;
  r.ecs_before = ecs_now;
  r.bdd_before = nodes_now;
  if (merge_due) r.remap = ecs_.compact();
  space_.gc();
  r.ecs_after = ecs_.ec_count();
  r.bdd_after = space_.live_nodes();
  r.reclaim_ms = ms_between(t0, std::chrono::steady_clock::now());
}

std::shared_ptr<const RealConfig::Snapshot> RealConfig::snapshot() const {
  auto snap = std::make_shared<Snapshot>();
  snap->generator = generator_.snapshot();
  snap->space = space_;
  snap->ecs = ecs_.snapshot();
  snap->model = model_.snapshot();
  snap->checker = checker_.snapshot();
  return snap;
}

void RealConfig::restore(const Snapshot& snap) {
  // Order matters only in that the space must be in place before anything
  // that could consult BDDs; everything else is a plain state overwrite.
  space_ = snap.space;
  ecs_.restore(snap.ecs);
  model_.restore(snap.model);
  checker_.restore(snap.checker);
  generator_.restore(snap.generator);
}

std::unique_ptr<RealConfig> RealConfig::fork(const Snapshot& snap) const {
  RealConfigOptions opts = options_;
  opts.threads = 1;  // replicas are driven one-per-thread; no nested pools
  return fork(snap, opts);
}

std::unique_ptr<RealConfig> RealConfig::fork(const Snapshot& snap,
                                             RealConfigOptions opts) const {
  auto replica = std::make_unique<RealConfig>(topo_, opts);
  replica->restore(snap);
  return replica;
}

topo::NodeId RealConfig::node_or_throw(const std::string& name) const {
  const topo::NodeId n = topo_.find_node(name);
  if (n == topo::kInvalidNode) throw std::invalid_argument("unknown node: " + name);
  return n;
}

PolicyId RealConfig::require_reachable(const std::string& src, const std::string& dst,
                                       net::Ipv4Prefix dst_prefix) {
  return checker_.add_reachability(node_or_throw(src), node_or_throw(dst),
                                   space_.dst_prefix(dst_prefix),
                                   src + "->" + dst + " " + dst_prefix.to_string());
}

PolicyId RealConfig::require_isolated(const std::string& src, const std::string& dst,
                                      net::Ipv4Prefix dst_prefix) {
  return checker_.add_isolation(node_or_throw(src), node_or_throw(dst),
                                space_.dst_prefix(dst_prefix),
                                src + "-x->" + dst + " " + dst_prefix.to_string());
}

PolicyId RealConfig::require_waypoint(const std::string& src, const std::string& dst,
                                      const std::string& via, net::Ipv4Prefix dst_prefix) {
  return checker_.add_waypoint(node_or_throw(src), node_or_throw(dst), node_or_throw(via),
                               space_.dst_prefix(dst_prefix),
                               src + "->" + via + "->" + dst + " " + dst_prefix.to_string());
}

}  // namespace rcfg::verify
