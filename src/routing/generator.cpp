#include "routing/generator.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>

#include "routing/semantics.h"

namespace rcfg::routing {

namespace {

using namespace rcfg::dd;

/// Reduce key: (node, prefix).
using Key = std::pair<topo::NodeId, net::Ipv4Prefix>;

/// FIB candidate packed as a hashable tuple: (ad, metric, action, egress).
using Cand = std::tuple<std::uint32_t, std::uint32_t, std::uint8_t, topo::IfaceId>;

Cand pack(const FibCandidate& c) {
  return Cand{c.ad, c.metric, static_cast<std::uint8_t>(c.action), c.egress};
}

FibCandidate unpack(const Cand& c) {
  return FibCandidate{std::get<0>(c), std::get<1>(c), static_cast<FibAction>(std::get<2>(c)),
                      std::get<3>(c)};
}

/// A route keyed by its node: the shape every Join over best routes reads.
template <class Route>
using ByNode = std::pair<topo::NodeId, Route>;

template <class Route>
std::pair<Key, Route> keyed(const Route& r) {
  return {{r.node, r.prefix}, r};
}

/// A FIB candidate from a fact or a route, keyed by (node, prefix).
template <class T>
std::pair<Key, Cand> keyed_candidate(const T& t) {
  return {{t.node, t.prefix}, pack(candidate_of(t))};
}

std::uint32_t metric_of(const OspfRoute& r) { return r.cost; }
std::uint32_t metric_of(const RipRoute& r) { return r.metric; }

/// OSPF/RIP selection: every minimum-metric candidate (the ECMP set).
template <class Route>
void min_metric_select(const Key& key, const ZSet<Route>& group,
                       std::vector<ByNode<Route>>& out) {
  std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
  for (const auto& [r, w] : group) best = std::min(best, metric_of(r));
  for (const auto& [r, w] : group) {
    if (metric_of(r) == best) out.emplace_back(key.first, r);
  }
}

/// BGP decision process: single deterministic winner.
void bgp_select(const Key& key, const ZSet<BgpRoute>& group,
                std::vector<ByNode<BgpRoute>>& out) {
  const BgpRoute* best = nullptr;
  for (const auto& [r, w] : group) {
    if (best == nullptr || bgp_better(r, *best)) best = &r;
  }
  if (best != nullptr) out.emplace_back(key.first, *best);
}

/// One protocol's round-stratified chain plus its plumbing handles.
template <class Route>
struct Chain {
  Concat<Route>* origins = nullptr;            ///< extra origins can be wired in later
  Stream<ByNode<Route>>* best = nullptr;       ///< best_R, keyed by node
  Stream<ByNode<Route>>* conv_diff = nullptr;  ///< best_R - best_{R-1}
};

/// Builds: origins -> best_0 -> [extend ⋈ links -> best_r]*R plus the
/// convergence diff. Each round is one Join, which extends best_{r-1} over
/// the links (`extend` returns the propagated route or nullopt) and keys it
/// by (node, prefix), and one Reduce, which runs the protocol's `select`
/// over the origins and that Join and emits its winners keyed by node for
/// the next round's Join.
template <class Route, class LinkFact, class Select, class Extend>
Chain<Route> build_chain(Graph& g, const std::string& proto, Stream<LinkFact>& links,
                         unsigned rounds, Select select, Extend extend) {
  using Best = Reduce<Key, Route, ByNode<Route>>;
  Chain<Route> chain;
  chain.origins = &g.make<Concat<Route>>(proto + ".origins");
  auto& origins_keyed = g.make<Map<Route, std::pair<Key, Route>>>(
      chain.origins->out, keyed<Route>, proto + ".origins_keyed");
  auto& links_by_from = g.make<Map<LinkFact, std::pair<topo::NodeId, LinkFact>>>(
      links, [](const LinkFact& f) { return std::pair<topo::NodeId, LinkFact>{f.from, f}; },
      proto + ".links_by_from");

  Best* prev = &g.make<Best>(origins_keyed.out, select, proto + ".best_r0");
  Best* prev_prev = nullptr;
  for (unsigned r = 1; r <= rounds; ++r) {
    const std::string tag = proto + ".r" + std::to_string(r);
    auto& ext = g.make<Join<topo::NodeId, Route, LinkFact, std::pair<Key, Route>>>(
        prev->out, links_by_from.out,
        [extend](const topo::NodeId&, const Route& rt,
                 const LinkFact& l) -> std::optional<std::pair<Key, Route>> {
          const std::optional<Route> next = extend(rt, l);
          if (!next) return std::nullopt;
          return keyed(*next);
        },
        tag + ".extend");
    auto& best = g.make<Best>(origins_keyed.out, select, tag + ".best");
    best.add_input(ext.out);
    prev_prev = prev;
    prev = &best;
  }
  chain.best = &prev->out;

  auto& neg = g.make<Negate<ByNode<Route>>>(prev_prev->out, proto + ".conv_neg");
  auto& diff = g.make<Concat<ByNode<Route>>>(proto + ".conv_diff");
  diff.add_input(prev->out);
  diff.add_input(neg.out);
  chain.conv_diff = &diff.out;
  return chain;
}

/// Wires dynamic redistribution: native best routes of `from_best` are
/// converted (per matching facts at the same node) and added to the target
/// protocol's origins. `convert(prefix, egress, fact)` returns the target
/// route or nullopt.
template <class FromRoute, class ToRoute, class Convert>
void wire_redist(Graph& g, const std::string& name, Stream<ByNode<FromRoute>>& from_best,
                 Stream<std::pair<topo::NodeId, DynRedistFact>>& redist_by_node, Proto from,
                 Proto to, Concat<ToRoute>& to_origins, Convert convert) {
  auto& native = g.make<Filter<ByNode<FromRoute>>>(
      from_best, [](const ByNode<FromRoute>& kv) { return kv.second.tag == kTagNative; },
      name + ".native");
  auto& direction = g.make<Filter<std::pair<topo::NodeId, DynRedistFact>>>(
      redist_by_node,
      [from, to](const std::pair<topo::NodeId, DynRedistFact>& kv) {
        return kv.second.from == from && kv.second.to == to;
      },
      name + ".direction");
  auto& join = g.make<Join<topo::NodeId, FromRoute, DynRedistFact, ToRoute>>(
      native.out, direction.out,
      [convert](const topo::NodeId&, const FromRoute& r, const DynRedistFact& f) {
        return convert(r.prefix, r.egress, f);
      },
      name + ".convert");
  to_origins.add_input(join.out);
}

}  // namespace

std::size_t DataPlaneDelta::insertions() const {
  std::size_t n = 0;
  for (const auto& [e, w] : fib) {
    if (w > 0) ++n;
  }
  for (const auto& [e, w] : filters) {
    if (w > 0) ++n;
  }
  return n;
}

std::size_t DataPlaneDelta::deletions() const {
  std::size_t n = 0;
  for (const auto& [e, w] : fib) {
    if (w < 0) ++n;
  }
  for (const auto& [e, w] : filters) {
    if (w < 0) ++n;
  }
  return n;
}

IncrementalGenerator::IncrementalGenerator(const topo::Topology& topo, GeneratorOptions options)
    : topo_(topo), options_(options) {
  if (options_.max_rounds < 2) options_.max_rounds = 2;
  build_program();
  empty_ = graph_.snapshot();
}

void IncrementalGenerator::build_program() {
  const unsigned rounds = options_.max_rounds;

  // ---- input relations ----------------------------------------------------
  in_ospf_links_ = &graph_.make<Input<OspfLinkFact>>("in.ospf_links");
  in_ospf_origins_ = &graph_.make<Input<OspfOriginFact>>("in.ospf_origins");
  in_bgp_sessions_ = &graph_.make<Input<BgpSessionFact>>("in.bgp_sessions");
  in_bgp_origins_ = &graph_.make<Input<BgpOriginFact>>("in.bgp_origins");
  in_bgp_aggregates_ = &graph_.make<Input<BgpAggregateFact>>("in.bgp_aggregates");
  in_rip_links_ = &graph_.make<Input<RipLinkFact>>("in.rip_links");
  in_rip_origins_ = &graph_.make<Input<RipOriginFact>>("in.rip_origins");
  in_redist_ = &graph_.make<Input<DynRedistFact>>("in.redist");
  in_statics_ = &graph_.make<Input<StaticFact>>("in.statics");
  in_connected_ = &graph_.make<Input<ConnectedFact>>("in.connected");

  // ---- protocol chains -----------------------------------------------------
  Chain<OspfRoute> ospf = build_chain<OspfRoute, OspfLinkFact>(
      graph_, "ospf", in_ospf_links_->out, rounds, min_metric_select<OspfRoute>, extend_ospf);
  auto& ospf_fact_origins = graph_.make<Map<OspfOriginFact, OspfRoute>>(
      in_ospf_origins_->out, [](const OspfOriginFact& f) { return make_ospf_origin(f); },
      "ospf.fact_origins");
  ospf.origins->add_input(ospf_fact_origins.out);

  Chain<BgpRoute> bgp = build_chain<BgpRoute, BgpSessionFact>(
      graph_, "bgp", in_bgp_sessions_->out, rounds, bgp_select, extend_bgp);
  auto& bgp_fact_origins = graph_.make<Map<BgpOriginFact, BgpRoute>>(
      in_bgp_origins_->out, [](const BgpOriginFact& f) { return make_bgp_origin(f); },
      "bgp.fact_origins");
  bgp.origins->add_input(bgp_fact_origins.out);

  // RIP's horizon bounds convergence at 15 rounds regardless of topology.
  const unsigned rip_rounds = std::min(rounds, config::kRipInfinity - 1);
  Chain<RipRoute> rip = build_chain<RipRoute, RipLinkFact>(
      graph_, "rip", in_rip_links_->out, rip_rounds, min_metric_select<RipRoute>, extend_rip);
  auto& rip_fact_origins = graph_.make<Map<RipOriginFact, RipRoute>>(
      in_rip_origins_->out, [](const RipOriginFact& f) { return make_rip_origin(f); },
      "rip.fact_origins");
  rip.origins->add_input(rip_fact_origins.out);

  ospf_conv_ = &graph_.make<Output<ByNode<OspfRoute>>>(*ospf.conv_diff, "ospf.conv");
  bgp_conv_ = &graph_.make<Output<ByNode<BgpRoute>>>(*bgp.conv_diff, "bgp.conv");
  rip_conv_ = &graph_.make<Output<ByNode<RipRoute>>>(*rip.conv_diff, "rip.conv");

  // ---- BGP route aggregation --------------------------------------------------
  // An aggregate is originated while any strictly more-specific route sits
  // in the node's BGP table. Each contributor derives the same aggregate
  // tuple, so Z-set weights count the contributors: the aggregate retracts
  // exactly when the last contributor withdraws. Aggregates may contribute
  // to wider aggregates; containment keeps such chains finite.
  {
    auto& agg_by_node = graph_.make<Map<BgpAggregateFact, std::pair<topo::NodeId, BgpAggregateFact>>>(
        in_bgp_aggregates_->out,
        [](const BgpAggregateFact& f) {
          return std::pair<topo::NodeId, BgpAggregateFact>{f.node, f};
        },
        "agg.by_node");
    auto& contrib = graph_.make<Join<topo::NodeId, BgpRoute, BgpAggregateFact, BgpRoute>>(
        *bgp.best, agg_by_node.out,
        [](const topo::NodeId&, const BgpRoute& r,
           const BgpAggregateFact& f) -> std::optional<BgpRoute> {
          if (!contributes_to_aggregate(r, f)) return std::nullopt;
          return make_bgp_aggregate(f);
        },
        "agg.contrib");
    bgp.origins->add_input(contrib.out);
  }

  // ---- dynamic redistribution: the full protocol triangle --------------------
  auto& redist_by_node = graph_.make<Map<DynRedistFact, std::pair<topo::NodeId, DynRedistFact>>>(
      in_redist_->out,
      [](const DynRedistFact& f) { return std::pair<topo::NodeId, DynRedistFact>{f.node, f}; },
      "redist.by_node");

  wire_redist(graph_, "redist.ospf2bgp", *ospf.best, redist_by_node.out, Proto::kOspf,
              Proto::kBgp, *bgp.origins, make_redist_bgp);
  wire_redist(graph_, "redist.ospf2rip", *ospf.best, redist_by_node.out, Proto::kOspf,
              Proto::kRip, *rip.origins, make_redist_rip);
  wire_redist(graph_, "redist.bgp2ospf", *bgp.best, redist_by_node.out, Proto::kBgp,
              Proto::kOspf, *ospf.origins, make_redist_ospf);
  wire_redist(graph_, "redist.bgp2rip", *bgp.best, redist_by_node.out, Proto::kBgp, Proto::kRip,
              *rip.origins, make_redist_rip);
  wire_redist(graph_, "redist.rip2ospf", *rip.best, redist_by_node.out, Proto::kRip,
              Proto::kOspf, *ospf.origins, make_redist_ospf);
  wire_redist(graph_, "redist.rip2bgp", *rip.best, redist_by_node.out, Proto::kRip, Proto::kBgp,
              *bgp.origins, make_redist_bgp);

  // ---- FIB selection -----------------------------------------------------------
  auto& cand_connected = graph_.make<Map<ConnectedFact, std::pair<Key, Cand>>>(
      in_connected_->out, keyed_candidate<ConnectedFact>, "fib.cand_connected");
  auto& cand_static = graph_.make<Map<StaticFact, std::pair<Key, Cand>>>(
      in_statics_->out, keyed_candidate<StaticFact>, "fib.cand_static");
  auto& cand_ospf = graph_.make<Map<ByNode<OspfRoute>, std::pair<Key, Cand>>>(
      *ospf.best, [](const ByNode<OspfRoute>& kv) { return keyed_candidate(kv.second); },
      "fib.cand_ospf");
  auto& cand_bgp = graph_.make<Map<ByNode<BgpRoute>, std::pair<Key, Cand>>>(
      *bgp.best, [](const ByNode<BgpRoute>& kv) { return keyed_candidate(kv.second); },
      "fib.cand_bgp");
  auto& cand_rip = graph_.make<Map<ByNode<RipRoute>, std::pair<Key, Cand>>>(
      *rip.best, [](const ByNode<RipRoute>& kv) { return keyed_candidate(kv.second); },
      "fib.cand_rip");

  auto& fib = graph_.make<Reduce<Key, Cand, FibEntry>>(
      cand_connected.out,
      [](const Key& key, const ZSet<Cand>& group, std::vector<FibEntry>& out) {
        std::vector<FibCandidate> cands;
        cands.reserve(group.size());
        for (const auto& [c, w] : group) cands.push_back(unpack(c));
        out.push_back(select_fib(key.first, key.second, cands));
      },
      "fib.select");
  fib.add_input(cand_static.out);
  fib.add_input(cand_ospf.out);
  fib.add_input(cand_bgp.out);
  fib.add_input(cand_rip.out);
  fib_out_ = &graph_.make<Output<FibEntry>>(fib.out, "fib.out");
}

void IncrementalGenerator::set_provenance(bool on) {
  provenance_ = on;
  if (!on) changed_devices_.clear();
}

namespace {

/// Collect the device endpoints of every fact in the symmetric difference
/// of two relation snapshots. `endpoints` projects one fact to its nodes.
template <typename T, typename Fn>
void changed_endpoints(const dd::ZSet<T>& now, const dd::ZSet<T>& before, Fn endpoints,
                       std::vector<topo::NodeId>& out) {
  for (const auto& [fact, weight] : dd::ZSet<T>::difference(now, before)) {
    (void)weight;
    endpoints(fact, out);
  }
}

}  // namespace

void IncrementalGenerator::record_changed_devices_(const FactSnapshot& facts) {
  changed_devices_.clear();
  if (facts_ != nullptr) {
    const FactSnapshot& prev = *facts_;
    auto node = [](const auto& f, std::vector<topo::NodeId>& out) { out.push_back(f.node); };
    auto edge = [](const auto& f, std::vector<topo::NodeId>& out) {
      out.push_back(f.from);
      out.push_back(f.to);
    };
    changed_endpoints(facts.ospf_links, prev.ospf_links, edge, changed_devices_);
    changed_endpoints(facts.ospf_origins, prev.ospf_origins, node, changed_devices_);
    changed_endpoints(facts.bgp_sessions, prev.bgp_sessions, edge, changed_devices_);
    changed_endpoints(facts.bgp_origins, prev.bgp_origins, node, changed_devices_);
    changed_endpoints(facts.bgp_aggregates, prev.bgp_aggregates, node, changed_devices_);
    changed_endpoints(facts.rip_links, prev.rip_links, edge, changed_devices_);
    changed_endpoints(facts.rip_origins, prev.rip_origins, node, changed_devices_);
    changed_endpoints(facts.redist, prev.redist, node, changed_devices_);
    changed_endpoints(facts.statics, prev.statics, node, changed_devices_);
    changed_endpoints(facts.connected, prev.connected, node, changed_devices_);
    std::sort(changed_devices_.begin(), changed_devices_.end());
    changed_devices_.erase(std::unique(changed_devices_.begin(), changed_devices_.end()),
                           changed_devices_.end());
  }
}

IncrementalGenerator::Snapshot IncrementalGenerator::snapshot() const {
  return Snapshot{graph_.snapshot(), filters_, facts_};
}

void IncrementalGenerator::restore(const Snapshot& snap) {
  graph_.restore(snap.graph);
  filters_ = snap.filters;
  facts_ = snap.facts;
  changed_devices_.clear();
}

void IncrementalGenerator::load_(const FactSnapshot& facts) {
  in_ospf_links_->set_to(facts.ospf_links);
  in_ospf_origins_->set_to(facts.ospf_origins);
  in_bgp_sessions_->set_to(facts.bgp_sessions);
  in_bgp_origins_->set_to(facts.bgp_origins);
  in_bgp_aggregates_->set_to(facts.bgp_aggregates);
  in_rip_links_->set_to(facts.rip_links);
  in_rip_origins_->set_to(facts.rip_origins);
  in_redist_->set_to(facts.redist);
  in_statics_->set_to(facts.statics);
  in_connected_->set_to(facts.connected);
  graph_.commit();
}

bool IncrementalGenerator::converged_() {
  // Keep the sinks' delta accumulators from growing unboundedly.
  (void)ospf_conv_->take_delta();
  (void)bgp_conv_->take_delta();
  (void)rip_conv_->take_delta();
  return ospf_conv_->current().empty() && bgp_conv_->current().empty() &&
         rip_conv_->current().empty();
}

void IncrementalGenerator::revert_(bool commit_threw) {
  static const FactSnapshot kNoFacts;
  if (commit_threw) graph_.restore(empty_);
  load_(facts_ != nullptr ? *facts_ : kNoFacts);
  (void)converged_();
  (void)fib_out_->take_delta();
}

DataPlaneDelta IncrementalGenerator::apply(const config::NetworkConfig& cfg) {
  auto facts = std::make_shared<const FactSnapshot>(compile_facts(topo_, cfg));
  // The program's fixpoint is a function of its inputs alone (its only
  // feedback edges, redistribution of native routes and aggregation into
  // strictly wider prefixes, cannot sustain a route by themselves), so
  // committing the last converged facts again returns every operator to
  // the state it held before this call, in O(change).
  try {
    load_(*facts);
  } catch (const dd::NonterminationError&) {
    revert_(true);
    throw;
  }
  if (!converged_()) {
    revert_(false);
    throw dd::NonterminationError(
        "route computation did not converge within " + std::to_string(options_.max_rounds) +
        " rounds: either raise GeneratorOptions::max_rounds (long minimal paths) or the "
        "control plane oscillates with no stable state (paper §6, e.g. a BGP dispute wheel)");
  }
  if (provenance_) record_changed_devices_(*facts);
  facts_ = std::move(facts);

  DataPlaneDelta delta;
  delta.fib = fib_out_->take_delta();

  // Filter rules: straight extraction + diff, no simulation involved.
  dd::ZSet<FilterRule> new_filters = extract_filter_rules(topo_, cfg);
  delta.filters = dd::ZSet<FilterRule>::difference(new_filters, filters_);
  filters_ = std::move(new_filters);

  return delta;
}

std::string to_string(const FibEntry& e) {
  std::string out = "node=" + std::to_string(e.node) + " " + e.prefix.to_string() + " -> ";
  switch (e.action) {
    case FibAction::kDeliver:
      out += "deliver";
      break;
    case FibAction::kDrop:
      out += "drop";
      break;
    case FibAction::kForward: {
      out += "ifaces[";
      for (std::size_t i = 0; i < e.out_ifaces.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(e.out_ifaces[i]);
      }
      out += "]";
      break;
    }
  }
  return out;
}

}  // namespace rcfg::routing
