#include "relate/relate.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <stdexcept>

namespace rcfg::relate {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

using Pair = std::pair<topo::NodeId, topo::NodeId>;

/// Sorted set difference a \ b (both sorted).
std::vector<Pair> pair_difference(const std::vector<Pair>& a, const std::vector<Pair>& b) {
  std::vector<Pair> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

/// Compare one (base EC, fork EC) ancestry pair; returns the diff record
/// when any observable behaviour differs, nullopt otherwise. Shared by the
/// incremental checker and the brute-force oracle so both produce
/// bit-identical records.
std::optional<EcDiff> diff_one_ec(verify::RealConfig& base, verify::RealConfig& changed,
                                  dpm::EcId base_ec, dpm::EcId changed_ec) {
  EcDiff d;
  d.base_ec = base_ec;
  d.changed_ec = changed_ec;
  const std::size_t devices = base.model().device_count();
  for (topo::NodeId dev = 0; dev < devices; ++dev) {
    const dpm::PortKey& before = base.model().port_of(dev, base_ec);
    const dpm::PortKey& after = changed.model().port_of(dev, changed_ec);
    if (!(before == after)) d.devices.push_back({dev, before, after});
  }
  const std::vector<Pair> before_pairs = base.checker().delivered_pairs(base_ec);
  const std::vector<Pair> after_pairs = changed.checker().delivered_pairs(changed_ec);
  d.pairs_gained = pair_difference(after_pairs, before_pairs);
  d.pairs_lost = pair_difference(before_pairs, after_pairs);
  d.loop_before = base.checker().looping(base_ec);
  d.loop_after = changed.checker().looping(changed_ec);
  d.blackhole_before = base.checker().blackholed(base_ec);
  d.blackhole_after = changed.checker().blackholed(changed_ec);
  const bool differs = !d.devices.empty() || !d.pairs_gained.empty() ||
                       !d.pairs_lost.empty() || d.loop_before != d.loop_after ||
                       d.blackhole_before != d.blackhole_after;
  if (!differs) return std::nullopt;
  d.packets = changed.ecs().ec_bdd(changed_ec);
  const auto assignment = changed.packet_space().pick_one(d.packets);
  if (assignment) d.example = dpm::PacketSpace::flow_of(*assignment);
  return d;
}

}  // namespace

const char* to_string(RelationalSpec::Kind k) {
  switch (k) {
    case RelationalSpec::Kind::kNone: return "none";
    case RelationalSpec::Kind::kOnlyDstIn: return "only_dst_in";
    case RelationalSpec::Kind::kOnlySrcIn: return "only_src_in";
  }
  return "?";
}

RelationalSpec::Kind spec_kind_of(const std::string& s) {
  if (s == "none") return RelationalSpec::Kind::kNone;
  if (s == "only_dst_in") return RelationalSpec::Kind::kOnlyDstIn;
  if (s == "only_src_in") return RelationalSpec::Kind::kOnlySrcIn;
  throw std::invalid_argument("unknown relational spec kind '" + s +
                              "' (expected none | only_dst_in | only_src_in)");
}

std::size_t RelationalDiff::pairs_gained() const {
  std::size_t n = 0;
  for (const EcDiff& d : ecs) n += d.pairs_gained.size();
  return n;
}

std::size_t RelationalDiff::pairs_lost() const {
  std::size_t n = 0;
  for (const EcDiff& d : ecs) n += d.pairs_lost.size();
  return n;
}

std::size_t RelationalDiff::devices_diverged() const {
  std::set<topo::NodeId> devices;
  for (const EcDiff& d : ecs)
    for (const DeviceDivergence& dd : d.devices) devices.insert(dd.device);
  return devices.size();
}

RelationalResult RelationalChecker::check(const config::NetworkConfig& proposed,
                                          const std::vector<RelationalSpec>& specs,
                                          bool witnesses) {
  RelationalResult result;
  const auto t0 = std::chrono::steady_clock::now();
  const auto snap = base_.snapshot();
  const auto t1 = std::chrono::steady_clock::now();
  // The fork must not reclaim: a compact() would renumber fork ECs and
  // could merge across base-EC ancestry boundaries, severing base_of_.
  verify::RealConfigOptions opts = base_.options();
  opts.threads = 1;
  opts.reclamation = false;
  opts.provenance = false;
  changed_ = base_.fork(*snap, opts);
  const auto t2 = std::chrono::steady_clock::now();
  const std::size_t base_count = base_.ecs().ec_count();
  const verify::RealConfig::Report report = changed_->apply(proposed);
  const auto t3 = std::chrono::steady_clock::now();

  // Relate the two partitions: fork ECs below base_count ARE base ECs
  // (the fork's BDD manager started as a copy and reclamation is off);
  // every split child descends from its parent's ancestor.
  base_of_.resize(changed_->ecs().ec_count());
  for (dpm::EcId e = 0; e < base_count; ++e) base_of_[e] = e;
  for (const dpm::EcManager::Split& s : report.model.splits) {
    base_of_.at(s.child) = base_of_.at(s.parent);
  }

  // Only ECs the incremental apply touched can behave differently — the
  // pipeline recomputed exactly their state; everything else kept both its
  // ports and its delivered pairs (split children mirror their parent).
  result.ecs_compared = report.check.affected_ecs.size();
  for (const dpm::EcId e : report.check.affected_ecs) {
    if (auto d = diff_one_ec(base_, *changed_, base_of_.at(e), e)) {
      result.diff.ecs.push_back(std::move(*d));
    }
  }
  std::sort(result.diff.ecs.begin(), result.diff.ecs.end(),
            [](const EcDiff& a, const EcDiff& b) { return a.changed_ec < b.changed_ec; });

  // Evaluate the relational specs against the diff. All set algebra goes
  // through the PacketSpace facade: the fork may be running on interval
  // atoms (d.packets) while an only_src_in spec needs BDDs — the facade
  // migrates and canonicalizes as required.
  dpm::PacketSpace& space = changed_->packet_space();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RelationalSpec& spec = specs[i];
    dpm::BddRef allowed = dpm::kBddFalse;
    for (const net::Ipv4Prefix& p : spec.prefixes) {
      const dpm::BddRef match = spec.kind == RelationalSpec::Kind::kOnlySrcIn
                                    ? space.src_prefix(p)
                                    : space.dst_prefix(p);
      allowed = space.set_or(allowed, match);
    }
    SpecViolation violation;
    violation.spec = i;
    for (const EcDiff& d : result.diff.ecs) {
      const dpm::BddRef escaped = space.set_diff(d.packets, allowed);
      if (escaped == dpm::kBddFalse) continue;  // diff confined to the allowed set
      violation.ecs.push_back(d.changed_ec);
      if (witnesses && !violation.witness) {
        RelationalWitness w;
        const auto assignment = space.pick_one(escaped);
        w.flow = dpm::PacketSpace::flow_of(*assignment);
        w.ingress = !d.pairs_lost.empty()     ? d.pairs_lost.front().first
                    : !d.pairs_gained.empty() ? d.pairs_gained.front().first
                    : !d.devices.empty()      ? d.devices.front().device
                                              : topo::NodeId{0};
        w.before = verify::trace_flow(base_.topology(), base_.model(), w.flow, w.ingress);
        w.after =
            verify::trace_flow(base_.topology(), changed_->model(), w.flow, w.ingress);
        violation.witness = std::move(w);
      }
    }
    if (!violation.ecs.empty()) {
      result.holds = false;
      result.violations.push_back(std::move(violation));
    }
  }

  result.snapshot_ms = ms_between(t0, t1);
  result.fork_ms = ms_between(t1, t2);
  result.apply_ms = ms_between(t2, t3);
  result.diff_ms = ms_between(t3, std::chrono::steady_clock::now());
  return result;
}

RelationalDiff relational_diff_bruteforce(verify::RealConfig& base,
                                          verify::RealConfig& changed,
                                          const std::vector<dpm::EcId>& base_of) {
  RelationalDiff diff;
  const std::size_t ec_count = changed.ecs().ec_count();
  for (dpm::EcId e = 0; e < ec_count; ++e) {
    if (auto d = diff_one_ec(base, changed, base_of.at(e), e)) {
      diff.ecs.push_back(std::move(*d));
    }
  }
  return diff;
}

}  // namespace rcfg::relate
