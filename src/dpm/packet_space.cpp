#include "dpm/packet_space.h"

#include <algorithm>
#include <utility>

namespace rcfg::dpm {

PacketSpace::PacketSpace() : bdd_(kPacketVars), interval_(kPacketVars) {}

PacketSpace::PacketSpace(const PacketSpace& other)
    : bdd_(other.bdd_),
      interval_(other.interval_),
      migrated_(other.migrated_),
      interval_to_bdd_(other.interval_to_bdd_) {
  // migration_listeners_ deliberately left empty — see the header.
}

PacketSpace& PacketSpace::operator=(const PacketSpace& other) {
  if (this == &other) return *this;
  bdd_ = other.bdd_;
  interval_ = other.interval_;
  migrated_ = other.migrated_;
  interval_to_bdd_ = other.interval_to_bdd_;
  // Own migration_listeners_ kept: a restore rewinds set state, not the
  // subscription topology (the live EcManager stays subscribed to us).
  return *this;
}

void PacketSpace::subscribe_migration(std::function<void()> listener) {
  migration_listeners_.push_back(std::move(listener));
}

void PacketSpace::migrate_to_bdd() {
  if (migrated_) return;
  migrated_ = true;
  // Listeners fire with BDDs already active so they can rekey their tables
  // through canonical().
  for (const auto& listener : migration_listeners_) listener();
}

BddRef PacketSpace::canonical(BddRef r) {
  if (!migrated_ || !is_interval_ref(r)) return r;
  const auto it = interval_to_bdd_.find(r);
  if (it != interval_to_bdd_.end()) return it->second;
  BddRef out = kBddFalse;
  for (const auto& [lo, hi] : interval_.ranges(r)) {
    out = bdd_.bdd_or(out, uint_range(kDstIpBase, 32, static_cast<std::uint32_t>(lo),
                                      static_cast<std::uint32_t>(hi - 1)));
  }
  bdd_.add_ref(out);  // pin: memo entries must survive BddManager::gc()
  interval_to_bdd_.emplace(r, out);
  return out;
}

BddRef PacketSpace::ip_prefix(unsigned base, net::Ipv4Prefix p) {
  std::vector<std::pair<unsigned, bool>> literals;
  literals.reserve(p.length());
  for (unsigned bit = 0; bit < p.length(); ++bit) {
    const bool value = (p.address().bits() >> (31 - bit)) & 1u;
    literals.emplace_back(base + bit, value);
  }
  return bdd_.cube(literals);
}

bool PacketSpace::depends_on(BddRef a, unsigned lo, unsigned hi) {
  const BddRef c = canonical(a);
  if (c == kBddFalse || c == kBddTrue) return false;
  if (!migrated_) {
    // Interval sets are unions of dst-address ranges: a non-trivial handle
    // depends on dst bits and nothing else.
    return lo < kDstIpBase + 32 && hi > kDstIpBase;
  }
  return bdd_.depends_on_range(c, lo, hi);
}

BddRef PacketSpace::dst_prefix(net::Ipv4Prefix p) {
  if (!migrated_) return interval_.dst_prefix(p);
  return ip_prefix(kDstIpBase, p);
}

BddRef PacketSpace::src_prefix(net::Ipv4Prefix p) {
  if (p.length() == 0) return kBddTrue;
  migrate_to_bdd();
  return ip_prefix(kSrcIpBase, p);
}

BddRef PacketSpace::proto(config::IpProto proto) {
  if (proto == config::IpProto::kAny) return kBddTrue;
  migrate_to_bdd();
  switch (proto) {
    case config::IpProto::kAny:
      return kBddTrue;
    case config::IpProto::kTcp:
      return bdd_.cube({{kProtoBase, false}, {kProtoBase + 1, false}});  // 0
    case config::IpProto::kUdp:
      return bdd_.cube({{kProtoBase, false}, {kProtoBase + 1, true}});  // 1
    case config::IpProto::kIcmp:
      return bdd_.cube({{kProtoBase, true}, {kProtoBase + 1, false}});  // 2
  }
  return kBddFalse;
}

BddRef PacketSpace::uint_range(unsigned base, unsigned bits, std::uint32_t lo, std::uint32_t hi) {
  // Recursive interval construction on the bit strings [lo, hi], MSB first.
  // ge(lo) ∧ le(hi) built as two linear-size threshold BDDs.
  auto threshold = [&](std::uint32_t bound, bool greater_equal) {
    // greater_equal: { x | x >= bound }; else { x | x <= bound }.
    BddRef r = kBddTrue;
    for (unsigned i = 0; i < bits; ++i) {
      // Process from LSB to MSB, building bottom-up.
      const unsigned bit = bits - 1 - i;
      const bool b = (bound >> i) & 1u;
      const unsigned v = base + bit;
      if (greater_equal) {
        // bound bit 1: x_bit must be 1 and the suffix >= bound suffix;
        // bound bit 0: x_bit = 1 wins outright, else decide on the suffix.
        r = b ? bdd_.bdd_and(bdd_.var(v), r) : bdd_.bdd_or(bdd_.var(v), r);
      } else {
        r = b ? bdd_.bdd_or(bdd_.nvar(v), r) : bdd_.bdd_and(bdd_.nvar(v), r);
      }
    }
    return r;
  };
  if (lo > hi) return kBddFalse;
  BddRef ge = lo == 0 ? kBddTrue : threshold(lo, true);
  const std::uint32_t max = bits >= 32 ? ~0u : ((1u << bits) - 1);
  BddRef le = hi >= max ? kBddTrue : threshold(hi, false);
  return bdd_.bdd_and(ge, le);
}

BddRef PacketSpace::src_port_range(std::uint16_t lo, std::uint16_t hi) {
  if (lo > hi) return kBddFalse;
  if (lo == 0 && hi == 0xFFFF) return kBddTrue;
  migrate_to_bdd();
  return uint_range(kSrcPortBase, 16, lo, hi);
}

BddRef PacketSpace::dst_port_range(std::uint16_t lo, std::uint16_t hi) {
  if (lo > hi) return kBddFalse;
  if (lo == 0 && hi == 0xFFFF) return kBddTrue;
  migrate_to_bdd();
  return uint_range(kDstPortBase, 16, lo, hi);
}

BddRef PacketSpace::filter_match(const routing::FilterRule& rule) {
  // An ACL filter is a multi-field predicate, the canonical migration
  // trigger (even a dst-only rule migrates: detecting triviality here would
  // make the migration point depend on rule contents, and the differential
  // harness wants it deterministic per feature, not per value).
  migrate_to_bdd();
  BddRef m = dst_prefix(rule.dst);
  m = bdd_.bdd_and(m, src_prefix(rule.src));
  m = bdd_.bdd_and(m, proto(static_cast<config::IpProto>(rule.proto)));
  m = bdd_.bdd_and(m, src_port_range(rule.src_port_lo, rule.src_port_hi));
  m = bdd_.bdd_and(m, dst_port_range(rule.dst_port_lo, rule.dst_port_hi));
  return m;
}

BddRef PacketSpace::acl_permit_set(const std::vector<routing::FilterRule>& rules) {
  migrate_to_bdd();
  BddRef permit = kBddFalse;
  BddRef remaining = kBddTrue;  // packets not matched by earlier rules
  for (const routing::FilterRule& r : rules) {
    const BddRef eff = bdd_.bdd_and(filter_match(r), remaining);
    if (r.permit) permit = bdd_.bdd_or(permit, eff);
    remaining = bdd_.bdd_diff(remaining, eff);
    if (remaining == kBddFalse) break;
  }
  return permit;  // implicit deny for whatever remains
}

net::Ipv4Addr PacketSpace::dst_of(const std::vector<bool>& assignment) {
  std::uint32_t bits = 0;
  for (unsigned i = 0; i < 32; ++i) {
    bits = (bits << 1) | (assignment[kDstIpBase + i] ? 1u : 0u);
  }
  return net::Ipv4Addr{bits};
}

namespace {
std::uint32_t field_of(const std::vector<bool>& assignment, unsigned base, unsigned width) {
  std::uint32_t bits = 0;
  for (unsigned i = 0; i < width; ++i) {
    bits = (bits << 1) | (assignment[base + i] ? 1u : 0u);
  }
  return bits;
}
}  // namespace

config::Flow PacketSpace::flow_of(const std::vector<bool>& assignment) {
  config::Flow flow;
  flow.dst = net::Ipv4Addr{field_of(assignment, kDstIpBase, 32)};
  flow.src = net::Ipv4Addr{field_of(assignment, kSrcIpBase, 32)};
  switch (field_of(assignment, kProtoBase, 2)) {
    case 0: flow.proto = config::IpProto::kTcp; break;
    case 1: flow.proto = config::IpProto::kUdp; break;
    case 2: flow.proto = config::IpProto::kIcmp; break;
    default: flow.proto = config::IpProto::kAny; break;
  }
  flow.src_port = static_cast<std::uint16_t>(field_of(assignment, kSrcPortBase, 16));
  flow.dst_port = static_cast<std::uint16_t>(field_of(assignment, kDstPortBase, 16));
  return flow;
}

}  // namespace rcfg::dpm
