#include "dpm/interval_set.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace rcfg::dpm {

namespace {

/// Canonicalize in place: sort, merge overlapping/adjacent, drop empties.
void canonicalize(std::vector<IntervalAtomBackend::Range>& ranges) {
  ranges.erase(std::remove_if(ranges.begin(), ranges.end(),
                              [](const auto& r) { return r.first >= r.second; }),
               ranges.end());
  std::sort(ranges.begin(), ranges.end());
  std::size_t out = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    if (out > 0 && ranges[i].first <= ranges[out - 1].second) {
      ranges[out - 1].second = std::max(ranges[out - 1].second, ranges[i].second);
    } else {
      ranges[out++] = ranges[i];
    }
  }
  ranges.resize(out);
}

const std::vector<IntervalAtomBackend::Range> kEmptyRanges{};
const std::vector<IntervalAtomBackend::Range> kFullRanges{
    {0, IntervalAtomBackend::kSpaceEnd}};

}  // namespace

std::size_t IntervalAtomBackend::hash_ranges(const std::vector<Range>& ranges) {
  std::size_t seed = ranges.size();
  for (const Range& r : ranges) {
    core::hash_combine(seed, std::hash<std::uint64_t>{}(r.first));
    core::hash_combine(seed, std::hash<std::uint64_t>{}(r.second));
  }
  return seed;
}

const IntervalAtomBackend::Entry& IntervalAtomBackend::entry(BddRef h) const {
  assert(is_interval_ref(h));
  return sets_.at(h & ~kIntervalTag);
}

const std::vector<IntervalAtomBackend::Range>& IntervalAtomBackend::ranges(BddRef h) const {
  if (h == kBddFalse) return kEmptyRanges;
  if (h == kBddTrue) return kFullRanges;
  if (!is_interval_ref(h)) {
    throw std::logic_error("IntervalAtomBackend::ranges: not an interval handle");
  }
  return entry(h).ranges;
}

BddRef IntervalAtomBackend::from_ranges(std::vector<Range> in) {
  canonicalize(in);
  if (in.empty()) return kBddFalse;
  if (in.size() == 1 && in[0].first == 0 && in[0].second == kSpaceEnd) return kBddTrue;
  const std::size_t h = hash_ranges(in);
  std::vector<BddRef>& bucket = index_[h];
  for (const BddRef cand : bucket) {
    if (entry(cand).ranges == in) return cand;  // hash-cons hit
  }
  const BddRef handle = static_cast<BddRef>(sets_.size()) | kIntervalTag;
  sets_.push_back(Entry{std::move(in), 0});
  bucket.push_back(handle);
  return handle;
}

BddRef IntervalAtomBackend::dst_prefix(net::Ipv4Prefix p) {
  const std::uint64_t lo = p.address().bits();
  const std::uint64_t width = std::uint64_t{1} << (32 - p.length());
  return from_ranges({{lo, lo + width}});
}

namespace {

/// Boundary sweep: the union of both boundary arrays cuts the space into
/// segments of constant (in_a, in_b) membership; emit the segments where
/// `keep(in_a, in_b)` holds, coalescing adjacent ones. Outside every input
/// range both memberships are false and keep(false, false) is false for
/// every supported operation, so only segments between cut points matter.
template <class Keep>
std::vector<IntervalAtomBackend::Range> sweep(
    const std::vector<IntervalAtomBackend::Range>& a,
    const std::vector<IntervalAtomBackend::Range>& b, Keep keep) {
  std::vector<std::uint64_t> cuts;
  cuts.reserve(2 * (a.size() + b.size()));
  for (const auto& r : a) {
    cuts.push_back(r.first);
    cuts.push_back(r.second);
  }
  for (const auto& r : b) {
    cuts.push_back(r.first);
    cuts.push_back(r.second);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<IntervalAtomBackend::Range> out;
  std::size_t ia = 0, ib = 0;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const std::uint64_t lo = cuts[i], hi = cuts[i + 1];
    while (ia < a.size() && a[ia].second <= lo) ++ia;
    while (ib < b.size() && b[ib].second <= lo) ++ib;
    const bool in_a = ia < a.size() && a[ia].first <= lo;
    const bool in_b = ib < b.size() && b[ib].first <= lo;
    if (!keep(in_a, in_b)) continue;
    if (!out.empty() && out.back().second == lo) {
      out.back().second = hi;  // coalesce adjacent segments
    } else {
      out.push_back({lo, hi});
    }
  }
  return out;
}

}  // namespace

BddRef IntervalAtomBackend::set_and(BddRef a, BddRef b) {
  if (a == kBddFalse || b == kBddFalse) return kBddFalse;
  if (a == kBddTrue) return b;
  if (b == kBddTrue) return a;
  if (a == b) return a;
  return from_ranges(sweep(ranges(a), ranges(b), [](bool x, bool y) { return x && y; }));
}

BddRef IntervalAtomBackend::set_or(BddRef a, BddRef b) {
  if (a == kBddTrue || b == kBddTrue) return kBddTrue;
  if (a == kBddFalse) return b;
  if (b == kBddFalse) return a;
  if (a == b) return a;
  return from_ranges(sweep(ranges(a), ranges(b), [](bool x, bool y) { return x || y; }));
}

BddRef IntervalAtomBackend::set_diff(BddRef a, BddRef b) {
  if (a == kBddFalse || b == kBddTrue) return kBddFalse;
  if (b == kBddFalse) return a;
  if (a == b) return kBddFalse;
  return from_ranges(sweep(ranges(a), ranges(b), [](bool x, bool y) { return x && !y; }));
}

BddRef IntervalAtomBackend::set_xor(BddRef a, BddRef b) {
  if (a == kBddFalse) return b;
  if (b == kBddFalse) return a;
  if (a == b) return kBddFalse;
  return from_ranges(sweep(ranges(a), ranges(b), [](bool x, bool y) { return x != y; }));
}

BddRef IntervalAtomBackend::set_not(BddRef a) {
  if (a == kBddFalse) return kBddTrue;
  if (a == kBddTrue) return kBddFalse;
  return from_ranges(sweep(kFullRanges, ranges(a), [](bool x, bool y) { return x && !y; }));
}

bool IntervalAtomBackend::disjoint(BddRef a, BddRef b) {
  if (a == kBddFalse || b == kBddFalse) return true;
  if (a == kBddTrue || b == kBddTrue) return false;  // operands are nonempty
  if (a == b) return false;
  const std::vector<Range>& ra = ranges(a);
  const std::vector<Range>& rb = ranges(b);
  std::size_t ia = 0, ib = 0;
  while (ia < ra.size() && ib < rb.size()) {
    if (ra[ia].second <= rb[ib].first) {
      ++ia;
    } else if (rb[ib].second <= ra[ia].first) {
      ++ib;
    } else {
      return false;  // overlap
    }
  }
  return true;
}

bool IntervalAtomBackend::implies(BddRef a, BddRef b) {
  if (a == kBddFalse || b == kBddTrue) return true;
  if (b == kBddFalse) return false;  // a is nonempty
  if (a == kBddTrue) return false;   // b is a proper subset of the space
  if (a == b) return true;
  const std::vector<Range>& ra = ranges(a);
  const std::vector<Range>& rb = ranges(b);
  std::size_t ib = 0;
  for (const Range& r : ra) {
    while (ib < rb.size() && rb[ib].second <= r.first) ++ib;
    // Canonical sets have coalesced ranges, so one b-range must cover the
    // whole a-range (coverage can never be stitched across a gap).
    if (ib >= rb.size() || rb[ib].first > r.first || rb[ib].second < r.second) return false;
  }
  return true;
}

void IntervalAtomBackend::add_ref(BddRef a) noexcept {
  if (!is_interval_ref(a)) return;  // terminals need no pin
  ++sets_[a & ~kIntervalTag].refs;
}

void IntervalAtomBackend::release(BddRef a) noexcept {
  if (!is_interval_ref(a)) return;
  Entry& e = sets_[a & ~kIntervalTag];
  assert(e.refs > 0 && "IntervalAtomBackend::release without matching add_ref");
  if (e.refs > 0) --e.refs;
}

std::uint32_t IntervalAtomBackend::ref_count(BddRef a) const noexcept {
  if (!is_interval_ref(a)) return 0;
  return sets_[a & ~kIntervalTag].refs;
}

std::uint64_t IntervalAtomBackend::address_count(BddRef a) const {
  if (a == kBddFalse) return 0;
  if (a == kBddTrue) return kSpaceEnd;
  std::uint64_t n = 0;
  for (const Range& r : entry(a).ranges) n += r.second - r.first;
  return n;
}

double IntervalAtomBackend::sat_count(BddRef a) {
  // addresses * 2^(non-dst variables); exact in double (the address count
  // fits 33 bits and the scale is a power of two), so it compares equal to
  // the BDD backend's count for any destination-only set.
  return std::ldexp(static_cast<double>(address_count(a)),
                    static_cast<int>(var_count_) - 32);
}

std::optional<std::vector<bool>> IntervalAtomBackend::pick_one(BddRef a) const {
  if (a == kBddFalse) return std::nullopt;
  std::vector<bool> out(var_count_, false);
  if (a == kBddTrue) return out;  // minimal member: address 0, all else 0
  const std::uint64_t addr = entry(a).ranges.front().first;
  for (unsigned bit = 0; bit < 32; ++bit) {
    out[bit] = ((addr >> (31 - bit)) & 1u) != 0;  // dst bits are vars [0, 32)
  }
  return out;
}

}  // namespace rcfg::dpm
