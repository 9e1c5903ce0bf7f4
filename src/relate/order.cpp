#include "relate/order.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <stdexcept>
#include <unordered_set>

#include "dd/graph.h"

namespace rcfg::relate {

namespace {
double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t bit(std::size_t i) { return std::uint64_t{1} << i; }
}  // namespace

OrderResult UpdateOrderSynthesizer::synthesize(const std::vector<UpdateStep>& steps,
                                               const OrderOptions& options) {
  OrderResult result;
  const std::size_t n = steps.size();
  if (n == 0) {
    result.found = true;  // nothing to roll out
    return result;
  }
  if (n > 64) {
    throw std::invalid_argument(
        "order synthesis supports at most 64 steps (bitmask memo width)");
  }
  // Disjointness is what makes placed-set memoisation sound: when no two
  // steps touch the same device, placements commute and the intermediate
  // state depends only on the placed SET.
  std::map<std::string, std::size_t> owner;
  for (std::size_t i = 0; i < n; ++i) {
    if (steps[i].patch.devices.empty()) {
      throw std::invalid_argument("step '" + steps[i].name + "' has an empty patch");
    }
    for (const auto& [device, cfg] : steps[i].patch.devices) {
      if (base_cfg_.devices.find(device) == base_cfg_.devices.end()) {
        throw std::invalid_argument("step '" + steps[i].name +
                                    "' touches unknown device '" + device + "'");
      }
      const auto [it, inserted] = owner.emplace(device, i);
      if (!inserted) {
        throw std::invalid_argument("steps '" + steps[it->second].name + "' and '" +
                                    steps[i].name + "' both touch device '" + device +
                                    "' — update steps must be pairwise disjoint");
      }
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto base_snap = base_.snapshot();
  // One scratch replica serves the whole search; reclamation off so EC ids
  // stay stable across the restore/apply churn, single-threaded so the
  // synthesizer composes with sharded callers.
  verify::RealConfigOptions opts = base_.options();
  opts.threads = 1;
  opts.reclamation = false;
  opts.provenance = false;
  std::unique_ptr<verify::RealConfig> replica = base_.fork(*base_snap, opts);
  result.snapshot_ms = ms_between(t0, std::chrono::steady_clock::now());
  const auto t1 = std::chrono::steady_clock::now();

  // Safety = every policy that holds at base keeps holding at every prefix.
  std::vector<verify::PolicyId> watched;
  for (verify::PolicyId id = 0; id < base_.checker().policy_count(); ++id) {
    if (base_.checker().policy_satisfied(id)) watched.push_back(id);
  }

  const auto compose = [&](std::uint64_t mask) {
    config::NetworkConfig cfg = base_cfg_;
    for (std::size_t i = 0; i < n; ++i) {
      if (!(mask & bit(i))) continue;
      for (const auto& [device, dev_cfg] : steps[i].patch.devices) {
        cfg.devices[device] = dev_cfg;
      }
    }
    return cfg;
  };

  // Per-depth checkpoints of the scratch replica: snaps[d] is the state
  // with the first d steps of the current candidate order placed, so a
  // backtrack is a restore, never a rebuild.
  std::vector<std::shared_ptr<const verify::RealConfig::Snapshot>> snaps(n + 1);
  snaps[0] = base_snap;

  // Placements that failed, keyed by (placed set, step) — valid across
  // exclusion runs because the state reached by a placed set is unique.
  std::map<std::pair<std::uint64_t, std::size_t>, StepVerdict> failed_tests;
  // Placed sets from which no completion exists — relative to the current
  // allowed set, so cleared between exclusion runs.
  std::unordered_set<std::uint64_t> failed_sets;
  bool budget_exhausted = false;

  // Place `s` on top of the placed set `mask` (replica checkpointed at
  // snaps[depth]) and verify. On success the replica is left in the new
  // state; on failure its state is dirty and the next test restores first.
  const auto test = [&](std::uint64_t mask, std::size_t s, std::size_t depth,
                        StepVerdict& verdict) {
    verdict = StepVerdict{};
    verdict.step = s;
    if (result.explored >= options.max_explored) {
      budget_exhausted = true;
      return false;
    }
    ++result.explored;
    replica->restore(*snaps[depth]);
    ++result.restores;
    try {
      const verify::RealConfig::Report report = replica->apply(compose(mask | bit(s)));
      verdict.affected_ecs = report.check.affected_ecs.size();
      verdict.apply_ms = report.total_ms();
    } catch (const dd::NonterminationError&) {
      verdict.converged = false;  // the diverged apply left the replica unchanged
      return false;
    }
    for (const verify::PolicyId id : watched) {
      if (!replica->checker().policy_satisfied(id)) verdict.violated.push_back(id);
    }
    return verdict.violated.empty();
  };

  std::uint64_t allowed = n == 64 ? ~std::uint64_t{0} : bit(n) - 1;
  const std::function<bool(std::uint64_t, std::size_t)> dfs =
      [&](std::uint64_t mask, std::size_t depth) -> bool {
    if (mask == allowed) return true;
    if (budget_exhausted || failed_sets.count(mask)) return false;
    for (std::size_t s = 0; s < n; ++s) {
      if (!(allowed & bit(s)) || (mask & bit(s))) continue;
      if (failed_tests.count({mask, s})) continue;
      StepVerdict verdict;
      if (test(mask, s, depth, verdict)) {
        result.order.push_back(s);
        result.verdicts.push_back(verdict);
        snaps[depth + 1] = replica->snapshot();
        if (dfs(mask | bit(s), depth + 1)) return true;
        result.order.pop_back();
        result.verdicts.pop_back();
      } else if (!budget_exhausted) {
        failed_tests.emplace(std::make_pair(mask, s), verdict);
      }
    }
    if (!budget_exhausted) failed_sets.insert(mask);
    return false;
  };

  result.found = dfs(0, 0);

  if (!result.found && !budget_exhausted) {
    // Minimal blocking subset: the smallest exclusion that unblocks the
    // rest. Sizes are tried in increasing order, subsets in lexicographic
    // index order, so the answer is deterministic and provably minimal.
    const std::size_t cap = std::min(options.max_blocking, n);
    std::vector<std::size_t> subset;
    const std::function<bool(std::size_t, std::size_t, std::uint64_t)> exclude =
        [&](std::size_t next, std::size_t remaining, std::uint64_t excluded) -> bool {
      if (remaining == 0) {
        result.order.clear();
        result.verdicts.clear();
        failed_sets.clear();
        allowed = (n == 64 ? ~std::uint64_t{0} : bit(n) - 1) & ~excluded;
        if (!dfs(0, 0)) return false;
        result.blocking = subset;
        return true;
      }
      for (std::size_t s = next; s + remaining <= n; ++s) {
        subset.push_back(s);
        if (exclude(s + 1, remaining - 1, excluded | bit(s))) return true;
        subset.pop_back();
      }
      return false;
    };
    for (std::size_t size = 1; size <= cap && !budget_exhausted; ++size) {
      if (exclude(0, size, 0)) {
        result.found = true;
        result.blocking_minimal = !budget_exhausted;
        break;
      }
    }
    if (!result.found) {
      result.order.clear();
      result.verdicts.clear();
    }
  }

  result.search_ms = ms_between(t1, std::chrono::steady_clock::now());
  return result;
}

}  // namespace rcfg::relate
