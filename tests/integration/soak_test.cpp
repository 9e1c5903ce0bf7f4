// Long-lived-session soak: one verifier, hundreds of insert/withdraw
// batches, eager online reclamation — the scenario the memory-reclamation
// work exists for. The test asserts the *bounded growth* contract directly:
//
//   * after every withdraw batch the partition returns to its baseline size
//     (EC residue does not accumulate across rounds);
//   * the live BDD node count stays pinned below a fixed high-water mark
//     observed early in the run (the arena stops growing once the working
//     set stabilizes);
//   * pair-level semantics keep matching a non-reclaiming control lane.
//
// Runs under the "soak" ctest label, excluded from tier-1 by default:
//   ctest -L soak                 # ~optimized: a few seconds
//   SOAK_ROUNDS=500 ctest -L soak # wider sweep
// The ASan recipe runs this label with detect_leaks=1, so every BddRef pin
// and EC root taken during churn must be released on the way down.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "config/builders.h"
#include "core/rng.h"
#include "topo/generators.h"
#include "verify/realconfig.h"

namespace rcfg {
namespace {

unsigned soak_rounds() {
  const char* v = std::getenv("SOAK_ROUNDS");
  if (v == nullptr || *v == '\0') return 120;
  const long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<unsigned>(parsed) : 120;
}

net::Ipv4Prefix churn_prefix(unsigned round, unsigned i) {
  // Cycle through 64 distinct /24s so later rounds re-register prefixes GC
  // already swept — exercising the free-slot recycling path, not just growth.
  const unsigned slot = (round * 4 + i) % 64;
  return net::Ipv4Prefix{
      net::Ipv4Addr{192, 168, static_cast<std::uint8_t>(slot), 0}, 24};
}

TEST(Soak, LongChurnHoldsMemoryFlat) {
  const unsigned rounds = soak_rounds();
  const topo::Topology t = topo::make_fat_tree(4);
  const config::NetworkConfig base = config::build_ospf_network(t);

  verify::RealConfigOptions eager;
  eager.reclamation = true;
  verify::RealConfig reclaiming(t, eager);
  verify::RealConfig control(t);
  reclaiming.apply(base);
  control.apply(base);

  const std::size_t baseline_ecs = reclaiming.ecs().ec_count();
  // High-water mark taken after one full warm-up round (below).
  std::size_t bdd_high_water = 0;

  core::Rng rng{0x50A10001ULL};
  config::NetworkConfig cfg = base;
  for (unsigned round = 0; round < rounds; ++round) {
    SCOPED_TRACE("soak round " + std::to_string(round));
    // Spread the churn over a random edge device each round.
    const std::string dev = "edge" + std::to_string(rng.next_below(2)) + "-" +
                            std::to_string(rng.next_below(2));
    auto& routes = cfg.devices.at(dev).static_routes;
    for (unsigned i = 0; i < 4; ++i) {
      routes.push_back({churn_prefix(round, i), config::kNullInterface});
    }
    reclaiming.apply(cfg);
    control.apply(cfg);
    ASSERT_EQ(reclaiming.checker().reachable_pairs(), control.checker().reachable_pairs());

    routes.clear();
    reclaiming.apply(cfg);
    control.apply(cfg);
    ASSERT_EQ(reclaiming.checker().reachable_pairs(), control.checker().reachable_pairs());

    // Bounded growth: partition back to baseline, BDD arena below the mark.
    ASSERT_EQ(reclaiming.ecs().ec_count(), baseline_ecs);
    const std::size_t live = reclaiming.packet_space().bdd().node_count();
    if (round == 0) {
      bdd_high_water = live * 2;  // generous: growth must *stop*, round 0 sets scale
    } else {
      ASSERT_LT(live, bdd_high_water);
    }
  }

  // The whole churn history collapses to the final configuration's state.
  verify::RealConfig fresh(t);
  fresh.apply(cfg);
  EXPECT_EQ(reclaiming.ecs().ec_count(), fresh.ecs().ec_count());
  EXPECT_EQ(reclaiming.checker().reachable_pairs(), fresh.checker().reachable_pairs());
  EXPECT_EQ(reclaiming.checker().loop_count(), fresh.checker().loop_count());
  EXPECT_EQ(reclaiming.checker().blackhole_count(), fresh.checker().blackhole_count());
}

}  // namespace
}  // namespace rcfg
