// Micro-benchmarks for the data plane model substrate: BDD operations,
// atomic-predicate (EC) maintenance cost as predicates accumulate, and the
// per-rule model update — the T1 mechanism behind Table 3.

#include <benchmark/benchmark.h>

#include "config/builders.h"
#include "core/rng.h"
#include "dpm/ec.h"
#include "dpm/model.h"

using namespace rcfg;

namespace {

net::Ipv4Prefix random_prefix(core::Rng& rng, int lo, int hi) {
  const auto len = static_cast<std::uint8_t>(rng.next_in(lo, hi));
  return net::Ipv4Prefix{net::Ipv4Addr{static_cast<std::uint32_t>(rng.next())}, len};
}

/// Benchmarks taking a backend argument run head-to-head: arg 0 moves the
/// space onto BDDs at construction, arg 1 leaves it on the interval-atom
/// arena, where these dst-prefix-only workloads stay (bench_backend records
/// the aggregate churn ratio in BENCH_backend.json).
dpm::PacketSpace space_for(std::int64_t arg) {
  dpm::PacketSpace space;
  if (arg == 0) space.migrate_to_bdd();
  return space;
}

void BM_PrefixEncode(benchmark::State& state) {
  dpm::PacketSpace space = space_for(state.range(0));
  core::Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.dst_prefix(random_prefix(rng, 8, 32)));
  }
}
BENCHMARK(BM_PrefixEncode)->ArgNames({"backend"})->Arg(0)->Arg(1);

void BM_BddAndOr(benchmark::State& state) {
  dpm::PacketSpace space = space_for(0);
  core::Rng rng{2};
  std::vector<dpm::BddRef> pool;
  for (int i = 0; i < 256; ++i) pool.push_back(space.dst_prefix(random_prefix(rng, 6, 20)));
  std::size_t i = 0;
  for (auto _ : state) {
    const dpm::BddRef a = pool[i % pool.size()];
    const dpm::BddRef b = pool[(i * 7 + 3) % pool.size()];
    benchmark::DoNotOptimize(space.bdd().bdd_or(space.bdd().bdd_and(a, b), a));
    ++i;
  }
}
BENCHMARK(BM_BddAndOr);

/// Registering the Nth predicate: atoms scale with distinct prefixes, so
/// the scan cost grows — the reason APKeep keeps the EC set minimal.
void BM_EcRegisterNthPredicate(benchmark::State& state) {
  const int existing = static_cast<int>(state.range(0));
  dpm::PacketSpace space = space_for(state.range(1));
  dpm::EcManager ecs(space);
  core::Rng rng{3};
  for (int i = 0; i < existing; ++i) {
    ecs.register_predicate(space.dst_prefix(config::host_prefix(static_cast<topo::NodeId>(i))));
  }
  for (auto _ : state) {
    state.PauseTiming();
    const dpm::BddRef p = space.dst_prefix(random_prefix(rng, 10, 28));
    state.ResumeTiming();
    benchmark::DoNotOptimize(ecs.register_predicate(p));
  }
  state.counters["atoms"] = static_cast<double>(ecs.ec_count());
}
BENCHMARK(BM_EcRegisterNthPredicate)
    ->ArgNames({"existing", "backend"})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({512, 0})
    ->Args({512, 1});

void BM_EcsInScan(benchmark::State& state) {
  const int atoms = static_cast<int>(state.range(0));
  dpm::PacketSpace space = space_for(state.range(1));
  dpm::EcManager ecs(space);
  for (int i = 0; i < atoms; ++i) {
    ecs.register_predicate(space.dst_prefix(config::host_prefix(static_cast<topo::NodeId>(i))));
  }
  const dpm::BddRef probe = space.dst_prefix(config::host_prefix(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecs.ecs_in(probe));
  }
  state.SetItemsProcessed(state.iterations() * ecs.ec_count());
}
BENCHMARK(BM_EcsInScan)
    ->ArgNames({"atoms", "backend"})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({1024, 0})
    ->Args({1024, 1});

void BM_AclPermitSetCompile(benchmark::State& state) {
  const int rules = static_cast<int>(state.range(0));
  dpm::PacketSpace space = space_for(0);
  core::Rng rng{4};
  std::vector<routing::FilterRule> acl;
  for (int i = 0; i < rules; ++i) {
    routing::FilterRule r;
    r.priority = static_cast<std::uint32_t>(i);
    r.permit = rng.next_bool(0.7);
    r.dst = random_prefix(rng, 12, 24);
    if (rng.next_bool(0.5)) r.proto = static_cast<std::uint8_t>(config::IpProto::kTcp);
    if (rng.next_bool(0.3)) {
      const auto port = static_cast<std::uint16_t>(rng.next_in(1, 1024));
      r.dst_port_lo = r.dst_port_hi = port;
    }
    acl.push_back(r);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.acl_permit_set(acl));
  }
}
BENCHMARK(BM_AclPermitSetCompile)->Arg(10)->Arg(100);

/// One FIB rule update against a realistically sized model (the paper's
/// "update time is less than 10 ms" granularity, per single rule).
void BM_ModelSingleRuleUpdate(benchmark::State& state) {
  const unsigned devices = 64;
  const unsigned prefixes = 256;
  dpm::PacketSpace space = space_for(0);
  dpm::EcManager ecs(space);
  dpm::NetworkModel model(space, ecs, devices);
  routing::DataPlaneDelta init;
  for (unsigned d = 0; d < devices; ++d) {
    for (unsigned p = 0; p < prefixes; ++p) {
      routing::FibEntry e;
      e.node = d;
      e.prefix = config::host_prefix(p);
      e.action = routing::FibAction::kForward;
      e.out_ifaces = {static_cast<topo::IfaceId>(p % 4)};
      init.fib.add(e, 1);
    }
  }
  model.apply_batch(init, dpm::UpdateOrder::kInsertFirst);

  bool flip = false;
  for (auto _ : state) {
    routing::DataPlaneDelta d;
    routing::FibEntry old_rule;
    old_rule.node = 7;
    old_rule.prefix = config::host_prefix(13);
    old_rule.action = routing::FibAction::kForward;
    old_rule.out_ifaces = {flip ? 9u : 13u % 4u};
    routing::FibEntry new_rule = old_rule;
    new_rule.out_ifaces = {flip ? 13u % 4u : 9u};
    d.fib.add(old_rule, -1);
    d.fib.add(new_rule, 1);
    flip = !flip;
    benchmark::DoNotOptimize(model.apply_batch(d, dpm::UpdateOrder::kInsertFirst));
  }
}
BENCHMARK(BM_ModelSingleRuleUpdate);

}  // namespace

BENCHMARK_MAIN();
