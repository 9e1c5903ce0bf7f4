// Micro-benchmarks for the incremental dataflow engine: operator costs and
// the incremental-vs-from-scratch gap at the engine level (supporting
// evidence for the Table 2 mechanism).

#include <benchmark/benchmark.h>

#include "core/rng.h"
#include "dd/operators.h"

using namespace rcfg;
using dd::Graph;
using dd::Input;
using dd::Join;
using dd::Map;
using dd::Output;
using dd::Reduce;
using dd::ZSet;

namespace {

using KV = std::pair<int, int>;

void BM_ZSetAdd(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ZSet<int> z;
    for (int i = 0; i < n; ++i) z.add(i, 1);
    benchmark::DoNotOptimize(z.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ZSetAdd)->Arg(1000)->Arg(100000);

void BM_ZSetMerge(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ZSet<int> a, b;
  for (int i = 0; i < n; ++i) {
    a.add(i, 1);
    b.add(i + n / 2, 1);
  }
  for (auto _ : state) {
    ZSet<int> c = a;
    c.merge(b);
    benchmark::DoNotOptimize(c.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ZSetMerge)->Arg(10000);

/// Join delta cost: arrangement size fixed, delta size varies.
void BM_JoinDelta(benchmark::State& state) {
  const int base = 100000;
  const int delta = static_cast<int>(state.range(0));
  Graph g;
  auto& left = g.make<Input<KV>>();
  auto& right = g.make<Input<KV>>();
  auto& join = g.make<Join<int, int, int, long>>(
      left.out, right.out,
      [](const int& k, const int& a, const int& b) { return long{k} + a + b; });
  auto& out = g.make<Output<long>>(join.out);
  core::Rng rng{1};
  for (int i = 0; i < base; ++i) {
    left.insert({i % 1000, i});
    right.insert({i % 1000, -i});
  }
  g.commit();
  int tick = 0;
  for (auto _ : state) {
    for (int i = 0; i < delta; ++i) {
      left.insert({static_cast<int>(rng.next_below(1000)), base + (++tick)});
    }
    g.commit();
    benchmark::DoNotOptimize(out.current().size());
  }
  state.SetItemsProcessed(state.iterations() * delta);
}
BENCHMARK(BM_JoinDelta)->Arg(1)->Arg(10)->Arg(100);

/// Reduce re-evaluates only touched groups: cost of one touched group among
/// many.
void BM_ReduceSingleGroupTouch(benchmark::State& state) {
  const int groups = static_cast<int>(state.range(0));
  Graph g;
  auto& in = g.make<Input<KV>>();
  auto& red = g.make<Reduce<int, int, KV>>(
      in.out, [](const int& k, const ZSet<int>& group, std::vector<KV>& out) {
        int best = INT32_MAX;
        for (const auto& [v, w] : group) best = std::min(best, v);
        out.push_back({k, best});
      });
  auto& out = g.make<Output<KV>>(red.out);
  for (int k = 0; k < groups; ++k) {
    for (int v = 0; v < 8; ++v) in.insert({k, v * 100});
  }
  g.commit();
  int tick = 0;
  for (auto _ : state) {
    const int k = (++tick) % groups;
    in.insert({k, -tick});
    g.commit();
    benchmark::DoNotOptimize(out.current().size());
  }
}
BENCHMARK(BM_ReduceSingleGroupTouch)->Arg(1000)->Arg(100000);

/// End-to-end engine comparison on a recursive reachability program:
/// re-converging after one edge change vs computing from scratch.
struct ReachProgram {
  Graph graph;
  Input<std::pair<int, int>>* edges;
  Output<int>* reachable;

  ReachProgram() {
    using Edge = std::pair<int, int>;
    using Path = std::vector<int>;
    edges = &graph.make<Input<Edge>>("edges");
    auto& sources = graph.make<Input<int>>("sources");
    auto& paths = graph.make<dd::Concat<Path>>("paths");
    auto& seed =
        graph.make<Map<int, Path>>(sources.out, [](const int& s) { return Path{s}; });
    paths.add_input(seed.out);
    auto& keyed_paths = graph.make<Map<Path, std::pair<int, Path>>>(
        paths.out, [](const Path& p) { return std::pair<int, Path>{p.back(), p}; });
    auto& keyed_edges = graph.make<Map<Edge, std::pair<int, int>>>(
        edges->out, [](const Edge& e) { return std::pair<int, int>{e.first, e.second}; });
    auto& ext = graph.make<Join<int, Path, int, Path>>(
        keyed_paths.out, keyed_edges.out, [](const int&, const Path& p, const int& to) {
          Path q = p;
          q.push_back(to);
          return q;
        });
    auto& ok = graph.make<dd::Filter<Path>>(ext.out, [](const Path& p) {
      return std::find(p.begin(), p.end() - 1, p.back()) == p.end() - 1;
    });
    paths.add_input(ok.out);
    auto& heads = graph.make<Map<Path, std::pair<int, int>>>(
        paths.out, [](const Path& p) { return std::pair<int, int>{p.back(), 0}; });
    auto& nodes = graph.make<Reduce<int, int, int>>(
        heads.out,
        [](const int& head, const ZSet<int>&, std::vector<int>& out) { out.push_back(head); });
    reachable = &graph.make<Output<int>>(nodes.out);
    sources.insert(0);
  }
};

// Mind the shape: with a skip edge at EVERY node the loop-free path count
// grows like Fibonacci(n) and the enumeration explodes. Redundancy every
// 8th node keeps the path count at 2^(n/8).
void add_chainy_edges(Input<std::pair<int, int>>& edges, int n) {
  for (int i = 0; i + 1 < n; ++i) {
    edges.insert({i, i + 1});
    if (i % 8 == 0 && i + 2 < n) edges.insert({i, i + 2});
  }
}

void BM_RecursiveIncrementalEdgeFlip(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ReachProgram p;
  add_chainy_edges(*p.edges, n);
  p.graph.commit();
  // Flip the final chain edge: a local change (only the last node's
  // reachability derivations are touched), the incremental sweet spot.
  for (auto _ : state) {
    p.edges->remove({n - 2, n - 1});
    p.graph.commit();
    p.edges->insert({n - 2, n - 1});
    p.graph.commit();
    benchmark::DoNotOptimize(p.reachable->current().size());
  }
}
BENCHMARK(BM_RecursiveIncrementalEdgeFlip)->Arg(64);

void BM_RecursiveFromScratch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ReachProgram p;
    add_chainy_edges(*p.edges, n);
    p.graph.commit();
    benchmark::DoNotOptimize(p.reachable->current().size());
  }
}
BENCHMARK(BM_RecursiveFromScratch)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
