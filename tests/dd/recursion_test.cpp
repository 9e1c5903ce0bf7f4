// Recursive (feedback) dataflow tests: the engine's contract for recursion
// is that derivations must be *well-founded* — each derived tuple carries a
// strictly-growing bounded measure (here: a loop-free path), exactly like
// the route tuples in rcfg::routing. Under that contract, insertions AND
// deletions converge to the unique fixpoint. The tests also exercise the
// divergence detectors on a deliberately oscillating program (paper §6).

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>
#include <vector>

#include "core/rng.h"
#include "dd/operators.h"

namespace rcfg::dd {
namespace {

using Edge = std::pair<int, int>;
using Path = std::vector<int>;  // nodes visited, starting at the source

/// Reachability-with-paths program: reach(path) holds for every loop-free
/// path from `source`. Reachable nodes = path heads grouped by head, one
/// output per non-empty group (set semantics through Reduce).
struct ReachProgram {
  Graph graph;
  Input<int>* sources = nullptr;
  Input<Edge>* edges = nullptr;
  Output<int>* reachable = nullptr;

  ReachProgram() {
    sources = &graph.make<Input<int>>("sources");
    edges = &graph.make<Input<Edge>>("edges");

    auto& paths = graph.make<Concat<Path>>("paths");
    auto& seed = graph.make<Map<int, Path>>(sources->out,
                                            [](const int& s) { return Path{s}; }, "seed");
    paths.add_input(seed.out);

    // Key paths by their last node, join with edges keyed by tail.
    auto& keyed_paths = graph.make<Map<Path, std::pair<int, Path>>>(
        paths.out, [](const Path& p) { return std::pair<int, Path>{p.back(), p}; },
        "key_paths");
    auto& keyed_edges = graph.make<Map<Edge, std::pair<int, int>>>(
        edges->out, [](const Edge& e) { return std::pair<int, int>{e.first, e.second}; },
        "key_edges");
    auto& extended = graph.make<Join<int, Path, int, Path>>(
        keyed_paths.out, keyed_edges.out,
        [](const int&, const Path& p, const int& to) {
          Path q = p;
          q.push_back(to);
          return q;
        },
        "extend");
    // Loop check: drop any path that revisits a node. This is what makes
    // the recursion well-founded and deletion-safe.
    auto& loop_free = graph.make<Filter<Path>>(
        extended.out,
        [](const Path& p) {
          return std::find(p.begin(), p.end() - 1, p.back()) == p.end() - 1;
        },
        "loop_check");
    paths.add_input(loop_free.out);

    auto& heads = graph.make<Map<Path, std::pair<int, int>>>(
        paths.out, [](const Path& p) { return std::pair<int, int>{p.back(), 0}; }, "heads");
    auto& nodes = graph.make<Reduce<int, int, int>>(
        heads.out, [](const int& head, const ZSet<int>&, std::vector<int>& out) {
          out.push_back(head);
        },
        "distinct_nodes");
    reachable = &graph.make<Output<int>>(nodes.out, "reachable");
  }
};

std::set<int> bfs(const std::set<Edge>& edges, int source) {
  std::set<int> seen{source};
  std::queue<int> q;
  q.push(source);
  while (!q.empty()) {
    const int n = q.front();
    q.pop();
    for (const Edge& e : edges) {
      if (e.first == n && !seen.contains(e.second)) {
        seen.insert(e.second);
        q.push(e.second);
      }
    }
  }
  return seen;
}

std::set<int> current_nodes(const Output<int>& out) {
  std::set<int> s;
  for (const auto& [n, w] : out.current()) {
    EXPECT_EQ(w, 1);
    s.insert(n);
  }
  return s;
}

TEST(Recursion, ReachabilityOnDag) {
  ReachProgram p;
  p.sources->insert(0);
  for (const Edge& e : {Edge{0, 1}, Edge{1, 2}, Edge{0, 2}, Edge{3, 4}}) p.edges->insert(e);
  p.graph.commit();
  EXPECT_EQ(current_nodes(*p.reachable), (std::set<int>{0, 1, 2}));
}

TEST(Recursion, InsertionExtendsReachability) {
  ReachProgram p;
  p.sources->insert(0);
  p.edges->insert({0, 1});
  p.graph.commit();
  EXPECT_EQ(current_nodes(*p.reachable), (std::set<int>{0, 1}));

  p.edges->insert({1, 2});
  p.graph.commit();
  EXPECT_EQ(current_nodes(*p.reachable), (std::set<int>{0, 1, 2}));
}

TEST(Recursion, DeletionThroughCycleIsCorrect) {
  // The classic incremental-view-maintenance trap: 1->2->3->1 is a cycle
  // that could "self-support" reachability after the entry edge 0->1 is
  // deleted. Path well-foundedness prevents that.
  ReachProgram p;
  p.sources->insert(0);
  for (const Edge& e : {Edge{0, 1}, Edge{1, 2}, Edge{2, 3}, Edge{3, 1}}) p.edges->insert(e);
  p.graph.commit();
  EXPECT_EQ(current_nodes(*p.reachable), (std::set<int>{0, 1, 2, 3}));

  p.edges->remove({0, 1});
  p.graph.commit();
  EXPECT_EQ(current_nodes(*p.reachable), (std::set<int>{0}));
}

TEST(Recursion, AlternativePathSurvivesDeletion) {
  ReachProgram p;
  p.sources->insert(0);
  for (const Edge& e : {Edge{0, 1}, Edge{0, 2}, Edge{2, 1}, Edge{1, 3}}) p.edges->insert(e);
  p.graph.commit();
  EXPECT_EQ(current_nodes(*p.reachable), (std::set<int>{0, 1, 2, 3}));

  p.edges->remove({0, 1});  // 1 still reachable via 2
  p.graph.commit();
  EXPECT_EQ(current_nodes(*p.reachable), (std::set<int>{0, 1, 2, 3}));
}

TEST(Recursion, MultipleSources) {
  ReachProgram p;
  p.sources->insert(0);
  p.sources->insert(5);
  p.edges->insert({5, 6});
  p.edges->insert({0, 1});
  p.graph.commit();
  EXPECT_EQ(current_nodes(*p.reachable), (std::set<int>{0, 1, 5, 6}));

  p.sources->remove(5);
  p.graph.commit();
  EXPECT_EQ(current_nodes(*p.reachable), (std::set<int>{0, 1}));
}

/// Property: random edit sequences against a BFS oracle, on dense little
/// graphs full of cycles.
TEST(RecursionProperty, RandomEditsMatchBfsOracle) {
  core::Rng rng{77};
  constexpr int kNodes = 8;

  for (int trial = 0; trial < 5; ++trial) {
    ReachProgram p;
    p.sources->insert(0);
    std::set<Edge> edges;

    for (int step = 0; step < 60; ++step) {
      const Edge e{static_cast<int>(rng.next_below(kNodes)),
                   static_cast<int>(rng.next_below(kNodes))};
      if (e.first == e.second) continue;
      if (edges.contains(e)) {
        if (rng.next_bool(0.5)) {
          edges.erase(e);
          p.edges->remove(e);
        }
      } else {
        edges.insert(e);
        p.edges->insert(e);
      }
      if (rng.next_bool(0.25)) {
        p.graph.commit();
        EXPECT_EQ(current_nodes(*p.reachable), bfs(edges, 0))
            << "trial " << trial << " step " << step;
      }
    }
    p.graph.commit();
    EXPECT_EQ(current_nodes(*p.reachable), bfs(edges, 0));
  }
}

// ---------------------------------------------------------------------------
// Divergence detection (paper §6)
// ---------------------------------------------------------------------------

/// A deliberately ill-founded program: a reduce whose output flips a marker
/// tuple on and off through a feedback edge, mimicking a BGP configuration
/// with no stable converged state.
struct OscillatorProgram {
  Graph graph;
  Input<std::pair<int, int>>* seed = nullptr;

  OscillatorProgram() {
    seed = &graph.make<Input<std::pair<int, int>>>("seed");
    auto& hub = graph.make<Concat<std::pair<int, int>>>("hub");
    hub.add_input(seed->out);
    auto& flip = graph.make<Reduce<int, int, std::pair<int, int>>>(
        hub.out,
        [](const int& k, const ZSet<int>& group, std::vector<std::pair<int, int>>& out) {
          // If the marker (1) is present, emit nothing (retract it);
          // if absent, emit it. No fixpoint exists.
          if (group.weight(1) <= 0) out.push_back({k, 1});
        },
        "flip");
    hub.add_input(flip.out);
  }
};

TEST(Divergence, FlushBudgetExceededThrows) {
  OscillatorProgram p;
  p.graph.set_flush_budget(10'000);
  p.graph.set_recurrence_threshold(0);  // force the plain budget path
  p.seed->insert({0, 0});
  EXPECT_THROW(p.graph.commit(), NonterminationError);
}

TEST(Divergence, RecurringStateDetectedEarly) {
  OscillatorProgram p;
  p.graph.set_flush_budget(1'000'000);
  p.graph.set_recurrence_threshold(50);
  p.seed->insert({0, 0});
  EXPECT_THROW(p.graph.commit(), RecurringStateError);
  // The heuristic must fire orders of magnitude before the budget.
  EXPECT_LT(p.graph.last_commit_flushes(), 1'000'000u);
}

TEST(Divergence, ConvergentProgramUnaffectedByDetectors) {
  ReachProgram p;
  p.graph.set_recurrence_threshold(1);  // hyper-sensitive
  p.sources->insert(0);
  for (int i = 0; i < 6; ++i) p.edges->insert({i, i + 1});
  EXPECT_NO_THROW(p.graph.commit());
  EXPECT_EQ(current_nodes(*p.reachable).size(), 7u);
}

}  // namespace
}  // namespace rcfg::dd
