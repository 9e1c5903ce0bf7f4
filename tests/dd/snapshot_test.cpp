// Graph snapshot/restore tests: a snapshot captures every operator's
// accumulated state at a quiescent point; restore rewinds the graph (or a
// structurally identical twin — the fork case) to it, clearing any
// leftover pending buffers so the next commit starts clean. That last part
// is what makes restore the sanctioned recovery path after a divergent
// commit: divergence aborts mid-flush with tuples still parked in operator
// pendings.
//
// The GraphRollback tests cover the O(change) path: restoring the snapshot
// a graph was last deep-restored from un-applies the operators' undo
// journals instead of copying the blobs, and must land on exactly the
// state a deep copy gives.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "dd/operators.h"

namespace rcfg::dd {
namespace {

using Entry = std::pair<int, int>;  // (key, value)

/// Never scheduled; counts how the graph restores it, which tells a
/// rollback restore from a deep copy.
struct RestoreProbe final : OperatorBase {
  using OperatorBase::OperatorBase;
  void flush() override {}
  std::shared_ptr<const void> save_state() const override { return nullptr; }
  std::size_t load_state(const void*) override {
    ++loads;
    return 0;
  }
  void rollback(const void*) override { ++rollbacks; }
  std::size_t journal_size() const noexcept override { return 0; }
  void drop_journal() override {}

  int loads = 0;
  int rollbacks = 0;
};

/// A copy of `snap` without its id, so restoring it always deep-copies.
GraphSnapshot unstamped(const GraphSnapshot& snap) {
  GraphSnapshot copy = snap;
  copy.id = 0;
  return copy;
}

/// A little program with every stateful operator kind: Input, Join, a
/// set-semantics Reduce, Output. keys() reads the distinct joined keys
/// currently derivable.
struct JoinProgram {
  Graph graph;
  Input<Entry>* left = nullptr;
  Input<Entry>* right = nullptr;
  Output<int>* keys = nullptr;
  RestoreProbe* probe = nullptr;

  JoinProgram() {
    left = &graph.make<Input<Entry>>("left");
    right = &graph.make<Input<Entry>>("right");
    auto& joined = graph.make<Join<int, int, int, Entry>>(
        left->out, right->out,
        [](const int& k, const int&, const int&) { return Entry{k, 0}; }, "join");
    auto& distinct = graph.make<Reduce<int, int, int>>(
        joined.out,
        [](const int& k, const ZSet<int>&, std::vector<int>& emit) { emit.push_back(k); },
        "distinct");
    keys = &graph.make<Output<int>>(distinct.out, "keys");
    probe = &graph.make<RestoreProbe>("probe");
  }

  void insert_key(int k) {
    left->insert({k, 10 + k});
    right->insert({k, 20 + k});
  }

  std::set<int> current() const {
    std::set<int> s;
    for (const auto& [k, w] : keys->current()) {
      EXPECT_EQ(w, 1);
      s.insert(k);
    }
    return s;
  }
};

/// Feedback program whose key 0 oscillates forever and every other key is
/// stable: a divergence trigger with observable convergent state alongside.
struct MixedOscillator {
  Graph graph;
  Input<Entry>* seed = nullptr;
  Output<Entry>* out = nullptr;
  RestoreProbe* probe = nullptr;

  MixedOscillator() {
    seed = &graph.make<Input<Entry>>("seed");
    auto& hub = graph.make<Concat<Entry>>("hub");
    hub.add_input(seed->out);
    auto& flip = graph.make<Reduce<int, int, Entry>>(
        hub.out,
        [](const int& k, const ZSet<int>& group, std::vector<Entry>& emit) {
          if (k != 0) {
            emit.push_back({k, 2});
            return;
          }
          // Key 0: emit the marker iff absent. No fixpoint exists.
          if (group.weight(1) <= 0) emit.push_back({k, 1});
        },
        "flip");
    hub.add_input(flip.out);
    out = &graph.make<Output<Entry>>(flip.out, "out");
    probe = &graph.make<RestoreProbe>("probe");
  }
};

/// Every stateful operator kind plus the stateless ones between them: a
/// Join that rejects some pairs, a two-input Reduce over the Join and the
/// left Input, a set-semantics Reduce behind a Map and a Filter, and an
/// Output on each stateful stage.
struct EveryKind {
  Graph graph;
  Input<Entry>* left = nullptr;
  Input<Entry>* right = nullptr;
  Join<int, int, int, Entry>* join = nullptr;
  Reduce<int, int, Entry>* reduce = nullptr;
  Output<Entry>* joined = nullptr;
  Output<Entry>* best = nullptr;
  Output<int>* residues = nullptr;
  RestoreProbe* probe = nullptr;

  EveryKind() {
    left = &graph.make<Input<Entry>>("left");
    right = &graph.make<Input<Entry>>("right");
    join = &graph.make<Join<int, int, int, Entry>>(
        left->out, right->out,
        [](const int& k, const int& a, const int& b) -> std::optional<Entry> {
          if ((a + b) % 3 == 0) return std::nullopt;
          return Entry{k % 5, a + b};
        },
        "join");
    reduce = &graph.make<Reduce<int, int, Entry>>(
        join->out,
        [](const int& k, const ZSet<int>& group, std::vector<Entry>& emit) {
          int lo = INT_MAX;
          for (const auto& [v, w] : group) lo = std::min(lo, v);
          emit.push_back({k, lo});
          if (group.size() > 3) emit.push_back({k, -static_cast<int>(group.size())});
        },
        "reduce");
    reduce->add_input(left->out);
    auto& residue = graph.make<Map<Entry, Entry>>(
        reduce->out, [](const Entry& e) { return Entry{e.second % 7, 0}; }, "residue");
    auto& nonzero = graph.make<Filter<Entry>>(
        residue.out, [](const Entry& r) { return r.first != 0; }, "nonzero");
    auto& distinct = graph.make<Reduce<int, int, int>>(
        nonzero.out,
        [](const int& r, const ZSet<int>&, std::vector<int>& emit) { emit.push_back(r); },
        "distinct");
    joined = &graph.make<Output<Entry>>(join->out, "joined");
    best = &graph.make<Output<Entry>>(reduce->out, "best");
    residues = &graph.make<Output<int>>(distinct.out, "residues");
    probe = &graph.make<RestoreProbe>("probe");
  }
};

struct Edit {
  bool right;
  Entry entry;
  Weight weight;
};

/// `n` random inserts and removals against `p`'s current inputs; removals
/// only take what is there, so every weight stays positive.
std::vector<Edit> random_edits(core::Rng& rng, const EveryKind& p, int n) {
  ZSet<Entry> contents[2] = {p.left->current(), p.right->current()};
  std::vector<Edit> edits;
  for (int i = 0; i < n; ++i) {
    const bool right = rng.next_bool(0.5);
    ZSet<Entry>& side = contents[right ? 1 : 0];
    Edit e{right, {}, 1};
    if (!side.empty() && rng.next_bool(0.45)) {
      auto it = side.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(side.size())));
      e.entry = it->first;
      e.weight = -1;
    } else {
      e.entry = {static_cast<int>(rng.next_below(16)), static_cast<int>(rng.next_below(30))};
      e.weight = rng.next_bool(0.2) ? 2 : 1;
    }
    side.add(e.entry, e.weight);
    edits.push_back(e);
  }
  return edits;
}

void apply_edits(EveryKind& p, const std::vector<Edit>& edits) {
  for (const Edit& e : edits) (e.right ? p.right : p.left)->update(e.entry, e.weight);
}

void expect_same_state(EveryKind& a, EveryKind& b) {
  EXPECT_EQ(a.left->current(), b.left->current());
  EXPECT_EQ(a.right->current(), b.right->current());
  EXPECT_EQ(a.joined->current(), b.joined->current());
  EXPECT_EQ(a.best->current(), b.best->current());
  EXPECT_EQ(a.residues->current(), b.residues->current());
  EXPECT_EQ(a.join->left_keys(), b.join->left_keys());
  EXPECT_EQ(a.join->right_keys(), b.join->right_keys());
  EXPECT_EQ(a.reduce->group_count(), b.reduce->group_count());
  EXPECT_EQ(a.joined->take_delta(), b.joined->take_delta());
  EXPECT_EQ(a.best->take_delta(), b.best->take_delta());
  EXPECT_EQ(a.residues->take_delta(), b.residues->take_delta());
}

TEST(GraphSnapshot, RoundTripRestoresOperatorState) {
  JoinProgram p;
  for (int k = 0; k < 4; ++k) {
    p.left->insert({k, 10 + k});
    p.right->insert({k, 20 + k});
  }
  p.graph.commit();
  ASSERT_EQ(p.current(), (std::set<int>{0, 1, 2, 3}));

  const GraphSnapshot snap = p.graph.snapshot();
  const std::uint64_t commits_at_snap = p.graph.commit_count();

  p.left->remove({1, 11});
  p.right->insert({7, 27});
  p.left->insert({7, 17});
  p.graph.commit();
  ASSERT_EQ(p.current(), (std::set<int>{0, 2, 3, 7}));

  p.graph.restore(snap);
  EXPECT_EQ(p.current(), (std::set<int>{0, 1, 2, 3}));
  EXPECT_EQ(p.graph.commit_count(), commits_at_snap);

  // Incremental work from the restored state: the arrangements must be
  // back too, or this join would mis-derive.
  p.right->remove({2, 22});
  p.graph.commit();
  EXPECT_EQ(p.current(), (std::set<int>{0, 1, 3}));
}

TEST(GraphSnapshot, RestoreIntoStructuralTwin) {
  // The fork case: a snapshot taken on one graph seeds a second graph
  // built by the same deterministic constructor.
  JoinProgram a;
  for (int k = 0; k < 3; ++k) {
    a.left->insert({k, k});
    a.right->insert({k, k});
  }
  a.graph.commit();

  JoinProgram b;
  b.graph.restore(a.graph.snapshot());
  EXPECT_EQ(b.current(), a.current());

  // Both sides evolve identically from here.
  a.left->insert({9, 9});
  a.right->insert({9, 9});
  a.graph.commit();
  b.left->insert({9, 9});
  b.right->insert({9, 9});
  b.graph.commit();
  EXPECT_EQ(b.current(), a.current());
}

TEST(GraphSnapshot, SnapshotRejectsPendingInput) {
  JoinProgram p;
  p.graph.commit();
  p.left->insert({1, 1});
  EXPECT_THROW(p.graph.snapshot(), std::logic_error);
  p.graph.commit();
  EXPECT_NO_THROW(p.graph.snapshot());
}

TEST(GraphSnapshot, RestoreRejectsMismatchedGraph) {
  JoinProgram p;
  p.graph.commit();
  MixedOscillator other;
  EXPECT_THROW(other.graph.restore(p.graph.snapshot()), std::logic_error);
}

TEST(GraphSnapshot, RestoreRecoversFromDivergence) {
  MixedOscillator p;
  p.graph.set_flush_budget(1'000'000);
  p.graph.set_recurrence_threshold(50);

  p.seed->insert({5, 0});
  p.graph.commit();
  const GraphSnapshot snap = p.graph.snapshot();

  p.seed->insert({0, 0});  // the oscillating key
  ASSERT_THROW(p.graph.commit(), NonterminationError);

  // The aborted flush left tuples in operator pendings; restore must clear
  // them, or they would leak into the next commit.
  p.graph.restore(snap);
  p.seed->insert({7, 0});
  p.graph.commit();

  std::set<int> keys;
  for (const auto& [e, w] : p.out->current()) {
    EXPECT_GT(w, 0);
    keys.insert(e.first);
  }
  EXPECT_EQ(keys, (std::set<int>{5, 7}));  // no trace of key 0
}

TEST(GraphRollback, MatchesDeepCopyUnderRandomEditScripts) {
  constexpr int kSteps = 200;
  core::Rng rng{15};
  EveryKind g;
  EveryKind twin;
  apply_edits(g, random_edits(rng, g, 400));
  g.graph.commit();
  // The snapshot keeps the undrained Output deltas: rollback reloads them.
  const GraphSnapshot snap = g.graph.snapshot();
  const GraphSnapshot deep = unstamped(snap);
  g.graph.restore(snap);  // deep copy; snap becomes g's base
  ASSERT_EQ(g.probe->loads, 1);

  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // Drift over one to three commits, then come back.
    const auto commits = 1 + rng.next_below(3);
    for (std::uint64_t c = 0; c < commits; ++c) {
      apply_edits(g, random_edits(rng, g, 1 + static_cast<int>(rng.next_below(6))));
      g.graph.commit();
    }
    g.graph.restore(snap);
    twin.graph.restore(deep);
    expect_same_state(g, twin);

    // The restored arrangements and groups must derive what the copies do.
    const std::vector<Edit> further =
        random_edits(rng, g, 1 + static_cast<int>(rng.next_below(6)));
    apply_edits(g, further);
    apply_edits(twin, further);
    g.graph.commit();
    twin.graph.commit();
    expect_same_state(g, twin);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(g.probe->loads, 1);
  EXPECT_EQ(g.probe->rollbacks, kSteps);
  EXPECT_FALSE(g.best->current().empty());
}

TEST(GraphRollback, RollsBackACommitThatDiverged) {
  MixedOscillator p;
  MixedOscillator twin;
  for (MixedOscillator* m : {&p, &twin}) {
    m->graph.set_flush_budget(1'000'000);
    m->graph.set_recurrence_threshold(50);
  }
  for (int k = 5; k < 10; ++k) p.seed->insert({k, 0});
  p.graph.commit();
  const GraphSnapshot snap = p.graph.snapshot();
  p.graph.restore(snap);

  p.seed->insert({0, 0});  // the oscillating key
  p.seed->insert({20, 0});
  ASSERT_THROW(p.graph.commit(), NonterminationError);

  p.graph.restore(snap);
  twin.graph.restore(unstamped(snap));
  EXPECT_EQ(p.probe->rollbacks, 1);
  EXPECT_EQ(p.probe->loads, 1);
  EXPECT_EQ(p.out->current(), twin.out->current());

  for (MixedOscillator* m : {&p, &twin}) {
    m->seed->insert({7, 1});
    m->seed->insert({11, 0});
    m->graph.commit();
  }
  EXPECT_EQ(p.out->current(), twin.out->current());
  std::set<int> keys;
  for (const auto& [e, w] : p.out->current()) keys.insert(e.first);
  EXPECT_EQ(keys, (std::set<int>{5, 6, 7, 8, 9, 11}));  // no trace of 0 or 20
}

TEST(GraphRollback, AnotherSnapshotDeepCopiesAndRebases) {
  JoinProgram p;
  for (int k = 0; k < 4; ++k) p.insert_key(k);
  p.graph.commit();
  const GraphSnapshot a = p.graph.snapshot();
  p.graph.restore(a);  // a never-restored graph always deep-copies
  EXPECT_EQ(p.probe->loads, 1);

  p.insert_key(4);
  p.graph.commit();
  const GraphSnapshot b = p.graph.snapshot();
  p.left->remove({0, 10});
  p.graph.commit();

  p.graph.restore(b);  // not the base: deep copy, b becomes the base
  EXPECT_EQ(p.probe->loads, 2);
  EXPECT_EQ(p.current(), (std::set<int>{0, 1, 2, 3, 4}));

  p.insert_key(9);
  p.graph.commit();
  p.graph.restore(b);
  EXPECT_EQ(p.probe->rollbacks, 1);
  EXPECT_EQ(p.current(), (std::set<int>{0, 1, 2, 3, 4}));

  p.graph.restore(a);
  EXPECT_EQ(p.probe->loads, 3);
  EXPECT_EQ(p.current(), (std::set<int>{0, 1, 2, 3}));
  p.right->remove({2, 22});
  p.graph.commit();
  EXPECT_EQ(p.current(), (std::set<int>{0, 1, 3}));
}

TEST(GraphRollback, DriftPastTheBoundStopsJournaling) {
  JoinProgram p;
  for (int k = 0; k < 2; ++k) p.insert_key(k);
  p.graph.commit();
  const GraphSnapshot snap = p.graph.snapshot();
  p.graph.restore(snap);

  // Far more change than the base state held: the journals are dropped.
  for (int k = 100; k < 150; ++k) p.insert_key(k);
  p.graph.commit();
  p.graph.restore(snap);
  EXPECT_EQ(p.probe->rollbacks, 0);
  EXPECT_EQ(p.probe->loads, 2);
  EXPECT_EQ(p.current(), (std::set<int>{0, 1}));

  // The deep copy rebased the graph, so a small drift rolls back again.
  p.left->remove({1, 11});
  p.graph.commit();
  p.graph.restore(snap);
  EXPECT_EQ(p.probe->rollbacks, 1);
  EXPECT_EQ(p.current(), (std::set<int>{0, 1}));
  p.insert_key(3);
  p.graph.commit();
  EXPECT_EQ(p.current(), (std::set<int>{0, 1, 3}));
}

}  // namespace
}  // namespace rcfg::dd
