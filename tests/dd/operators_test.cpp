#include "dd/operators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "core/rng.h"

namespace rcfg::dd {
namespace {

TEST(Input, SetToStagesMinimalDelta) {
  Graph g;
  auto& in = g.make<Input<int>>();
  auto& out = g.make<Output<int>>(in.out);

  in.insert(1);
  in.insert(2);
  g.commit();
  EXPECT_EQ(out.current().weight(1), 1);
  EXPECT_EQ(out.current().weight(2), 1);

  ZSet<int> target;
  target.add(2, 1);
  target.add(3, 1);
  in.set_to(target);
  g.commit();

  const ZSet<int> d = out.take_delta();
  // Across both commits: 1 appeared then vanished (net +1 -1), 2 stays +1,
  // 3 appears. take_delta accumulates since last drain (never drained).
  EXPECT_EQ(d.weight(1), 0);
  EXPECT_EQ(d.weight(2), 1);
  EXPECT_EQ(d.weight(3), 1);
  EXPECT_EQ(out.current(), target);
}

TEST(Input, InsertRemoveCancelBeforeCommit) {
  Graph g;
  auto& in = g.make<Input<int>>();
  auto& out = g.make<Output<int>>(in.out);
  in.insert(5);
  in.remove(5);
  g.commit();
  EXPECT_TRUE(out.current().empty());
}

TEST(MapFilter, TransformAndDrop) {
  Graph g;
  auto& in = g.make<Input<int>>();
  auto& doubled = g.make<Map<int, int>>(in.out, [](const int& x) { return 2 * x; });
  auto& evens = g.make<Filter<int>>(doubled.out, [](const int& x) { return x % 4 == 0; });
  auto& out = g.make<Output<int>>(evens.out);

  for (int i = 1; i <= 4; ++i) in.insert(i);
  g.commit();
  // doubled: 2 4 6 8; keep multiples of 4: 4, 8
  EXPECT_EQ(out.current().size(), 2u);
  EXPECT_EQ(out.current().weight(4), 1);
  EXPECT_EQ(out.current().weight(8), 1);

  in.remove(2);
  g.commit();
  EXPECT_EQ(out.current().weight(4), 0);
}

TEST(Map, CollisionsAccumulateWeight) {
  Graph g;
  auto& in = g.make<Input<int>>();
  auto& mod = g.make<Map<int, int>>(in.out, [](const int& x) { return x % 2; });
  auto& out = g.make<Output<int>>(mod.out);
  for (int i = 0; i < 6; ++i) in.insert(i);
  g.commit();
  EXPECT_EQ(out.current().weight(0), 3);
  EXPECT_EQ(out.current().weight(1), 3);
}

using KV = std::pair<int, std::string>;
using KW = std::pair<int, int>;

TEST(Join, MatchesOnKey) {
  Graph g;
  auto& left = g.make<Input<KV>>();
  auto& right = g.make<Input<KW>>();
  auto& j = g.make<Join<int, std::string, int, std::string>>(
      left.out, right.out,
      [](const int& k, const std::string& a, const int& b) {
        return a + ":" + std::to_string(k * b);
      });
  auto& out = g.make<Output<std::string>>(j.out);

  left.insert({1, "a"});
  left.insert({2, "b"});
  right.insert({1, 10});
  g.commit();
  EXPECT_EQ(out.current().weight("a:10"), 1);
  EXPECT_EQ(out.current().size(), 1u);

  right.insert({2, 20});
  g.commit();
  EXPECT_EQ(out.current().weight("b:40"), 1);

  left.remove({1, "a"});
  g.commit();
  EXPECT_EQ(out.current().weight("a:10"), 0);
  EXPECT_EQ(out.current().size(), 1u);
}

TEST(Join, SimultaneousDeltasBothSides) {
  Graph g;
  auto& left = g.make<Input<KW>>();
  auto& right = g.make<Input<KW>>();
  auto& j = g.make<Join<int, int, int, int>>(
      left.out, right.out, [](const int&, const int& a, const int& b) { return a + b; });
  auto& out = g.make<Output<int>>(j.out);

  // Insert matching tuples on both sides in the same commit: the bilinear
  // rule must count the cross term exactly once.
  left.insert({7, 1});
  right.insert({7, 2});
  g.commit();
  EXPECT_EQ(out.current().weight(3), 1);

  // Remove both in the same commit.
  left.remove({7, 1});
  right.remove({7, 2});
  g.commit();
  EXPECT_TRUE(out.current().empty());
}

TEST(Join, WeightsMultiply) {
  Graph g;
  auto& left = g.make<Input<KW>>();
  auto& right = g.make<Input<KW>>();
  auto& j = g.make<Join<int, int, int, int>>(
      left.out, right.out, [](const int&, const int& a, const int& b) { return a * 100 + b; });
  auto& out = g.make<Output<int>>(j.out);

  left.update({1, 5}, 2);
  right.update({1, 6}, 3);
  g.commit();
  EXPECT_EQ(out.current().weight(506), 6);
}

TEST(Join, NulloptDerivesNothing) {
  Graph g;
  auto& left = g.make<Input<KW>>();
  auto& right = g.make<Input<KW>>();
  // Only even sums derive a tuple.
  auto& j = g.make<Join<int, int, int, int>>(
      left.out, right.out, [](const int&, const int& a, const int& b) -> std::optional<int> {
        if ((a + b) % 2 != 0) return std::nullopt;
        return a + b;
      });
  auto& out = g.make<Output<int>>(j.out);

  left.insert({1, 1});
  right.insert({1, 2});  // 1 + 2 is odd: rejected
  g.commit();
  EXPECT_TRUE(out.take_delta().empty());

  right.insert({1, 3});  // 1 + 3 is even: derived
  g.commit();
  ZSet<int> d = out.take_delta();
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.weight(4), 1);

  right.remove({1, 2});  // retracting the rejected pair retracts nothing
  g.commit();
  EXPECT_TRUE(out.take_delta().empty());

  left.remove({1, 1});  // only the derived tuple is retracted
  g.commit();
  d = out.take_delta();
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.weight(4), -1);
  EXPECT_TRUE(out.current().empty());
}

TEST(Reduce, MinWithRetraction) {
  Graph g;
  auto& in = g.make<Input<KW>>();
  auto& r = g.make<Reduce<int, int, KW>>(
      in.out, [](const int& k, const ZSet<int>& group, std::vector<KW>& out) {
        int best = INT32_MAX;
        for (const auto& [v, w] : group) best = std::min(best, v);
        out.push_back({k, best});
      });
  auto& out = g.make<Output<KW>>(r.out);

  in.insert({1, 30});
  in.insert({1, 10});
  in.insert({2, 5});
  g.commit();
  EXPECT_EQ(out.current().weight({1, 10}), 1);
  EXPECT_EQ(out.current().weight({2, 5}), 1);
  EXPECT_EQ(out.current().size(), 2u);

  in.remove({1, 10});  // second-best takes over
  g.commit();
  EXPECT_EQ(out.current().weight({1, 10}), 0);
  EXPECT_EQ(out.current().weight({1, 30}), 1);

  in.remove({1, 30});  // group empties: output retracted entirely
  g.commit();
  EXPECT_EQ(out.current().size(), 1u);
  EXPECT_EQ(out.current().weight({2, 5}), 1);
}

TEST(Reduce, UntouchedGroupsNotRecomputed) {
  Graph g;
  int evaluations = 0;
  auto& in = g.make<Input<KW>>();
  auto& r = g.make<Reduce<int, int, KW>>(
      in.out, [&evaluations](const int& k, const ZSet<int>& group, std::vector<KW>& out) {
        ++evaluations;
        int best = INT32_MAX;
        for (const auto& [v, w] : group) best = std::min(best, v);
        out.push_back({k, best});
      });
  auto& out = g.make<Output<KW>>(r.out);

  for (int k = 0; k < 100; ++k) in.insert({k, k});
  g.commit();
  EXPECT_EQ(evaluations, 100);

  in.insert({42, -1});
  g.commit();
  EXPECT_EQ(evaluations, 101);  // only group 42 re-evaluated
  EXPECT_EQ(out.current().weight({42, -1}), 1);
}

TEST(Reduce, AddInputEqualsConcatThenReduce) {
  core::Rng rng{7};
  const auto min_of = [](const int& k, const ZSet<int>& group, std::vector<KW>& o) {
    int best = INT32_MAX;
    for (const auto& [v, w] : group) best = std::min(best, v);
    o.push_back({k, best});
  };

  Graph g;
  auto& a = g.make<Input<KW>>();
  auto& b = g.make<Input<KW>>();
  auto& fused = g.make<Reduce<int, int, KW>>(a.out, min_of);
  fused.add_input(b.out);
  auto& cat = g.make<Concat<KW>>();
  cat.add_input(a.out);
  cat.add_input(b.out);
  auto& reduced = g.make<Reduce<int, int, KW>>(cat.out, min_of);
  auto& fused_out = g.make<Output<KW>>(fused.out);
  auto& reduced_out = g.make<Output<KW>>(reduced.out);

  ZSet<KW> contents[2];
  Input<KW>* inputs[2] = {&a, &b};
  for (int step = 0; step < 300; ++step) {
    const int side = static_cast<int>(rng.next_below(2));
    const KW kv{static_cast<int>(rng.next_below(6)), static_cast<int>(rng.next_below(20))};
    if (contents[side].weight(kv) > 0 && rng.next_bool(0.45)) {
      contents[side].add(kv, -1);
      inputs[side]->remove(kv);
    } else {
      contents[side].add(kv, 1);
      inputs[side]->insert(kv);
    }
    if (rng.next_bool(0.3)) {
      g.commit();
      ASSERT_EQ(fused_out.current(), reduced_out.current()) << "step " << step;
    }
  }
  g.commit();
  EXPECT_EQ(fused_out.current(), reduced_out.current());
  EXPECT_FALSE(fused_out.current().empty());
}

TEST(Concat, UnionsInputs) {
  Graph g;
  auto& a = g.make<Input<int>>();
  auto& b = g.make<Input<int>>();
  auto& c = g.make<Concat<int>>();
  c.add_input(a.out);
  c.add_input(b.out);
  auto& out = g.make<Output<int>>(c.out);

  a.insert(1);
  b.insert(1);
  b.insert(2);
  g.commit();
  EXPECT_EQ(out.current().weight(1), 2);
  EXPECT_EQ(out.current().weight(2), 1);
}

TEST(Output, TakeDeltaDrains) {
  Graph g;
  auto& in = g.make<Input<int>>();
  auto& out = g.make<Output<int>>(in.out);
  in.insert(1);
  g.commit();
  EXPECT_EQ(out.take_delta().weight(1), 1);
  EXPECT_TRUE(out.take_delta().empty());  // drained
  in.insert(2);
  g.commit();
  EXPECT_EQ(out.take_delta().weight(2), 1);
}

TEST(Graph, CommitCountsAndIdleCommit) {
  Graph g;
  auto& in = g.make<Input<int>>();
  auto& out = g.make<Output<int>>(in.out);
  g.commit();  // nothing pending
  EXPECT_EQ(g.last_commit_flushes(), 0u);
  in.insert(1);
  g.commit();
  EXPECT_GE(g.last_commit_flushes(), 2u);
  EXPECT_EQ(g.commit_count(), 2u);
  EXPECT_EQ(out.current().weight(1), 1);
}

/// The central incremental-correctness property at operator level: a
/// pipeline fed by random edit sequences must end in exactly the state a
/// fresh pipeline computes from the final input.
TEST(PipelineProperty, IncrementalEqualsFromScratch) {
  core::Rng rng{2024};

  auto build = [](Graph& g, Input<KW>*& in, Output<KW>*& out) {
    in = &g.make<Input<KW>>();
    auto& filtered =
        g.make<Filter<KW>>(in->out, [](const KW& kv) { return kv.second % 3 != 0; });
    auto& keyed = g.make<Map<KW, KW>>(filtered.out,
                                      [](const KW& kv) { return KW{kv.first % 5, kv.second}; });
    auto& reduced = g.make<Reduce<int, int, KW>>(
        keyed.out, [](const int& k, const ZSet<int>& group, std::vector<KW>& o) {
          int best = INT32_MAX;
          for (const auto& [v, w] : group) best = std::min(best, v);
          o.push_back({k, best});
        });
    out = &g.make<Output<KW>>(reduced.out);
  };

  for (int trial = 0; trial < 10; ++trial) {
    Graph inc;
    Input<KW>* inc_in = nullptr;
    Output<KW>* inc_out = nullptr;
    build(inc, inc_in, inc_out);

    ZSet<KW> contents;
    for (int step = 0; step < 50; ++step) {
      const KW kv{static_cast<int>(rng.next_below(20)), static_cast<int>(rng.next_below(50))};
      if (contents.weight(kv) > 0 && rng.next_bool(0.4)) {
        contents.add(kv, -1);
        inc_in->remove(kv);
      } else {
        contents.add(kv, 1);
        inc_in->insert(kv);
      }
      if (rng.next_bool(0.3)) inc.commit();
    }
    inc.commit();

    Graph scratch;
    Input<KW>* s_in = nullptr;
    Output<KW>* s_out = nullptr;
    build(scratch, s_in, s_out);
    s_in->set_to(contents);
    scratch.commit();

    EXPECT_EQ(inc_out->current(), s_out->current()) << "trial " << trial;
  }
}


TEST(Negate, FlipsWeights) {
  Graph g;
  auto& in = g.make<Input<int>>();
  auto& neg = g.make<dd::Negate<int>>(in.out);
  auto& out = g.make<Output<int>>(neg.out);
  in.update(1, 3);
  in.update(2, -2);
  g.commit();
  EXPECT_EQ(out.current().weight(1), -3);
  EXPECT_EQ(out.current().weight(2), 2);
}

TEST(Negate, DifferenceViaConcat) {
  // concat(a, negate(b)) materializes a - b: empty iff a == b.
  Graph g;
  auto& a = g.make<Input<int>>();
  auto& b = g.make<Input<int>>();
  auto& neg = g.make<dd::Negate<int>>(b.out);
  auto& diff = g.make<dd::Concat<int>>();
  diff.add_input(a.out);
  diff.add_input(neg.out);
  auto& out = g.make<Output<int>>(diff.out);

  a.insert(1);
  a.insert(2);
  b.insert(1);
  b.insert(2);
  g.commit();
  EXPECT_TRUE(out.current().empty());

  b.insert(3);
  g.commit();
  EXPECT_EQ(out.current().weight(3), -1);
}

TEST(Input, SetToOverridesStagedEdits) {
  Graph g;
  auto& in = g.make<Input<int>>();
  auto& out = g.make<Output<int>>(in.out);
  in.insert(1);
  g.commit();

  in.insert(99);  // staged but never committed...
  ZSet<int> target;
  target.add(2, 1);
  in.set_to(target);  // ...and discarded here
  g.commit();
  EXPECT_EQ(out.current(), target);
}

}  // namespace
}  // namespace rcfg::dd
