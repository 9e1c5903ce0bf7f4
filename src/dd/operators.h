#pragma once

// The incremental operator library: Input, Map, Filter, Negate, Concat,
// Join, Reduce, Distinct, Output.
//
// Every operator keeps whatever persistent state it needs (join
// arrangements, reduce groups, distinct counts) so that processing a delta
// costs time proportional to the delta and the state it touches — never to
// the full relation. That state reuse is precisely the "incremental
// computation" the paper borrows from differential dataflow.

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dd/graph.h"
#include "dd/zset.h"

namespace rcfg::dd {

namespace detail {

/// Emit with recurring-state bookkeeping; hashing happens only once the
/// operator is hot enough for the detector to care.
template <class T>
void emit_delta(Graph& graph, OperatorBase& op, Stream<T>& out, const ZSet<T>& delta) {
  if (delta.empty()) return;
  graph.note_emitted_delta(op, delta.content_hash());
  out.emit(delta);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Input
// ---------------------------------------------------------------------------

/// An editable base relation. Mutations accumulate until the next
/// Graph::commit(). `set_to` computes the delta against the current
/// contents, which is how whole-snapshot reloads stay incremental.
template <class T>
class Input final : public OperatorBase {
 public:
  explicit Input(Graph& graph, std::string name = "input")
      : OperatorBase(graph, std::move(name)) {}

  void insert(const T& t) { update(t, +1); }
  void remove(const T& t) { update(t, -1); }

  void update(const T& t, Weight w) {
    pending_.add(t, w);
    graph_.schedule(*this);
  }

  /// Replace the full contents with `target`: stages target - current.
  /// Any not-yet-committed staged edits are discarded.
  void set_to(const ZSet<T>& target) {
    pending_ = ZSet<T>::difference(target, current_);
    if (!pending_.empty()) graph_.schedule(*this);
  }

  void flush() override {
    ZSet<T> delta = std::move(pending_);
    pending_.clear();
    current_.merge(delta);
    detail::emit_delta(graph_, *this, out, delta);
  }

  std::shared_ptr<const void> save_state() const override {
    return std::make_shared<const ZSet<T>>(current_);
  }
  void load_state(const void* state) override {
    current_ = *static_cast<const ZSet<T>*>(state);
    pending_.clear();
  }

  const ZSet<T>& current() const noexcept { return current_; }

  Stream<T> out;

 private:
  ZSet<T> current_;
  ZSet<T> pending_;
};

// ---------------------------------------------------------------------------
// Stateless per-tuple operators
// ---------------------------------------------------------------------------

/// One-to-one transform; weights pass through.
template <class In, class Out>
class Map final : public OperatorBase {
 public:
  using Fn = std::function<Out(const In&)>;

  Map(Graph& graph, Stream<In>& upstream, Fn fn, std::string name = "map")
      : OperatorBase(graph, std::move(name)), fn_(std::move(fn)) {
    upstream.subscribe([this](const ZSet<In>& d) {
      pending_.merge(d);
      graph_.schedule(*this);
    });
  }

  void flush() override {
    ZSet<Out> delta;
    for (const auto& [t, w] : pending_) delta.add(fn_(t), w);
    pending_.clear();
    detail::emit_delta(graph_, *this, out, delta);
  }

  // Stateless: only the pending buffer, which a restore discards.
  std::shared_ptr<const void> save_state() const override { return nullptr; }
  void load_state(const void*) override { pending_.clear(); }

  Stream<Out> out;

 private:
  Fn fn_;
  ZSet<In> pending_;
};

template <class T>
class Filter final : public OperatorBase {
 public:
  using Fn = std::function<bool(const T&)>;

  Filter(Graph& graph, Stream<T>& upstream, Fn fn, std::string name = "filter")
      : OperatorBase(graph, std::move(name)), fn_(std::move(fn)) {
    upstream.subscribe([this](const ZSet<T>& d) {
      pending_.merge(d);
      graph_.schedule(*this);
    });
  }

  void flush() override {
    ZSet<T> delta;
    for (const auto& [t, w] : pending_) {
      if (fn_(t)) delta.add(t, w);
    }
    pending_.clear();
    detail::emit_delta(graph_, *this, out, delta);
  }

  std::shared_ptr<const void> save_state() const override { return nullptr; }
  void load_state(const void*) override { pending_.clear(); }

  Stream<T> out;

 private:
  Fn fn_;
  ZSet<T> pending_;
};

/// Weight negation: the output is the input with every multiplicity
/// flipped. concat(a, negate(b)) materializes the difference a - b, which
/// is how convergence checks compare two relations cheaply.
template <class T>
class Negate final : public OperatorBase {
 public:
  Negate(Graph& graph, Stream<T>& upstream, std::string name = "negate")
      : OperatorBase(graph, std::move(name)) {
    upstream.subscribe([this](const ZSet<T>& d) {
      pending_.merge(d);
      graph_.schedule(*this);
    });
  }

  void flush() override {
    ZSet<T> delta;
    for (const auto& [t, w] : pending_) delta.add(t, -w);
    pending_.clear();
    detail::emit_delta(graph_, *this, out, delta);
  }

  std::shared_ptr<const void> save_state() const override { return nullptr; }
  void load_state(const void*) override { pending_.clear(); }

  Stream<T> out;

 private:
  ZSet<T> pending_;
};

/// N-ary union (weights add). `add_input` may be called after downstream
/// operators were built, which is how feedback cycles are tied.
template <class T>
class Concat final : public OperatorBase {
 public:
  explicit Concat(Graph& graph, std::string name = "concat")
      : OperatorBase(graph, std::move(name)) {}

  void add_input(Stream<T>& upstream) {
    upstream.subscribe([this](const ZSet<T>& d) {
      pending_.merge(d);
      graph_.schedule(*this);
    });
  }

  void flush() override {
    ZSet<T> delta = std::move(pending_);
    pending_.clear();
    detail::emit_delta(graph_, *this, out, delta);
  }

  std::shared_ptr<const void> save_state() const override { return nullptr; }
  void load_state(const void*) override { pending_.clear(); }

  Stream<T> out;

 private:
  ZSet<T> pending_;
};

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

/// Binary equi-join on K. Both sides are arranged (indexed by key) so a
/// delta on either side only probes the matching key's group on the other.
/// The bilinear update rule d(A ⋈ B) = dA ⋈ B ∪ (A + dA) ⋈ dB is applied
/// per flush.
template <class K, class A, class B, class Out>
class Join final : public OperatorBase {
 public:
  /// nullopt derives nothing. `fn` must be deterministic: a retraction
  /// re-evaluates it and must reject exactly what the insertion rejected.
  using Fn = std::function<std::optional<Out>(const K&, const A&, const B&)>;

  Join(Graph& graph, Stream<std::pair<K, A>>& left, Stream<std::pair<K, B>>& right, Fn fn,
       std::string name = "join")
      : OperatorBase(graph, std::move(name)), fn_(std::move(fn)) {
    left.subscribe([this](const ZSet<std::pair<K, A>>& d) {
      pending_left_.merge(d);
      graph_.schedule(*this);
    });
    right.subscribe([this](const ZSet<std::pair<K, B>>& d) {
      pending_right_.merge(d);
      graph_.schedule(*this);
    });
  }

  void flush() override {
    ZSet<std::pair<K, A>> da = std::move(pending_left_);
    ZSet<std::pair<K, B>> db = std::move(pending_right_);
    pending_left_.clear();
    pending_right_.clear();

    ZSet<Out> delta;
    // dA joined against the *old* right arrangement.
    for (const auto& [ka, wa] : da) {
      auto it = right_.find(ka.first);
      if (it == right_.end()) continue;
      for (const auto& [b, wb] : it->second) {
        if (auto o = fn_(ka.first, ka.second, b)) delta.add(std::move(*o), wa * wb);
      }
    }
    apply(left_, da);
    // dB joined against the *new* left arrangement.
    for (const auto& [kb, wb] : db) {
      auto it = left_.find(kb.first);
      if (it == left_.end()) continue;
      for (const auto& [a, wa] : it->second) {
        if (auto o = fn_(kb.first, a, kb.second)) delta.add(std::move(*o), wa * wb);
      }
    }
    apply(right_, db);

    detail::emit_delta(graph_, *this, out, delta);
  }

  std::shared_ptr<const void> save_state() const override {
    return std::make_shared<const Saved>(Saved{left_, right_});
  }
  void load_state(const void* state) override {
    const Saved& s = *static_cast<const Saved*>(state);
    left_ = s.left;
    right_ = s.right;
    pending_left_.clear();
    pending_right_.clear();
  }

  Stream<Out> out;

  /// Number of keys currently arranged on the left/right (introspection).
  std::size_t left_keys() const noexcept { return left_.size(); }
  std::size_t right_keys() const noexcept { return right_.size(); }

 private:
  template <class V>
  using Arrangement = std::unordered_map<K, ZSet<V>, core::TupleHash>;

  struct Saved {
    Arrangement<A> left;
    Arrangement<B> right;
  };

  template <class V>
  static void apply(Arrangement<V>& arr, const ZSet<std::pair<K, V>>& delta) {
    for (const auto& [kv, w] : delta) {
      ZSet<V>& group = arr[kv.first];
      group.add(kv.second, w);
      if (group.empty()) arr.erase(kv.first);
    }
  }

  Fn fn_;
  Arrangement<A> left_;
  Arrangement<B> right_;
  ZSet<std::pair<K, A>> pending_left_;
  ZSet<std::pair<K, B>> pending_right_;
};

// ---------------------------------------------------------------------------
// Reduce
// ---------------------------------------------------------------------------

/// Group-by-key aggregation. Only groups touched by the incoming delta are
/// re-evaluated; the operator emits the difference between each group's new
/// and previously emitted output (retract old / assert new), which is what
/// lets best-route changes ripple like protocol withdrawals. Groups read
/// the union of every input stream, so no Concat is needed in front.
template <class K, class V, class Out>
class Reduce final : public OperatorBase {
 public:
  /// `fn` sees the group's full contents (all weights positive in a
  /// well-formed program) and appends output tuples (weight 1 each).
  using Fn = std::function<void(const K&, const ZSet<V>&, std::vector<Out>&)>;

  Reduce(Graph& graph, Stream<std::pair<K, V>>& upstream, Fn fn, std::string name = "reduce")
      : OperatorBase(graph, std::move(name)), fn_(std::move(fn)) {
    add_input(upstream);
  }

  /// Another input whose tuples join the same groups (weights add, as in
  /// Concat::add_input).
  void add_input(Stream<std::pair<K, V>>& upstream) {
    upstream.subscribe([this](const ZSet<std::pair<K, V>>& d) {
      pending_.merge(d);
      graph_.schedule(*this);
    });
  }

  void flush() override {
    // Apply deltas to group contents, remembering which keys were touched.
    ZSet<K> unique;
    for (const auto& [kv, w] : pending_) {
      groups_.try_emplace(kv.first).first->second.input.add(kv.second, w);
      unique.add(kv.first, 1);
    }
    pending_.clear();

    ZSet<Out> delta;
    std::vector<Out> scratch;
    for (const auto& [k, _] : unique) {
      auto it = groups_.find(k);
      if (it == groups_.end()) continue;
      Group& g = it->second;
      scratch.clear();
      if (!g.input.empty()) fn_(k, g.input, scratch);
      ZSet<Out> next;
      for (Out& o : scratch) next.add(std::move(o), 1);
      ZSet<Out> diff = ZSet<Out>::difference(next, g.output);
      delta.merge(diff);
      if (g.input.empty()) {
        groups_.erase(it);
      } else {
        g.output = std::move(next);
      }
    }

    detail::emit_delta(graph_, *this, out, delta);
  }

  std::shared_ptr<const void> save_state() const override {
    return std::make_shared<const Groups>(groups_);
  }
  void load_state(const void* state) override {
    groups_ = *static_cast<const Groups*>(state);
    pending_.clear();
  }

  Stream<Out> out;

  std::size_t group_count() const noexcept { return groups_.size(); }

 private:
  struct Group {
    ZSet<V> input;
    ZSet<Out> output;
  };
  using Groups = std::unordered_map<K, Group, core::TupleHash>;

  Fn fn_;
  Groups groups_;
  ZSet<std::pair<K, V>> pending_;
};

// ---------------------------------------------------------------------------
// Distinct
// ---------------------------------------------------------------------------

/// Set semantics: output weight is 1 while the input multiplicity is
/// positive, 0 otherwise. Needed after projections that can derive the
/// same tuple several ways (e.g., a FIB entry supported by many paths).
template <class T>
class Distinct final : public OperatorBase {
 public:
  Distinct(Graph& graph, Stream<T>& upstream, std::string name = "distinct")
      : OperatorBase(graph, std::move(name)) {
    upstream.subscribe([this](const ZSet<T>& d) {
      pending_.merge(d);
      graph_.schedule(*this);
    });
  }

  void flush() override {
    ZSet<T> delta;
    for (const auto& [t, w] : pending_) {
      const Weight before = counts_.weight(t);
      const Weight after = before + w;
      counts_.add(t, w);
      const int sign_before = before > 0 ? 1 : 0;
      const int sign_after = after > 0 ? 1 : 0;
      if (sign_after != sign_before) delta.add(t, sign_after - sign_before);
    }
    pending_.clear();
    detail::emit_delta(graph_, *this, out, delta);
  }

  std::shared_ptr<const void> save_state() const override {
    return std::make_shared<const ZSet<T>>(counts_);
  }
  void load_state(const void* state) override {
    counts_ = *static_cast<const ZSet<T>*>(state);
    pending_.clear();
  }

  Stream<T> out;

 private:
  ZSet<T> counts_;
  ZSet<T> pending_;
};

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Materialized sink: exposes the relation's current contents plus the
/// accumulated delta since the caller last drained it.
template <class T>
class Output final : public OperatorBase {
 public:
  Output(Graph& graph, Stream<T>& upstream, std::string name = "output")
      : OperatorBase(graph, std::move(name)) {
    upstream.subscribe([this](const ZSet<T>& d) {
      pending_.merge(d);
      graph_.schedule(*this);
    });
  }

  void flush() override {
    current_.merge(pending_);
    accumulated_.merge(std::move(pending_));
    pending_.clear();
  }

  std::shared_ptr<const void> save_state() const override {
    return std::make_shared<const Saved>(Saved{current_, accumulated_});
  }
  void load_state(const void* state) override {
    const Saved& s = *static_cast<const Saved*>(state);
    current_ = s.current;
    accumulated_ = s.accumulated;
    pending_.clear();
  }

  const ZSet<T>& current() const noexcept { return current_; }

  /// Deltas accumulated since the previous take_delta() call.
  ZSet<T> take_delta() {
    ZSet<T> d = std::move(accumulated_);
    accumulated_.clear();
    return d;
  }

 private:
  struct Saved {
    ZSet<T> current;
    ZSet<T> accumulated;
  };

  ZSet<T> current_;
  ZSet<T> accumulated_;
  ZSet<T> pending_;
};

}  // namespace rcfg::dd
