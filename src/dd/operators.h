#pragma once

// The incremental operator library: Input, Map, Filter, Negate, Concat,
// Join, Reduce, Output.
//
// Every operator keeps whatever persistent state it needs (join
// arrangements, reduce groups) so that processing a delta
// costs time proportional to the delta and the state it touches — never to
// the full relation. That state reuse is precisely the "incremental
// computation" the paper borrows from differential dataflow. While the
// graph journals (graph.h), each stateful operator also merges the deltas
// it applies to that state into an undo journal, which rollback() negates.

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dd/graph.h"
#include "dd/zset.h"

namespace rcfg::dd {

namespace detail {

/// Emit with recurring-state bookkeeping; the delta is hashed only once the
/// operator is hot enough for the detector to read the hash.
template <class T>
void emit_delta(Graph& graph, OperatorBase& op, Stream<T>& out, const ZSet<T>& delta) {
  if (delta.empty()) return;
  if (graph.tracks_recurrence(op)) graph.note_emitted_delta(op, delta.content_hash());
  out.emit(delta);
}

/// Subtract an undo journal from the state it was recorded against.
template <class T>
void unapply(ZSet<T>& state, const ZSet<T>& journal) {
  for (const auto& [t, w] : journal) state.add(t, -w);
}

/// Base of the stateless operators: one pending buffer and no persistent
/// state, so every restore just discards the buffer.
template <class In>
class Stateless : public OperatorBase {
 public:
  using OperatorBase::OperatorBase;

  std::shared_ptr<const void> save_state() const final { return nullptr; }
  std::size_t load_state(const void*) final {
    pending_.clear();
    return 0;
  }
  void rollback(const void*) final { pending_.clear(); }
  std::size_t journal_size() const noexcept final { return 0; }
  void drop_journal() final {}

 protected:
  void subscribe_to(Stream<In>& upstream) {
    upstream.subscribe([this](const ZSet<In>& d) {
      pending_.merge(d);
      graph_.schedule(*this);
    });
  }

  ZSet<In> pending_;
};

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
    if (journaling()) journal_.merge(delta);
    detail::emit_delta(graph_, *this, out, delta);
  }

  std::shared_ptr<const void> save_state() const override {
    return std::make_shared<const ZSet<T>>(current_);
  }
  std::size_t load_state(const void* state) override {
    current_ = *static_cast<const ZSet<T>*>(state);
    pending_.clear();
    journal_.clear();
    return current_.size();
  }
  void rollback(const void*) override {
    detail::unapply(current_, journal_);
    pending_.clear();
    journal_.clear();
  }
  std::size_t journal_size() const noexcept override { return journal_.size(); }
  void drop_journal() override { journal_ = {}; }

  const ZSet<T>& current() const noexcept { return current_; }

  Stream<T> out;

 private:
  ZSet<T> current_;
  ZSet<T> pending_;
  ZSet<T> journal_;
};

// ---------------------------------------------------------------------------
// Stateless per-tuple operators
// ---------------------------------------------------------------------------

/// One-to-one transform; weights pass through.
template <class In, class Out>
class Map final : public detail::Stateless<In> {
 public:
  using Fn = std::function<Out(const In&)>;

  Map(Graph& graph, Stream<In>& upstream, Fn fn, std::string name = "map")
      : detail::Stateless<In>(graph, std::move(name)), fn_(std::move(fn)) {
    this->subscribe_to(upstream);
  }

  void flush() override {
    ZSet<Out> delta;
    for (const auto& [t, w] : this->pending_) delta.add(fn_(t), w);
    this->pending_.clear();
    detail::emit_delta(this->graph_, *this, out, delta);
  }

  Stream<Out> out;

 private:
  Fn fn_;
};

template <class T>
class Filter final : public detail::Stateless<T> {
 public:
  using Fn = std::function<bool(const T&)>;

  Filter(Graph& graph, Stream<T>& upstream, Fn fn, std::string name = "filter")
      : detail::Stateless<T>(graph, std::move(name)), fn_(std::move(fn)) {
    this->subscribe_to(upstream);
  }

  void flush() override {
    ZSet<T> delta;
    for (const auto& [t, w] : this->pending_) {
      if (fn_(t)) delta.add(t, w);
    }
    this->pending_.clear();
    detail::emit_delta(this->graph_, *this, out, delta);
  }

  Stream<T> out;

 private:
  Fn fn_;
};

/// Weight negation: the output is the input with every multiplicity
/// flipped. concat(a, negate(b)) materializes the difference a - b, which
/// is how convergence checks compare two relations cheaply.
template <class T>
class Negate final : public detail::Stateless<T> {
 public:
  Negate(Graph& graph, Stream<T>& upstream, std::string name = "negate")
      : detail::Stateless<T>(graph, std::move(name)) {
    this->subscribe_to(upstream);
  }

  void flush() override {
    ZSet<T> delta;
    for (const auto& [t, w] : this->pending_) delta.add(t, -w);
    this->pending_.clear();
    detail::emit_delta(this->graph_, *this, out, delta);
  }

  Stream<T> out;
};

/// N-ary union (weights add). `add_input` may be called after downstream
/// operators were built, which is how feedback cycles are tied.
template <class T>
class Concat final : public detail::Stateless<T> {
 public:
  explicit Concat(Graph& graph, std::string name = "concat")
      : detail::Stateless<T>(graph, std::move(name)) {}

  void add_input(Stream<T>& upstream) { this->subscribe_to(upstream); }

  void flush() override {
    ZSet<T> delta = std::move(this->pending_);
    this->pending_.clear();
    detail::emit_delta(this->graph_, *this, out, delta);
  }

  Stream<T> out;
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
    if (journaling()) journal_left_.merge(std::move(da));  // steals into an empty journal
    // dB joined against the *new* left arrangement.
    for (const auto& [kb, wb] : db) {
      auto it = left_.find(kb.first);
      if (it == left_.end()) continue;
      for (const auto& [a, wa] : it->second) {
        if (auto o = fn_(kb.first, a, kb.second)) delta.add(std::move(*o), wa * wb);
      }
    }
    apply(right_, db);
    if (journaling()) journal_right_.merge(std::move(db));

    detail::emit_delta(graph_, *this, out, delta);
  }

  std::shared_ptr<const void> save_state() const override {
    return std::make_shared<const Saved>(Saved{left_, right_, entries(left_) + entries(right_)});
  }
  std::size_t load_state(const void* state) override {
    const Saved& s = *static_cast<const Saved*>(state);
    left_ = s.left;
    right_ = s.right;
    clear_buffers();
    return s.entries;
  }
  void rollback(const void*) override {
    apply(left_, journal_left_, -1);
    apply(right_, journal_right_, -1);
    clear_buffers();
  }
  std::size_t journal_size() const noexcept override {
    return journal_left_.size() + journal_right_.size();
  }
  void drop_journal() override {
    journal_left_ = {};
    journal_right_ = {};
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
    std::size_t entries;
  };

  /// Add `delta` (negated when `sign` is -1) to the arrangement.
  template <class V>
  static void apply(Arrangement<V>& arr, const ZSet<std::pair<K, V>>& delta, Weight sign = 1) {
    for (const auto& [kv, w] : delta) {
      ZSet<V>& group = arr[kv.first];
      group.add(kv.second, sign * w);
      if (group.empty()) arr.erase(kv.first);
    }
  }

  template <class V>
  static std::size_t entries(const Arrangement<V>& arr) {
    std::size_t n = 0;
    for (const auto& [k, group] : arr) n += group.size();
    return n;
  }

  void clear_buffers() {
    pending_left_.clear();
    pending_right_.clear();
    journal_left_.clear();
    journal_right_.clear();
  }

  Fn fn_;
  Arrangement<A> left_;
  Arrangement<B> right_;
  ZSet<std::pair<K, A>> pending_left_;
  ZSet<std::pair<K, B>> pending_right_;
  ZSet<std::pair<K, A>> journal_left_;
  ZSet<std::pair<K, B>> journal_right_;
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
    const bool journal = journaling();
    ZSet<K> unique;
    for (const auto& [kv, w] : pending_) {
      groups_.try_emplace(kv.first).first->second.input.add(kv.second, w);
      unique.add(kv.first, 1);
    }
    if (journal) journal_in_.merge(std::move(pending_));
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
      if (journal) {
        for (const auto& [o, w] : diff) journal_out_.add({k, o}, w);
      }
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
    std::size_t entries = 0;
    for (const auto& [k, g] : groups_) entries += g.input.size() + g.output.size();
    return std::make_shared<const Saved>(Saved{groups_, entries});
  }
  std::size_t load_state(const void* state) override {
    const Saved& s = *static_cast<const Saved*>(state);
    groups_ = s.groups;
    clear_buffers();
    return s.entries;
  }
  void rollback(const void*) override {
    for (const auto& [kv, w] : journal_in_) groups_[kv.first].input.add(kv.second, -w);
    for (const auto& [ko, w] : journal_out_) groups_[ko.first].output.add(ko.second, -w);
    // Groups the base did not have are empty again: drop them as flush() does.
    for (const auto& [kv, w] : journal_in_) {
      auto it = groups_.find(kv.first);
      if (it != groups_.end() && it->second.input.empty()) groups_.erase(it);
    }
    clear_buffers();
  }
  std::size_t journal_size() const noexcept override {
    return journal_in_.size() + journal_out_.size();
  }
  void drop_journal() override {
    journal_in_ = {};
    journal_out_ = {};
  }

  Stream<Out> out;

  std::size_t group_count() const noexcept { return groups_.size(); }

 private:
  struct Group {
    ZSet<V> input;
    ZSet<Out> output;
  };
  using Groups = std::unordered_map<K, Group, core::TupleHash>;
  struct Saved {
    Groups groups;
    std::size_t entries;
  };

  void clear_buffers() {
    pending_.clear();
    journal_in_.clear();
    journal_out_.clear();
  }

  Fn fn_;
  Groups groups_;
  ZSet<std::pair<K, V>> pending_;
  ZSet<std::pair<K, V>> journal_in_;
  ZSet<std::pair<K, Out>> journal_out_;  ///< per-group output diffs
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
    if (journaling()) journal_.merge(pending_);
    accumulated_.merge(std::move(pending_));
    pending_.clear();
  }

  std::shared_ptr<const void> save_state() const override {
    return std::make_shared<const Saved>(Saved{current_, accumulated_});
  }
  std::size_t load_state(const void* state) override {
    const Saved& s = *static_cast<const Saved*>(state);
    current_ = s.current;
    accumulated_ = s.accumulated;
    pending_.clear();
    journal_.clear();
    return current_.size() + accumulated_.size();
  }
  /// take_delta() drains accumulated_ wholesale, so it is not journaled:
  /// the rollback reloads it from the blob (empty once the caller drained
  /// it before the snapshot).
  void rollback(const void* state) override {
    detail::unapply(current_, journal_);
    accumulated_ = static_cast<const Saved*>(state)->accumulated;
    pending_.clear();
    journal_.clear();
  }
  std::size_t journal_size() const noexcept override { return journal_.size(); }
  void drop_journal() override { journal_ = {}; }

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
  ZSet<T> journal_;
};

}  // namespace rcfg::dd
