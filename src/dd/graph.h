#pragma once

// Dataflow graph core: operators, typed streams, and the delta scheduler.
//
// Execution model (the substitute for Differential Dataflow, see DESIGN.md
// §2): users mutate Input operators, then call Graph::commit(). The
// scheduler flushes operators in ascending id order; flushing consumes an
// operator's pending input deltas, updates its persistent state, and emits
// an output delta to its subscribers' pending buffers. Feedback edges
// (subscriptions from a later operator back to an earlier one) simply
// re-schedule the earlier operator, so recursive programs iterate until no
// pending deltas remain — a fixpoint reached *from the previous fixpoint*,
// touching only state reachable from the input change.
//
// Nontermination (paper §6): a commit that exceeds the flush budget throws
// NonterminationError; a cheap recurring-delta heuristic upgrades the
// diagnosis to RecurringStateError when an operator keeps re-emitting the
// same delta (the signature of BGP-style route oscillation).
//
// Snapshot / restore: snapshot() checkpoints every operator's state into
// shared immutable blobs stamped with a process-unique id. restore() deep-
// copies the blobs back (O(state)) and makes that snapshot the graph's
// *base*: from then on every stateful operator also merges each delta it
// applies to its state into a journal Z-set. Restoring the base again rolls
// the journals back instead (O(change) — a change and its revert cancel
// inside the journal). Any other snapshot deep-copies and rebases. Journals
// are bounded: once they hold more entries than the state did at the base,
// rollback would cost more than the copy, so the graph drops them, stops
// journaling, and its next restore deep-copies. A graph that was never
// restored never journals.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "dd/zset.h"

namespace rcfg::dd {

class Graph;

/// Commit diverged: the flush budget was exhausted without quiescence.
class NonterminationError : public std::runtime_error {
 public:
  explicit NonterminationError(const std::string& message) : std::runtime_error(message) {}
};

/// Commit diverged *and* revisited a previously seen delta — strong
/// evidence of an oscillating (multi-stable) control plane.
class RecurringStateError : public NonterminationError {
 public:
  explicit RecurringStateError(const std::string& message) : NonterminationError(message) {}
};

/// Base class of every dataflow operator. Identity (`id`) doubles as the
/// scheduling priority; operators are created in dependency order for
/// acyclic edges, so ascending-id scheduling gives each operator at most
/// one flush per "round" of a recursive computation.
///
/// Stateful operators keep an undo journal next to their state: while
/// journaling() is on, flush() merges every delta it applies to the state
/// into the journal, so `state - journal` is always the state at the
/// graph's base snapshot. Stateless operators have no journal.
class OperatorBase {
 public:
  explicit OperatorBase(Graph& graph, std::string name);
  virtual ~OperatorBase() = default;

  OperatorBase(const OperatorBase&) = delete;
  OperatorBase& operator=(const OperatorBase&) = delete;

  /// Consume pending inputs, update state, emit deltas downstream.
  virtual void flush() = 0;

  /// Deep-copy the operator's persistent state (arrangements, groups,
  /// counts) into an immutable, type-erased blob. Stateless operators
  /// return nullptr. The blob is shared: many forks may restore from it.
  virtual std::shared_ptr<const void> save_state() const = 0;

  /// Replace the operator's state with a copy of `state` — a blob produced
  /// by save_state() on an operator occupying the same graph position —
  /// and discard any pending input deltas and the journal. `state` may be
  /// nullptr for stateless operators. Returns the number of state entries
  /// loaded (tuples, arrangement or group entries), which sizes the
  /// journal bound.
  virtual std::size_t load_state(const void* state) = 0;

  /// Return to `state`, the blob last passed to load_state(), by
  /// un-applying the journal; discard pending input deltas and the
  /// journal. Reads only what the journal does not cover (Output's
  /// undrained delta) from the blob.
  virtual void rollback(const void* state) = 0;

  /// Entries currently held in the journal (0 for stateless operators).
  virtual std::size_t journal_size() const noexcept = 0;

  /// Discard the journal (the graph stopped journaling).
  virtual void drop_journal() = 0;

  std::uint32_t id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  std::uint64_t flush_count() const noexcept { return flushes_; }

 protected:
  /// True while the graph records undo journals (see file header).
  bool journaling() const noexcept;

  Graph& graph_;

 private:
  friend class Graph;
  std::uint32_t id_ = 0;
  std::string name_;
  std::uint64_t flushes_ = 0;
};

/// A typed edge bundle: the producer-side handle holding subscriber
/// callbacks. Subscribers merge emitted deltas into their pending buffers
/// and ask the graph to schedule them.
template <class T>
class Stream {
 public:
  using Subscriber = std::function<void(const ZSet<T>&)>;

  void subscribe(Subscriber fn) { subs_.push_back(std::move(fn)); }

  /// Deliver a delta to all subscribers (no-op when empty).
  void emit(const ZSet<T>& delta) {
    if (delta.empty()) return;
    for (const Subscriber& s : subs_) s(delta);
  }

 private:
  std::vector<Subscriber> subs_;
};

/// A checkpoint of every operator's persistent state, taken at quiescence.
/// The per-operator blobs are immutable and shared, so one snapshot can
/// seed any number of forked replicas without further copying. Restoring a
/// graph's base snapshot rolls its journals back; any other restore
/// deep-copies blob contents into the operators and makes `id` the base.
struct GraphSnapshot {
  std::vector<std::shared_ptr<const void>> op_state;
  std::uint64_t commits = 0;
  /// Process-unique stamp from snapshot(); copies share it. 0 (a snapshot
  /// not made by snapshot()) never matches a base, so it always deep-copies.
  std::uint64_t id = 0;
};

/// Owns the operators and runs commits. See file header for the model.
class Graph {
 public:
  Graph() = default;

  /// Construct an operator of type Op in this graph.
  template <class Op, class... Args>
  Op& make(Args&&... args) {
    auto op = std::make_unique<Op>(*this, std::forward<Args>(args)...);
    Op& ref = *op;
    ref.id_ = static_cast<std::uint32_t>(ops_.size());
    ops_.push_back(std::move(op));
    return ref;
  }

  /// Mark an operator as having pending input.
  void schedule(OperatorBase& op) { ready_.insert(op.id()); }

  /// Run to quiescence. Throws NonterminationError / RecurringStateError if
  /// the flush budget is exceeded.
  void commit();

  /// Total flushes allowed per commit before declaring divergence. The
  /// default is generous: a converging routing computation needs at most
  /// O(diameter * operators) flushes.
  void set_flush_budget(std::uint64_t budget) noexcept { flush_budget_ = budget; }

  /// Once an operator has been flushed more than this many times within one
  /// commit, its emitted-delta hashes are recorded for the recurring-state
  /// heuristic. 0 disables the heuristic.
  void set_recurrence_threshold(std::uint64_t threshold) noexcept {
    recurrence_threshold_ = threshold;
  }

  std::size_t operator_count() const noexcept { return ops_.size(); }
  std::uint64_t last_commit_flushes() const noexcept { return last_commit_flushes_; }
  std::uint64_t commit_count() const noexcept { return commits_; }

  /// Checkpoint every operator's state. Requires quiescence (no operator
  /// scheduled); throws std::logic_error mid-commit or with pending work.
  GraphSnapshot snapshot() const;

  /// Restore every operator's state from `snap`, discarding pending deltas
  /// and clearing the schedule. The snapshot must come from a graph with an
  /// identical program (same operator count/order) — in practice either this
  /// graph or one built by the same deterministic builder. Safe to call on a
  /// graph whose last commit diverged: partially flushed state is simply
  /// overwritten (or rolled back). O(change) when `snap` is this graph's
  /// base and the journals are still on, O(state) otherwise (file header).
  void restore(const GraphSnapshot& snap);

  /// True once `op` has been flushed recurrence_threshold times within the
  /// running commit: only then does the recurring-state detector read its
  /// emitted-delta hashes.
  bool tracks_recurrence(const OperatorBase& op) const noexcept;
  /// Used by operators (inside flush) to report the hash of the delta they
  /// just emitted, feeding the recurring-state detector. Call only when
  /// tracks_recurrence(op).
  void note_emitted_delta(const OperatorBase& op, std::size_t delta_hash);

 private:
  friend class OperatorBase;

  void stop_journaling();

  std::vector<std::unique_ptr<OperatorBase>> ops_;
  std::set<std::uint32_t> ready_;  // ordered: lowest id flushed first
  std::uint64_t flush_budget_ = 50'000'000;
  std::uint64_t recurrence_threshold_ = 10'000;
  std::uint64_t last_commit_flushes_ = 0;
  std::uint64_t commits_ = 0;

  // Recurring-state detection scratch (reset each commit). A ring of
  // recently emitted delta hashes catches period-k oscillations (k <= ring
  // size), not just period-1.
  struct RecurrenceState {
    static constexpr std::size_t kRing = 8;
    std::uint64_t commit_flushes = 0;
    std::size_t ring[kRing] = {};
    std::size_t ring_pos = 0;
    std::uint32_t repeats = 0;
  };
  std::vector<RecurrenceState> recurrence_;
  bool in_commit_ = false;
  std::uint64_t commit_flush_counter_ = 0;

  // Undo journaling (file header). base_id_ is the snapshot last deep-
  // restored from, 0 while not journaling; base_entries_ its state size.
  std::uint64_t base_id_ = 0;
  std::size_t base_entries_ = 0;
  std::size_t journal_entries_ = 0;
};

inline bool OperatorBase::journaling() const noexcept { return graph_.base_id_ != 0; }

inline bool Graph::tracks_recurrence(const OperatorBase& op) const noexcept {
  return in_commit_ && recurrence_threshold_ != 0 &&
         recurrence_[op.id()].commit_flushes >= recurrence_threshold_;
}

}  // namespace rcfg::dd
