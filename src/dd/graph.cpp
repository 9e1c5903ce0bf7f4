#include "dd/graph.h"

#include <atomic>

namespace rcfg::dd {

OperatorBase::OperatorBase(Graph& graph, std::string name)
    : graph_(graph), name_(std::move(name)) {}

void Graph::commit() {
  in_commit_ = true;
  commit_flush_counter_ = 0;
  recurrence_.assign(ops_.size(), RecurrenceState{});

  // On divergence operators are left half flushed, pending inputs included,
  // until restore() overwrites them; keep the bookkeeping consistent.
  struct CommitGuard {
    Graph& graph;
    ~CommitGuard() {
      graph.in_commit_ = false;
      graph.ready_.clear();
      graph.last_commit_flushes_ = graph.commit_flush_counter_;
    }
  } guard{*this};

  while (!ready_.empty()) {
    const std::uint32_t id = *ready_.begin();
    ready_.erase(ready_.begin());
    OperatorBase& op = *ops_[id];
    ++op.flushes_;
    ++commit_flush_counter_;
    recurrence_[id].commit_flushes += 1;
    if (commit_flush_counter_ > flush_budget_) {
      // Find the hottest operator for the diagnostic.
      std::uint32_t hottest = 0;
      for (std::uint32_t i = 0; i < recurrence_.size(); ++i) {
        if (recurrence_[i].commit_flushes > recurrence_[hottest].commit_flushes) hottest = i;
      }
      throw NonterminationError(
          "dataflow commit exceeded flush budget (" + std::to_string(flush_budget_) +
          "); hottest operator: " + ops_[hottest]->name() + " with " +
          std::to_string(recurrence_[hottest].commit_flushes) + " flushes");
    }
    if (base_id_ == 0) {
      op.flush();
      continue;
    }
    const std::size_t before = op.journal_size();
    op.flush();
    journal_entries_ += op.journal_size() - before;  // modular: sizes may shrink
    if (journal_entries_ > base_entries_) stop_journaling();
  }

  ++commits_;
}

GraphSnapshot Graph::snapshot() const {
  if (in_commit_) throw std::logic_error("Graph::snapshot: called during commit()");
  if (!ready_.empty()) {
    throw std::logic_error("Graph::snapshot: pending work scheduled; commit() first");
  }
  GraphSnapshot snap;
  snap.op_state.reserve(ops_.size());
  for (const auto& op : ops_) snap.op_state.push_back(op->save_state());
  snap.commits = commits_;
  static std::atomic<std::uint64_t> next_id{1};
  snap.id = next_id.fetch_add(1, std::memory_order_relaxed);
  return snap;
}

void Graph::restore(const GraphSnapshot& snap) {
  if (in_commit_) throw std::logic_error("Graph::restore: called during commit()");
  if (snap.op_state.size() != ops_.size()) {
    throw std::logic_error("Graph::restore: snapshot has " +
                           std::to_string(snap.op_state.size()) + " operators, graph has " +
                           std::to_string(ops_.size()) + " (different program?)");
  }
  if (snap.id != 0 && snap.id == base_id_) {
    for (std::size_t i = 0; i < ops_.size(); ++i) ops_[i]->rollback(snap.op_state[i].get());
  } else {
    std::size_t entries = 0;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      entries += ops_[i]->load_state(snap.op_state[i].get());
    }
    base_id_ = snap.id;
    base_entries_ = entries;
  }
  journal_entries_ = 0;
  ready_.clear();
  commits_ = snap.commits;
  last_commit_flushes_ = 0;
}

void Graph::stop_journaling() {
  for (const auto& op : ops_) op->drop_journal();
  base_id_ = 0;
  journal_entries_ = 0;
}

void Graph::note_emitted_delta(const OperatorBase& op, std::size_t delta_hash) {
  RecurrenceState& rs = recurrence_[op.id()];
  // Heuristic: a convergent computation keeps producing *new* (shrinking)
  // deltas; an oscillating one cycles through the same few deltas forever.
  // Seeing hashes that already sit in the recent-history ring many times in
  // a row is treated as recurrence. The ring catches period-k cycles for
  // k <= kRing (e.g., the +route/-route flip of BGP route oscillation).
  bool seen_recently = false;
  for (std::size_t h : rs.ring) {
    if (h != 0 && h == delta_hash) {
      seen_recently = true;
      break;
    }
  }
  rs.ring[rs.ring_pos] = delta_hash;
  rs.ring_pos = (rs.ring_pos + 1) % RecurrenceState::kRing;
  if (seen_recently) {
    if (++rs.repeats >= 2 * RecurrenceState::kRing) {
      throw RecurringStateError("recurring state detected at operator '" + op.name() +
                                "' after " + std::to_string(rs.commit_flushes) +
                                " flushes: the control plane likely oscillates "
                                "(multiple converged states or no convergence)");
    }
  } else {
    rs.repeats = 0;
  }
}

}  // namespace rcfg::dd
