#pragma once

// The concurrent verification engine: N worker threads serving many
// Sessions, each session fed by a bounded FIFO request queue.
//
//   * Isolation / concurrency — a session is processed by at most one
//     worker at a time (Sessions are single-threaded by contract), while
//     distinct sessions verify fully in parallel.
//   * Batching — a worker claims a session's *entire* pending queue at
//     once. Within that batch, a run of consecutive `propose` requests is
//     coalesced: only the last configuration is verified (earlier ones are
//     answered "coalesced"), so a burst of changes becomes one incremental
//     apply() whose input delta is the whole burst — the service layer is
//     what turns an update stream into the paper's §4 batch mode.
//   * Backpressure — submit() blocks while the target session's queue is at
//     queue_capacity, bounding memory under overload. With
//     `reject_on_full`, a full queue instead answers immediately with an
//     explicit "backpressure" error, so callers can shed load rather than
//     stall.
//   * Admission — with max_sessions > 0, submit() answers an `open` with
//     an explicit "admission denied" error once live sessions plus opens
//     still in flight reach the bound. Both are counted under the engine
//     lock, so pipelined or concurrent opens cannot overshoot it; an open
//     that fails gives its place back before it is answered.
//   * Recovery — nonterminating proposals are absorbed by Session (the
//     diverged apply changes nothing and the session rolls back to the last
//     committed config); the engine reports the structured outcome, counts
//     the recovery and streams the roll back to replicas like an abort.
//
// Read replicas (sessions opened with "replicas":N > 0):
//
//   The slot keeps the primary Session plus N replica *lanes*, each a full
//   fork of the session (Session::fork_replica). Read verbs — query,
//   explain, relate without "primary":true — are routed to a lane and
//   processed by a dedicated read-worker pool, so a read never queues
//   behind an in-flight verification, on either the session's FIFO or the
//   write workers. Routing is fence-aware: round-robin across the lanes
//   already at the read's fence (the read is answerable with no replay);
//   when none is, the freshest lane, so catch-up work concentrates on one
//   lane instead of being paid by all of them. Mutations stay on the
//   primary; after the primary acknowledges each request it advances the
//   session's epoch and enqueues one ReplicaDelta per lane (kNoop for
//   non-mutating verbs). A lane whose backlog reaches kLaneResyncBacklog
//   is squashed: the backlog is replaced by one snapshot resync, so a
//   lagging lane costs a fork per backlog rather than a replay per
//   mutation.
//
//   Consistency — read-your-acknowledged-writes: a read is fenced at the
//   epoch of the latest *acknowledged* mutation at submit time, and a lane
//   answers it only after consuming deltas up to that fence. Reads never
//   wait for in-flight proposes (that would reintroduce the head-of-line
//   blocking replicas exist to remove), and lanes replay the identical
//   apply stream, so their answers are bit-identical to the primary's at
//   the same epoch. Where incremental replay cannot preserve EC ids —
//   reclamation merges, backend migrations — the primary streams a
//   snapshot resync (a fresh fork) instead. See DESIGN.md.
//
// Verbs: what the engine needs to know about each verb — its name, whether
// it names a session, whether it is a replica read — comes from the verb
// table in protocol.h (kVerbs): read routing, the per-verb request counters
// and the response envelope all read it. The engine's one per-verb switch
// (run_) does each verb's work and returns its body; one envelope adds "id"
// and "session" and answers a verb's exception as "<verb>: <what>".
//
// Callbacks run on whichever thread produced the response: a worker thread
// for queued requests, the submitting thread for immediate errors and
// `stats`. `stats` first waits for all previously submitted requests to
// finish, so its numbers describe a quiescent engine.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <thread>
#include <vector>

#include "service/metrics.h"
#include "service/protocol.h"
#include "service/session.h"

namespace rcfg::service {

struct EngineOptions {
  unsigned workers = 2;
  /// Dedicated pool for replica-lane reads; only exercised by sessions
  /// opened with replicas. Kept separate from `workers` so reads are never
  /// starved of a thread by long verifications.
  unsigned read_workers = 2;
  std::size_t queue_capacity = 64;  ///< per-session; submit() blocks beyond
  bool coalesce = true;             ///< batch consecutive proposes
  /// Answer "backpressure: session queue full" instead of blocking the
  /// submitter when a queue is at capacity.
  bool reject_on_full = false;
  /// 0 = unlimited; else an open beyond live + in-flight opens is denied.
  std::size_t max_sessions = 0;
};

/// A replica lane's pending-delta backlog collapses into one snapshot
/// resync once it reaches this many deltas. Under write saturation a lane
/// that cannot keep up would otherwise replay every mutation — N lanes
/// multiply verification work N-fold; squashing caps a lagging lane's cost
/// at one fork per kLaneResyncBacklog mutations and bounds its backlog
/// memory.
inline constexpr std::size_t kLaneResyncBacklog = 8;

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  /// Finishes every queued request, then stops the workers.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  using Callback = std::function<void(Response)>;

  /// Enqueue a request; the callback receives exactly one Response. Blocks
  /// while the session's queue is full (backpressure), unless
  /// reject_on_full. Requests that cannot be routed (unknown session,
  /// duplicate open, an open beyond max_sessions) are answered with an
  /// error on the calling thread.
  void submit(Request req, Callback callback);

  /// Synchronous convenience: submit + wait for the response.
  Response call(Request req);

  /// Block until every request submitted so far has been processed.
  void drain();

  /// Gate worker dispatch: while paused, workers finish their current batch
  /// but claim no new one, so submitted requests pile up in the session
  /// queues (deterministic batches in tests; quiesce in operations).
  void pause();
  void resume();

  ServiceMetrics& metrics() { return metrics_; }
  std::size_t session_count() const;

  /// {"metrics": ..., "sessions": [...]} — the body of a `stats` response.
  json::Value stats_json() const;

 private:
  struct Pending {
    Request req;
    Callback callback;
    /// Replica-lane reads only: the session epoch this read must observe
    /// (the acknowledged-mutation count at submit time).
    std::uint64_t fence = 0;
  };

  /// One read replica: a forked Session, its fenced read queue, and the
  /// delta backlog the primary has streamed but the lane has not consumed.
  struct ReplicaLane {
    std::unique_ptr<Session> replica;
    std::deque<Pending> queue;
    std::deque<ReplicaDelta> deltas;
    std::uint64_t epoch = 0;  ///< deltas consumed up to here
    bool busy = false;
    bool ready = false;  ///< queued in read_ready_
    /// Delta replay threw (cannot happen when primary and fork agree; this
    /// is the containment path): the lane stops serving, queued reads fall
    /// back to the primary.
    bool broken = false;
  };

  struct Slot {
    std::unique_ptr<Session> session;  ///< null until `open` has been processed
    /// Mirror of `session != nullptr` for threads that don't own the slot.
    /// `session` itself is assigned by the owning worker outside `mu_`, so
    /// submit/session_count must read this flag (written under `mu_` in
    /// acknowledge_, before the open's callback fires) instead.
    bool has_session = false;
    std::deque<Pending> queue;
    bool busy = false;   ///< a worker is processing this session
    bool ready = false;  ///< queued in ready_
    /// High-water mark of the session's cumulative unknown-unregister
    /// count already folded into the service counter.
    std::uint64_t unknown_unregisters_seen = 0;

    std::vector<std::unique_ptr<ReplicaLane>> lanes;  ///< empty without replicas
    std::uint64_t processed_epoch = 0;  ///< mutations acknowledged by the primary
    std::size_t next_lane = 0;          ///< round-robin read routing cursor
  };

  /// What a handled request must stream to the session's replica lanes
  /// (always exactly one delta per lane — kNoop when nothing changed — so
  /// the epoch advances uniformly and fences never deadlock).
  struct ReplicaEffect {
    ReplicaDelta::Kind kind = ReplicaDelta::Kind::kNoop;
    std::shared_ptr<const config::NetworkConfig> config;
    bool staged_after = false;
    bool recovery = false;
    std::shared_ptr<const PolicySpec> policy;
    std::shared_ptr<const ::rcfg::explain::BatchRecord> record;
    unsigned install_lanes = 0;  ///< open only: fork this many lanes

    /// Stream a converged apply of `applied` (propose, or the re-apply of
    /// abort or of a nonconvergent proposal's recovery): a replay of it
    /// with the batch's provenance record, or a snapshot resync when the EC
    /// id space moved underneath (a reclamation merge or a backend
    /// migration), which incremental replay cannot reproduce.
    void replay(const Session& session, bool id_space_moved,
                std::shared_ptr<const config::NetworkConfig> applied, bool staged);
  };

  void worker_loop_();
  void read_worker_loop_();
  void process_batch_(Slot& slot, std::vector<Pending> batch);
  /// Run one verb and return its response body (the caller wraps it in
  /// the response envelope); throws on failure. `slot` is null for stats
  /// and on a replica lane, which runs only replica reads; `session` (the
  /// primary or a lane's replica) is null for open and stats.
  json::Value run_(Slot* slot, Session* session, const Request& req, ReplicaEffect& effect);
  void record_report_(Slot& slot, const verify::RealConfig::Report& report);
  /// Advance the slot's epoch and stream `effect` to every lane (plus lane
  /// installation / resync forks), and give back the admission place of an
  /// open that did not create the session. Called by the primary worker
  /// after each request, before the callback fires.
  void acknowledge_(Slot& slot, Verb verb, ReplicaEffect effect);
  /// True if a read worker could make progress on the lane right now.
  static bool lane_claimable_(const ReplicaLane& lane);
  void enqueue_lane_(const std::string& name, Slot& slot, std::size_t index);

  EngineOptions options_;
  ServiceMetrics metrics_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< write workers: ready_ / stop / resume
  std::condition_variable read_cv_;   ///< read workers: read_ready_ / stop / resume
  std::condition_variable space_cv_;  ///< submitters: queue has room again
  std::condition_variable idle_cv_;   ///< drain(): engine went quiescent
  std::map<std::string, Slot> slots_;
  std::deque<std::string> ready_;     ///< sessions with pending, unclaimed work
  std::deque<std::pair<std::string, std::size_t>> read_ready_;  ///< (session, lane)
  unsigned active_workers_ = 0;       ///< both pools
  std::size_t admitted_ = 0;          ///< live sessions + opens in flight
  bool paused_ = false;
  bool stop_ = false;

  std::vector<std::thread> workers_;
  std::vector<std::thread> read_workers_;
};

}  // namespace rcfg::service
