#include "service/engine.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <stdexcept>
#include <utility>

#include "config/parse.h"
#include "dd/graph.h"

namespace rcfg::service {

namespace {

/// Runs `f` and records its wall time in `h` (not when it throws).
template <class F>
auto timed(Histogram& h, F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  auto result = f();
  h.record(
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count());
  return result;
}

/// The response envelope: the body `f` builds plus "id" and, for a verb
/// that names a session, "session". An exception from `f` is answered as
/// "<verb>: <what>".
template <class F>
Response respond(const Request& req, F&& f) {
  Response r;
  r.id = req.id;
  try {
    r.body = f();
  } catch (const std::exception& e) {
    return error_response(req.id, std::string(verb_name(req.verb)) + ": " + e.what());
  }
  if (verb_info(req.verb).needs_session) r.body["session"] = json::Value(req.session);
  return r;
}

}  // namespace

Engine::Engine(EngineOptions options) : options_(options) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.read_workers == 0) options_.read_workers = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  workers_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop_(); });
  }
  read_workers_.reserve(options_.read_workers);
  for (unsigned i = 0; i < options_.read_workers; ++i) {
    read_workers_.emplace_back([this] { read_worker_loop_(); });
  }
}

Engine::~Engine() {
  resume();
  drain();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  read_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  for (std::thread& t : read_workers_) t.join();
}

void Engine::pause() {
  const std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void Engine::resume() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
  read_cv_.notify_all();
}

void Engine::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    if (active_workers_ != 0) return false;
    for (const auto& [name, slot] : slots_) {
      if (!slot.queue.empty() || slot.busy) return false;
      for (const auto& lane : slot.lanes) {
        // Pending deltas alone don't block drain — only unanswered reads
        // do. (Lanes with a backlog are already queued for catch-up.)
        if (!lane->queue.empty() || lane->busy) return false;
      }
    }
    return true;
  });
}

std::size_t Engine::session_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [name, slot] : slots_) {
    if (slot.has_session) ++n;
  }
  return n;
}

void Engine::submit(Request req, Callback callback) {
  metrics_.requests_total.inc();
  metrics_.requests(req.verb).inc();

  if (req.verb == Verb::kStats) {
    drain();  // report a quiescent engine: everything submitted before us is done
    ReplicaEffect none;
    callback(respond(req, [&] { return run_(nullptr, nullptr, req, none); }));
    return;
  }

  std::unique_lock<std::mutex> lock(mu_);
  // Requests that cannot be queued are answered here, outside the lock.
  const auto refuse = [&](std::string message) {
    lock.unlock();
    metrics_.errors_total.inc();
    callback(error_response(req.id, std::move(message)));
  };
  // Backpressure: a full queue blocks the submitter — or, with
  // reject_on_full, answers an explicit backpressure error so the caller
  // can shed load. False when the request was refused.
  const auto admit = [&](const std::deque<Pending>& queue) {
    if (queue.size() >= options_.queue_capacity && options_.reject_on_full) {
      metrics_.rejected_total.inc();
      refuse("backpressure: session '" + req.session + "' queue full");
      return false;
    }
    space_cv_.wait(lock, [&] { return queue.size() < options_.queue_capacity; });
    return true;
  };

  auto it = slots_.find(req.session);
  if (req.verb == Verb::kOpen) {
    // A slot without a session holds an open still in flight, or a failed
    // one whose worker has answered but not yet erased the slot. Queue
    // behind it: the worker rejects this open if that one succeeded, and a
    // name whose open failed is reusable at once.
    if (it != slots_.end() && it->second.has_session) {
      refuse("session already open: '" + req.session + "'");
      return;
    }
    it = slots_.try_emplace(req.session).first;
  } else if (it == slots_.end()) {
    refuse("unknown session: '" + req.session + "'");
    return;
  }

  Slot& slot = it->second;

  // Read routing: on a session with replica lanes, query/explain/relate go
  // to a lane (unless pinned to the primary), fenced at the epoch of the
  // latest acknowledged mutation. Fence-aware: prefer a lane already at the
  // fence — the read needs no replay — round-robin among those; with every
  // lane behind, pick the freshest, so one lane pays the catch-up instead
  // of spreading the same replay across all of them.
  if (verb_info(req.verb).replica_read && !req.force_primary && slot.has_session &&
      !slot.lanes.empty()) {
    const std::uint64_t fence = slot.processed_epoch;
    std::size_t lane_index = slot.lanes.size();
    for (std::size_t i = 0; i < slot.lanes.size(); ++i) {
      const std::size_t candidate = (slot.next_lane + i) % slot.lanes.size();
      const ReplicaLane& lane = *slot.lanes[candidate];
      if (lane.broken) continue;
      if (lane.epoch >= fence) {
        lane_index = candidate;
        break;
      }
      if (lane_index == slot.lanes.size() ||
          lane.epoch > slot.lanes[lane_index]->epoch) {
        lane_index = candidate;
      }
    }
    if (lane_index != slot.lanes.size()) {  // else: every lane broken -> primary
      slot.next_lane = (lane_index + 1) % slot.lanes.size();
      ReplicaLane& lane = *slot.lanes[lane_index];
      if (!admit(lane.queue)) return;
      Pending pending{std::move(req), std::move(callback)};
      pending.fence = slot.processed_epoch;
      lane.queue.push_back(std::move(pending));
      metrics_.queue_depth.add(1);
      enqueue_lane_(it->first, slot, lane_index);
      return;
    }
  }

  // The slot cannot be erased while its queue is non-empty, so the
  // reference stays valid; an `open` slot just created above has an empty
  // queue, so a backpressure refusal never strands a fresh slot.
  if (!admit(slot.queue)) return;

  // Admission, after any backpressure wait so the count is current: live
  // sessions plus opens still in flight, both under mu_, so no interleaving
  // of submitters can overshoot max_sessions.
  if (req.verb == Verb::kOpen) {
    if (options_.max_sessions != 0 && admitted_ >= options_.max_sessions) {
      // Nothing else holds a slot with no session, no queue and no worker.
      if (!slot.has_session && !slot.busy && slot.queue.empty()) slots_.erase(it);
      metrics_.admission_denied.inc();
      refuse("admission denied: engine at max_sessions (" +
             std::to_string(options_.max_sessions) + ")");
      return;
    }
    ++admitted_;
  }

  slot.queue.push_back(Pending{std::move(req), std::move(callback)});
  metrics_.queue_depth.add(1);
  if (!slot.busy && !slot.ready) {
    slot.ready = true;
    ready_.push_back(it->first);
    work_cv_.notify_one();
  }
}

bool Engine::lane_claimable_(const ReplicaLane& lane) {
  if (lane.busy || lane.ready || lane.broken) return false;
  // Catch-up is read-driven: a lane replays its backlog only on the way to
  // answering a read, so read workers never burn cycles on replay no read
  // is waiting for (under write saturation, N eager lanes would multiply
  // every verification N-fold). A lane no reads are routed to stays behind
  // until the backlog squash (acknowledge_) collapses its backlog into one
  // snapshot fork.
  if (lane.queue.empty()) return false;
  return lane.queue.front().fence <= lane.epoch || !lane.deltas.empty();
}

void Engine::enqueue_lane_(const std::string& name, Slot& slot, std::size_t index) {
  ReplicaLane& lane = *slot.lanes[index];
  if (!lane_claimable_(lane)) return;
  lane.ready = true;
  read_ready_.emplace_back(name, index);
  read_cv_.notify_one();
}

Response Engine::call(Request req) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  submit(std::move(req), [&promise](Response r) { promise.set_value(std::move(r)); });
  return future.get();
}

void Engine::worker_loop_() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || (!paused_ && !ready_.empty()); });
    if (stop_ && (paused_ || ready_.empty())) return;

    const std::string name = std::move(ready_.front());
    ready_.pop_front();
    Slot& slot = slots_.at(name);
    slot.ready = false;
    slot.busy = true;
    std::vector<Pending> batch;
    batch.reserve(slot.queue.size());
    for (Pending& p : slot.queue) batch.push_back(std::move(p));
    slot.queue.clear();
    // Inside the lock, so the gauge never transiently exceeds the sum of
    // the per-session capacities.
    metrics_.queue_depth.add(-static_cast<std::int64_t>(batch.size()));
    ++active_workers_;
    lock.unlock();

    space_cv_.notify_all();
    process_batch_(slot, std::move(batch));

    lock.lock();
    slot.busy = false;
    --active_workers_;
    if (!slot.queue.empty()) {
      if (!slot.ready) {
        slot.ready = true;
        ready_.push_back(name);
      }
      work_cv_.notify_one();
    } else if (slot.session == nullptr) {
      // `open` failed (or was never the first request): drop the slot so
      // the session name can be reused.
      slots_.erase(name);
    }
    idle_cv_.notify_all();
  }
}

void Engine::read_worker_loop_() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    read_cv_.wait(lock, [this] { return stop_ || (!paused_ && !read_ready_.empty()); });
    if (stop_ && (paused_ || read_ready_.empty())) return;

    auto [name, index] = std::move(read_ready_.front());
    read_ready_.pop_front();
    Slot& slot = slots_.at(name);
    ReplicaLane& lane = *slot.lanes[index];
    lane.ready = false;
    lane.busy = true;

    // Claim the delta backlog plus every read fenced at or below the epoch
    // the backlog reaches. Reads fenced above it arrived after a mutation
    // that is still being acknowledged; they stay queued.
    std::deque<ReplicaDelta> deltas;
    deltas.swap(lane.deltas);
    const std::uint64_t target = deltas.empty() ? lane.epoch : deltas.back().epoch;
    std::vector<Pending> batch;
    while (!lane.queue.empty() && lane.queue.front().fence <= target) {
      batch.push_back(std::move(lane.queue.front()));
      lane.queue.pop_front();
    }
    metrics_.queue_depth.add(-static_cast<std::int64_t>(batch.size()));
    ++active_workers_;
    lock.unlock();
    space_cv_.notify_all();

    // Delta replay threw: it diverged from the primary (should be
    // impossible — deterministic apply on an identical fork). Contain: stop
    // the lane, fall every queued read back to the primary.
    const bool broke = !deltas.empty() && timed(metrics_.replica_catchup_ms, [&] {
      try {
        for (ReplicaDelta& delta : deltas) {
          if (delta.kind == ReplicaDelta::Kind::kResync) {
            lane.replica = std::move(delta.resync);
          } else {
            lane.replica->apply_replica_delta(delta);
          }
        }
      } catch (const std::exception&) {
        return true;
      }
      return false;
    });

    if (!broke) {
      for (Pending& p : batch) {
        ReplicaEffect none;
        Response r =
            respond(p.req, [&] { return run_(nullptr, lane.replica.get(), p.req, none); });
        metrics_.replica_queries.inc();
        if (!r.ok) metrics_.errors_total.inc();
        p.callback(std::move(r));
      }
    }

    lock.lock();
    if (broke) {
      lane.broken = true;
      metrics_.replica_lane_failures.inc();
      // Re-route this claim's and any still-queued reads to the primary
      // queue (FIFO; their fences are trivially satisfied there).
      for (Pending& p : lane.queue) batch.push_back(std::move(p));
      lane.queue.clear();
      metrics_.replica_fallbacks.inc(batch.size());
      for (Pending& p : batch) {
        slot.queue.push_back(std::move(p));
        metrics_.queue_depth.add(1);
      }
      if (!slot.queue.empty() && !slot.busy && !slot.ready) {
        slot.ready = true;
        ready_.push_back(name);
        work_cv_.notify_one();
      }
    } else {
      lane.epoch = target;
    }
    lane.busy = false;
    --active_workers_;
    enqueue_lane_(name, slot, index);
    idle_cv_.notify_all();
  }
}

void Engine::process_batch_(Slot& slot, std::vector<Pending> batch) {
  metrics_.batches_total.inc();
  metrics_.batch_size.record(static_cast<double>(batch.size()));

  // Coalesce runs of consecutive proposes: within [i..j] all proposes, only
  // batch[j] is verified; the earlier ones are answered "coalesced". The
  // final policy state is identical to applying them one by one, because
  // every apply() takes the whole intended configuration (the last write
  // wins) — the superseded deltas simply fold into one batched delta.
  std::vector<std::uint64_t> superseded_by(batch.size(), 0);
  if (options_.coalesce) {
    std::size_t coalesced = 0;
    for (std::size_t i = 0; i + 1 < batch.size(); ++i) {
      if (batch[i].req.verb == Verb::kPropose && batch[i + 1].req.verb == Verb::kPropose) {
        // The run's last propose is the survivor; point every earlier member
        // of the run at it.
        std::size_t j = i + 1;
        while (j + 1 < batch.size() && batch[j + 1].req.verb == Verb::kPropose) ++j;
        for (std::size_t k = i; k < j; ++k) {
          superseded_by[k] = batch[j].req.id;
          ++coalesced;
        }
        i = j;
      }
    }
    if (coalesced > 0) {
      metrics_.coalesced_batches.inc();
      metrics_.coalesced_proposes.inc(coalesced);
    }
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    const Request& req = p.req;
    Response r;
    ReplicaEffect effect;
    if (superseded_by[i] != 0) {
      r = respond(req, [&] {
        json::Value body;
        body["status"] = json::Value("coalesced");
        body["superseded_by"] = json::Value(superseded_by[i]);
        return body;
      });
    } else if (req.verb == Verb::kOpen && slot.session != nullptr) {
      r = error_response(req.id, "session already open: '" + req.session + "'");
    } else if (req.verb != Verb::kOpen && slot.session == nullptr) {
      r = error_response(req.id, "session '" + req.session + "' failed to open");
    } else {
      r = respond(req, [&] { return run_(&slot, slot.session.get(), req, effect); });
    }
    // Acknowledge before the callback: once the caller sees the response,
    // the epoch fence guarantees any subsequent read observes this request.
    acknowledge_(slot, req.verb, std::move(effect));
    if (!r.ok) metrics_.errors_total.inc();
    p.callback(std::move(r));
  }
}

void Engine::acknowledge_(Slot& slot, Verb verb, ReplicaEffect effect) {
  // Lanes are only created/destroyed by the primary worker that owns this
  // slot (busy=true), so reading the vector's shape unlocked is safe; lane
  // *state* is touched under mu_ only.
  std::vector<std::unique_ptr<Session>> installs;
  std::vector<std::unique_ptr<Session>> resyncs;
  if (effect.install_lanes > 0 && slot.session != nullptr) {
    installs.reserve(effect.install_lanes);
    for (unsigned i = 0; i < effect.install_lanes; ++i) {
      installs.push_back(slot.session->fork_replica());
    }
  }
  if (effect.kind == ReplicaDelta::Kind::kResync && !slot.lanes.empty() &&
      slot.session != nullptr) {
    resyncs.reserve(slot.lanes.size());
    for (std::size_t i = 0; i < slot.lanes.size(); ++i) {
      resyncs.push_back(slot.session->fork_replica());
    }
    metrics_.replica_resyncs.inc(slot.lanes.size());
  }

  // Backlog squash: a lane about to exceed kLaneResyncBacklog pending
  // deltas gets a snapshot resync instead of yet another delta to replay —
  // its whole backlog collapses into one fork of the current primary state.
  // Backlog sizes are lane state (mutated by read workers), so peek under
  // the lock, fork outside it, install below. A lane that drains in between
  // just takes a cheap redundant resync.
  std::vector<std::unique_ptr<Session>> squashes(slot.lanes.size());
  if (slot.session != nullptr &&
      effect.kind != ReplicaDelta::Kind::kResync && !slot.lanes.empty()) {
    std::vector<std::size_t> behind;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < slot.lanes.size(); ++i) {
        const ReplicaLane& lane = *slot.lanes[i];
        if (!lane.broken && lane.deltas.size() + 1 >= kLaneResyncBacklog) {
          behind.push_back(i);
        }
      }
    }
    for (const std::size_t i : behind) {
      squashes[i] = slot.session->fork_replica();
      metrics_.replica_squashes.inc();
    }
  }

  const std::lock_guard<std::mutex> lock(mu_);
  // An open keeps its admission place only if it created the session; a
  // failed or duplicate open frees it before its answer goes out.
  if (verb == Verb::kOpen && (slot.has_session || slot.session == nullptr)) --admitted_;
  slot.has_session = slot.session != nullptr;
  ++slot.processed_epoch;
  const std::string name = slot.session != nullptr ? slot.session->name() : std::string();
  for (std::size_t i = 0; i < slot.lanes.size(); ++i) {
    ReplicaLane& lane = *slot.lanes[i];
    if (lane.broken) continue;
    ReplicaDelta delta;
    delta.epoch = slot.processed_epoch;
    if (squashes[i] != nullptr) {
      lane.deltas.clear();
      delta.kind = ReplicaDelta::Kind::kResync;
      delta.resync = std::move(squashes[i]);
    } else {
      delta.kind = effect.kind;
      delta.config = effect.config;
      delta.staged_after = effect.staged_after;
      delta.recovery = effect.recovery;
      delta.policy = effect.policy;
      delta.record = effect.record;
      if (effect.kind == ReplicaDelta::Kind::kResync) delta.resync = std::move(resyncs[i]);
    }
    lane.deltas.push_back(std::move(delta));
    metrics_.replica_deltas.inc();
    enqueue_lane_(name, slot, i);
  }
  if (!installs.empty()) {
    for (auto& replica : installs) {
      auto lane = std::make_unique<ReplicaLane>();
      lane->replica = std::move(replica);
      lane->epoch = slot.processed_epoch;  // forked from the post-open state
      slot.lanes.push_back(std::move(lane));
    }
    metrics_.replicas_open.add(static_cast<std::int64_t>(installs.size()));
  }
}

void Engine::record_report_(Slot& slot, const verify::RealConfig::Report& report) {
  metrics_.generate_ms.record(report.generate_ms);
  metrics_.model_ms.record(report.model_ms);
  metrics_.check_ms.record(report.check_ms);
  metrics_.total_ms.record(report.total_ms());

  metrics_.ec_count.set(static_cast<std::int64_t>(report.ec_count));
  metrics_.bdd_nodes.set(static_cast<std::int64_t>(report.bdd_nodes));
  if (report.reclaim.ran) {
    metrics_.reclaims.inc();
    if (report.reclaim.ecs_before > report.reclaim.ecs_after) {
      metrics_.reclaimed_ecs.inc(report.reclaim.ecs_before - report.reclaim.ecs_after);
    }
    if (report.reclaim.bdd_before > report.reclaim.bdd_after) {
      metrics_.reclaimed_bdd_nodes.inc(report.reclaim.bdd_before -
                                       report.reclaim.bdd_after);
    }
    metrics_.compact_ms.record(report.reclaim.reclaim_ms);
  }
  if (slot.session != nullptr) {
    const std::uint64_t now =
        slot.session->verifier().ecs().stats().unknown_unregisters;
    if (now > slot.unknown_unregisters_seen) {
      metrics_.unknown_unregisters.inc(now - slot.unknown_unregisters_seen);
    }
    slot.unknown_unregisters_seen = now;
  }

  const verify::CheckResult::Parallelism& par = report.check.parallel;
  metrics_.check_parallelism.set(par.shards);
  if (par.shard_ms.size() > 1) {
    double sum = 0, slowest = 0;
    for (const double ms : par.shard_ms) {
      sum += ms;
      slowest = std::max(slowest, ms);
    }
    const double mean = sum / static_cast<double>(par.shard_ms.size());
    if (mean > 0) metrics_.shard_imbalance.record(slowest / mean);
  }
}

namespace {

/// A policy's name, or "#<id>" for one registered without a name (every
/// policy added through the service has one).
std::string policy_label(const Session& session, verify::PolicyId id) {
  std::string name = session.policy_name(id);
  return name.empty() ? "#" + std::to_string(id) : name;
}

json::Value::Array policy_labels(const Session& session,
                                 const std::vector<verify::PolicyId>& ids) {
  json::Value::Array out;
  for (const verify::PolicyId id : ids) out.emplace_back(policy_label(session, id));
  return out;
}

/// The verb-independent summary of one verification round.
json::Value report_body(const Session& session, const verify::RealConfig::Report& report) {
  json::Value body;
  body["fib_changes"] = json::Value(report.dataplane.fib.size());
  body["filter_changes"] = json::Value(report.dataplane.filters.size());
  body["affected_ecs"] = json::Value(report.check.affected_ecs.size());
  body["affected_pairs"] = json::Value(report.check.affected_pairs.size());
  body["changed_pairs"] = json::Value(report.check.changed_pairs.size());
  body["generate_ms"] = json::Value(report.generate_ms);
  body["model_ms"] = json::Value(report.model_ms);
  body["check_ms"] = json::Value(report.check_ms);
  body["total_ms"] = json::Value(report.total_ms());
  body["ec_count"] = json::Value(report.ec_count);
  body["bdd_nodes"] = json::Value(report.bdd_nodes);
  if (report.reclaim.ran) {
    json::Value reclaim;
    reclaim["ecs_before"] = json::Value(report.reclaim.ecs_before);
    reclaim["ecs_after"] = json::Value(report.reclaim.ecs_after);
    reclaim["bdd_before"] = json::Value(report.reclaim.bdd_before);
    reclaim["bdd_after"] = json::Value(report.reclaim.bdd_after);
    reclaim["merged"] = json::Value(report.reclaim.remap.has_value());
    reclaim["reclaim_ms"] = json::Value(report.reclaim.reclaim_ms);
    body["reclaim"] = std::move(reclaim);
  }
  json::Value::Array events;
  for (const verify::PolicyEvent& e : report.check.events) {
    json::Value ev;
    ev["policy"] = json::Value(policy_label(session, e.id));
    ev["satisfied"] = json::Value(e.satisfied);
    events.push_back(std::move(ev));
  }
  body["events"] = json::Value(std::move(events));
  return body;
}

json::Value::Array link_id_array(const std::vector<topo::LinkId>& links) {
  json::Value::Array out;
  for (const topo::LinkId l : links) out.emplace_back(static_cast<std::uint64_t>(l));
  return out;
}

/// Serialize one sweep: the mined aggregates, then (detail only) the
/// per-scenario outcome records.
json::Value sweep_body(const Session& session, const verify::FailureSweepResult& result,
                       bool detail) {
  json::Value body;
  body["scenarios"] = json::Value(result.scenarios);
  body["healthy_pairs"] = json::Value(result.healthy_pairs.size());
  body["fault_tolerant_pairs"] = json::Value(result.fault_tolerant_pairs.size());
  body["critical_links"] = json::Value(link_id_array(result.critical_links));
  body["diverged_links"] = json::Value(link_id_array(result.diverged_links));
  body["loop_links"] = json::Value(link_id_array(result.loop_scenarios));
  json::Value violations{json::Value::Object{}};  // {} even when nothing violated
  for (const auto& [policy, links] : result.policy_violations) {
    violations[policy_label(session, policy)] = json::Value(link_id_array(links));
  }
  body["policy_violations"] = std::move(violations);
  // Multi-link oscillation reports ride in the aggregate body so that
  // detail:false consumers don't lose k >= 2 divergences (diverged_links
  // only carries the single-link ones).
  json::Value::Array diverged_scenarios;
  for (const verify::FailureScenario& s : result.diverged_scenarios) {
    diverged_scenarios.push_back(json::Value(link_id_array(s.links)));
  }
  body["diverged_scenarios"] = json::Value(std::move(diverged_scenarios));
  body["total_scenarios"] = json::Value(result.total_scenarios);
  body["explored_scenarios"] = json::Value(result.explored_scenarios);
  body["replayed_scenarios"] = json::Value(result.replayed_scenarios);
  body["pruned_scenarios"] = json::Value(result.pruned_scenarios);
  body["coverage"] = json::Value(result.coverage);
  body["snapshot_ms"] = json::Value(result.snapshot_ms);
  body["sweep_ms"] = json::Value(result.sweep_ms);
  if (!detail) return body;

  json::Value::Array outcomes;
  for (const verify::ScenarioOutcome& out : result.outcomes) {
    json::Value o;
    o["links"] = json::Value(link_id_array(out.scenario.links));
    o["diverged"] = json::Value(out.diverged);
    if (!out.diverged) {
      o["reachable_pairs"] = json::Value(out.reachable_pairs);
      o["pairs_lost"] = json::Value(out.pairs_lost);
      o["gained_loop"] = json::Value(out.gained_loop);
      o["violated"] = json::Value(policy_labels(session, out.violated));
    }
    if (out.orbit > 1) o["orbit"] = json::Value(out.orbit);
    o["total_ms"] = json::Value(out.total_ms);
    o["restore_ms"] = json::Value(out.restore_ms);
    outcomes.push_back(std::move(o));
  }
  body["outcomes"] = json::Value(std::move(outcomes));
  return body;
}

// parse_network silently yields an empty config for text with no "hostname"
// stanza; over the wire that is almost certainly a malformed request, not an
// intentional zero-device network.
config::NetworkConfig parse_config_text(const std::string& text) {
  config::NetworkConfig cfg = config::parse_network(text);
  if (cfg.devices.empty()) throw ProtocolError("config defines no devices");
  return cfg;
}

const char* proto_text(config::IpProto proto) {
  switch (proto) {
    case config::IpProto::kTcp: return "tcp";
    case config::IpProto::kUdp: return "udp";
    case config::IpProto::kIcmp: return "icmp";
    case config::IpProto::kAny: break;
  }
  return "any";
}

std::string filter_rule_text(const routing::FilterRule& r) {
  std::string out = r.permit ? "permit" : "deny";
  out += std::string(" ") + proto_text(static_cast<config::IpProto>(r.proto));
  out += " src " + r.src.to_string() + " dst " + r.dst.to_string();
  if (r.src_port_lo != 0 || r.src_port_hi != 65535) {
    out += " sport " + std::to_string(r.src_port_lo) + "-" + std::to_string(r.src_port_hi);
  }
  if (r.dst_port_lo != 0 || r.dst_port_hi != 65535) {
    out += " dport " + std::to_string(r.dst_port_lo) + "-" + std::to_string(r.dst_port_hi);
  }
  out += " (priority " + std::to_string(r.priority) + ")";
  return out;
}

const char* kind_text(verify::PolicyKind kind) {
  switch (kind) {
    case verify::PolicyKind::kReachability: return "reachable";
    case verify::PolicyKind::kIsolation: return "isolated";
    case verify::PolicyKind::kWaypoint: return "waypoint";
  }
  return "?";
}

json::Value flow_json(const config::Flow& flow) {
  json::Value f;
  f["src"] = json::Value(flow.src.to_string());
  f["dst"] = json::Value(flow.dst.to_string());
  f["proto"] = json::Value(proto_text(flow.proto));
  f["src_port"] = json::Value(static_cast<std::uint64_t>(flow.src_port));
  f["dst_port"] = json::Value(static_cast<std::uint64_t>(flow.dst_port));
  return f;
}

/// Compact per-branch rendering of one flow trace (node names only; the
/// explain verb carries the rule-level detail).
json::Value trace_json(const topo::Topology& topo, const verify::FlowTrace& trace) {
  json::Value t;
  t["delivered"] = json::Value(trace.any_delivered());
  json::Value::Array branches;
  for (const verify::TraceBranch& b : trace.branches) {
    json::Value branch;
    branch["disposition"] = json::Value(verify::to_string(b.disposition));
    json::Value::Array path;
    for (const verify::TraceHop& h : b.hops) {
      path.push_back(json::Value(topo.node(h.node).name));
    }
    branch["path"] = json::Value(std::move(path));
    branches.push_back(std::move(branch));
  }
  t["branches"] = json::Value(std::move(branches));
  return t;
}

json::Value::Array pair_strings(const topo::Topology& topo,
                                const std::vector<std::pair<topo::NodeId, topo::NodeId>>& pairs) {
  json::Value::Array out;
  for (const auto& [s, d] : pairs) {
    out.push_back(json::Value(topo.node(s).name + "->" + topo.node(d).name));
  }
  return out;
}

/// Serialize one relational check: summary counts, violated specs with
/// witnesses, and (detail only) the per-EC diff array.
json::Value relate_body(const Session& session, const relate::RelationalResult& result,
                        const RelateSpec& spec) {
  const topo::Topology& topo = session.topology();
  json::Value body;
  body["holds"] = json::Value(result.holds);
  body["ecs_compared"] = json::Value(result.ecs_compared);
  body["ecs_changed"] = json::Value(result.diff.ecs.size());
  body["pairs_gained"] = json::Value(result.diff.pairs_gained());
  body["pairs_lost"] = json::Value(result.diff.pairs_lost());
  body["devices_diverged"] = json::Value(result.diff.devices_diverged());
  json::Value::Array violations;
  for (const relate::SpecViolation& v : result.violations) {
    const relate::RelationalSpec& rs = spec.specs[v.spec];
    json::Value vj;
    vj["spec"] = rs.name.empty() ? json::Value(v.spec) : json::Value(rs.name);
    vj["kind"] = json::Value(relate::to_string(rs.kind));
    json::Value::Array ecs;
    for (const dpm::EcId ec : v.ecs) ecs.emplace_back(static_cast<std::uint64_t>(ec));
    vj["ecs"] = json::Value(std::move(ecs));
    if (v.witness.has_value()) {
      json::Value w;
      w["flow"] = flow_json(v.witness->flow);
      w["ingress"] = json::Value(topo.node(v.witness->ingress).name);
      w["before"] = trace_json(topo, v.witness->before);
      w["after"] = trace_json(topo, v.witness->after);
      vj["witness"] = std::move(w);
    }
    violations.push_back(std::move(vj));
  }
  body["violations"] = json::Value(std::move(violations));
  body["snapshot_ms"] = json::Value(result.snapshot_ms);
  body["fork_ms"] = json::Value(result.fork_ms);
  body["apply_ms"] = json::Value(result.apply_ms);
  body["diff_ms"] = json::Value(result.diff_ms);
  body["relate_ms"] = json::Value(result.total_ms());
  if (!spec.detail) return body;

  json::Value::Array diff;
  for (const relate::EcDiff& d : result.diff.ecs) {
    json::Value e;
    e["ec"] = json::Value(static_cast<std::uint64_t>(d.changed_ec));
    e["base_ec"] = json::Value(static_cast<std::uint64_t>(d.base_ec));
    e["example"] = flow_json(d.example);
    json::Value::Array devices;
    for (const relate::DeviceDivergence& dd : d.devices) {
      json::Value dv;
      dv["device"] = json::Value(topo.node(dd.device).name);
      dv["before"] = json::Value(dpm::to_string(dd.before));
      dv["after"] = json::Value(dpm::to_string(dd.after));
      devices.push_back(std::move(dv));
    }
    e["devices"] = json::Value(std::move(devices));
    e["pairs_gained"] = json::Value(pair_strings(topo, d.pairs_gained));
    e["pairs_lost"] = json::Value(pair_strings(topo, d.pairs_lost));
    if (d.loop_before != d.loop_after) e["loop"] = json::Value(d.loop_after);
    if (d.blackhole_before != d.blackhole_after) {
      e["blackhole"] = json::Value(d.blackhole_after);
    }
    diff.push_back(std::move(e));
  }
  body["diff"] = json::Value(std::move(diff));
  return body;
}

/// Serialize one order synthesis: the rollout order (or blocking subset)
/// by step name, and (detail only) the per-step verdict records.
json::Value order_body(const Session& session, const relate::OrderResult& result,
                       const std::vector<relate::UpdateStep>& steps, bool detail) {
  json::Value body;
  body["found"] = json::Value(result.found);
  json::Value::Array order;
  for (const std::size_t idx : result.order) order.push_back(json::Value(steps[idx].name));
  body["order"] = json::Value(std::move(order));
  json::Value::Array blocking;
  for (const std::size_t idx : result.blocking) {
    blocking.push_back(json::Value(steps[idx].name));
  }
  body["blocking"] = json::Value(std::move(blocking));
  body["blocking_minimal"] = json::Value(result.blocking_minimal);
  body["explored"] = json::Value(result.explored);
  body["restores"] = json::Value(result.restores);
  body["snapshot_ms"] = json::Value(result.snapshot_ms);
  body["search_ms"] = json::Value(result.search_ms);
  body["order_ms"] = json::Value(result.snapshot_ms + result.search_ms);
  if (!detail) return body;

  json::Value::Array verdicts;
  for (const relate::StepVerdict& v : result.verdicts) {
    json::Value s;
    s["name"] = json::Value(steps[v.step].name);
    s["converged"] = json::Value(v.converged);
    s["violated"] = json::Value(policy_labels(session, v.violated));
    s["affected_ecs"] = json::Value(v.affected_ecs);
    s["apply_ms"] = json::Value(v.apply_ms);
    verdicts.push_back(std::move(s));
  }
  body["steps"] = json::Value(std::move(verdicts));
  return body;
}

/// Serialize one explanation: witness, hop-by-hop branches, causes.
json::Value explanation_body(const Session& session, const Session::ExplainResult& result) {
  const topo::Topology& topo = session.topology();
  const rcfg::explain::Explanation& ex = result.explanation;
  json::Value body;
  body["policy"] = json::Value(result.policy);
  body["kind"] = json::Value(kind_text(ex.kind));
  body["satisfied"] = json::Value(ex.satisfied);
  body["trace_enabled"] = json::Value(session.tracing());
  if (!ex.has_witness) return body;

  json::Value witness = flow_json(ex.witness);
  witness["ec"] = json::Value(static_cast<std::uint64_t>(ex.witness_ec));
  witness["ingress"] = json::Value(topo.node(ex.trace.ingress).name);
  body["witness"] = std::move(witness);

  json::Value::Array branches;
  for (const verify::TraceBranch& b : ex.trace.branches) {
    json::Value branch;
    branch["disposition"] = json::Value(verify::to_string(b.disposition));
    json::Value::Array hops;
    for (const verify::TraceHop& h : b.hops) {
      json::Value hop;
      hop["node"] = json::Value(topo.node(h.node).name);
      hop["lpm"] = h.matched_prefix.has_value() ? json::Value(h.matched_prefix->to_string())
                                                : json::Value("no route");
      hop["action"] = json::Value(dpm::to_string(h.port));
      if (h.egress != topo::kInvalidIface) {
        hop["egress"] = json::Value(topo.iface(h.egress).name);
      }
      if (h.egress_acl_rule.has_value()) {
        hop["egress_acl"] = json::Value(filter_rule_text(*h.egress_acl_rule));
      }
      if (h.ingress_acl_rule.has_value()) {
        hop["ingress_acl"] = json::Value(filter_rule_text(*h.ingress_acl_rule));
      }
      hops.push_back(std::move(hop));
    }
    branch["hops"] = json::Value(std::move(hops));
    branches.push_back(std::move(branch));
  }
  body["branches"] = json::Value(std::move(branches));

  if (ex.offending_batch != 0) {
    json::Value cause;
    cause["batch"] = json::Value(ex.offending_batch);
    cause["label"] = json::Value(ex.offending_label);
    cause["generate_ms"] = json::Value(ex.offending_spans.generate_ms);
    cause["model_ms"] = json::Value(ex.offending_spans.model_ms);
    cause["check_ms"] = json::Value(ex.offending_spans.check_ms);
    json::Value::Array devices;
    for (const rcfg::explain::Cause& c : ex.causes) {
      json::Value dev;
      dev["device"] = json::Value(c.device);
      dev["direct"] = json::Value(c.direct);
      json::Value::Array edits;
      for (const config::LineEdit& e : c.edits) {
        json::Value edit;
        edit["op"] = json::Value(e.kind == config::LineEdit::Kind::kInsert ? "insert"
                                                                           : "delete");
        edit["line"] = json::Value(e.line);
        edit["text"] = json::Value(e.text);
        edits.push_back(std::move(edit));
      }
      dev["edits"] = json::Value(std::move(edits));
      devices.push_back(std::move(dev));
    }
    cause["devices"] = json::Value(std::move(devices));
    body["cause"] = std::move(cause);
  }
  return body;
}

/// Serialize one query: one policy's verdict, or the session summary.
json::Value query_body(Session& session, const std::string& policy) {
  json::Value body;
  if (!policy.empty()) {
    body["policy"] = json::Value(policy);
    body["satisfied"] = json::Value(session.policy_satisfied(policy));
    return body;
  }
  verify::RealConfig& rc = session.verifier();
  body["pairs"] = json::Value(rc.checker().pair_count());
  body["loops"] = json::Value(rc.checker().loop_count());
  body["blackholes"] = json::Value(rc.checker().blackhole_count());
  body["ecs"] = json::Value(rc.ecs().ec_count());
  body["staged"] = json::Value(session.has_staged());
  body["rebuilds"] = json::Value(session.recoveries());
  json::Value::Array policies;
  for (const PolicySpec& spec : session.policies()) {
    json::Value p;
    p["name"] = json::Value(spec.name);
    p["satisfied"] = json::Value(session.policy_satisfied(spec.name));
    policies.push_back(std::move(p));
  }
  body["policies"] = json::Value(std::move(policies));
  return body;
}

}  // namespace

void Engine::ReplicaEffect::replay(const Session& session, bool id_space_moved,
                                   std::shared_ptr<const config::NetworkConfig> applied,
                                   bool staged) {
  if (id_space_moved) {
    kind = ReplicaDelta::Kind::kResync;
    return;
  }
  kind = ReplicaDelta::Kind::kApply;
  config = std::move(applied);
  staged_after = staged;
  if (session.tracing() && session.provenance()->latest() != nullptr) {
    record = std::make_shared<const ::rcfg::explain::BatchRecord>(*session.provenance()->latest());
  }
}

json::Value Engine::run_(Slot* slot, Session* session, const Request& req,
                         ReplicaEffect& effect) {
  json::Value body;
  switch (req.verb) {
    case Verb::kOpen: {
      topo::Topology topology = build_topology(req.topology);
      config::NetworkConfig initial = parse_config_text(req.config_text);
      // May throw NonterminationError: with no committed baseline there is
      // nothing to recover to, so a nonconvergent *initial* config fails open.
      slot->session = std::make_unique<Session>(req.session, std::move(topology),
                                                std::move(initial), req.options);
      Session& opened = *slot->session;
      effect.install_lanes = req.options.replicas;
      metrics_.sessions_open.add(1);
      record_report_(*slot, opened.baseline_report());
      body = report_body(opened, opened.baseline_report());
      body["status"] = json::Value("open");
      body["nodes"] = json::Value(opened.topology().node_count());
      body["links"] = json::Value(opened.topology().link_count());
      body["rules"] = json::Value(opened.verifier().generator().fib().size());
      body["ecs"] = json::Value(opened.verifier().ecs().ec_count());
      body["pairs"] = json::Value(opened.verifier().checker().pair_count());
      break;
    }
    case Verb::kPropose: {
      auto cfg = std::make_shared<const config::NetworkConfig>(
          parse_config_text(req.config_text));
      const bool was_migrated = session->verifier().packet_space().migrated();
      const ProposeOutcome outcome = session->propose(*cfg);
      const bool id_space_moved = outcome.report.reclaim.remap.has_value() ||
                                  session->verifier().packet_space().migrated() != was_migrated;
      if (!outcome.converged) {
        metrics_.recoveries.inc();
        // The session rolled back to the committed baseline the way abort
        // does; replicas replay that re-apply.
        effect.replay(*session, id_space_moved,
                      std::make_shared<const config::NetworkConfig>(session->committed()),
                      false);
        effect.recovery = true;
        body["status"] = json::Value("nonconvergent");
        body["recovered"] = json::Value(true);
        body["rebuilds"] = json::Value(session->recoveries());
        body["detail"] = json::Value(outcome.error);
        break;
      }
      record_report_(*slot, outcome.report);
      effect.replay(*session, id_space_moved, std::move(cfg), true);
      body = report_body(*session, outcome.report);
      body["status"] = json::Value("staged");
      break;
    }
    case Verb::kCommit:
      session->commit();
      effect.kind = ReplicaDelta::Kind::kCommit;
      body["status"] = json::Value("committed");
      break;
    case Verb::kAbort: {
      const verify::RealConfig::Report report = session->abort();
      record_report_(*slot, report);
      effect.replay(*session, report.reclaim.remap.has_value(),
                    std::make_shared<const config::NetworkConfig>(session->committed()), false);
      body["status"] = json::Value("aborted");
      body["rollback_ms"] = json::Value(report.total_ms());
      break;
    }
    case Verb::kAddPolicy: {
      const bool satisfied = session->add_policy(req.policy);
      effect.kind = ReplicaDelta::Kind::kAddPolicy;
      effect.policy = std::make_shared<const PolicySpec>(req.policy);
      body["status"] = json::Value("policy_added");
      body["policy"] = json::Value(req.policy.name);
      body["satisfied"] = json::Value(satisfied);
      break;
    }
    case Verb::kQuery:
      body = query_body(*session, req.query_policy);
      break;
    case Verb::kExplain:
      body = explanation_body(*session, timed(metrics_.explain_ms, [&] {
                                return session->explain(req.query_policy);
                              }));
      break;
    case Verb::kSweep: {
      verify::FailureSweepOptions options;
      options.max_failures = req.sweep.max_failures;
      options.budget = req.sweep.budget;
      options.prune = req.sweep.prune;
      options.symmetry = req.sweep.symmetry;
      options.threads = req.sweep.threads;
      if (!req.sweep.links.empty()) {
        // An explicit link subset becomes the generator's universe, after
        // restoring the sorted-unique invariant the generator relies on:
        // duplicated or unsorted ids used to leak duplicate scenarios
        // straight into the report.
        std::vector<topo::LinkId> ls = req.sweep.links;
        std::sort(ls.begin(), ls.end());
        ls.erase(std::unique(ls.begin(), ls.end()), ls.end());
        for (const topo::LinkId l : ls) {
          if (l >= session->topology().link_count()) {
            throw ProtocolError("link id " + std::to_string(l) + " out of range");
          }
        }
        options.links = std::move(ls);
      }
      const verify::FailureSweepResult result = session->sweep(options);
      metrics_.sweep_ms.record(result.sweep_ms);
      metrics_.sweep_scenarios.inc(result.scenarios);
      metrics_.sweep_pruned.inc(result.pruned_scenarios);
      metrics_.sweep_replayed.inc(result.replayed_scenarios);
      std::uint64_t diverged = 0;
      for (const verify::ScenarioOutcome& out : result.outcomes) {
        metrics_.sweep_scenario_ms.record(out.total_ms);
        if (out.diverged) ++diverged;
      }
      metrics_.sweep_diverged.inc(diverged);
      body = sweep_body(*session, result, req.sweep.detail);
      break;
    }
    case Verb::kRelate: {
      const config::NetworkConfig cfg = parse_config_text(req.config_text);
      const relate::RelationalResult result = timed(metrics_.relate_ms, [&] {
        return session->relate(cfg, req.relate.specs, req.relate.witnesses);
      });
      metrics_.relate_diff_ecs.inc(result.diff.ecs.size());
      body = relate_body(*session, result, req.relate);
      break;
    }
    case Verb::kOrder: {
      std::vector<relate::UpdateStep> steps;
      steps.reserve(req.order.steps.size());
      for (const OrderStepSpec& s : req.order.steps) {
        relate::UpdateStep step;
        step.name = s.name;
        step.patch = parse_config_text(s.config_text);
        steps.push_back(std::move(step));
      }
      relate::OrderOptions options;
      options.max_blocking = req.order.max_blocking;
      const relate::OrderResult result =
          timed(metrics_.order_ms, [&] { return session->order(steps, options); });
      metrics_.order_steps_explored.inc(result.explored);
      body = order_body(*session, result, steps, req.order.detail);
      break;
    }
    case Verb::kStats:
      body = stats_json();
      break;
  }
  return body;
}

json::Value Engine::stats_json() const {
  json::Value out;
  out["metrics"] = metrics_.to_json();
  json::Value::Array sessions;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, slot] : slots_) {
      if (slot.session == nullptr) continue;
      json::Value s;
      s["name"] = json::Value(name);
      s["policies"] = json::Value(slot.session->policies().size());
      s["staged"] = json::Value(slot.session->has_staged());
      s["rebuilds"] = json::Value(slot.session->recoveries());
      if (!slot.lanes.empty()) {
        s["replicas"] = json::Value(slot.lanes.size());
        s["epoch"] = json::Value(slot.processed_epoch);
        std::size_t broken = 0;
        for (const auto& lane : slot.lanes) {
          if (lane->broken) ++broken;
        }
        if (broken > 0) s["replicas_broken"] = json::Value(broken);
      }
      sessions.push_back(std::move(s));
    }
  }
  out["sessions"] = json::Value(std::move(sessions));
  return out;
}

}  // namespace rcfg::service
