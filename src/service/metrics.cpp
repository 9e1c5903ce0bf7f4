#include "service/metrics.h"

#include <algorithm>

namespace rcfg::service {

void Gauge::add(std::int64_t delta) {
  const std::int64_t now = v_.fetch_add(delta, std::memory_order_relaxed) + delta;
  std::int64_t seen = max_.load(std::memory_order_relaxed);
  while (now > seen && !max_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
  }
}

void Gauge::set(std::int64_t value) {
  v_.store(value, std::memory_order_relaxed);
  std::int64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen && !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

Histogram Histogram::latency_ms() {
  return Histogram({0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
                    1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000});
}

Histogram Histogram::batch_sizes() { return Histogram({1, 2, 4, 8, 16, 32, 64, 128, 256}); }

Histogram Histogram::imbalance_ratios() {
  return Histogram({1.05, 1.1, 1.25, 1.5, 2, 3, 5, 10});
}

void Histogram::record(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  const std::lock_guard<std::mutex> lock(mu_);
  ++counts_[bucket];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

std::uint64_t Histogram::count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::min() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0 : min_;
}

double Histogram::max() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

json::Value Histogram::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  json::Value out;
  out["count"] = json::Value(count_);
  out["sum"] = json::Value(sum_);
  out["min"] = json::Value(count_ == 0 ? 0.0 : min_);
  out["max"] = json::Value(max_);
  out["mean"] = json::Value(count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_));
  json::Value::Array buckets;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    json::Value b;
    b["le"] = json::Value(bounds_[i]);
    b["count"] = json::Value(counts_[i]);
    buckets.push_back(std::move(b));
  }
  json::Value overflow;
  overflow["le"] = json::Value("inf");
  overflow["count"] = json::Value(counts_.back());
  buckets.push_back(std::move(overflow));
  out["buckets"] = json::Value(std::move(buckets));
  return out;
}

json::Value ServiceMetrics::to_json() const {
  json::Value out;

  json::Value traffic;
  traffic["total"] = json::Value(requests_total.value());
  traffic["errors"] = json::Value(errors_total.value());
  for (const VerbInfo& v : kVerbs) traffic[v.name] = json::Value(requests(v.verb).value());
  out["requests"] = std::move(traffic);

  json::Value batching;
  batching["batches"] = json::Value(batches_total.value());
  batching["coalesced_batches"] = json::Value(coalesced_batches.value());
  batching["coalesced_proposes"] = json::Value(coalesced_proposes.value());
  batching["batch_size"] = batch_size.to_json();
  out["batching"] = std::move(batching);

  out["recoveries"] = json::Value(recoveries.value());

  json::Value sweeping;
  sweeping["scenarios"] = json::Value(sweep_scenarios.value());
  sweeping["diverged"] = json::Value(sweep_diverged.value());
  sweeping["pruned"] = json::Value(sweep_pruned.value());
  sweeping["replayed"] = json::Value(sweep_replayed.value());
  sweeping["sweep_ms"] = sweep_ms.to_json();
  sweeping["scenario_ms"] = sweep_scenario_ms.to_json();
  out["sweeps"] = std::move(sweeping);

  json::Value relational;
  relational["relate_diff_ecs"] = json::Value(relate_diff_ecs.value());
  relational["order_steps_explored"] = json::Value(order_steps_explored.value());
  relational["relate_ms"] = relate_ms.to_json();
  relational["order_ms"] = order_ms.to_json();
  out["relational"] = std::move(relational);

  json::Value parallelism;
  parallelism["check_shards"] = json::Value(check_parallelism.value());
  parallelism["check_shards_max"] = json::Value(check_parallelism.max());
  parallelism["shard_imbalance"] = shard_imbalance.to_json();
  out["parallelism"] = std::move(parallelism);

  json::Value reclamation;
  reclamation["reclaims"] = json::Value(reclaims.value());
  reclamation["reclaimed_ecs"] = json::Value(reclaimed_ecs.value());
  reclamation["reclaimed_bdd_nodes"] = json::Value(reclaimed_bdd_nodes.value());
  reclamation["unknown_unregisters"] = json::Value(unknown_unregisters.value());
  reclamation["ec_count"] = json::Value(ec_count.value());
  reclamation["ec_count_max"] = json::Value(ec_count.max());
  reclamation["bdd_nodes"] = json::Value(bdd_nodes.value());
  reclamation["bdd_nodes_max"] = json::Value(bdd_nodes.max());
  reclamation["compact_ms"] = compact_ms.to_json();
  out["reclamation"] = std::move(reclamation);

  json::Value latency;
  latency["generate_ms"] = generate_ms.to_json();
  latency["model_ms"] = model_ms.to_json();
  latency["check_ms"] = check_ms.to_json();
  latency["total_ms"] = total_ms.to_json();
  latency["explain_ms"] = explain_ms.to_json();
  out["latency"] = std::move(latency);

  json::Value replicas;
  replicas["queries"] = json::Value(replica_queries.value());
  replicas["deltas"] = json::Value(replica_deltas.value());
  replicas["resyncs"] = json::Value(replica_resyncs.value());
  replicas["squashes"] = json::Value(replica_squashes.value());
  replicas["fallbacks"] = json::Value(replica_fallbacks.value());
  replicas["lane_failures"] = json::Value(replica_lane_failures.value());
  replicas["open"] = json::Value(replicas_open.value());
  replicas["open_max"] = json::Value(replicas_open.max());
  replicas["catchup_ms"] = replica_catchup_ms.to_json();
  out["replicas"] = std::move(replicas);

  json::Value load;
  load["queue_depth"] = json::Value(queue_depth.value());
  load["queue_depth_max"] = json::Value(queue_depth.max());
  load["sessions_open"] = json::Value(sessions_open.value());
  load["sessions_open_max"] = json::Value(sessions_open.max());
  load["rejected"] = json::Value(rejected_total.value());
  load["admission_denied"] = json::Value(admission_denied.value());
  out["load"] = std::move(load);

  return out;
}

}  // namespace rcfg::service
