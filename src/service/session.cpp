#include "service/session.h"

#include <stdexcept>
#include <utility>

#include "dd/graph.h"

namespace rcfg::service {

Session::Session(std::string name, topo::Topology topology, config::NetworkConfig initial,
                 SessionOptions options)
    : name_(std::move(name)),
      topo_(std::make_shared<const topo::Topology>(std::move(topology))),
      options_(options) {
  options_.verifier.provenance = options_.trace;
  rc_ = std::make_unique<verify::RealConfig>(*topo_, options_.verifier);
  committed_ = std::move(initial);
  baseline_report_ = rc_->apply(committed_);
  if (options_.trace) {
    log_ = std::make_unique<::rcfg::explain::ProvenanceLog>(kTraceCapacity);
    record_("open", committed_, committed_, baseline_report_);
  }
}

verify::PolicyId Session::register_on_verifier_(const PolicySpec& spec) {
  switch (spec.kind) {
    case PolicySpec::Kind::kReachable:
      return rc_->require_reachable(spec.src, spec.dst, spec.prefix);
    case PolicySpec::Kind::kIsolated:
      return rc_->require_isolated(spec.src, spec.dst, spec.prefix);
    case PolicySpec::Kind::kWaypoint:
      return rc_->require_waypoint(spec.src, spec.dst, spec.via, spec.prefix);
  }
  throw std::logic_error("unreachable: bad PolicySpec::Kind");
}

void Session::record_(const char* label, const config::NetworkConfig& old_cfg,
                      const config::NetworkConfig& new_cfg,
                      const verify::RealConfig::Report& report) {
  if (log_ == nullptr) return;
  ::rcfg::explain::BatchRecord rec;
  rec.label = label;
  rec.old_config = old_cfg;
  rec.new_config = new_cfg;
  rec.dataplane = report.dataplane;
  rec.changed_devices = report.changed_devices;
  rec.model = report.model;
  rec.events = report.check.events;
  rec.remap = report.reclaim.remap;
  rec.spans = {report.generate_ms, report.model_ms, report.check_ms};
  log_->record(std::move(rec));
}

ProposeOutcome Session::propose(const config::NetworkConfig& cfg) {
  ProposeOutcome outcome;
  // Copied only when tracing: the record needs the pre-batch config after
  // staged_ has been overwritten.
  config::NetworkConfig old_cfg;
  if (log_ != nullptr) old_cfg = live_();
  try {
    outcome.report = rc_->apply(cfg);
    staged_ = cfg;
    record_("propose", old_cfg, cfg, outcome.report);
    return outcome;
  } catch (const dd::NonterminationError& e) {
    outcome.converged = false;
    outcome.error = e.what();
  }
  // Graceful recovery (paper §6 says "discard and restart"): the diverged
  // apply left the verifier at live_(), so rolling back to the committed
  // baseline is abort's incremental re-apply.
  ++recoveries_;
  outcome.report = roll_back_("recover");
  return outcome;
}

void Session::commit() {
  if (!staged_.has_value()) {
    throw std::logic_error("session '" + name_ + "': commit with no staged proposal");
  }
  committed_ = std::move(*staged_);
  staged_.reset();
}

verify::RealConfig::Report Session::abort() {
  if (!staged_.has_value()) {
    throw std::logic_error("session '" + name_ + "': abort with no staged proposal");
  }
  return roll_back_("abort");
}

verify::RealConfig::Report Session::roll_back_(const char* label) {
  config::NetworkConfig old_cfg;
  if (log_ != nullptr) old_cfg = live_();
  staged_.reset();
  // Roll back incrementally: re-applying the committed config re-verifies
  // only what the dropped proposal(s) had touched.
  verify::RealConfig::Report report = rc_->apply(committed_);
  record_(label, old_cfg, committed_, report);
  return report;
}

bool Session::add_policy(const PolicySpec& spec) {
  if (spec.name.empty()) throw std::invalid_argument("policy name must be non-empty");
  if (ids_.count(spec.name) != 0) {
    throw std::invalid_argument("duplicate policy name: " + spec.name);
  }
  const verify::PolicyId id = register_on_verifier_(spec);  // throws on bad node
  specs_.push_back(spec);
  ids_.emplace(spec.name, id);
  names_by_id_.emplace(id, spec.name);
  return rc_->checker().policy_satisfied(id);
}

bool Session::policy_satisfied(const std::string& name) const {
  const auto it = ids_.find(name);
  if (it == ids_.end()) throw std::invalid_argument("unknown policy: " + name);
  return rc_->checker().policy_satisfied(it->second);
}

std::string Session::policy_name(verify::PolicyId id) const {
  const auto it = names_by_id_.find(id);
  return it == names_by_id_.end() ? std::string() : it->second;
}

verify::FailureSweepResult Session::sweep(const verify::FailureSweepOptions& options) {
  return verify::sweep_failures(*rc_, live_(), options);
}

relate::RelationalResult Session::relate(const config::NetworkConfig& proposed,
                                         const std::vector<relate::RelationalSpec>& specs,
                                         bool witnesses) {
  relate::RelationalChecker checker(*rc_);
  return checker.check(proposed, specs, witnesses);
}

relate::OrderResult Session::order(const std::vector<relate::UpdateStep>& steps,
                                   const relate::OrderOptions& options) {
  relate::UpdateOrderSynthesizer synth(*rc_, live_());
  return synth.synthesize(steps, options);
}

std::unique_ptr<Session> Session::fork_replica() const {
  std::unique_ptr<Session> r(new Session());
  r->name_ = name_;
  r->topo_ = topo_;  // immutable, shared: both verifiers reference it
  r->options_ = options_;
  // fork() preserves EC ids and pins threads=1 — replica reads are cheap
  // and many replicas share one machine.
  r->rc_ = rc_->fork(*rc_->snapshot());
  r->baseline_report_ = baseline_report_;
  r->committed_ = committed_;
  r->staged_ = staged_;
  r->specs_ = specs_;
  r->ids_ = ids_;
  r->names_by_id_ = names_by_id_;
  if (log_ != nullptr) r->log_ = std::make_unique<::rcfg::explain::ProvenanceLog>(*log_);
  r->recoveries_ = recoveries_;
  return r;
}

void Session::apply_replica_delta(const ReplicaDelta& delta) {
  switch (delta.kind) {
    case ReplicaDelta::Kind::kNoop:
    case ReplicaDelta::Kind::kResync:  // the lane swaps sessions; nothing to do here
      return;
    case ReplicaDelta::Kind::kApply: {
      // Deterministic replay of the primary's apply. The primary already
      // converged on this input, reclamation did not fire (that would have
      // been a kResync), so neither happens here either.
      if (delta.recovery) ++recoveries_;
      rc_->apply(*delta.config);
      if (delta.staged_after) {
        staged_ = *delta.config;
      } else {
        staged_.reset();
      }
      if (log_ != nullptr && delta.record != nullptr) {
        // The primary's record verbatim (modulo the log-assigned seq, which
        // advances in lockstep): spans carry the primary's timings.
        log_->record(*delta.record);
      }
      return;
    }
    case ReplicaDelta::Kind::kCommit:
      if (!staged_.has_value()) {
        throw std::logic_error("replica '" + name_ + "': commit delta with no staged config");
      }
      committed_ = std::move(*staged_);
      staged_.reset();
      return;
    case ReplicaDelta::Kind::kAddPolicy:
      add_policy(*delta.policy);
      return;
  }
}

Session::ExplainResult Session::explain(const std::string& policy_name) const {
  std::string resolved = policy_name;
  if (resolved.empty()) {
    // Newest verdict-flip-to-false still in the provenance window. A
    // session never drops a policy, so its PolicyIds are current.
    if (log_ != nullptr) {
      for (std::size_t i = 0; i < log_->size() && resolved.empty(); ++i) {
        for (const verify::PolicyEvent& e : log_->newest(i).events) {
          if (!e.satisfied) {
            const auto it = names_by_id_.find(e.id);
            if (it != names_by_id_.end()) {
              resolved = it->second;
              break;
            }
          }
        }
      }
    }
    // Fallback: any currently violated policy.
    if (resolved.empty()) {
      for (const PolicySpec& spec : specs_) {
        if (!policy_satisfied(spec.name)) {
          resolved = spec.name;
          break;
        }
      }
    }
    if (resolved.empty()) {
      throw std::invalid_argument("nothing to explain: no policy is violated");
    }
  }
  const auto it = ids_.find(resolved);
  if (it == ids_.end()) throw std::invalid_argument("unknown policy: " + resolved);
  ExplainResult result;
  result.policy = resolved;
  result.explanation = ::rcfg::explain::explain_policy(*rc_, it->second, log_.get());
  return result;
}

}  // namespace rcfg::service
