#pragma once

// Cross-stage provenance: per change batch, the causal chain the pipeline
// walked — config diff → data-plane rule delta → EC splits/moves → policy
// verdict flips — plus the per-stage timing spans.
//
// The log is strictly pay-as-you-go: nothing in the pipeline records into
// it unless a session was opened with tracing on, and the config-line diff
// (the only expensive derived view) is computed lazily on the first
// explain that needs it, then cached. A bounded ring keeps the newest
// batches; explain answers come from what is still in the window.
//
// A ProvenanceLog is owned by one service::Session and inherits its
// threading contract: the engine serializes all access per session, so no
// locking happens here (the lazy diff cache included).

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "config/diff.h"
#include "config/types.h"
#include "dpm/model.h"
#include "routing/generator.h"
#include "verify/checker.h"
#include "verify/realconfig.h"

namespace rcfg::explain {

/// Wall time spent in each pipeline stage for one batch (mirrors
/// verify::RealConfig::Report's timing fields).
struct StageSpans {
  double generate_ms = 0;
  double model_ms = 0;
  double check_ms = 0;
  double total_ms() const { return generate_ms + model_ms + check_ms; }
};

/// Everything one change batch did, end to end.
struct BatchRecord {
  std::uint64_t seq = 0;  ///< log-assigned, monotonically increasing
  std::string label;      ///< "open" | "propose" | "abort" | "recover"

  config::NetworkConfig old_config;  ///< before the batch
  config::NetworkConfig new_config;  ///< after the batch

  /// Stage 1 output: the rule delta, plus the devices whose compiled facts
  /// changed (the fact-level origin of the delta; sorted, unique).
  routing::DataPlaneDelta dataplane;
  std::vector<topo::NodeId> changed_devices;

  /// Stage 2 output: splits, net EC moves, ACL-affected ECs.
  dpm::ModelDelta model;

  /// Stage 3 output: the policies whose verdict flipped.
  std::vector<verify::PolicyEvent> events;

  /// The reclaim step's EC merge, when one ran after this batch's check.
  /// The batch's own splits/moves are recorded in the *pre-remap* id
  /// space; newer batches (and the live verifier) speak post-remap ids,
  /// so cause walks translate backward through this before matching.
  std::optional<dpm::EcRemap> remap;

  StageSpans spans;

  /// Per-device config-line edits old → new, computed on first use and
  /// cached (single-threaded per the session contract).
  const std::vector<config::DeviceDiff>& config_diff() const;

 private:
  mutable std::optional<std::vector<config::DeviceDiff>> diff_;
};

/// Bounded newest-first history of batch records.
class ProvenanceLog {
 public:
  explicit ProvenanceLog(std::size_t capacity = 32)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Stamp `record` with the next sequence number and append it, evicting
  /// the oldest record when full. Returns the assigned seq (first is 1).
  std::uint64_t record(BatchRecord record);

  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Newest record, or nullptr when empty.
  const BatchRecord* latest() const;
  /// Record by sequence number, or nullptr when evicted / never recorded.
  const BatchRecord* find(std::uint64_t seq) const;

  /// Records newest-first (index 0 = latest).
  const BatchRecord& newest(std::size_t i) const { return records_[records_.size() - 1 - i]; }

 private:
  std::size_t capacity_;
  std::uint64_t next_seq_ = 1;
  std::deque<BatchRecord> records_;  ///< oldest at front
};

}  // namespace rcfg::explain
