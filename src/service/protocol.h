#pragma once

// The rcfgd wire protocol: JSON lines, one request or response per line, so
// the engine is drivable from files, pipes, or a socket shim.
//
// Requests ({"id":N,"op":VERB,...}):
//   open        {"session", "topology":{"kind","k"|"n"|"w","h"}, "config",
//                [options...]} — the COMPLETE option set, in one place:
//                 "max_rounds":N            control-plane convergence cap
//                 "update_order":"insert_first"|"delete_first"|"interleaved"
//                                           batch rule-update order (Table 3;
//                                           default insert_first)
//                 "threads":N               checker worker-pool width
//                                           (default 1, at most 64); reports
//                                           are identical for any value —
//                                           only latency moves
//                 "trace":true              record per-batch provenance for
//                                           `explain` (pay-as-you-go: without
//                                           it, batches record nothing)
//                 "reclaim":true            online memory reclamation (EC merge
//                                           + BDD GC after each check); verdicts
//                                           and pair results unaffected, EC ids
//                                           in later reports renumbered by merges
//                 "replicas":N              read replicas forked off the
//                                           session (<= 16). query/explain/
//                                           relate fan out round-robin across
//                                           them; mutations apply once on the
//                                           primary and stream deltas (see
//                                           engine.h). Replica answers are
//                                           bit-identical to the primary's at
//                                           the same acknowledged epoch.
//               Retired keys, ignored like any other unknown key:
//               "flush_budget", "recurrence_threshold", "packet_space",
//               "ec_watermark", "bdd_watermark".
//   propose     {"session", "config"}          config = the DSL text of the
//                                              *whole* intended network
//   commit      {"session"}
//   abort       {"session"}
//   add_policy  {"session", "policy":{"kind":"reachable"|"isolated"|
//                "waypoint", "name","src","dst",["via"],"prefix"}}
//   query       {"session", ["policy":NAME], ["primary":true]}
//               no "policy" => summary. On a session opened with replicas,
//               "primary":true pins the read to the primary verifier
//               (diagnostics; replicas answer identically by construction)
//   explain     {"session", ["policy":NAME]}   no "policy" => the most
//               recent violation; replays the policy's witness packet
//               hop-by-hop (LPM rule + ACL verdict per hop) and names the
//               batch + config lines that last moved the policy's ECs
//   sweep       {"session", ["links":[IDs]], ["max_failures":1..6],
//                ["budget":N], ["prune":true], ["symmetry":true],
//                ["threads":N], ["detail":true]}
//               snapshot-fork failure sweep over the live configuration:
//               every scenario runs on a forked replica of the session's
//               verifier (the live state is never touched). "links" limits
//               the swept links (default: all; duplicates collapse);
//               "max_failures":k sweeps every scenario of up to k
//               simultaneous failures; "prune" skips scenarios that cannot
//               move a registered policy; "symmetry" dedups fat-tree pod
//               orbits and replays the representative's outcome; "budget"
//               caps the scenarios verified on replicas, spending them in
//               priority order (coverage reports the shortfall); "threads"
//               (at most 64) shards scenarios over that many replicas;
//               "detail" includes the per-scenario outcome array.
//               Integer fields reject values their type cannot hold.
//   relate      {"session", "config", ["specs":[{"kind":"none"|
//                "only_dst_in"|"only_src_in", ["prefixes":[CIDR,...]],
//                ["name"]}]], ["witnesses":true], ["detail":true]}
//               relational check of a proposed config against the live
//               state (fork-pair behavioural diff; the live verifier is
//               never touched): which ECs forward/filter differently, per
//               device, with gained/lost delivered pairs. Each spec says
//               which traffic MAY change ("none" = behaviour-preserving);
//               violating ECs come back with a hop-by-hop witness trace
//               through both data planes. "detail" adds the per-EC diff.
//   order       {"session", "steps":[{"name","config"},...],
//                ["max_blocking":N], ["detail":true]}
//               safe update-order synthesis: each step's "config" is a
//               patch (DSL text of just the devices it reconfigures; steps
//               must touch disjoint devices). Searches for a rollout order
//               where every prefix keeps every currently-satisfied policy
//               satisfied, on a scratch fork (restore → apply → check →
//               discard). Answers a safe total order with per-step
//               verdicts, or the minimal blocking subset (up to
//               "max_blocking", default 2) whose exclusion unblocks the
//               rest. "detail" adds per-step verdict records.
//   stats       {}                             waits for in-flight requests
//
// Responses echo the id: {"id":N,"ok":true,...} or
// {"id":N,"ok":false,"error":"..."}. A propose superseded by coalescing
// answers {"ok":true,"status":"coalesced","superseded_by":M}.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>

#include "relate/relate.h"
#include "service/json.h"
#include "service/session.h"
#include "topo/topology.h"

namespace rcfg::service {

/// Thrown on a malformed or semantically invalid request line.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& message) : std::runtime_error(message) {}
};

enum class Verb : std::uint8_t {
  kOpen,
  kPropose,
  kCommit,
  kAbort,
  kAddPolicy,
  kQuery,
  kExplain,
  kSweep,
  kRelate,
  kOrder,
  kStats,
};

/// What the service needs to know about a verb besides its fields (which
/// parse_request_doc reads) and its work (which the engine runs).
struct VerbInfo {
  Verb verb;
  const char* name;    ///< the "op" on the wire, and its `stats` requests key
  bool needs_session;  ///< the request must name a session; every verb but stats
  bool replica_read;   ///< read-only: may be answered by a replica lane
};

/// The verb table, indexed by Verb. Everything that would otherwise list
/// the verbs (name lookup, session check, read routing, per-verb request
/// counters) reads it.
inline constexpr VerbInfo kVerbs[] = {
    {Verb::kOpen, "open", true, false},
    {Verb::kPropose, "propose", true, false},
    {Verb::kCommit, "commit", true, false},
    {Verb::kAbort, "abort", true, false},
    {Verb::kAddPolicy, "add_policy", true, false},
    {Verb::kQuery, "query", true, true},
    {Verb::kExplain, "explain", true, true},
    {Verb::kSweep, "sweep", true, false},
    {Verb::kRelate, "relate", true, true},
    {Verb::kOrder, "order", true, false},
    {Verb::kStats, "stats", false, false},
};
inline constexpr std::size_t kVerbCount = std::size(kVerbs);

constexpr const VerbInfo& verb_info(Verb v) { return kVerbs[static_cast<std::size_t>(v)]; }
constexpr const char* verb_name(Verb v) { return verb_info(v).name; }

static_assert(
    [] {
      for (std::size_t i = 0; i < kVerbCount; ++i) {
        if (static_cast<std::size_t>(kVerbs[i].verb) != i) return false;
      }
      return kVerbCount == static_cast<std::size_t>(Verb::kStats) + 1;
    }(),
    "kVerbs must list every Verb, in enum order");

/// How to construct a session's topology. Kinds: "fat_tree" (param k),
/// "ring" / "full_mesh" (param n), "grid" (params w, h).
struct TopologySpec {
  std::string kind;
  unsigned k = 0;  ///< fat_tree k / ring n / full_mesh n
  unsigned w = 0, h = 0;  ///< grid
};

topo::Topology build_topology(const TopologySpec& spec);  // throws ProtocolError

/// Upper bound on simultaneous failures per sweep scenario. Deep spaces are
/// meant to be driven with "prune"/"symmetry"/"budget"; the cap only stops
/// accidental combinatorial requests.
inline constexpr unsigned kMaxSweepFailures = 6;

/// Sweep parameters (the sweep verb).
struct SweepSpec {
  std::vector<topo::LinkId> links;  ///< swept links; empty => every link
  unsigned max_failures = 1;        ///< scenario size cap, 1..kMaxSweepFailures
  std::uint64_t budget = 0;         ///< explored-scenario cap; 0 = unbounded
  bool prune = false;               ///< dependency pruning (policy-relevant links)
  bool symmetry = false;            ///< fat-tree pod symmetry dedup
  unsigned threads = 1;             ///< replicas to shard scenarios over
  bool detail = false;              ///< include per-scenario outcomes
};

/// Relational-check parameters (the relate verb). The proposed config
/// itself rides in Request::config_text.
struct RelateSpec {
  std::vector<relate::RelationalSpec> specs;  ///< may be empty (diff only)
  bool witnesses = true;  ///< trace a witness flow per violated spec
  bool detail = false;    ///< include the per-EC diff array
};

/// One rollout step of the order verb: a named config patch (DSL text).
struct OrderStepSpec {
  std::string name;
  std::string config_text;
};

/// Order-synthesis parameters (the order verb).
struct OrderSpec {
  std::vector<OrderStepSpec> steps;
  unsigned max_blocking = 2;  ///< blocking-subset search size cap
  bool detail = false;        ///< include per-step verdict records
};

/// Upper bound on per-session read replicas (open's "replicas" option).
inline constexpr unsigned kMaxReplicas = 16;

/// Upper bound on the worker threads one request may ask for (open's
/// checker pool, sweep's replica lanes); each sweep lane forks a whole
/// verifier.
inline constexpr unsigned kMaxThreads = 64;

struct Request {
  std::uint64_t id = 0;
  Verb verb = Verb::kStats;
  std::string session;      ///< empty for stats
  TopologySpec topology;    ///< open
  std::string config_text;  ///< open, propose, relate (config DSL, see config/parse.h)
  PolicySpec policy;        ///< add_policy
  std::string query_policy; ///< query/explain; empty => summary / last violation
  SweepSpec sweep;          ///< sweep
  RelateSpec relate;        ///< relate
  OrderSpec order;          ///< order
  SessionOptions options;   ///< open
  bool force_primary = false;  ///< query/explain/relate: bypass read replicas
};

/// Parse one request line / document. Throws ProtocolError (including for
/// invalid JSON, wrapped with the parse position).
Request parse_request(std::string_view line);
Request parse_request_doc(const json::Value& doc);

struct Response {
  std::uint64_t id = 0;
  bool ok = true;
  std::string error;  ///< set iff !ok
  json::Value body;   ///< verb-specific fields, merged into the response object
};

Response error_response(std::uint64_t id, std::string message);

/// The response as one JSON object: {"id":..,"ok":..,<body fields>} with
/// "error" added when !ok. Both wire framings serialize this value.
json::Value response_value(const Response& r);

/// response_value(r).dump(): one line, no trailing newline.
std::string serialize_response(const Response& r);

}  // namespace rcfg::service
