// The rcfgd scale-out load harness (successor to bench_service): four
// phases, each with inline correctness assertions, all results appended to
// BENCH_service.json.
//
//   A. Replica speedup — N sessions under continuous propose pressure
//      (each session's primary re-verifies in a closed self-loop), with
//      closed-loop query clients. Run once without replicas (queries queue
//      on the session FIFO behind verifications — head-of-line blocking)
//      and once with 4 read replicas + a dedicated read-worker pool
//      (queries never wait for a propose). Same total thread budget both
//      runs. Asserts the query-throughput ratio meets RCFG_LOAD_FLOOR and
//      that replica answers are byte-identical to the primary's.
//
//   B. Scale-out — RCFG_LOAD_SESSIONS sessions (default 10k) on one
//      engine (8 write workers, 1 read worker) with max_sessions admission
//      control, then a mixed query/propose window with query latency
//      percentiles (p50/p95/p99). Asserts the 10k+1'th open is denied and
//      that a full queue with reject_on_full answers an explicit
//      backpressure error.
//
//   C. Framing parse throughput — the same request stream decoded from
//      JSON-lines and from binary frames, requests/s and MB/s each way.
//
//   D. Cost of provenance — the phase-A propose stream on an untraced and
//      a traced session (the untraced column must not pay for batch
//      records), plus the latency of `explain` on a violated waypoint.
//      Asserts that `explain` answers violated.
//
// Knobs (environment variables):
//   RCFG_LOAD_SESSIONS    phase-B session count        (default 10000)
//   RCFG_LOAD_RSESSIONS   phase-A session count        (default 64)
//   RCFG_LOAD_WINDOW_MS   measured window per phase    (default 3000)
//   RCFG_LOAD_FLOOR       phase-A speedup floor        (default 5)
//   RCFG_LOAD_QTHREADS    closed-loop query clients    (default 8)
//   RCFG_LOAD_FRAMES      phase-C request count        (default 20000)

#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "config/builders.h"
#include "config/print.h"
#include "service/engine.h"
#include "service/framing.h"
#include "topo/generators.h"

using namespace rcfg;
using service::Request;
using service::Response;
using service::Verb;

namespace {

std::atomic<std::uint64_t> g_id{1000};

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "bench_load: FAILED: %s\n", message.c_str());
  std::exit(1);
}

Request open_request(const std::string& session, const std::string& kind, unsigned k,
                     const std::string& config_text, unsigned replicas = 0,
                     bool trace = false) {
  Request req;
  req.id = g_id.fetch_add(1);
  req.verb = Verb::kOpen;
  req.session = session;
  req.topology.kind = kind;
  req.topology.k = k;
  req.config_text = config_text;
  req.options.replicas = replicas;
  req.options.trace = trace;
  return req;
}

Request query_request(const std::string& session, bool primary = false) {
  Request req;
  req.id = g_id.fetch_add(1);
  req.verb = Verb::kQuery;
  req.session = session;
  req.force_primary = primary;
  return req;
}

Request propose_request(const std::string& session, const std::string& config_text) {
  Request req;
  req.id = g_id.fetch_add(1);
  req.verb = Verb::kPropose;
  req.session = session;
  req.config_text = config_text;
  return req;
}

/// A session's self-sustaining propose loop: each response resubmits the
/// next variant, so every session keeps exactly one verification in flight
/// without tying up a client thread.
struct WriterLoop {
  service::Engine* engine = nullptr;
  std::string session;
  const std::vector<std::string>* variants = nullptr;
  std::atomic<bool>* stop = nullptr;
  std::atomic<std::uint64_t>* proposes = nullptr;
  std::size_t next = 0;

  void pump() {
    if (stop->load(std::memory_order_relaxed)) return;
    engine->submit(propose_request(session, (*variants)[next++ % variants->size()]),
                   [this](Response r) {
                     if (r.ok) proposes->fetch_add(1, std::memory_order_relaxed);
                     pump();
                   });
  }
};

struct PhaseAResult {
  double qps = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  std::uint64_t queries = 0;
  std::uint64_t proposes = 0;
  std::uint64_t replica_queries = 0;
  double wall_ms = 0;
};

PhaseAResult run_phase_a(unsigned sessions, unsigned replicas, unsigned window_ms,
                         unsigned qthreads, const std::string& base_text,
                         const std::vector<std::string>& variants) {
  service::EngineOptions opts;
  // Same total thread budget with and without replicas, so the ratio
  // measures routing (reads never queue behind verifications), not extra
  // hardware: 6 write workers, or 2 write + 4 read workers.
  opts.workers = replicas > 0 ? 2 : 6;
  opts.read_workers = replicas > 0 ? 4 : 1;
  service::Engine engine(opts);

  std::vector<std::string> names;
  names.reserve(sessions);
  for (unsigned s = 0; s < sessions; ++s) {
    names.push_back("load" + std::to_string(s));
    const Response r =
        engine.call(open_request(names.back(), "ring", 6, base_text, replicas, true));
    if (!r.ok) fail("phase A open: " + r.error);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> proposes{0};
  std::vector<std::unique_ptr<WriterLoop>> writers;
  writers.reserve(sessions);
  for (const std::string& name : names) {
    auto w = std::make_unique<WriterLoop>();
    w->engine = &engine;
    w->session = name;
    w->variants = &variants;
    w->stop = &stop;
    w->proposes = &proposes;
    writers.push_back(std::move(w));
  }
  for (auto& w : writers) w->pump();

  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::vector<double>> lat(qthreads);
  std::vector<std::thread> clients;
  clients.reserve(qthreads);
  const bench::Timer timer;
  for (unsigned q = 0; q < qthreads; ++q) {
    clients.emplace_back([&, q] {
      std::size_t rr = q;  // stagger the round-robin start per client
      while (!stop.load(std::memory_order_relaxed)) {
        const bench::Timer one;
        const Response r = engine.call(query_request(names[rr++ % names.size()]));
        lat[q].push_back(one.ms());
        queries.fetch_add(1, std::memory_order_relaxed);
        if (!r.ok) errors.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(window_ms));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  const double wall_ms = timer.ms();
  engine.drain();
  if (errors.load() != 0) fail("phase A: " + std::to_string(errors.load()) + " query errors");

  // Inline parity: every session's replica-served answer must serialize to
  // the same bytes as its primary's, for query and for explain. The paired
  // requests share an id so the comparison covers the whole response.
  for (const std::string& name : names) {
    Request replica_q = query_request(name, /*primary=*/false);
    Request primary_q = replica_q;
    primary_q.force_primary = true;
    if (service::serialize_response(engine.call(replica_q)) !=
        service::serialize_response(engine.call(primary_q))) {
      fail("replica/primary query mismatch on " + name);
    }
    Request replica_e;
    replica_e.id = g_id.fetch_add(1);
    replica_e.verb = Verb::kExplain;
    replica_e.session = name;
    Request primary_e = replica_e;
    primary_e.force_primary = true;
    if (service::serialize_response(engine.call(replica_e)) !=
        service::serialize_response(engine.call(primary_e))) {
      fail("replica/primary explain mismatch on " + name);
    }
  }
  if (replicas > 0 && engine.metrics().replica_lane_failures.value() != 0) {
    fail("phase A: replica lane failures");
  }

  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  PhaseAResult out;
  out.wall_ms = wall_ms;
  out.queries = queries.load();
  out.proposes = proposes.load();
  out.replica_queries = engine.metrics().replica_queries.value();
  out.qps = wall_ms > 0 ? 1000.0 * static_cast<double>(out.queries) / wall_ms : 0;
  out.p50 = bench::percentile(all, 50);
  out.p95 = bench::percentile(all, 95);
  out.p99 = bench::percentile(all, 99);
  return out;
}

service::json::Value phase_a_json(const PhaseAResult& r) {
  service::json::Value v;
  v["qps"] = service::json::Value(r.qps);
  v["p50_ms"] = service::json::Value(r.p50);
  v["p95_ms"] = service::json::Value(r.p95);
  v["p99_ms"] = service::json::Value(r.p99);
  v["queries"] = service::json::Value(r.queries);
  v["proposes"] = service::json::Value(r.proposes);
  v["replica_queries"] = service::json::Value(r.replica_queries);
  v["wall_ms"] = service::json::Value(r.wall_ms);
  return v;
}

// ---------------------------------------------------------------------------

/// Phase B's write workers: the thread budget of the four two-worker engines
/// that served this phase before, so EXPERIMENTS.md can compare the two.
constexpr unsigned kPhaseBWorkers = 8;

struct PhaseBResult {
  unsigned sessions = 0;
  double open_total_ms = 0;
  double open_p50 = 0, open_p95 = 0, open_p99 = 0;
  double qps = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  std::uint64_t queries = 0;
  std::uint64_t proposes = 0;
};

PhaseBResult run_phase_b(unsigned sessions, unsigned window_ms, unsigned qthreads,
                         const std::string& base_text,
                         const std::vector<std::string>& variants) {
  service::EngineOptions opts;
  opts.workers = kPhaseBWorkers;
  opts.read_workers = 1;
  opts.max_sessions = sessions;
  service::Engine engine(opts);

  PhaseBResult out;
  out.sessions = sessions;
  std::vector<std::string> names;
  names.reserve(sessions);
  std::vector<double> open_lat;
  open_lat.reserve(sessions);
  const bench::Timer open_timer;
  for (unsigned s = 0; s < sessions; ++s) {
    names.push_back("s" + std::to_string(s));
    const bench::Timer one;
    const Response r = engine.call(open_request(names.back(), "ring", 4, base_text));
    open_lat.push_back(one.ms());
    if (!r.ok) fail("phase B open " + names.back() + ": " + r.error);
  }
  out.open_total_ms = open_timer.ms();
  out.open_p50 = bench::percentile(open_lat, 50);
  out.open_p95 = bench::percentile(open_lat, 95);
  out.open_p99 = bench::percentile(open_lat, 99);

  // Admission control: the (N+1)'th session must be denied, explicitly.
  const Response denied = engine.call(open_request("overflow", "ring", 4, base_text));
  if (denied.ok || denied.error.find("admission denied") == std::string::npos) {
    fail("phase B: open beyond max_sessions was not denied (" + denied.error + ")");
  }
  if (engine.session_count() != sessions) fail("phase B: session count drifted");

  // Mixed traffic: closed-loop query clients over all sessions plus two
  // closed-loop propose/commit writers striding across them.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries{0}, proposes{0}, errors{0};
  std::vector<std::vector<double>> lat(qthreads);
  std::vector<std::thread> clients;
  const bench::Timer timer;
  for (unsigned q = 0; q < qthreads; ++q) {
    clients.emplace_back([&, q] {
      std::size_t rr = q * 7919;  // co-prime stride start per client
      while (!stop.load(std::memory_order_relaxed)) {
        const bench::Timer one;
        const Response r = engine.call(query_request(names[rr++ % names.size()]));
        lat[q].push_back(one.ms());
        queries.fetch_add(1, std::memory_order_relaxed);
        if (!r.ok) errors.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (unsigned w = 0; w < 2; ++w) {
    clients.emplace_back([&, w] {
      std::size_t rr = w * 104729;
      std::size_t variant = w;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& name = names[rr++ % names.size()];
        if (engine.call(propose_request(name, variants[variant++ % variants.size()])).ok) {
          proposes.fetch_add(1, std::memory_order_relaxed);
          Request commit;
          commit.id = g_id.fetch_add(1);
          commit.verb = Verb::kCommit;
          commit.session = name;
          engine.call(std::move(commit));
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(window_ms));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  const double wall_ms = timer.ms();
  engine.drain();
  if (errors.load() != 0) fail("phase B: " + std::to_string(errors.load()) + " query errors");

  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  out.queries = queries.load();
  out.proposes = proposes.load();
  out.qps = wall_ms > 0 ? 1000.0 * static_cast<double>(out.queries) / wall_ms : 0;
  out.p50 = bench::percentile(all, 50);
  out.p95 = bench::percentile(all, 95);
  out.p99 = bench::percentile(all, 99);
  return out;
}

/// Backpressure probe: with reject_on_full and a capacity-1 queue, a
/// saturated session answers an explicit error instead of blocking.
void check_backpressure(const std::string& base_text) {
  service::EngineOptions opts;
  opts.queue_capacity = 1;
  opts.reject_on_full = true;
  service::Engine engine(opts);
  engine.pause();
  std::atomic<bool> opened{false};
  engine.submit(open_request("bp", "ring", 4, base_text),
                [&opened](Response r) { opened.store(r.ok); });
  Response rejected;
  engine.submit(query_request("bp"), [&rejected](Response r) { rejected = std::move(r); });
  if (rejected.ok || rejected.error.find("backpressure") == std::string::npos) {
    fail("backpressure probe: expected an explicit rejection, got '" + rejected.error + "'");
  }
  engine.resume();
  engine.drain();
  if (!opened.load()) fail("backpressure probe: open failed");
}

// ---------------------------------------------------------------------------

struct FramingResult {
  double jsonl_req_per_s = 0, jsonl_mb_per_s = 0;
  double binary_req_per_s = 0, binary_mb_per_s = 0;
  std::uint64_t requests = 0;
  std::uint64_t jsonl_bytes = 0, binary_bytes = 0;
};

FramingResult run_phase_c(unsigned count, const std::string& config_text) {
  std::vector<service::json::Value> docs;
  docs.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    service::json::Value doc;
    doc["id"] = service::json::Value(std::uint64_t{i + 1});
    doc["session"] = service::json::Value("net" + std::to_string(i % 97));
    switch (i % 10) {
      case 0:
      case 1: {
        doc["op"] = service::json::Value("propose");
        doc["config"] = service::json::Value(config_text);
        break;
      }
      case 2:
        doc["op"] = service::json::Value("commit");
        break;
      default:
        doc["op"] = service::json::Value("query");
        break;
    }
    docs.push_back(std::move(doc));
  }

  std::string jsonl;
  std::ostringstream frames;
  service::write_magic(frames);
  for (const auto& doc : docs) {
    jsonl += doc.dump();
    jsonl += '\n';
    std::string payload;
    service::encode_value(doc, payload);
    service::write_frame(frames, payload);
  }
  const std::string binary = frames.str();

  FramingResult out;
  out.requests = count;
  out.jsonl_bytes = jsonl.size();
  out.binary_bytes = binary.size();

  std::uint64_t parsed = 0;
  {
    const bench::Timer timer;
    std::istringstream in(jsonl);
    std::string line;
    while (std::getline(in, line)) {
      const Request req = service::parse_request(line);
      parsed += req.id != 0 ? 1 : 0;
    }
    const double ms = timer.ms();
    out.jsonl_req_per_s = ms > 0 ? 1000.0 * static_cast<double>(parsed) / ms : 0;
    out.jsonl_mb_per_s =
        ms > 0 ? static_cast<double>(jsonl.size()) / 1048576.0 * 1000.0 / ms : 0;
  }
  if (parsed != count) fail("phase C: jsonl parsed " + std::to_string(parsed));

  parsed = 0;
  {
    const bench::Timer timer;
    std::istringstream in(binary);
    service::read_magic(in);
    std::string payload;
    while (service::read_frame(in, payload)) {
      const Request req = service::parse_request_doc(service::decode_value(payload));
      parsed += req.id != 0 ? 1 : 0;
    }
    const double ms = timer.ms();
    out.binary_req_per_s = ms > 0 ? 1000.0 * static_cast<double>(parsed) / ms : 0;
    out.binary_mb_per_s =
        ms > 0 ? static_cast<double>(binary.size()) / 1048576.0 * 1000.0 / ms : 0;
  }
  if (parsed != count) fail("phase C: binary parsed " + std::to_string(parsed));
  return out;
}

// ---------------------------------------------------------------------------

constexpr unsigned kProvenanceProposes = 24;
constexpr unsigned kExplainQueries = 50;

/// Propose latencies on two ring-6 sessions, [0] untraced and [1] traced,
/// fed the same variants and taking turns at going first, so neither
/// column pays for running first.
std::array<std::vector<double>, 2> time_proposes(const std::string& base_text,
                                                 const std::vector<std::string>& variants) {
  const std::string names[2] = {"untraced", "traced"};
  service::Engine engine;
  for (const bool trace : {false, true}) {
    if (!engine.call(open_request(names[trace], "ring", 6, base_text, 0, trace)).ok) {
      fail("phase D open");
    }
  }
  std::array<std::vector<double>, 2> ms;
  for (unsigned i = 0; i < kProvenanceProposes; ++i) {
    for (const bool trace : {i % 2 == 1, i % 2 == 0}) {
      const bench::Timer t;
      if (!engine.call(propose_request(names[trace], variants[i % variants.size()])).ok) {
        fail("phase D propose");
      }
      ms[trace].push_back(t.ms());
    }
  }
  return ms;
}

/// `explain` latency on a traced ring-6 session whose r0 -> r2 waypoint
/// via r1 the proposal `violating` breaks.
bench::Stats time_explain(const std::string& base_text, const std::string& violating) {
  service::Engine engine;
  if (!engine.call(open_request("prov", "ring", 6, base_text, 0, true)).ok) {
    fail("phase D open");
  }
  Request add;
  add.id = g_id.fetch_add(1);
  add.verb = Verb::kAddPolicy;
  add.session = "prov";
  add.policy.kind = service::PolicySpec::Kind::kWaypoint;
  add.policy.name = "via-r1";
  add.policy.src = "r0";
  add.policy.dst = "r2";
  add.policy.via = "r1";
  add.policy.prefix = config::host_prefix(2);
  if (!engine.call(std::move(add)).ok || !engine.call(propose_request("prov", violating)).ok) {
    fail("phase D setup");
  }
  bench::Stats ms;
  for (unsigned i = 0; i < kExplainQueries; ++i) {
    Request req;
    req.id = g_id.fetch_add(1);
    req.verb = Verb::kExplain;
    req.session = "prov";
    const bench::Timer t;
    const Response r = engine.call(std::move(req));
    ms.add(t.ms());
    if (!r.ok || r.body.get_bool("satisfied", true)) fail("explain did not answer violated");
  }
  return ms;
}

}  // namespace

int main() {
  const unsigned sessions = bench::env_unsigned("RCFG_LOAD_SESSIONS", 10000);
  const unsigned rsessions = bench::env_unsigned("RCFG_LOAD_RSESSIONS", 64);
  const unsigned window_ms = bench::env_unsigned("RCFG_LOAD_WINDOW_MS", 3000);
  const unsigned floor = bench::env_unsigned("RCFG_LOAD_FLOOR", 5);
  const unsigned qthreads = bench::env_unsigned("RCFG_LOAD_QTHREADS", 8);
  const unsigned frames = bench::env_unsigned("RCFG_LOAD_FRAMES", 20000);

  // Phase A fixtures: ring-6 sessions with every single-link-failure
  // variant as the propose stream.
  const topo::Topology ring6 = topo::make_ring(6);
  const config::NetworkConfig base6 = config::build_ospf_network(ring6);
  const std::string base6_text = config::print_network(base6);
  std::vector<std::string> variants6;
  for (topo::LinkId l = 0; l < ring6.link_count(); ++l) {
    config::NetworkConfig cfg = base6;
    config::fail_link(cfg, ring6, static_cast<unsigned>(l));
    variants6.push_back(config::print_network(cfg));
  }
  // Phase B fixtures: the smallest sane network — 10k of them.
  const topo::Topology ring4 = topo::make_ring(4);
  const config::NetworkConfig base4 = config::build_ospf_network(ring4);
  const std::string base4_text = config::print_network(base4);
  std::vector<std::string> variants4;
  for (topo::LinkId l = 0; l < ring4.link_count(); ++l) {
    config::NetworkConfig cfg = base4;
    config::fail_link(cfg, ring4, static_cast<unsigned>(l));
    variants4.push_back(config::print_network(cfg));
  }

  std::printf("phase A: %u sessions, %u ms window, %u query clients\n", rsessions, window_ms,
              qthreads);
  const PhaseAResult baseline =
      run_phase_a(rsessions, /*replicas=*/0, window_ms, qthreads, base6_text, variants6);
  std::printf("  baseline  : %8.0f q/s  p50 %7.3f ms  p95 %7.3f ms  p99 %7.3f ms  (%llu proposes)\n",
              baseline.qps, baseline.p50, baseline.p95, baseline.p99,
              static_cast<unsigned long long>(baseline.proposes));
  const PhaseAResult replicated =
      run_phase_a(rsessions, /*replicas=*/4, window_ms, qthreads, base6_text, variants6);
  std::printf("  4 replicas: %8.0f q/s  p50 %7.3f ms  p95 %7.3f ms  p99 %7.3f ms  (%llu proposes)\n",
              replicated.qps, replicated.p50, replicated.p95, replicated.p99,
              static_cast<unsigned long long>(replicated.proposes));
  const double speedup = baseline.qps > 0 ? replicated.qps / baseline.qps : 0;
  std::printf("  speedup   : %.2fx (floor %ux)\n", speedup, floor);
  if (speedup < static_cast<double>(floor)) {
    fail("replica query speedup " + std::to_string(speedup) + "x below the " +
         std::to_string(floor) + "x floor");
  }

  std::printf("phase B: %u sessions on one engine, %u write workers\n", sessions,
              kPhaseBWorkers);
  const PhaseBResult scale =
      run_phase_b(sessions, window_ms, qthreads > 2 ? qthreads - 2 : qthreads, base4_text,
                  variants4);
  std::printf("  opens     : %u in %.0f ms  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n",
              scale.sessions, scale.open_total_ms, scale.open_p50, scale.open_p95,
              scale.open_p99);
  std::printf("  queries   : %8.0f q/s  p50 %7.3f ms  p95 %7.3f ms  p99 %7.3f ms  (%llu proposes)\n",
              scale.qps, scale.p50, scale.p95, scale.p99,
              static_cast<unsigned long long>(scale.proposes));
  check_backpressure(base4_text);
  std::printf("  admission + backpressure checks passed\n");

  std::printf("phase C: %u requests per framing\n", frames);
  const FramingResult framing = run_phase_c(frames, base4_text);
  std::printf("  jsonl     : %9.0f req/s  %7.1f MB/s  (%llu bytes)\n", framing.jsonl_req_per_s,
              framing.jsonl_mb_per_s, static_cast<unsigned long long>(framing.jsonl_bytes));
  std::printf("  binary    : %9.0f req/s  %7.1f MB/s  (%llu bytes)\n",
              framing.binary_req_per_s, framing.binary_mb_per_s,
              static_cast<unsigned long long>(framing.binary_bytes));

  std::printf("phase D: %u proposes per trace setting, %u explain queries\n",
              kProvenanceProposes, kExplainQueries);
  const std::array<std::vector<double>, 2> propose_ms = time_proposes(base6_text, variants6);
  const double untraced = bench::percentile(propose_ms[0], 50);
  const double traced = bench::percentile(propose_ms[1], 50);
  const double overhead_pct = (traced / untraced - 1) * 100;
  // variants6[0] fails r0--r1, the waypoint's only shortest path.
  const bench::Stats explain = time_explain(base6_text, variants6[0]);
  std::printf("  propose   : p50 trace off %.3f ms, trace on %.3f ms (%+.1f%%)\n", untraced,
              traced, overhead_pct);
  std::printf("  explain   : mean %.3f ms  max %.3f ms (violated waypoint)\n", explain.mean(),
              explain.max);

  service::json::Value doc;
  doc["bench"] = service::json::Value("load");
  doc["window_ms"] = service::json::Value(window_ms);
  service::json::Value replica;
  replica["sessions"] = service::json::Value(rsessions);
  replica["query_clients"] = service::json::Value(qthreads);
  replica["baseline"] = phase_a_json(baseline);
  replica["replicas4"] = phase_a_json(replicated);
  replica["speedup"] = service::json::Value(speedup);
  replica["floor"] = service::json::Value(floor);
  replica["parity_sessions_checked"] = service::json::Value(rsessions);
  doc["replica_speedup"] = std::move(replica);
  service::json::Value scale_out;
  scale_out["sessions"] = service::json::Value(scale.sessions);
  scale_out["workers"] = service::json::Value(kPhaseBWorkers);
  scale_out["open_total_ms"] = service::json::Value(scale.open_total_ms);
  scale_out["open_p50_ms"] = service::json::Value(scale.open_p50);
  scale_out["open_p95_ms"] = service::json::Value(scale.open_p95);
  scale_out["open_p99_ms"] = service::json::Value(scale.open_p99);
  scale_out["qps"] = service::json::Value(scale.qps);
  scale_out["p50_ms"] = service::json::Value(scale.p50);
  scale_out["p95_ms"] = service::json::Value(scale.p95);
  scale_out["p99_ms"] = service::json::Value(scale.p99);
  scale_out["queries"] = service::json::Value(scale.queries);
  scale_out["proposes"] = service::json::Value(scale.proposes);
  scale_out["admission_denial_verified"] = service::json::Value(true);
  scale_out["backpressure_verified"] = service::json::Value(true);
  doc["scale_out"] = std::move(scale_out);
  service::json::Value framing_json;
  framing_json["requests"] = service::json::Value(framing.requests);
  framing_json["jsonl_req_per_s"] = service::json::Value(framing.jsonl_req_per_s);
  framing_json["jsonl_mb_per_s"] = service::json::Value(framing.jsonl_mb_per_s);
  framing_json["jsonl_bytes"] = service::json::Value(framing.jsonl_bytes);
  framing_json["binary_req_per_s"] = service::json::Value(framing.binary_req_per_s);
  framing_json["binary_mb_per_s"] = service::json::Value(framing.binary_mb_per_s);
  framing_json["binary_bytes"] = service::json::Value(framing.binary_bytes);
  doc["framing"] = std::move(framing_json);
  service::json::Value provenance;
  provenance["proposes"] = service::json::Value(kProvenanceProposes);
  provenance["propose_p50_ms_trace_off"] = service::json::Value(untraced);
  provenance["propose_p50_ms_trace_on"] = service::json::Value(traced);
  provenance["trace_overhead_pct"] = service::json::Value(overhead_pct);
  provenance["explain_queries"] = service::json::Value(kExplainQueries);
  provenance["explain_ms_mean"] = service::json::Value(explain.mean());
  provenance["explain_ms_max"] = service::json::Value(explain.max);
  doc["provenance"] = std::move(provenance);

  std::ofstream("BENCH_service.json") << doc.dump() << "\n";
  std::printf("\nwrote BENCH_service.json\n");
  return 0;
}
