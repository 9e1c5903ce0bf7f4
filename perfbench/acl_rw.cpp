// acl_rw: an ACL-heavy session served through service::Engine, by one
// closed-loop client, along the path rcfgd takes for each request line:
// parse_request -> Engine::call -> serialize_response.
//
// The engine runs one write worker and one read worker with no replicas.
// The opened configuration already carries multi-field ACLs, so the open
// migrates the packet space to the BDD backend. Each operation proposes the
// committed configuration plus one campus ACL churn step, then commits it —
// or, at one seeded position in every four operations, aborts it (the
// abort re-applies the committed configuration) — and then reads every
// policy verdict with a query. The service hop and the abort's re-apply do
// most of the work, routing's whole-network fact compilation and dpm the
// rest, and reads beside writes expose a change that speeds one at the
// other's cost.
//
// ACLs accumulate within an epoch on purpose (a live campus keeps its
// filters). An epoch is one pass over a fixed pool of kPoolSteps churn
// steps, from the opened configuration; the opened configuration's filters
// and every step are drawn from kPoolSeed, and the seed sets the order of
// each epoch's steps and where its aborts fall. Every epoch after the first
// starts with an untimed propose + commit of the opened configuration. The
// first kWarmupEpochs are not timed: the first makes every EC split the
// steps need (dpm.splits reports it), and the first replay still ran a
// third slower than later ones. ECs never merge, so the timed epochs that
// follow do the same kind of work, and none of it is EC splitting.
//
// Why epochs: without them the run is not stationary. Every new filter
// splits more ECs, so in a run of 384 new steps an operation near the end
// costs three times one near the start, and change_p90_ms comes from the
// last seconds of the run. On a shared VM, where identical operations
// differ by +-30% from one second to the next, that tail moved by a quarter
// between runs of identical code. Replayed epochs spread every cost level
// over the whole timed phase; reshuffling the steps, and drawing the
// aborts afresh, in every epoch keeps the tail from resting on the few
// steps one seed aborts. EC splitting stays measured in setup_s: the
// open splits ECs for the opened configuration's filters.

#include <optional>

#include "baseline/simulator.h"
#include "config/builders.h"
#include "config/print.h"
#include "core/rng.h"
#include "service/engine.h"
#include "service/json.h"
#include "service/protocol.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace rcfg;
using service::json::Value;

namespace {

constexpr unsigned kOpsPerSecond = 64;  // timed; rounded up to whole epochs
constexpr unsigned kPoolSteps = 128;
constexpr unsigned kWarmupEpochs = 2;
constexpr int kBaseAcls = 48;
constexpr std::uint64_t kPoolSeed = 0xac1;
const std::string kSession = "campus";

std::string request(const char* verb, Value body = {}) {
  static std::uint64_t next_id = 0;
  body["id"] = Value(++next_id);
  body["op"] = Value(verb);
  body["session"] = Value(kSession);
  return body.dump();
}

std::string policy_name(std::size_t i) { return "p" + std::to_string(i); }

/// One request line through the service and back to a reply line. The
/// reply is parsed only after timing stops.
struct Rpc {
  std::string reply;
  double ms = 0;
};

Rpc rpc(service::Engine& engine, const std::string& line, Tracer* tracer, std::uint64_t op,
        const std::string& verb) {
  const Stopwatch sw;
  Rpc r;
  if (tracer == nullptr) {
    r.reply = service::serialize_response(engine.call(service::parse_request(line)));
  } else {
    const Scope rt(*tracer, "rpc." + verb, op);
    service::Request req;
    {
      const Scope s(*tracer, "service.parse_request", op);
      req = service::parse_request(line);
    }
    service::Response resp;
    {
      const Scope s(*tracer, "service.call." + verb, op);
      resp = engine.call(std::move(req));
    }
    const Scope s(*tracer, "service.serialize_response", op);
    r.reply = service::serialize_response(resp);
  }
  r.ms = sw.ms();
  return r;
}

/// The reply as JSON, or nullopt when it is not ok (the first such reply
/// of an operation becomes its `problem`).
std::optional<Value> ok_reply(const Rpc& r, std::string& problem) {
  Value v = Value::parse(r.reply);
  if (!v.get_bool("ok")) {
    if (problem.empty()) problem = "error reply: " + r.reply;
    return std::nullopt;
  }
  return v;
}

double num(const Value& v, const char* key) {
  const Value* f = v.find(key);
  return f == nullptr ? 0 : f->as_double();
}

}  // namespace

void run_acl_rw(const Args& args, Result& result) {
  result.op_kind = "operations";
  Tracer tracer;
  std::uint64_t op = 0;

  // Client-side inputs, built once: the opened configuration and the lines
  // that open the session and register its policies.
  const std::unique_ptr<Network> net = make_network(args.k);
  core::Rng pool(kPoolSeed);
  config::NetworkConfig committed = net->base;
  for (int i = 0; i < kBaseAcls; ++i) config::campus_acl_churn_step(committed, net->topo, pool);
  const config::NetworkConfig opened = committed;
  std::vector<std::uint64_t> steps(kPoolSteps);
  for (std::uint64_t& s : steps) s = pool.next();
  core::Rng rng(args.seed);
  Value open_body;
  Value topology;
  topology["kind"] = Value("fat_tree");
  topology["k"] = Value(args.k);
  open_body["topology"] = std::move(topology);
  open_body["config"] = Value(config::print_network(committed));
  open_body["max_rounds"] = Value(net->max_rounds);
  const std::string open_line = request("open", std::move(open_body));
  std::vector<std::string> policy_lines, query_lines;
  for (std::size_t i = 0; i < policy_pairs().size(); ++i) {
    const auto& [src, dst] = policy_pairs()[i];
    Value policy;
    policy["kind"] = Value("reachable");
    policy["name"] = Value(policy_name(i));
    policy["src"] = Value(src);
    policy["dst"] = Value(dst);
    policy["prefix"] = Value(config::host_prefix(net->topo.find_node(dst)).to_string());
    Value add;
    add["policy"] = std::move(policy);
    policy_lines.push_back(request("add_policy", std::move(add)));
    Value query;
    query["policy"] = Value(policy_name(i));
    query_lines.push_back(request("query", std::move(query)));
  }

  service::EngineOptions engine_options;
  engine_options.workers = 1;
  engine_options.read_workers = 1;
  std::unique_ptr<service::Engine> engine;
  std::vector<double> setup_s, scratch_gen, scratch_model, scratch_check;
  double open_rules = 0;
  for (int i = 0; i < setups(args); ++i) {
    engine.reset();  // sessions cannot be closed; dropping the engine frees one
    if (i + 1 == setups(args)) reset_peak_rss();
    const Stopwatch sw;
    engine = std::make_unique<service::Engine>(engine_options);
    const Rpc open = rpc(*engine, open_line, nullptr, ++op, "open");
    std::vector<Rpc> adds;
    for (const std::string& line : policy_lines) {
      adds.push_back(rpc(*engine, line, nullptr, op, "add_policy"));
    }
    setup_s.push_back(sw.ms() / 1000);
    const Value reply = Value::parse(open.reply);
    if (!reply.get_bool("ok")) throw std::runtime_error("open failed: " + open.reply);
    for (const Rpc& a : adds) {
      if (!Value::parse(a.reply).get_bool("ok")) {
        throw std::runtime_error("add_policy failed: " + a.reply);
      }
    }
    scratch_gen.push_back(num(reply, "generate_ms"));
    scratch_model.push_back(num(reply, "model_ms"));
    scratch_check.push_back(num(reply, "check_ms"));
    open_rules = num(reply, "rules");
  }

  // The traced run replays every operation on a shadow verifier driven
  // directly (untimed): the dd and dpm counters the wire does not carry,
  // and a per-operation verdict oracle.
  std::unique_ptr<verify::RealConfig> shadow;
  if (args.trace) {
    shadow = make_verifier(*net);
    shadow->apply(committed);
    register_policies(*shadow, *net);
  }

  Value reset_body;
  reset_body["config"] = Value(config::print_network(opened));
  const std::string reset_line = request("propose", std::move(reset_body));
  const std::string commit_line = request("commit");
  const std::string abort_line = request("abort");
  const unsigned epochs = (kOpsPerSecond * args.seconds + kPoolSteps - 1) / kPoolSteps;  // timed

  std::vector<double> change_ms, query_us, scenario_ms, traced_ms, untraced_ms;
  std::vector<double> gen_ms, model_ms, check_ms, hop_ms, share, fib_changes, affected_ecs,
      affected_pairs, flushes, splits, moves, warmup_splits;
  double ec_count = 0, bdd_nodes = 0, cpu0 = 0;
  std::optional<Stopwatch> phase;
  for (unsigned epoch = 0; epoch < kWarmupEpochs + epochs; ++epoch) {
    if (epoch == 1) warmup_splits = splits;  // the first epoch's, where the splits are
    if (epoch == kWarmupEpochs) {
      // Timing starts here; the warm-up epochs' samples are dropped.
      tracer = Tracer();
      for (std::vector<double>* v :
           {&change_ms, &query_us, &scenario_ms, &traced_ms, &untraced_ms, &gen_ms, &model_ms,
            &check_ms, &hop_ms, &share, &fib_changes, &affected_ecs, &affected_pairs, &flushes,
            &splits, &moves}) {
        v->clear();
      }
      cpu0 = cpu_seconds();
      phase.emplace();
    }
    if (epoch > 0) {
      // Back to the opened configuration, as an untimed operation.
      ++result.attempted;
      std::string problem;
      const Rpc propose = rpc(*engine, reset_line, nullptr, ++op, "propose");
      const Rpc commit = rpc(*engine, commit_line, nullptr, op, "commit");
      if (const auto p = ok_reply(propose, problem)) {
        if (p->get_string("status") != "staged" || num(*p, "fib_changes") != 0) {
          problem = "propose reply " + propose.reply.substr(0, 200);
        }
      }
      if (const auto c = ok_reply(commit, problem)) {
        if (c->get_string("status") != "committed" && problem.empty()) {
          problem = "commit reply " + commit.reply;
        }
      }
      if (!problem.empty()) result.fail("epoch " + std::to_string(epoch) + " reset: " + problem);
      if (shadow) shadow->apply(opened);
    }
    // The epoch's steps in a seeded order, from the opened configuration.
    rng.shuffle(steps);
    committed = opened;
    unsigned abort_at = 0;
    for (unsigned i = 0; i < kPoolSteps; ++i) {
      if (i % 4 == 0) abort_at = i + static_cast<unsigned>(rng.next_below(4));
      const bool abort = i == abort_at;
      config::NetworkConfig next = committed;
      core::Rng churn(steps[i]);
      config::campus_acl_churn_step(next, net->topo, churn);
      Value propose_body;
      propose_body["config"] = Value(config::print_network(next));
      const std::string propose_line = request("propose", std::move(propose_body));

      // Every other operation is traced; the rest measure the overhead.
      const bool traced = args.trace && i % 2 == 0;
      Tracer* t = traced ? &tracer : nullptr;
      ++result.attempted;
      ++op;
      Rpc propose, finish;
      {
        std::optional<Scope> s;
        if (traced) s.emplace(tracer, "change", op);
        propose = rpc(*engine, propose_line, t, op, "propose");
        finish = rpc(*engine, abort ? abort_line : commit_line, t, op, abort ? "abort" : "commit");
      }
      const double ms = propose.ms + finish.ms;
      change_ms.push_back(ms);
      (traced ? traced_ms : untraced_ms).push_back(ms);
      double op_ms = ms;
      std::vector<Rpc> reads;
      for (const std::string& line : query_lines) {
        reads.push_back(rpc(*engine, line, t, op, "query"));
        query_us.push_back(reads.back().ms * 1000);
        op_ms += reads.back().ms;
      }
      scenario_ms.push_back(op_ms);

      // Oracles (untimed). An ACL change moves no route, so every proposal
      // must leave the FIB alone.
      std::string problem;
      if (const auto p = ok_reply(propose, problem)) {
        if (p->get_string("status") != "staged" || num(*p, "fib_changes") != 0) {
          problem = "propose reply " + propose.reply.substr(0, 200);
        }
        gen_ms.push_back(num(*p, "generate_ms"));
        model_ms.push_back(num(*p, "model_ms"));
        check_ms.push_back(num(*p, "check_ms"));
        hop_ms.push_back(propose.ms - gen_ms.back() - model_ms.back() - check_ms.back());
        share.push_back(gen_ms.back() / propose.ms);
        fib_changes.push_back(num(*p, "fib_changes"));
        affected_ecs.push_back(num(*p, "affected_ecs"));
        affected_pairs.push_back(num(*p, "affected_pairs"));
        ec_count = num(*p, "ec_count");
        bdd_nodes = num(*p, "bdd_nodes");
      }
      if (const auto f = ok_reply(finish, problem)) {
        if (f->get_string("status") != (abort ? "aborted" : "committed") && problem.empty()) {
          problem = "finish reply " + finish.reply;
        }
      }
      std::vector<bool> verdicts;
      for (const Rpc& r : reads) {
        if (const auto q = ok_reply(r, problem)) {
          verdicts.push_back(q->get_bool("satisfied"));
        }
      }
      if (shadow) {
        const verify::RealConfig::Report rep = shadow->apply(next);
        flushes.push_back(static_cast<double>(shadow->generator().last_flushes()));
        splits.push_back(static_cast<double>(rep.model.stats.splits));
        moves.push_back(static_cast<double>(rep.model.moves.size()));
        if (abort) shadow->apply(committed);
        if (verdicts != read_verdicts(*shadow).policies && problem.empty()) {
          problem = "session verdicts differ from the shadow verifier";
        }
      }
      if (!problem.empty()) {
        result.fail("epoch " + std::to_string(epoch) + " operation " + std::to_string(i) + ": " +
                    problem);
      }
      if (!abort) committed = std::move(next);
    }
  }
  const double phase_s = phase->ms() / 1000;
  const double cpu_util = (cpu_seconds() - cpu0) / phase_s;
  const double rss_mb = peak_rss_mb();

  // End state: a from-scratch verifier on the last committed configuration
  // must agree with the session on every verdict, and its FIB must be the
  // simulator's — the FIB the session opened with, since no proposal moved
  // a rule.
  const Rpc summary = rpc(*engine, request("query"), nullptr, ++op, "query");
  std::string problem;
  if (const auto s = ok_reply(summary, problem)) {
    const std::unique_ptr<verify::RealConfig> fresh = make_verifier(*net);
    fresh->apply(committed);
    register_policies(*fresh, *net);
    const Verdicts want = read_verdicts(*fresh);
    Verdicts got;
    got.pairs = static_cast<std::size_t>(num(*s, "pairs"));
    got.loops = static_cast<std::size_t>(num(*s, "loops"));
    got.blackholes = static_cast<std::size_t>(num(*s, "blackholes"));
    for (const Value& p : s->find("policies")->as_array()) {
      got.policies.push_back(p.get_bool("satisfied"));
    }
    if (!(got == want)) problem = "session verdicts differ from a from-scratch verifier";
    const auto& fib = fresh->generator().fib();
    if (!(fib == baseline::simulate(net->topo, committed).fib) ||
        static_cast<double>(fib.size()) != open_rules) {
      problem = "from-scratch FIB differs from the simulator or the opened session";
    }
  }
  if (!problem.empty()) result.fail("end state: " + problem);
  engine.reset();

  if (!args.trace) {
    result.set("setup_s", median(setup_s));
    result.set("peak_rss_mb", rss_mb);
    result.latency("change", "ms", change_ms);
    result.set("changes_per_s", 1000.0 * static_cast<double>(change_ms.size()) / sum(change_ms));
    result.latency("query", "us", query_us);
    result.latency("scenario", "ms", scenario_ms);
    result.set("scenarios_per_s",
               1000.0 * static_cast<double>(scenario_ms.size()) / sum(scenario_ms));
    return;
  }
  result.set("routing.apply_ms", median(gen_ms));
  result.set("dd.flushes", median(flushes));
  result.set("routing.fib_delta", median(fib_changes));
  result.set("routing.share", median(share));
  result.set("dpm.apply_ms", median(model_ms));
  // The timed epochs split nothing: the first warm-up epoch made every split.
  result.set("dpm.splits", median(warmup_splits));
  result.set("dpm.moves", median(moves));
  result.set("dpm.ec_count", ec_count);
  result.set("dpm.bdd_nodes", bdd_nodes);
  result.set("verify.check_ms", median(check_ms));
  result.set("verify.affected_ecs", median(affected_ecs));
  result.set("verify.affected_pairs", median(affected_pairs));
  result.set("service.propose_ms", median(span_ms(tracer, "service.call.propose", "rpc.propose")));
  result.set("service.commit_ms", median(span_ms(tracer, "service.call.commit", "rpc.commit")));
  result.set("service.abort_ms", median(span_ms(tracer, "service.call.abort", "rpc.abort")));
  result.set("service.hop_ms", median(hop_ms));
  result.set("service.parse_request_us",
             1000 * median(span_ms(tracer, "service.parse_request", "rpc.propose")));
  result.set("service.query_us", 1000 * median(span_ms(tracer, "service.call.query", "rpc.query")));
  result.set("routing.scratch_ms", median(scratch_gen));
  result.set("dpm.scratch_ms", median(scratch_model));
  result.set("verify.scratch_ms", median(scratch_check));
  // Last timed epoch over the first: identical work, so 1.0 unless the
  // session slows down as it replays.
  const auto epoch_median = [&](unsigned e) {
    return median(std::vector<double>(change_ms.begin() + e * kPoolSteps,
                                      change_ms.begin() + (e + 1) * kPoolSteps));
  };
  result.set("change.drift", epoch_median(epochs - 1) / epoch_median(0));
  result.set("proc.cpu_util", cpu_util);
  result.set("trace.overhead_ms", median(traced_ms) - median(untraced_ms));
  result.set("trace.stage_coverage", lowest(child_coverage(tracer, "rpc.propose")));
  write_trace(tracer, args);
}

}  // namespace perfbench
