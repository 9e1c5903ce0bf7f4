// Packet-space backend head-to-head: the interval-atom backend vs. the BDD
// backend on a prefix-only fat-tree churn workload — the exact regime the
// interval representation targets (Delta-net-style sorted boundary arrays,
// no BDD node allocation, no cache-unfriendly hash-consing on the hot path).
//
// Two layers are measured:
//   * EC layer (the recorded ratio): a PacketSpace + EcManager stack per
//     backend replays an identical script — register every fat-tree host
//     prefix, then rounds of register/scan/unregister/compact over random
//     /16 and /24 prefixes. Both stacks must produce identical EC counts at
//     every step and identical per-EC minimal witnesses at the end; the
//     wall-time ratio bdd/interval is the headline number, measured at
//     fat-tree k=8 and k=12.
//   * verify layer (informative): the full RealConfig pipeline on static
//     null-route announce/withdraw churn at k=8, comparing the model-stage
//     time (stage 2: EC registration + model moves) between a lane moved
//     onto BDDs at construction and an interval lane.
//
// Acceptance: the EC-layer ratio at k=8 must be >= 3.0 (exit 1 otherwise).
//
// Knobs (environment variables):
//   RCFG_BACKEND_ROUNDS  churn rounds per k (default 12)
//   RCFG_BACKEND_ROUTES  prefixes per churn round (default 64)
//
// Emits BENCH_backend.json in the working directory.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "config/builders.h"
#include "core/rng.h"
#include "dpm/ec.h"
#include "service/json.h"
#include "topo/generators.h"
#include "verify/realconfig.h"

using namespace rcfg;

namespace {

struct EcScript {
  std::vector<net::Ipv4Prefix> base;  ///< registered up front, never removed
  struct Round {
    std::vector<net::Ipv4Prefix> churn;  ///< registered, scanned, unregistered
    net::Ipv4Prefix probe;               ///< ecs_in() scan target
  };
  std::vector<Round> rounds;
};

EcScript make_ec_script(unsigned k, unsigned rounds, unsigned routes) {
  const topo::Topology t = topo::make_fat_tree(k);
  EcScript script;
  for (topo::NodeId n = 0; n < t.node_count(); ++n) {
    script.base.push_back(config::host_prefix(n));
  }
  core::Rng rng(0xBACCBE5CULL + k);
  for (unsigned r = 0; r < rounds; ++r) {
    EcScript::Round round;
    for (unsigned i = 0; i < routes; ++i) {
      const auto len = static_cast<std::uint8_t>(rng.next_bool(0.5) ? 24 : 16);
      round.churn.push_back(
          net::Ipv4Prefix{net::Ipv4Addr{static_cast<std::uint32_t>(rng.next())}, len});
    }
    round.probe =
        net::Ipv4Prefix{net::Ipv4Addr{static_cast<std::uint32_t>(rng.next())}, 16};
    script.rounds.push_back(std::move(round));
  }
  return script;
}

struct EcLane {
  double ms = 0;
  std::vector<std::size_t> ec_trace;  ///< EC count after every round phase
  std::size_t scan_hits = 0;          ///< summed ecs_in() result sizes
  std::vector<std::optional<std::vector<bool>>> witnesses;  ///< final, per EC
};

/// `bdd`: move the space onto BDDs before the script; otherwise it stays on
/// interval atoms throughout (the script is prefix-only).
EcLane run_ec_churn(bool bdd, const EcScript& script) {
  dpm::PacketSpace space;
  if (bdd) space.migrate_to_bdd();
  dpm::EcManager ecs(space);
  EcLane lane;
  const bench::Timer timer;
  for (const net::Ipv4Prefix& p : script.base) {
    ecs.register_predicate(space.dst_prefix(p));
  }
  lane.ec_trace.push_back(ecs.ec_count());
  for (const EcScript::Round& round : script.rounds) {
    for (const net::Ipv4Prefix& p : round.churn) {
      ecs.register_predicate(space.dst_prefix(p));
    }
    lane.ec_trace.push_back(ecs.ec_count());
    lane.scan_hits += ecs.ecs_in(space.dst_prefix(round.probe)).size();
    for (const net::Ipv4Prefix& p : round.churn) {
      ecs.unregister_predicate(space.dst_prefix(p));
    }
    ecs.compact();
    lane.ec_trace.push_back(ecs.ec_count());
  }
  lane.ms = timer.ms();
  // Outside the timed region: the per-EC witnesses both lanes must agree on.
  for (dpm::EcId e = 0; e < ecs.ec_count(); ++e) {
    lane.witnesses.push_back(space.pick_one(ecs.ec_bdd(e)));
  }
  return lane;
}

struct VerifyLane {
  double model_ms = 0;
  std::vector<std::size_t> pair_trace;
  std::size_t final_ecs = 0;
};

VerifyLane run_verify_churn(bool bdd, const topo::Topology& topo,
                            const std::vector<config::NetworkConfig>& sequence) {
  verify::RealConfig rc(topo, bench::options_for(topo));
  if (bdd) rc.packet_space().migrate_to_bdd();
  VerifyLane lane;
  for (const config::NetworkConfig& cfg : sequence) {
    lane.model_ms += rc.apply(cfg).model_ms;
    lane.pair_trace.push_back(rc.checker().reachable_pairs().size());
  }
  lane.final_ecs = rc.ecs().ec_count();
  return lane;
}

net::Ipv4Prefix churn_prefix(unsigned round, unsigned i) {
  const unsigned slot = round * 16 + i;
  return net::Ipv4Prefix{
      net::Ipv4Addr{static_cast<std::uint8_t>(10 + slot / 65536),
                    static_cast<std::uint8_t>((slot / 256) % 256),
                    static_cast<std::uint8_t>(slot % 256), 0},
      24};
}

}  // namespace

int main() {
  const unsigned rounds = bench::env_unsigned("RCFG_BACKEND_ROUNDS", 12);
  const unsigned routes = bench::env_unsigned("RCFG_BACKEND_ROUTES", 64);
  bool ok = true;
  service::json::Value out_rows;

  std::printf("packet-space backend head-to-head: %u rounds x %u prefixes churn\n\n",
              rounds, routes);
  std::printf("| Layer  | k  | ECs (final) | BDD ms    | Interval ms | Ratio  |\n");
  std::printf("|--------|----|-------------|-----------|-------------|--------|\n");

  double k8_ratio = 0;
  for (const unsigned k : {8u, 12u}) {
    const EcScript script = make_ec_script(k, rounds, routes);
    const EcLane bdd = run_ec_churn(true, script);
    const EcLane interval = run_ec_churn(false, script);

    if (bdd.ec_trace != interval.ec_trace || bdd.scan_hits != interval.scan_hits ||
        bdd.witnesses != interval.witnesses) {
      std::fprintf(stderr, "FAIL: backends diverge on the k=%u EC churn script\n", k);
      ok = false;
    }
    const double ratio = interval.ms > 0 ? bdd.ms / interval.ms : 0;
    if (k == 8) k8_ratio = ratio;
    std::printf("| ec     | %2u | %11zu | %9.2f | %11.2f | %5.1fx |\n", k,
                bdd.witnesses.size(), bdd.ms, interval.ms, ratio);

    service::json::Value r;
    r["layer"] = service::json::Value("ec");
    r["fat_tree_k"] = service::json::Value(k);
    r["final_ecs"] = service::json::Value(static_cast<std::uint64_t>(bdd.witnesses.size()));
    r["bdd_ms"] = service::json::Value(bdd.ms);
    r["interval_ms"] = service::json::Value(interval.ms);
    r["ratio"] = service::json::Value(ratio);
    out_rows.push_back(std::move(r));
  }

  // Verify-layer model stage at k=8 (informative, no threshold): the
  // backend's share of a full pipeline apply on prefix-only churn.
  {
    const unsigned k = 8;
    const topo::Topology topo = topo::make_fat_tree(k);
    const config::NetworkConfig base = config::build_ospf_network(topo);
    core::Rng rng(0xBACC0F1BULL);
    std::vector<std::string> edges;
    for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
      if (topo.node(n).name.rfind("edge", 0) == 0) edges.push_back(topo.node(n).name);
    }
    std::vector<config::NetworkConfig> sequence;
    sequence.push_back(base);
    config::NetworkConfig cfg = base;
    for (unsigned round = 0; round < rounds; ++round) {
      auto& dev = cfg.devices.at(edges[rng.next_below(edges.size())]);
      for (unsigned i = 0; i < 16; ++i) {
        dev.static_routes.push_back({churn_prefix(round, i), config::kNullInterface});
      }
      sequence.push_back(cfg);
      dev.static_routes.clear();
      sequence.push_back(cfg);
    }

    const VerifyLane bdd = run_verify_churn(true, topo, sequence);
    const VerifyLane interval = run_verify_churn(false, topo, sequence);
    if (bdd.pair_trace != interval.pair_trace || bdd.final_ecs != interval.final_ecs) {
      std::fprintf(stderr, "FAIL: backends diverge on the verify-layer churn\n");
      ok = false;
    }
    const double ratio = interval.model_ms > 0 ? bdd.model_ms / interval.model_ms : 0;
    std::printf("| model  | %2u | %11zu | %9.2f | %11.2f | %5.1fx |\n", k,
                bdd.final_ecs, bdd.model_ms, interval.model_ms, ratio);

    service::json::Value r;
    r["layer"] = service::json::Value("verify_model_stage");
    r["fat_tree_k"] = service::json::Value(k);
    r["final_ecs"] = service::json::Value(static_cast<std::uint64_t>(bdd.final_ecs));
    r["bdd_ms"] = service::json::Value(bdd.model_ms);
    r["interval_ms"] = service::json::Value(interval.model_ms);
    r["ratio"] = service::json::Value(ratio);
    out_rows.push_back(std::move(r));
  }

  std::printf("\nEC-layer ratio at k=8: %.1fx (acceptance: >= 3.0)\n", k8_ratio);
  if (k8_ratio < 3.0) {
    std::fprintf(stderr, "FAIL: interval backend is not >= 3x faster at k=8\n");
    ok = false;
  }
  if (ok) std::printf("backends bit-identical on every script\n");

  service::json::Value doc;
  doc["bench"] = service::json::Value("backend");
  doc["rounds"] = service::json::Value(rounds);
  doc["routes_per_round"] = service::json::Value(routes);
  doc["k8_ec_ratio"] = service::json::Value(k8_ratio);
  doc["acceptance_min_ratio"] = service::json::Value(3.0);
  doc["rows"] = std::move(out_rows);
  std::ofstream("BENCH_backend.json") << doc.dump() << "\n";
  std::printf("wrote BENCH_backend.json\n");
  return ok ? 0 : 1;
}
