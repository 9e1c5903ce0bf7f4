#include "service/protocol.h"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "topo/generators.h"

namespace rcfg::service {

namespace {

Verb parse_verb(const std::string& op) {
  for (const VerbInfo& v : kVerbs) {
    if (op == v.name) return v.verb;
  }
  throw ProtocolError("unknown op: '" + op + "'");
}

/// A non-negative integer field that must fit in T: a value T cannot hold
/// is rejected, not truncated (2^32 + 1 must not pass a 1..6 check as 1).
template <class T = unsigned>
T get_unsigned(const json::Value& obj, std::string_view key,
               std::type_identity_t<T> fallback = 0) {
  const std::int64_t v = obj.get_int(key, static_cast<std::int64_t>(fallback));
  if (v < 0) throw ProtocolError("'" + std::string(key) + "' must be >= 0");
  if (static_cast<std::uint64_t>(v) > std::numeric_limits<T>::max()) {
    throw ProtocolError("'" + std::string(key) + "' must be <= " +
                        std::to_string(std::numeric_limits<T>::max()));
  }
  return static_cast<T>(v);
}

/// A "threads" field: 0 (or absent) means 1, at most kMaxThreads.
unsigned get_threads(const json::Value& doc) {
  const unsigned threads = get_unsigned(doc, "threads");
  if (threads > kMaxThreads) {
    throw ProtocolError("'threads' must be <= " + std::to_string(kMaxThreads));
  }
  return std::max(1u, threads);
}

TopologySpec parse_topology(const json::Value& v) {
  TopologySpec spec;
  spec.kind = v.get_string("kind");
  if (spec.kind.empty()) throw ProtocolError("topology needs a 'kind'");
  spec.k = get_unsigned(v, "k", get_unsigned(v, "n"));
  spec.w = get_unsigned(v, "w");
  spec.h = get_unsigned(v, "h");
  return spec;
}

net::Ipv4Prefix parse_prefix(const std::string& text) {
  const auto p = net::Ipv4Prefix::parse(text);
  if (!p.has_value()) throw ProtocolError("invalid prefix: '" + text + "'");
  return *p;
}

PolicySpec parse_policy(const json::Value& v) {
  PolicySpec spec;
  const std::string kind = v.get_string("kind", "reachable");
  if (kind == "reachable") {
    spec.kind = PolicySpec::Kind::kReachable;
  } else if (kind == "isolated") {
    spec.kind = PolicySpec::Kind::kIsolated;
  } else if (kind == "waypoint") {
    spec.kind = PolicySpec::Kind::kWaypoint;
  } else {
    throw ProtocolError("unknown policy kind: '" + kind + "'");
  }
  spec.name = v.get_string("name");
  spec.src = v.get_string("src");
  spec.dst = v.get_string("dst");
  spec.via = v.get_string("via");
  if (spec.name.empty() || spec.src.empty() || spec.dst.empty()) {
    throw ProtocolError("policy needs 'name', 'src' and 'dst'");
  }
  if (spec.kind == PolicySpec::Kind::kWaypoint && spec.via.empty()) {
    throw ProtocolError("waypoint policy needs 'via'");
  }
  spec.prefix = parse_prefix(v.get_string("prefix", "0.0.0.0/0"));
  return spec;
}

SessionOptions parse_options(const json::Value& doc) {
  SessionOptions opts;
  const unsigned rounds = get_unsigned(doc, "max_rounds");
  if (rounds != 0) opts.verifier.generator.max_rounds = rounds;
  opts.verifier.threads = get_threads(doc);
  opts.trace = doc.get_bool("trace", false);
  opts.replicas = get_unsigned(doc, "replicas");
  if (opts.replicas > kMaxReplicas) {
    throw ProtocolError("'replicas' must be <= " + std::to_string(kMaxReplicas));
  }
  opts.verifier.reclamation = doc.get_bool("reclaim", false);
  const std::string order = doc.get_string("update_order");
  if (order == "insert_first" || order.empty()) {
    opts.verifier.update_order = dpm::UpdateOrder::kInsertFirst;
  } else if (order == "delete_first") {
    opts.verifier.update_order = dpm::UpdateOrder::kDeleteFirst;
  } else if (order == "interleaved") {
    opts.verifier.update_order = dpm::UpdateOrder::kInterleaved;
  } else {
    throw ProtocolError("unknown update_order: '" + order + "'");
  }
  return opts;
}

RelateSpec parse_relate(const json::Value& doc) {
  RelateSpec spec;
  if (const json::Value* specs = doc.find("specs"); specs != nullptr) {
    if (!specs->is_array()) throw ProtocolError("'specs' must be an array");
    for (const json::Value& s : specs->as_array()) {
      if (!s.is_object()) throw ProtocolError("relate spec must be an object");
      relate::RelationalSpec rs;
      const std::string kind = s.get_string("kind");
      if (kind.empty()) throw ProtocolError("relate spec needs a 'kind'");
      try {
        rs.kind = relate::spec_kind_of(kind);
      } catch (const std::invalid_argument& e) {
        throw ProtocolError(e.what());
      }
      rs.name = s.get_string("name");
      if (const json::Value* prefixes = s.find("prefixes"); prefixes != nullptr) {
        if (!prefixes->is_array()) {
          throw ProtocolError("'prefixes' must be an array of CIDR strings");
        }
        for (const json::Value& p : prefixes->as_array()) {
          if (!p.is_string()) {
            throw ProtocolError("'prefixes' must be an array of CIDR strings");
          }
          rs.prefixes.push_back(parse_prefix(p.as_string()));
        }
      }
      if (rs.kind == relate::RelationalSpec::Kind::kNone) {
        if (!rs.prefixes.empty()) {
          throw ProtocolError("spec kind 'none' takes no 'prefixes'");
        }
      } else if (rs.prefixes.empty()) {
        throw ProtocolError(std::string("spec kind '") + relate::to_string(rs.kind) +
                            "' needs a non-empty 'prefixes'");
      }
      spec.specs.push_back(std::move(rs));
    }
  }
  spec.witnesses = doc.get_bool("witnesses", true);
  spec.detail = doc.get_bool("detail", false);
  return spec;
}

OrderSpec parse_order(const json::Value& doc) {
  OrderSpec spec;
  const json::Value* steps = doc.find("steps");
  if (steps == nullptr || !steps->is_array() || steps->as_array().empty()) {
    throw ProtocolError("order needs a non-empty 'steps' array");
  }
  for (const json::Value& s : steps->as_array()) {
    if (!s.is_object()) throw ProtocolError("order step must be an object");
    OrderStepSpec step;
    step.name = s.get_string("name");
    if (step.name.empty()) throw ProtocolError("order step needs a 'name'");
    step.config_text = s.get_string("config");
    if (step.config_text.empty()) {
      throw ProtocolError("order step '" + step.name + "' needs a 'config'");
    }
    for (const OrderStepSpec& earlier : spec.steps) {
      if (earlier.name == step.name) {
        throw ProtocolError("duplicate order step name '" + step.name + "'");
      }
    }
    spec.steps.push_back(std::move(step));
  }
  spec.max_blocking = get_unsigned(doc, "max_blocking", 2);
  spec.detail = doc.get_bool("detail", false);
  return spec;
}

}  // namespace

topo::Topology build_topology(const TopologySpec& spec) {
  if (spec.kind == "fat_tree") {
    if (spec.k < 2 || spec.k % 2 != 0) throw ProtocolError("fat_tree needs even k >= 2");
    return topo::make_fat_tree(spec.k);
  }
  if (spec.kind == "ring") {
    if (spec.k < 3) throw ProtocolError("ring needs n >= 3");
    return topo::make_ring(spec.k);
  }
  if (spec.kind == "full_mesh") {
    if (spec.k < 2) throw ProtocolError("full_mesh needs n >= 2");
    return topo::make_full_mesh(spec.k);
  }
  if (spec.kind == "grid") {
    if (spec.w < 1 || spec.h < 1) throw ProtocolError("grid needs w >= 1 and h >= 1");
    return topo::make_grid(spec.w, spec.h);
  }
  throw ProtocolError("unknown topology kind: '" + spec.kind +
                      "' (want fat_tree | ring | full_mesh | grid)");
}

Request parse_request(std::string_view line) {
  json::Value doc;
  try {
    doc = json::Value::parse(line);
  } catch (const json::ParseError& e) {
    throw ProtocolError(std::string("invalid JSON: ") + e.what());
  }
  return parse_request_doc(doc);
}

Request parse_request_doc(const json::Value& doc) {
  if (!doc.is_object()) throw ProtocolError("request must be a JSON object");
  Request req;
  const std::int64_t id = doc.get_int("id", 0);
  req.id = id < 0 ? 0 : static_cast<std::uint64_t>(id);
  req.verb = parse_verb(doc.get_string("op"));
  req.session = doc.get_string("session");

  if (verb_info(req.verb).needs_session && req.session.empty()) {
    throw ProtocolError(std::string(verb_name(req.verb)) + " needs a 'session'");
  }

  switch (req.verb) {
    case Verb::kOpen: {
      const json::Value* topo = doc.find("topology");
      if (topo == nullptr) throw ProtocolError("open needs a 'topology'");
      req.topology = parse_topology(*topo);
      req.config_text = doc.get_string("config");
      if (req.config_text.empty()) throw ProtocolError("open needs a 'config'");
      req.options = parse_options(doc);
      break;
    }
    case Verb::kPropose:
      req.config_text = doc.get_string("config");
      if (req.config_text.empty()) throw ProtocolError("propose needs a 'config'");
      break;
    case Verb::kAddPolicy: {
      const json::Value* policy = doc.find("policy");
      if (policy == nullptr) throw ProtocolError("add_policy needs a 'policy'");
      req.policy = parse_policy(*policy);
      break;
    }
    case Verb::kQuery:
    case Verb::kExplain:
      req.query_policy = doc.get_string("policy");
      req.force_primary = doc.get_bool("primary", false);
      break;
    case Verb::kSweep: {
      if (const json::Value* links = doc.find("links"); links != nullptr) {
        if (!links->is_array()) throw ProtocolError("'links' must be an array of link ids");
        for (const json::Value& l : links->as_array()) {
          const std::int64_t id = l.as_int();
          // Range-check before the narrowing cast: 2^32 must not alias
          // link 0 past the engine's own bound check.
          if (id < 0 || static_cast<std::uint64_t>(id) >
                            std::numeric_limits<topo::LinkId>::max()) {
            throw ProtocolError("'links' entries must be valid link ids");
          }
          req.sweep.links.push_back(static_cast<topo::LinkId>(id));
        }
      }
      req.sweep.max_failures = get_unsigned(doc, "max_failures", 1);
      if (req.sweep.max_failures < 1 || req.sweep.max_failures > kMaxSweepFailures) {
        throw ProtocolError("'max_failures' must be between 1 and 6");
      }
      req.sweep.budget = get_unsigned<std::uint64_t>(doc, "budget");
      req.sweep.prune = doc.get_bool("prune", false);
      req.sweep.symmetry = doc.get_bool("symmetry", false);
      req.sweep.threads = get_threads(doc);
      req.sweep.detail = doc.get_bool("detail", false);
      break;
    }
    case Verb::kRelate:
      req.config_text = doc.get_string("config");
      if (req.config_text.empty()) throw ProtocolError("relate needs a 'config'");
      req.relate = parse_relate(doc);
      req.force_primary = doc.get_bool("primary", false);
      break;
    case Verb::kOrder:
      req.order = parse_order(doc);
      break;
    case Verb::kCommit:
    case Verb::kAbort:
    case Verb::kStats:
      break;
  }
  return req;
}

Response error_response(std::uint64_t id, std::string message) {
  Response r;
  r.id = id;
  r.ok = false;
  r.error = std::move(message);
  return r;
}

json::Value response_value(const Response& r) {
  json::Value out = r.body.is_object() ? r.body : json::Value();
  out["id"] = json::Value(r.id);
  out["ok"] = json::Value(r.ok);
  if (!r.ok) out["error"] = json::Value(r.error);
  return out;
}

std::string serialize_response(const Response& r) { return response_value(r).dump(); }

}  // namespace rcfg::service
