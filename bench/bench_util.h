#pragma once

// Shared helpers for the table-reproduction benches.
//
// Knobs (environment variables):
//   RCFG_FATTREE_K  fat-tree parameter k (default 8; paper scale is 12 —
//                   180 nodes / 864 links — which takes a few minutes of
//                   from-scratch time on a laptop-class core)
//   RCFG_SAMPLES    changes sampled per change type (default 5)
//
// Bench verifiers size the generator's rounds with
// routing::recommended_max_rounds(topology[, costs]) (see options_for).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "routing/metrics.h"
#include "service/cli.h"
#include "service/json.h"
#include "verify/realconfig.h"

namespace rcfg::bench {

/// Environment sizing knob: unset/empty means `fallback`; anything else
/// must be a strictly positive decimal count (the same bounds-checked
/// parser the rcfgd CLI uses), and junk exits 2 instead of being silently
/// swallowed into the fallback — a typo'd RCFG_FATTREE_K must not quietly
/// benchmark the wrong scale.
inline unsigned env_unsigned(const char* name, unsigned fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::optional<unsigned> parsed = service::parse_count_arg(v);
  if (!parsed) {
    std::fprintf(stderr, "%s: expected a positive count, got \"%s\"\n", name, v);
    std::exit(2);
  }
  return *parsed;
}

/// The JSON document stored at `path`, or null when the file is missing or
/// unparseable. Benches that share one BENCH_*.json load it, set their own
/// fields and write it back, so each keeps the others' sections.
inline service::json::Value read_json_file(const char* path) {
  std::ifstream in(path);
  if (!in) return {};
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    return service::json::Value::parse(buf.str());
  } catch (const std::exception&) {
    return {};
  }
}

inline unsigned fat_tree_k() { return env_unsigned("RCFG_FATTREE_K", 8); }
inline unsigned samples() { return env_unsigned("RCFG_SAMPLES", 5); }

/// Verifier options whose generator rounds are sized to `topo`.
inline verify::RealConfigOptions options_for(const topo::Topology& topo) {
  verify::RealConfigOptions o;
  o.generator.max_rounds = routing::recommended_max_rounds(topo);
  return o;
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

struct Stats {
  double sum = 0;
  double min = 1e300;
  double max = 0;
  unsigned n = 0;

  void add(double v) {
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
    ++n;
  }
  double mean() const { return n == 0 ? 0 : sum / n; }
};

/// Interpolated percentile (p in [0,100]) of a sample; 0 when empty. Takes
/// the sample by value: callers keep their raw (unsorted) latency vectors.
inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

}  // namespace rcfg::bench
