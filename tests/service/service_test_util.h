#pragma once

// Shared fixtures for the service-layer tests: a converging BGP full mesh
// and its nonterminating BAD-GADGET variant (Griffin's dispute wheel, the
// same recipe as tests/routing/generator_test.cpp).

#include "config/builders.h"
#include "service/session.h"
#include "topo/generators.h"

namespace rcfg::service::testutil {

/// m0 originates; m1..m3 prefer the wheel: no stable BGP solution.
inline config::NetworkConfig bad_gadget(const topo::Topology& full_mesh4) {
  config::NetworkConfig cfg = config::build_bgp_network(full_mesh4);
  for (unsigned i = 1; i <= 3; ++i) {
    cfg.devices.at("m" + std::to_string(i)).bgp->networks.clear();
  }
  config::set_local_pref(cfg, "m1", "to-m2", 200);
  config::set_local_pref(cfg, "m2", "to-m3", 200);
  config::set_local_pref(cfg, "m3", "to-m1", 200);
  return cfg;
}

}  // namespace rcfg::service::testutil
