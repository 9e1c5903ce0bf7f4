#include "config/builders.h"

#include <gtest/gtest.h>

#include <set>

#include "config/parse.h"
#include "config/print.h"
#include "topo/generators.h"

namespace rcfg::config {
namespace {

TEST(AddressPlan, HostPrefixesAreDisjoint) {
  std::set<net::Ipv4Prefix> seen;
  for (topo::NodeId n = 0; n < 600; ++n) {
    const auto p = host_prefix(n);
    EXPECT_EQ(p.length(), 24);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate host prefix for node " << n;
  }
}

TEST(AddressPlan, LinkSubnetsAreDisjointSlash31s) {
  std::set<net::Ipv4Prefix> seen;
  for (topo::LinkId l = 0; l < 2000; ++l) {
    const auto p = link_subnet(l);
    EXPECT_EQ(p.length(), 31);
    EXPECT_TRUE(seen.insert(p).second);
  }
}

TEST(AddressPlan, HostAndLinkSpacesDisjoint) {
  for (topo::NodeId n = 0; n < 100; ++n) {
    for (topo::LinkId l = 0; l < 100; ++l) {
      EXPECT_FALSE(host_prefix(n).overlaps(link_subnet(l)));
    }
  }
}

TEST(BuildOspf, EveryInterfaceRunsOspf) {
  const topo::Topology t = topo::make_fat_tree(4);
  const NetworkConfig cfg = build_ospf_network(t);
  ASSERT_EQ(cfg.devices.size(), t.node_count());
  for (const auto& [name, dev] : cfg.devices) {
    ASSERT_TRUE(dev.ospf.has_value()) << name;
    EXPECT_FALSE(dev.bgp.has_value());
    for (const auto& i : dev.interfaces) {
      EXPECT_TRUE(i.ospf_enabled()) << name << "/" << i.name;
      ASSERT_TRUE(i.address.has_value());
      if (i.name == "lan0") {
        EXPECT_TRUE(i.ospf_passive);
        EXPECT_EQ(i.address->length(), 24);
      } else {
        EXPECT_EQ(i.address->length(), 31);
      }
    }
  }
}

TEST(BuildOspf, LinkEndsShareSubnet) {
  const topo::Topology t = topo::make_ring(3);
  const NetworkConfig cfg = build_ospf_network(t);
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    const auto& lk = t.link(l);
    const auto& da = cfg.devices.at(t.node(lk.a).name);
    const auto& db = cfg.devices.at(t.node(lk.b).name);
    const auto* ia = da.find_interface(t.iface(lk.a_iface).name);
    const auto* ib = db.find_interface(t.iface(lk.b_iface).name);
    ASSERT_NE(ia, nullptr);
    ASSERT_NE(ib, nullptr);
    EXPECT_EQ(*ia->address, *ib->address);
  }
}

TEST(BuildBgp, OneAsPerNodeFullPeering) {
  const topo::Topology t = topo::make_fat_tree(4);
  const NetworkConfig cfg = build_bgp_network(t);
  std::set<std::uint32_t> as_numbers;
  for (const auto& [name, dev] : cfg.devices) {
    ASSERT_TRUE(dev.bgp.has_value()) << name;
    EXPECT_TRUE(as_numbers.insert(dev.bgp->local_as).second) << "duplicate AS";
    const topo::NodeId n = t.find_node(name);
    EXPECT_EQ(dev.bgp->neighbors.size(), t.adjacencies(n).size());
    ASSERT_EQ(dev.bgp->networks.size(), 1u);
    EXPECT_EQ(dev.bgp->networks[0], host_prefix(n));
  }
}

TEST(BuildBgp, NeighborAsMatchesPeer) {
  const topo::Topology t = topo::make_ring(5);
  const NetworkConfig cfg = build_bgp_network(t, 65000);
  for (const auto& [name, dev] : cfg.devices) {
    const topo::NodeId n = t.find_node(name);
    for (const auto& adj : t.adjacencies(n)) {
      const auto& iface_name = t.iface(adj.iface).name;
      bool found = false;
      for (const auto& nb : dev.bgp->neighbors) {
        if (nb.iface == iface_name) {
          EXPECT_EQ(nb.remote_as, 65000u + adj.peer);
          found = true;
        }
      }
      EXPECT_TRUE(found) << "no neighbor on " << iface_name;
    }
  }
}

TEST(BuiltConfigsSurviveRoundTrip, OspfAndBgp) {
  const topo::Topology t = topo::make_fat_tree(4);
  for (const NetworkConfig& cfg : {build_ospf_network(t), build_bgp_network(t)}) {
    EXPECT_EQ(parse_network(print_network(cfg)), cfg);
  }
}

TEST(Mutators, FailAndRestoreLink) {
  const topo::Topology t = topo::make_ring(3);
  NetworkConfig cfg = build_ospf_network(t);
  const NetworkConfig orig = cfg;
  fail_link(cfg, t, 1);
  EXPECT_NE(cfg, orig);
  restore_link(cfg, t, 1);
  EXPECT_EQ(cfg, orig);
}

TEST(Mutators, SetLocalPrefCreatesImportPolicy) {
  const topo::Topology t = topo::make_ring(3);
  NetworkConfig cfg = build_bgp_network(t);
  set_local_pref(cfg, "r0", "to-r1", 150);

  const DeviceConfig& dev = cfg.devices.at("r0");
  ASSERT_TRUE(dev.prefix_lists.contains("PL-ANY"));
  ASSERT_TRUE(dev.route_maps.contains("LP-to-r1"));
  const RouteMap& rm = dev.route_maps.at("LP-to-r1");
  ASSERT_EQ(rm.clauses.size(), 1u);
  EXPECT_EQ(rm.clauses[0].set_local_pref, 150u);

  bool attached = false;
  for (const auto& nb : dev.bgp->neighbors) {
    if (nb.iface == "to-r1") {
      EXPECT_EQ(nb.import_route_map, "LP-to-r1");
      attached = true;
    }
  }
  EXPECT_TRUE(attached);
}

TEST(Mutators, SetLocalPrefOnOspfDeviceThrows) {
  const topo::Topology t = topo::make_ring(3);
  NetworkConfig cfg = build_ospf_network(t);
  EXPECT_THROW(set_local_pref(cfg, "r0", "to-r1", 150), std::invalid_argument);
}

TEST(Mutators, UnknownDeviceOrIfaceThrows) {
  const topo::Topology t = topo::make_ring(3);
  NetworkConfig cfg = build_ospf_network(t);
  EXPECT_THROW(set_ospf_cost(cfg, "nope", "to-r1", 5), std::invalid_argument);
  EXPECT_THROW(set_ospf_cost(cfg, "r0", "nope", 5), std::invalid_argument);
}

TEST(Mutators, AttachRandomAclBindsAndParses) {
  const topo::Topology t = topo::make_ring(3);
  NetworkConfig cfg = build_ospf_network(t);
  core::Rng rng{5};
  attach_random_acl(cfg, t, "r0", "to-r1", /*inbound=*/true, 10, rng);
  const DeviceConfig& dev = cfg.devices.at("r0");
  ASSERT_EQ(dev.acls.size(), 1u);
  EXPECT_EQ(dev.acls.begin()->second.rules.size(), 11u);  // 10 + catch-all
  EXPECT_TRUE(dev.find_interface("to-r1")->acl_in.has_value());
  // Round-trips through the DSL.
  EXPECT_EQ(parse_network(print_network(cfg)), cfg);
}

TEST(WanMetrics, ApplyLinkCostsSetsBothEnds) {
  topo::WanParams p;
  p.nodes = 10;
  p.links = 18;
  p.min_cost = 2;
  p.max_cost = 50;
  core::Rng rng{11};
  const topo::WeightedTopology wan = topo::make_wan(p, rng);
  NetworkConfig cfg = build_ospf_network(wan.topo);
  apply_link_costs(cfg, wan.topo, wan.link_cost);
  for (topo::LinkId l = 0; l < wan.topo.link_count(); ++l) {
    const auto& lk = wan.topo.link(l);
    const auto* ia = cfg.devices.at(wan.topo.node(lk.a).name)
                         .find_interface(wan.topo.iface(lk.a_iface).name);
    const auto* ib = cfg.devices.at(wan.topo.node(lk.b).name)
                         .find_interface(wan.topo.iface(lk.b_iface).name);
    ASSERT_NE(ia, nullptr);
    ASSERT_NE(ib, nullptr);
    EXPECT_EQ(ia->ospf_cost, wan.link_cost[l]);
    EXPECT_EQ(ib->ospf_cost, wan.link_cost[l]);
  }
  // build_wan_ospf_network is exactly the composition of the two.
  EXPECT_EQ(build_wan_ospf_network(wan), cfg);
}

TEST(WanMetrics, ApplyLinkCostsValidatesInput) {
  const topo::Topology t = topo::make_ring(4);
  NetworkConfig cfg = build_ospf_network(t);
  EXPECT_THROW(apply_link_costs(cfg, t, {1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(apply_link_costs(cfg, t, {1, 2, 3, 4, 5}), std::invalid_argument);
  EXPECT_THROW(apply_link_costs(cfg, t, {1, 0, 3, 4}), std::invalid_argument);
  EXPECT_NO_THROW(apply_link_costs(cfg, t, {1, 2, 3, 4}));
}

TEST(ChurnProfiles, IspExtraPrefixesDisjointFromAddressPlan) {
  for (topo::NodeId n = 0; n < 200; ++n) {
    const auto extra = isp_extra_prefix(n);
    EXPECT_EQ(extra.length(), 24);
    for (topo::NodeId m = 0; m < 200; ++m) {
      EXPECT_FALSE(extra.overlaps(host_prefix(m)));
      if (m != n) {
        EXPECT_FALSE(extra == isp_extra_prefix(m));
      }
    }
    for (topo::LinkId l = 0; l < 200; ++l) {
      EXPECT_FALSE(extra.overlaps(link_subnet(l)));
    }
  }
}

TEST(ChurnProfiles, IspStepsMutateAndStayParseable) {
  const topo::Topology t = topo::make_ring(6);
  NetworkConfig cfg = build_bgp_network(t);
  core::Rng rng{17};
  bool saw_local_pref = false, saw_route_toggle = false;
  unsigned mutated = 0;
  for (int step = 0; step < 40; ++step) {
    const NetworkConfig before = cfg;
    isp_route_churn_step(cfg, t, rng);
    // Re-drawing a neighbor's existing local pref is a legal no-op, but the
    // profile must not degenerate into one.
    if (cfg != before) ++mutated;
    for (const auto& [name, dev] : cfg.devices) {
      ASSERT_TRUE(dev.bgp.has_value()) << name;
      if (!dev.route_maps.empty()) saw_local_pref = true;
      if (dev.bgp->networks.size() != 1) saw_route_toggle = true;
    }
  }
  EXPECT_GT(mutated, 20u) << "churn profile degenerated into no-ops";
  EXPECT_TRUE(saw_local_pref) << "40 steps never rewrote a local pref";
  EXPECT_TRUE(saw_route_toggle) << "40 steps never toggled an announcement";
  EXPECT_EQ(parse_network(print_network(cfg)), cfg);
}

TEST(ChurnProfiles, IspStepRequiresBgp) {
  const topo::Topology t = topo::make_ring(4);
  NetworkConfig cfg = build_ospf_network(t);
  core::Rng rng{1};
  EXPECT_THROW(isp_route_churn_step(cfg, t, rng), std::invalid_argument);
}

TEST(ChurnProfiles, StepsAreDeterministicInTheSeed) {
  const topo::Topology t = topo::make_ring(5);
  NetworkConfig a = build_bgp_network(t);
  NetworkConfig b = a;
  core::Rng ra{23}, rb{23};
  for (int step = 0; step < 10; ++step) {
    isp_route_churn_step(a, t, ra);
    isp_route_churn_step(b, t, rb);
  }
  EXPECT_EQ(a, b);
}

TEST(ChurnProfiles, CampusStepsAttachMultiFieldAcls) {
  const topo::Topology t = topo::make_torus(3, 3);
  NetworkConfig cfg = build_ospf_network(t);
  core::Rng rng{29};
  for (int step = 0; step < 10; ++step) campus_acl_churn_step(cfg, t, rng);
  std::size_t acls = 0;
  for (const auto& [name, dev] : cfg.devices) {
    acls += dev.acls.size();
    // Every binding must reference an ACL that exists on the device.
    for (const auto& i : dev.interfaces) {
      if (i.acl_in) {
        EXPECT_TRUE(dev.acls.contains(*i.acl_in)) << name;
      }
      if (i.acl_out) {
        EXPECT_TRUE(dev.acls.contains(*i.acl_out)) << name;
      }
    }
  }
  EXPECT_GT(acls, 0u) << "10 campus steps attached no ACL";
  EXPECT_EQ(parse_network(print_network(cfg)), cfg);
}

}  // namespace
}  // namespace rcfg::config
