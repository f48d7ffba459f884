// RoutingLut must be a drop-in for the routing function it wraps: for
// every (here, dst) pair, expand(word(here, dst)) — candidate order,
// per-candidate VC masks, escape flags and the useful-channel mask —
// equals what fn.route() computes on the fly. The simulator relies on
// this equality for bit-identical sweep CSVs between the active core
// (which routes from computed words) and the dense core (which calls
// the function), so the comparison here is exact, not structural.
#include "routing/routing_lut.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "routing/routing.hpp"
#include "topology/fault_mask.hpp"

namespace wormsim::routing {
namespace {

using topo::KAryNCube;
using topo::NodeId;

void expect_routes_equal(const RouteResult& expect, const RouteResult& got,
                         NodeId here, NodeId dst, const char* label) {
  SCOPED_TRACE(::testing::Message() << label << " " << here << "->" << dst);
  ASSERT_EQ(expect.candidates.size(), got.candidates.size());
  for (std::size_t i = 0; i < expect.candidates.size(); ++i) {
    EXPECT_EQ(expect.candidates[i].channel, got.candidates[i].channel)
        << "candidate " << i;
    EXPECT_EQ(expect.candidates[i].vc_mask, got.candidates[i].vc_mask)
        << "candidate " << i;
    EXPECT_EQ(expect.candidates[i].escape, got.candidates[i].escape)
        << "candidate " << i;
  }
  EXPECT_EQ(expect.useful_phys_mask, got.useful_phys_mask);
}

bool same_route(const RouteResult& a, const RouteResult& b) {
  if (a.useful_phys_mask != b.useful_phys_mask) return false;
  if (a.candidates.size() != b.candidates.size()) return false;
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const Candidate& x = a.candidates[i];
    const Candidate& y = b.candidates[i];
    if (x.channel != y.channel || x.vc_mask != y.vc_mask ||
        x.escape != y.escape) {
      return false;
    }
  }
  return true;
}

/// word + expand against fn.route for one pair; the detailed diff is
/// only built on a mismatch, which keeps the exhaustive loops cheap.
void expect_word_matches(const RoutingFunction& fn, const RoutingLut& lut,
                         NodeId here, NodeId dst) {
  RouteResult expect, got;
  fn.route(here, dst, expect);
  lut.expand(lut.word(here, dst), got);
  if (!same_route(expect, got)) {
    expect_routes_equal(expect, got, here, dst,
                        algorithm_name(fn.algorithm()).data());
  }
}

/// The shipped algorithms crossed with the torus shapes whose routing
/// differs structurally: k = 2 (the degenerate wrap where +d and -d
/// reach the same neighbor), odd k (no antipodal tie, asymmetric
/// halves), even k > 2 with the k/2 tie, the paper's k = 8, and
/// dimensions 1..3.
class RoutingLutEquivalence
    : public ::testing::TestWithParam<
          std::tuple<Algorithm, unsigned /*k*/, unsigned /*n*/>> {};

TEST_P(RoutingLutEquivalence, MatchesOnTheFlyRouteExhaustively) {
  const auto [algo, k, n] = GetParam();
  const KAryNCube topo(k, n);
  const unsigned num_vcs = 3;  // minimum every algorithm accepts
  const auto fn = make_routing(algo, topo, num_vcs);
  const RoutingLut lut(*fn, topo);
  EXPECT_FALSE(lut.tabulated());  // healthy routes are computed
  EXPECT_EQ(lut.algorithm(), algo);

  for (NodeId here = 0; here < topo.num_nodes(); ++here) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      if (here != dst) expect_word_matches(*fn, lut, here, dst);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsTimesShapes, RoutingLutEquivalence,
    ::testing::Combine(::testing::Values(Algorithm::TFAR, Algorithm::DOR,
                                         Algorithm::Duato),
                       ::testing::Values(2u, 3u, 4u, 5u, 8u),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& param_info) {
      return std::string(algorithm_name(std::get<0>(param_info.param))) +
             "_k" + std::to_string(std::get<1>(param_info.param)) + "n" +
             std::to_string(std::get<2>(param_info.param));
    });

/// Larger network, more VCs (distinct Duato adaptive/escape split),
/// random pair sample instead of the full N^2 product.
TEST(RoutingLut, MatchesOnRandomPairsLargeNetwork) {
  const KAryNCube topo(8, 3);  // the paper's full-scale 512-node cube
  std::mt19937_64 rng(0xC0FFEE);
  std::uniform_int_distribution<NodeId> pick(0, topo.num_nodes() - 1);
  for (const auto algo : {Algorithm::TFAR, Algorithm::DOR, Algorithm::Duato}) {
    for (const unsigned num_vcs : {3u, 4u, 6u}) {
      const auto fn = make_routing(algo, topo, num_vcs);
      const RoutingLut lut(*fn, topo);
      for (int trial = 0; trial < 4000; ++trial) {
        const NodeId here = pick(rng);
        NodeId dst = pick(rng);
        if (here == dst) dst = (dst + 1) % topo.num_nodes();
        expect_word_matches(*fn, lut, here, dst);
      }
    }
  }
}

/// Networks far past any N^2 table — the 4,096-node 16-ary 3-cube and
/// the 32,768-node 32-ary 3-cube — route from the same computed words,
/// checked on a seeded sample of pairs.
TEST(RoutingLut, MatchesOnSeededSamplesAtScale) {
  for (const unsigned k : {16u, 32u}) {
    const KAryNCube topo(k, 3);
    SCOPED_TRACE(::testing::Message() << topo.num_nodes() << " nodes");
    std::mt19937_64 rng(0x5CA1E + k);
    std::uniform_int_distribution<NodeId> pick(0, topo.num_nodes() - 1);
    for (const auto algo :
         {Algorithm::TFAR, Algorithm::DOR, Algorithm::Duato}) {
      const auto fn = make_routing(algo, topo, 4);
      const RoutingLut lut(*fn, topo);
      EXPECT_FALSE(lut.tabulated());
      for (int trial = 0; trial < 20000; ++trial) {
        const NodeId here = pick(rng);
        NodeId dst = pick(rng);
        if (here == dst) dst = (dst + 1) % topo.num_nodes();
        expect_word_matches(*fn, lut, here, dst);
      }
    }
  }
}

/// kMaxEntries bounds only the fault-aware table: a 2,048-node ring
/// (exactly kMaxEntries pairs) tabulates on a faulty rebuild, one node
/// more is refused before anything is allocated, and both route every
/// healthy pair from computed words regardless.
TEST(RoutingLut, ExactBudgetTabulates) {
  const KAryNCube at_budget(2048, 1);
  ASSERT_EQ(static_cast<std::size_t>(at_budget.num_nodes()) *
                at_budget.num_nodes(),
            RoutingLut::kMaxEntries);
  const auto fn = make_routing(Algorithm::TFAR, at_budget, 3);
  RoutingLut lut(*fn, at_budget);
  topo::FaultMask mask(at_budget);
  mask.kill_link(0, 0);
  lut.rebuild(&mask);
  EXPECT_TRUE(lut.tabulated());
  lut.rebuild(nullptr);
  EXPECT_FALSE(lut.tabulated());

  const KAryNCube over(2049, 1);
  const auto fn_over = make_routing(Algorithm::TFAR, over, 3);
  RoutingLut lut_over(*fn_over, over);
  topo::FaultMask mask_over(over);
  mask_over.kill_link(0, 0);
  EXPECT_THROW(lut_over.rebuild(&mask_over), std::invalid_argument);
  EXPECT_FALSE(lut_over.tabulated());
  expect_word_matches(*fn_over, lut_over, 0, 1024);
}

/// All (here, dst) routes of a LUT, for exact before/after comparison.
std::vector<RouteResult> snapshot_routes(const RoutingLut& lut,
                                         const KAryNCube& topo) {
  std::vector<RouteResult> routes;
  routes.reserve(static_cast<std::size_t>(topo.num_nodes()) *
                 topo.num_nodes());
  for (NodeId here = 0; here < topo.num_nodes(); ++here) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      RouteResult r;
      if (here != dst) lut.route(here, dst, r);
      routes.push_back(std::move(r));
    }
  }
  return routes;
}

/// The same snapshot straight from the routing function.
std::vector<RouteResult> snapshot_routes(const RoutingFunction& fn,
                                         const KAryNCube& topo) {
  std::vector<RouteResult> routes;
  for (NodeId here = 0; here < topo.num_nodes(); ++here) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      RouteResult r;
      if (here != dst) fn.route(here, dst, r);
      routes.push_back(std::move(r));
    }
  }
  return routes;
}

void expect_snapshots_equal(const std::vector<RouteResult>& expect,
                            const std::vector<RouteResult>& got,
                            const KAryNCube& topo, const char* label) {
  ASSERT_EQ(expect.size(), got.size());
  for (NodeId here = 0; here < topo.num_nodes(); ++here) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      const std::size_t i =
          static_cast<std::size_t>(here) * topo.num_nodes() + dst;
      expect_routes_equal(expect[i], got[i], here, dst, label);
    }
  }
}

/// rebuild() with no faults — null mask, an all-clear mask, or a mask
/// whose faults were all restored — must reproduce the routing
/// function bit-exactly for every algorithm and drop any fault table,
/// so a heal-and-rebuild cycle leaves memoization-free routing
/// indistinguishable from a fresh simulator.
TEST(RoutingLutRebuild, HealthyRebuildRestoresRoutesBitExact) {
  const KAryNCube topo(4, 2);
  for (const auto algo : {Algorithm::TFAR, Algorithm::DOR, Algorithm::Duato}) {
    SCOPED_TRACE(algorithm_name(algo));
    const auto fn = make_routing(algo, topo, 3);
    RoutingLut lut(*fn, topo);
    const auto original = snapshot_routes(*fn, topo);

    lut.rebuild(nullptr);
    expect_snapshots_equal(original, snapshot_routes(lut, topo), topo,
                           "rebuild(nullptr)");

    topo::FaultMask clear(topo);
    lut.rebuild(&clear);
    EXPECT_FALSE(lut.tabulated());
    expect_snapshots_equal(original, snapshot_routes(lut, topo), topo,
                           "rebuild(all-clear)");
  }

  // Kill, rebuild around the fault, restore, rebuild again: the table
  // exists only while the fault does, and the healthy routes come back
  // bit-exact (TFAR only — the deterministic algorithms reject
  // fault-aware rebuilds).
  const auto fn = make_routing(Algorithm::TFAR, topo, 3);
  RoutingLut lut(*fn, topo);
  const auto original = snapshot_routes(*fn, topo);
  topo::FaultMask mask(topo);
  mask.kill_link(0, 0);
  lut.rebuild(&mask);
  EXPECT_TRUE(lut.tabulated());
  RouteResult degraded;
  lut.route(0, topo.neighbor(0, 0), degraded);
  EXPECT_EQ(degraded.useful_phys_mask & 1u, 0u);  // route bends around
  mask.restore_link(0, 0);
  lut.rebuild(&mask);
  EXPECT_FALSE(lut.tabulated());
  expect_snapshots_equal(original, snapshot_routes(lut, topo), topo,
                         "restore-rebuild");
}

/// Fault-aware TFAR rebuild: no surviving route crosses a dead channel,
/// every connected pair keeps a non-empty useful mask, pairs through a
/// fully-severed cut report unreachable, and reachable() mirrors the
/// useful masks.
TEST(RoutingLutRebuild, TfarRoutesAvoidDeadComponents) {
  const KAryNCube topo(4, 2);
  const auto fn = make_routing(Algorithm::TFAR, topo, 3);
  RoutingLut lut(*fn, topo);
  topo::FaultMask mask(topo);
  mask.kill_link(5, 0);
  mask.kill_link(9, 3);
  lut.rebuild(&mask);

  RouteResult r;
  for (NodeId here = 0; here < topo.num_nodes(); ++here) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      if (here == dst) continue;
      lut.route(here, dst, r);
      // Two link faults cannot disconnect this torus.
      EXPECT_TRUE(lut.reachable(here, dst)) << here << "->" << dst;
      ASSERT_FALSE(r.candidates.empty()) << here << "->" << dst;
      for (const Candidate& c : r.candidates) {
        EXPECT_FALSE(mask.link_dead(here, c.channel))
            << here << "->" << dst << " via dead channel "
            << static_cast<unsigned>(c.channel);
      }
    }
  }
}

TEST(RoutingLutRebuild, SeveredNodeBecomesUnreachable) {
  const KAryNCube topo(4, 1);  // ring 0-1-2-3
  const auto fn = make_routing(Algorithm::TFAR, topo, 3);
  RoutingLut lut(*fn, topo);
  topo::FaultMask mask(topo);
  mask.kill_link(0, 0);  // 0 <-> 1
  mask.kill_link(0, 1);  // 0 <-> 3
  lut.rebuild(&mask);

  for (NodeId other = 1; other < 4; ++other) {
    EXPECT_FALSE(lut.reachable(0, other));
    EXPECT_FALSE(lut.reachable(other, 0));
    RouteResult r;
    lut.route(0, other, r);
    EXPECT_TRUE(r.candidates.empty());
  }
  // The surviving 1-2-3 chain still routes (including the pair whose
  // shortest healthy path ran through node 0).
  EXPECT_TRUE(lut.reachable(1, 3));
  RouteResult r;
  lut.route(1, 3, r);
  ASSERT_FALSE(r.candidates.empty());
  EXPECT_TRUE(lut.reachable(2, 1));
  EXPECT_TRUE(lut.reachable(1, 1));  // self stays trivially reachable
}

TEST(RoutingLutRebuild, DeadNodeUnreachableBothWaysUntilRestored) {
  const KAryNCube topo(4, 2);
  const auto fn = make_routing(Algorithm::TFAR, topo, 3);
  RoutingLut lut(*fn, topo);
  const auto original = snapshot_routes(lut, topo);
  topo::FaultMask mask(topo);
  mask.kill_node(6);
  lut.rebuild(&mask);

  for (NodeId other = 0; other < topo.num_nodes(); ++other) {
    if (other == 6) continue;
    EXPECT_FALSE(lut.reachable(6, other));
    EXPECT_FALSE(lut.reachable(other, 6));
    EXPECT_TRUE(lut.reachable(other, (other + 1) % topo.num_nodes() == 6
                                         ? (other + 2) % topo.num_nodes()
                                         : (other + 1) % topo.num_nodes()));
    RouteResult r;
    lut.route(other, 6, r);
    EXPECT_TRUE(r.candidates.empty());
  }

  mask.restore_node(6);
  lut.rebuild(&mask);
  expect_snapshots_equal(original, snapshot_routes(lut, topo), topo,
                         "node-restore-rebuild");
}

TEST(RoutingLutRebuild, RejectsUnsupportedModes) {
  const KAryNCube topo(4, 2);
  topo::FaultMask mask(topo);
  mask.kill_link(0, 0);

  // Networks over the table budget cannot host fault-aware routes,
  // but still route (and heal) from computed words.
  const KAryNCube big(16, 3);  // 4,096 nodes
  const auto tfar = make_routing(Algorithm::TFAR, big, 3);
  RoutingLut untabulable(*tfar, big);
  topo::FaultMask big_mask(big);
  big_mask.kill_link(0, 0);
  EXPECT_NO_THROW(untabulable.rebuild(nullptr));
  EXPECT_THROW(untabulable.rebuild(&big_mask), std::invalid_argument);
  EXPECT_FALSE(untabulable.tabulated());

  // Deterministic algorithms have no alternative paths to offer.
  for (const auto algo : {Algorithm::DOR, Algorithm::Duato}) {
    const auto fn = make_routing(algo, topo, 3);
    RoutingLut lut(*fn, topo);
    EXPECT_THROW(lut.rebuild(&mask), std::invalid_argument);
  }
}

}  // namespace
}  // namespace wormsim::routing
