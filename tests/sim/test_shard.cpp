// Differential harness for the sharded simulation core: the active
// core with shards > 1 must be indistinguishable from its own
// sequential execution — equal channel-level state in lock-step, equal
// aggregates through fault transients, and invariant-clean across a
// wide seed fuzz. The topology is a 16-ary 2-cube (256 nodes = 4
// bitmap words) throughout, so 2/3/4-way splits genuinely partition
// the node and link words instead of clamping to one lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "../support/invariants.hpp"
#include "fault/schedule.hpp"
#include "sim_test_util.hpp"

namespace wormsim::sim {
namespace {

using testing::default_config;

constexpr unsigned kK = 16, kN = 2;  // 256 nodes

std::unique_ptr<Simulator> make_sharded(unsigned shards, double offered,
                                        std::uint64_t seed,
                                        fault::FaultSchedule faults = {},
                                        FlowControl scheme =
                                            FlowControl::Wormhole) {
  const topo::KAryNCube topo(kK, kN);
  SimulatorConfig cfg = default_config();
  cfg.core = SimCore::Active;
  cfg.shards = shards;
  cfg.limiter.kind = core::LimiterKind::ALO;
  cfg.flow.scheme = scheme;
  if (scheme == FlowControl::Vct) {
    // Whole-packet admission needs message-deep buffers.
    cfg.net.buf_flits = std::max(cfg.net.buf_flits, 16u);
  }
  cfg.faults = std::move(faults);
  traffic::WorkloadConfig wcfg;
  wcfg.offered_flits_per_node_cycle = offered;
  wcfg.length.fixed = 16;
  auto workload = std::make_unique<traffic::Workload>(topo, wcfg, seed);
  return std::make_unique<Simulator>(topo, cfg, std::move(workload));
}

/// Complete channel-level comparison (the same microscope the
/// dense-vs-active lock-step uses): any divergence in VC bookkeeping,
/// arbitration cursors or in-flight pipelines is a sharding bug.
void expect_networks_equal(const Simulator& ss, const Simulator& ps,
                           Cycle at) {
  const Network& s = ss.network();
  const Network& p = ps.network();
  ASSERT_EQ(s.num_links(), p.num_links());
  for (LinkId l = 0; l < s.num_links(); ++l) {
    const Link& sl = s.link(l);
    const Link& pl = p.link(l);
    ASSERT_EQ(sl.active_vc_mask, pl.active_vc_mask)
        << "link " << l << " cycle " << at;
    ASSERT_EQ(sl.rr_next, pl.rr_next) << "link " << l << " cycle " << at;
    ASSERT_EQ(sl.in_flight.size(), pl.in_flight.size())
        << "link " << l << " cycle " << at;
    ASSERT_EQ(sl.flits_carried, pl.flits_carried)
        << "link " << l << " cycle " << at;
    for (unsigned v = 0; v < s.vcs_on(l); ++v) {
      const VcRef ref{l, static_cast<std::uint8_t>(v)};
      const VcState& sv = s.vc(ref);
      const VcState& pv = p.vc(ref);
      ASSERT_EQ(sv.msg == kNoMsg, pv.msg == kNoMsg)
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(sv.in_count(), pv.in_count())
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(sv.out_count, pv.out_count)
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(sv.occupancy, pv.occupancy)
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(s.header_arrival(s.vc_flat_index(ref)),
                p.header_arrival(p.vc_flat_index(ref)))
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(sv.last_activity, pv.last_activity)
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(sv.pending_route, pv.pending_route)
          << "vc " << l << "/" << v << " cycle " << at;
    }
  }
  ASSERT_EQ(s.flits_in_network(), p.flits_in_network()) << "cycle " << at;
}

/// Lock-step microscope past saturation: sequential (shards=1) and
/// sharded (shards=4) simulators advance together from identical seeds
/// with deadlock detection/recovery and the ALO limiter hot; complete
/// channel state must agree at every comparison point.
TEST(ShardLockStep, ChannelStateAgreesEveryCyclePastSaturation) {
  auto seq = make_sharded(1, 1.1, 777);
  auto par = make_sharded(4, 1.1, 777);
  ASSERT_EQ(par->shards(), 4u);  // 256 nodes: no clamping

  for (int block = 0; block < 40; ++block) {
    for (int i = 0; i < 10; ++i) {
      seq->step();
      par->step();
    }
    const Cycle at = seq->cycle();
    ASSERT_EQ(at, par->cycle());
    expect_networks_equal(*seq, *par, at);
    ASSERT_EQ(seq->total_delivered(), par->total_delivered());
    ASSERT_EQ(seq->messages_in_flight(), par->messages_in_flight());
    ASSERT_EQ(seq->source_queue_total(), par->source_queue_total());
    ASSERT_EQ(seq->recovery_pending(), par->recovery_pending());
    ASSERT_EQ(seq->total_deadlock_detections(),
              par->total_deadlock_detections());
    ASSERT_TRUE(testing::check_all_invariants(*seq));
    ASSERT_TRUE(testing::check_all_invariants(*par));
  }
}

/// An uneven split (3 shards over 4 words: slice sizes 2/1/1) must be
/// just as exact as the even ones — the remainder handling in the word
/// partition is where off-by-ones would live.
TEST(ShardLockStep, UnevenShardSplitAgrees) {
  auto seq = make_sharded(1, 0.9, 4242);
  auto par = make_sharded(3, 0.9, 4242);
  ASSERT_EQ(par->shards(), 3u);
  for (int block = 0; block < 30; ++block) {
    for (int i = 0; i < 10; ++i) {
      seq->step();
      par->step();
    }
    expect_networks_equal(*seq, *par, seq->cycle());
    ASSERT_EQ(seq->total_delivered(), par->total_delivered());
    ASSERT_EQ(seq->source_queue_total(), par->source_queue_total());
  }
}

/// Requesting more shards than there are bitmap words must clamp, not
/// crash or skew: a 64-node network has one node word, so any request
/// degenerates to sequential execution and reports shards() == 1.
TEST(ShardLockStep, SmallNetworkClampsToOneShard) {
  const topo::KAryNCube topo(8, 2);  // 64 nodes = 1 word
  SimulatorConfig cfg = default_config();
  cfg.core = SimCore::Active;
  cfg.shards = 8;
  traffic::WorkloadConfig wcfg;
  wcfg.offered_flits_per_node_cycle = 0.5;
  wcfg.length.fixed = 16;
  auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 99);
  Simulator sim(topo, cfg, std::move(workload));
  EXPECT_EQ(sim.shards(), 1u);
  for (int i = 0; i < 200; ++i) sim.step();
  EXPECT_TRUE(testing::check_all_invariants(sim));
}

/// Lock-step equivalence through live fault surgery: the sharded core
/// takes the same kills and restores mid-traffic as its sequential
/// twin and must agree on channel state, the lost-message count and
/// the route rebuild count at every comparison point.
TEST(ShardLockStep, AgreesThroughFaultTransients) {
  const fault::FaultSchedule schedule({
      {100, fault::FaultKind::LinkKill, 5, 1},
      {180, fault::FaultKind::NodeKill, 130, 0},
      {260, fault::FaultKind::LinkRestore, 5, 1},
      {340, fault::FaultKind::NodeRestore, 130, 0},
  });
  auto seq = make_sharded(1, 1.1, 777, schedule);
  auto par = make_sharded(4, 1.1, 777, schedule);

  for (int block = 0; block < 40; ++block) {
    for (int i = 0; i < 10; ++i) {
      seq->step();
      par->step();
    }
    const Cycle at = seq->cycle();
    expect_networks_equal(*seq, *par, at);
    ASSERT_EQ(seq->total_delivered(), par->total_delivered());
    ASSERT_EQ(seq->total_lost(), par->total_lost());
    ASSERT_EQ(seq->fault_events_applied(), par->fault_events_applied());
    ASSERT_EQ(seq->lut_rebuilds(), par->lut_rebuilds());
    ASSERT_TRUE(testing::check_all_invariants(*seq));
    ASSERT_TRUE(testing::check_all_invariants(*par));
  }
  EXPECT_EQ(par->fault_events_applied(), 4u);
}

/// Seed fuzz: 100 random workload seeds, each run a short stretch at a
/// load drawn from the seed, on 1 vs 3 shards. End-state aggregates
/// must match exactly and the full invariant battery must hold on the
/// sharded instance. Cheap per seed, broad across traffic shapes, and
/// — like the fault fuzz matrix — run once per flow-control scheme,
/// since each scheme drives different commit-phase side effects
/// (credit returns, whole-packet admission) through the speculative
/// evaluate/commit protocol.
class ShardFuzz : public ::testing::TestWithParam<FlowControl> {};

TEST_P(ShardFuzz, HundredSeedsAgreeAndHoldInvariants) {
  const FlowControl scheme = GetParam();
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Deterministic seed-derived load in [0.2, 1.2): covers drained,
    // near-saturation and oversaturated regimes across the fuzz.
    const double offered = 0.2 + static_cast<double>(seed % 10) * 0.1;
    auto seq = make_sharded(1, offered, seed, {}, scheme);
    auto par = make_sharded(2 + seed % 3, offered, seed, {}, scheme);
    for (int i = 0; i < 350; ++i) {
      seq->step();
      par->step();
    }
    ASSERT_EQ(seq->total_delivered(), par->total_delivered());
    ASSERT_EQ(seq->messages_in_flight(), par->messages_in_flight());
    ASSERT_EQ(seq->source_queue_total(), par->source_queue_total());
    ASSERT_EQ(seq->total_deadlock_detections(),
              par->total_deadlock_detections());
    ASSERT_EQ(seq->network().flits_in_network(),
              par->network().flits_in_network());
    ASSERT_TRUE(testing::check_all_invariants(*par));
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, ShardFuzz,
                         ::testing::Values(FlowControl::Wormhole,
                                           FlowControl::Credit,
                                           FlowControl::Vct),
                         [](const auto& info) {
                           return std::string(
                               flow_control_name(info.param));
                         });

}  // namespace
}  // namespace wormsim::sim
