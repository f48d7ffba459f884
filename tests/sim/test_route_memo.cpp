// The blocked-header route memo and its invalidation machinery.
//
// The memo's correctness argument rests on the per-link epoch counters:
// set_active is the sole writer of active_vc_mask, it bumps the owning
// link's epoch on every call, and an unchanged epoch sum over a
// header's candidate links therefore proves the free-VC masks those
// candidates see are unchanged — the header is still blocked and both
// re-route and re-selection can be skipped. These tests pin the epoch
// contract directly and then check, by lock-step differential runs,
// that memoization never changes a single bit of simulation state.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/schedule.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim_test_util.hpp"
#include "traffic/workload.hpp"

namespace wormsim::sim {
namespace {

using testing::default_config;

NetworkParams small_params() {
  NetworkParams p;
  p.num_vcs = 3;
  p.buf_flits = 4;
  p.inj_channels = 2;
  p.eje_channels = 2;
  p.link_delay = 2;
  return p;
}

TEST(LinkEpoch, BumpsOnEverySetActiveOfANetLink) {
  const topo::KAryNCube topo(4, 2);
  Network net(topo, small_params());
  const LinkId l = net.net_link(/*node=*/5, /*out_channel=*/1);
  const VcRef ref{l, 1};

  const std::uint64_t before = net.link_epoch(l);
  net.set_active(ref, true);
  EXPECT_EQ(net.link_epoch(l), before + 1);
  // Deactivation may also change the free mask, so it must bump too.
  net.set_active(ref, false);
  EXPECT_EQ(net.link_epoch(l), before + 2);
}

TEST(LinkEpoch, OtherLinksAndInjectionLinksStayUntouched) {
  const topo::KAryNCube topo(4, 2);
  Network net(topo, small_params());
  std::vector<std::uint64_t> before(net.num_net_links());
  for (LinkId l = 0; l < net.num_net_links(); ++l) {
    before[l] = net.link_epoch(l);
  }

  const LinkId touched = net.net_link(3, 2);
  net.set_active(VcRef{touched, 0}, true);
  // Injection links carry no epoch (the memo never keys on them);
  // touching one must not disturb any net-link epoch.
  net.set_active(VcRef{net.inj_link(7, 0), 0}, true);

  for (LinkId l = 0; l < net.num_net_links(); ++l) {
    EXPECT_EQ(net.link_epoch(l), before[l] + (l == touched ? 1u : 0u))
        << "link " << l;
  }
}

TEST(LinkEpoch, RowViewAliasesPerLinkCounters) {
  const topo::KAryNCube topo(3, 3);
  Network net(topo, small_params());
  net.set_active(VcRef{net.net_link(4, 3), 2}, true);
  net.set_active(VcRef{net.net_link(4, 3), 1}, true);
  for (NodeId node = 0; node < topo.num_nodes(); ++node) {
    const std::uint64_t* row = net.link_epoch_row(node);
    for (unsigned c = 0; c < topo.num_channels(); ++c) {
      EXPECT_EQ(row[c],
                net.link_epoch(net.net_link(node, static_cast<ChannelId>(c))))
          << node << "/" << c;
    }
  }
}

/// Epoch-equality really means mask-equality: any transition that can
/// change a link's free-VC mask goes through set_active, so two
/// observations with equal epochs must see equal masks. Exercised over
/// a saturated run rather than synthetic mutations.
TEST(LinkEpoch, EqualEpochImpliesEqualFreeMaskAcrossCycles) {
  auto sim = testing::make_traffic_sim(4, 2, 1.1, 16);
  const Network& net = sim->network();
  const LinkId links = net.num_net_links();
  std::vector<std::uint64_t> epoch(links);
  std::vector<std::uint8_t> mask(links);
  const auto snap = [&] {
    for (LinkId l = 0; l < links; ++l) {
      epoch[l] = net.link_epoch(l);
      mask[l] = static_cast<std::uint8_t>(
          net.free_vc_mask(net.link(l).src, net.link(l).src_channel));
    }
  };
  sim->step_cycles(500);  // well into saturation
  snap();
  for (int i = 0; i < 400; ++i) {
    sim->step();
    for (LinkId l = 0; l < links; ++l) {
      const std::uint64_t e = net.link_epoch(l);
      const auto m = static_cast<std::uint8_t>(
          net.free_vc_mask(net.link(l).src, net.link(l).src_channel));
      if (e == epoch[l]) {
        ASSERT_EQ(m, mask[l]) << "link " << l << " cycle " << sim->cycle();
      }
      epoch[l] = e;
      mask[l] = m;
    }
  }
}

/// Lock-step differential: the memoized active core against the dense
/// reference (which has no memo), past saturation with deadlock
/// detection/recovery firing. Complete channel-state equality every
/// cycle — a stale memo hit (missed invalidation, stale tenancy key,
/// wrong no-detect bound) would diverge within a few cycles.
TEST(RouteMemo, LockStepIdenticalToDense) {
  const topo::KAryNCube topo(4, 2);
  const auto make = [&](SimCore core) {
    SimulatorConfig cfg = default_config();
    cfg.core = core;
    // Unlimited TFAR on a single VC: past saturation this deadlocks
    // repeatedly, which is what makes the no-detect bounds in the memo
    // load-bearing (a premature skip would delay a detection).
    cfg.limiter.kind = core::LimiterKind::None;
    cfg.net.num_vcs = 1;
    traffic::WorkloadConfig wcfg;
    wcfg.offered_flits_per_node_cycle = 1.2;
    wcfg.length.fixed = 16;
    auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 99);
    return std::make_unique<Simulator>(topo, cfg, std::move(workload));
  };
  auto memo = make(SimCore::Active);
  auto dense = make(SimCore::Dense);

  for (int block = 0; block < 200; ++block) {
    for (int i = 0; i < 10; ++i) {
      memo->step();
      dense->step();
    }
    const Cycle at = memo->cycle();
    const Network& a = memo->network();
    const Network& b = dense->network();
    for (LinkId l = 0; l < a.num_links(); ++l) {
      ASSERT_EQ(a.link(l).active_vc_mask, b.link(l).active_vc_mask)
          << "link " << l << " cycle " << at;
      for (unsigned v = 0; v < a.vcs_on(l); ++v) {
        const VcRef ref{l, static_cast<std::uint8_t>(v)};
        ASSERT_EQ(a.vc(ref).msg, b.vc(ref).msg)
            << "vc " << l << "/" << v << " cycle " << at;
        ASSERT_EQ(a.vc(ref).occupancy, b.vc(ref).occupancy)
            << "vc " << l << "/" << v << " cycle " << at;
        ASSERT_EQ(a.vc(ref).last_activity, b.vc(ref).last_activity)
            << "vc " << l << "/" << v << " cycle " << at;
      }
    }
    ASSERT_EQ(memo->total_delivered(), dense->total_delivered());
    ASSERT_EQ(memo->total_deadlock_detections(),
              dense->total_deadlock_detections());
  }
  // The run actually exercised the memo: deadlocks fired (so the
  // no-detect bounds mattered) and a meaningful share of route queries
  // were answered from the memo.
  EXPECT_GT(memo->total_deadlock_detections(), 0u);
  EXPECT_GT(memo->scan_stats().route_memo_hits, 0u);
  EXPECT_EQ(dense->scan_stats().route_memo_hits, 0u);
}

/// Fault surgery participates in the same epoch contract: marking a
/// link dead (or alive again) changes its free-VC mask, so it must bump
/// that link's epoch exactly like set_active, and a whole-table rebuild
/// invalidates every memoized route via bump_all_epochs.
TEST(LinkEpoch, DeadLinkTransitionsBumpLikeSetActive) {
  const topo::KAryNCube topo(4, 2);
  Network net(topo, small_params());
  const LinkId l = net.net_link(2, 3);
  std::vector<std::uint64_t> before(net.num_net_links());
  for (LinkId i = 0; i < net.num_net_links(); ++i) {
    before[i] = net.link_epoch(i);
  }

  net.set_link_dead(l, true);
  EXPECT_EQ(net.free_vc_mask(net.link(l).src, net.link(l).src_channel), 0u);
  net.set_link_dead(l, false);
  for (LinkId i = 0; i < net.num_net_links(); ++i) {
    EXPECT_EQ(net.link_epoch(i), before[i] + (i == l ? 2u : 0u))
        << "link " << i;
  }

  net.bump_all_epochs();
  for (LinkId i = 0; i < net.num_net_links(); ++i) {
    EXPECT_EQ(net.link_epoch(i), before[i] + (i == l ? 3u : 1u))
        << "link " << i;
  }
}

/// The recovery-transient soak the epoch contract exists for: the same
/// physical link dies and heals three times while the 1-VC network
/// deadlocks repeatedly, so fault surgery, route rebuilds, route-memo
/// flushes and deadlock recovery all interleave. The memoized core must
/// stay bit-identical to the dense reference throughout — a memo entry
/// surviving a rebuild would diverge at the first stale route.
TEST(RouteMemo, KillRestoreThroughRepeatedDeadlockEpisodes) {
  const topo::KAryNCube topo(4, 2);
  const fault::FaultSchedule schedule({
      {300, fault::FaultKind::LinkKill, 6, 2},
      {600, fault::FaultKind::LinkRestore, 6, 2},
      {900, fault::FaultKind::LinkKill, 6, 2},
      {1200, fault::FaultKind::LinkRestore, 6, 2},
      {1500, fault::FaultKind::LinkKill, 6, 2},
      {1800, fault::FaultKind::LinkRestore, 6, 2},
  });
  const auto make = [&](SimCore core) {
    SimulatorConfig cfg = default_config();
    cfg.core = core;
    cfg.limiter.kind = core::LimiterKind::None;
    cfg.net.num_vcs = 1;  // deadlocks repeatedly past saturation
    cfg.faults = schedule;
    traffic::WorkloadConfig wcfg;
    wcfg.offered_flits_per_node_cycle = 1.2;
    wcfg.length.fixed = 16;
    auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 99);
    return std::make_unique<Simulator>(topo, cfg, std::move(workload));
  };
  auto memo = make(SimCore::Active);
  auto dense = make(SimCore::Dense);

  for (int block = 0; block < 200; ++block) {
    for (int i = 0; i < 10; ++i) {
      memo->step();
      dense->step();
    }
    const Cycle at = memo->cycle();
    const Network& a = memo->network();
    const Network& b = dense->network();
    for (LinkId l = 0; l < a.num_links(); ++l) {
      ASSERT_EQ(a.link(l).active_vc_mask, b.link(l).active_vc_mask)
          << "link " << l << " cycle " << at;
      for (unsigned v = 0; v < a.vcs_on(l); ++v) {
        const VcRef ref{l, static_cast<std::uint8_t>(v)};
        ASSERT_EQ(a.vc(ref).msg, b.vc(ref).msg)
            << "vc " << l << "/" << v << " cycle " << at;
        ASSERT_EQ(a.vc(ref).occupancy, b.vc(ref).occupancy)
            << "vc " << l << "/" << v << " cycle " << at;
      }
    }
    ASSERT_EQ(memo->total_delivered(), dense->total_delivered())
        << "cycle " << at;
    ASSERT_EQ(memo->total_lost(), dense->total_lost()) << "cycle " << at;
    ASSERT_EQ(memo->total_deadlock_detections(),
              dense->total_deadlock_detections())
        << "cycle " << at;
    std::string why;
    ASSERT_TRUE(memo->check_fault_invariants(&why)) << why;
  }

  // The soak exercised what it claims: all six fault events applied
  // (with a rebuild each), deadlock recovery fired across the episodes,
  // and the memo answered real queries between the flushes.
  EXPECT_EQ(memo->fault_events_applied(), 6u);
  EXPECT_EQ(memo->lut_rebuilds(), 6u);
  EXPECT_EQ(dense->fault_events_applied(), 6u);
  EXPECT_GT(memo->total_deadlock_detections(), 3u);
  EXPECT_GT(memo->scan_stats().route_memo_hits, 0u);
  EXPECT_EQ(dense->scan_stats().route_memo_hits, 0u);
}

/// The memo under the shard-parallel evaluate/commit core: past
/// saturation on a network wide enough for genuine 2- and 4-way word
/// partitions, most route decisions are memo tenancy hits evaluated
/// speculatively against pre-cycle state, and earlier commits routinely
/// dirty them (a teardown or allocation at the same node mid-cycle).
/// The commit phase must detect each conflict, discard the memoized
/// decision, and re-run the entry inline — with results bit-identical
/// to the sequential core at every cycle, which is exactly what a stale
/// speculative memo hit surviving to commit would break.
TEST(RouteMemo, ShardedCommitConflictsReplayMemoizedRoutesExactly) {
  const topo::KAryNCube topo(16, 2);  // 256 nodes = 4 ownership words
  const auto make = [&](unsigned shards) {
    SimulatorConfig cfg = default_config();
    cfg.core = SimCore::Active;
    cfg.limiter.kind = core::LimiterKind::None;
    cfg.net.num_vcs = 1;  // deadlocks repeatedly past saturation
    cfg.shards = shards;
    traffic::WorkloadConfig wcfg;
    wcfg.offered_flits_per_node_cycle = 1.2;
    wcfg.length.fixed = 16;
    auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 99);
    return std::make_unique<Simulator>(topo, cfg, std::move(workload));
  };
  auto seq = make(1);
  auto two = make(2);
  auto four = make(4);

  for (int block = 0; block < 60; ++block) {
    for (int i = 0; i < 10; ++i) {
      seq->step();
      two->step();
      four->step();
    }
    const Cycle at = seq->cycle();
    for (const Simulator* other : {two.get(), four.get()}) {
      const Network& a = seq->network();
      const Network& b = other->network();
      for (LinkId l = 0; l < a.num_links(); ++l) {
        ASSERT_EQ(a.link(l).active_vc_mask, b.link(l).active_vc_mask)
            << "link " << l << " cycle " << at;
        for (unsigned v = 0; v < a.vcs_on(l); ++v) {
          const VcRef ref{l, static_cast<std::uint8_t>(v)};
          ASSERT_EQ(a.vc(ref).msg, b.vc(ref).msg)
              << "vc " << l << "/" << v << " cycle " << at;
          ASSERT_EQ(a.vc(ref).occupancy, b.vc(ref).occupancy)
              << "vc " << l << "/" << v << " cycle " << at;
          ASSERT_EQ(a.vc(ref).last_activity, b.vc(ref).last_activity)
              << "vc " << l << "/" << v << " cycle " << at;
        }
      }
      ASSERT_EQ(seq->total_delivered(), other->total_delivered())
          << "cycle " << at;
      ASSERT_EQ(seq->total_deadlock_detections(),
                other->total_deadlock_detections())
          << "cycle " << at;
    }
  }
  // The run exercised exactly the interaction under test: deadlocks
  // fired, route queries were answered from the memo, and the commit
  // phase hit real conflicts that forced inline re-evaluation. The
  // sequential core never speculates, so its conflict count pins the
  // counter's zero baseline.
  EXPECT_GT(seq->total_deadlock_detections(), 0u);
  EXPECT_GT(seq->scan_stats().route_memo_hits, 0u);
  EXPECT_EQ(seq->scan_stats().commit_decisions, 0u);
  EXPECT_EQ(seq->scan_stats().commit_conflicts, 0u);
  for (const Simulator* sharded : {two.get(), four.get()}) {
    EXPECT_GT(sharded->scan_stats().route_memo_hits, 0u);
    EXPECT_GT(sharded->scan_stats().commit_decisions, 0u);
    EXPECT_GT(sharded->scan_stats().commit_conflicts, 0u);
  }
}

/// Memo accounting: hits only ever come from headers that blocked at
/// least once, so a message crossing an otherwise empty network
/// reports none even with the memo enabled.
TEST(RouteMemo, NoHitsWithoutContention) {
  SimulatorConfig cfg = default_config();
  cfg.core = SimCore::Active;
  auto sim = testing::make_sim(4, 2, cfg);
  ASSERT_TRUE(sim->push_message(0, 5, 8));
  ASSERT_TRUE(testing::run_until_delivered(*sim, 1));
  EXPECT_EQ(sim->scan_stats().route_memo_hits, 0u);
}

}  // namespace
}  // namespace wormsim::sim
