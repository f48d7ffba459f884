// Event-driven wakeups of parked headers and limiter-denied sources.
//
// A header that fails to claim a VC parks: the route phase skips it
// until a VC of one of its candidate channels is released, its
// detection deadline arrives, or a fault wakes everything. A source
// whose limiter denied its queue head parks until one of its output
// links releases a VC, when that limiter's verdict reads nothing but
// the status row and the route. Each test below fails if the wake
// source it names is removed: the dense core never parks, so it is the
// reference every parked run must match cycle for cycle.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/limiter.hpp"
#include "fault/schedule.hpp"
#include "sim/flow_control.hpp"
#include "sim_test_util.hpp"

namespace wormsim::sim {
namespace {

using testing::default_config;

/// Channel-level equality of two simulators plus the end-of-step
/// counters (fatal on the first difference).
void expect_lock_step(const Simulator& a, const Simulator& b) {
  const Cycle at = a.cycle();
  ASSERT_EQ(at, b.cycle());
  const Network& na = a.network();
  const Network& nb = b.network();
  for (LinkId l = 0; l < na.num_links(); ++l) {
    ASSERT_EQ(na.link(l).active_vc_mask, nb.link(l).active_vc_mask)
        << "link " << l << " cycle " << at;
    for (unsigned v = 0; v < na.vcs_on(l); ++v) {
      const VcRef ref{l, static_cast<std::uint8_t>(v)};
      ASSERT_EQ(na.vc(ref).msg, nb.vc(ref).msg)
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(na.vc(ref).occupancy, nb.vc(ref).occupancy)
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(na.vc(ref).last_activity, nb.vc(ref).last_activity)
          << "vc " << l << "/" << v << " cycle " << at;
    }
  }
  ASSERT_EQ(a.total_delivered(), b.total_delivered()) << "cycle " << at;
  ASSERT_EQ(a.total_deadlock_detections(), b.total_deadlock_detections())
      << "cycle " << at;
  ASSERT_EQ(a.total_lost(), b.total_lost()) << "cycle " << at;
  ASSERT_EQ(a.source_queue_total(), b.source_queue_total()) << "cycle " << at;
}

/// Five worms on a unidirectional 5-node ring, each sent two hops
/// ahead (the only minimal direction), with one VC per channel: every
/// worm holds the link the previous one needs, so all of them block at
/// once and nothing moves again — no VC is ever released until a
/// detection absorbs a worm. Worm 0 is short (6 flits, the rest 64):
/// its flits stop moving first, so it is detected first, a cycle before
/// the others' deadlines.
std::unique_ptr<Simulator> make_ring_deadlock(SimCore core) {
  SimulatorConfig cfg = default_config();
  cfg.core = core;
  cfg.net.num_vcs = 1;
  cfg.net.inj_channels = 1;
  cfg.net.eje_channels = 1;
  auto sim = testing::make_sim(5, 1, cfg);
  for (NodeId src = 0; src < 5; ++src) {
    EXPECT_TRUE(sim->push_message(src, (src + 2) % 5, src == 0 ? 6 : 64));
  }
  return sim;
}

/// The detection deadline is the only wake source a frozen deadlock
/// has: the parked headers must wake on it and detect in exactly the
/// cycle the dense core (which re-evaluates every header every cycle)
/// detects.
TEST(Wakeups, DeadlineOnlyDetectionFiresOnTheDenseCycle) {
  auto parked = make_ring_deadlock(SimCore::Active);
  auto dense = make_ring_deadlock(SimCore::Dense);
  Cycle parked_first = 0, dense_first = 0;
  for (int i = 0; i < 200 && (parked_first == 0 || dense_first == 0); ++i) {
    parked->step();
    dense->step();
    if (parked_first == 0 && parked->total_deadlock_detections() > 0) {
      parked_first = parked->cycle();
    }
    if (dense_first == 0 && dense->total_deadlock_detections() > 0) {
      dense_first = dense->cycle();
    }
    std::string why;
    ASSERT_TRUE(parked->check_active_sets(&why)) << why;
  }
  ASSERT_GT(dense_first, 0u);
  EXPECT_EQ(parked_first, dense_first);
  // The headers were parked while they waited, not re-evaluated.
  EXPECT_GT(parked->scan_stats().route_memo_hits, 100u);
}

/// An absorption inside the route pass frees the absorbed worm's VCs
/// at once: the header waiting on one of them, still asleep when the
/// pass began and visited later in it, wakes and claims the VC in that
/// very cycle, as in the dense core. (Worm 0's absorption swap-removes
/// the last pending entry — worm 4, waiting on worm 0's first link —
/// into the absorbed entry's place, so it is visited right after.)
TEST(Wakeups, MidPassAbsorptionWakesALaterHeaderTheSameCycle) {
  auto parked = make_ring_deadlock(SimCore::Active);
  auto dense = make_ring_deadlock(SimCore::Dense);
  bool reclaimed = false;
  for (int i = 0; i < 200 && !reclaimed; ++i) {
    // Holders of every network VC before the step.
    const Network& net = parked->network();
    std::vector<MsgId> before(net.num_net_links());
    for (LinkId l = 0; l < net.num_net_links(); ++l) {
      before[l] = net.vc({l, 0}).msg;
    }
    const std::uint64_t detections = parked->total_deadlock_detections();
    parked->step();
    dense->step();
    expect_lock_step(*parked, *dense);
    if (parked->total_deadlock_detections() == detections) continue;
    // A VC the absorbed worm held at the start of the cycle now has a
    // new tenant: it was freed and claimed within one route pass.
    for (LinkId l = 0; l < net.num_net_links(); ++l) {
      const MsgId now = net.vc({l, 0}).msg;
      if (before[l] != kNoMsg && now != kNoMsg && now != before[l]) {
        reclaimed = true;
      }
    }
  }
  EXPECT_TRUE(reclaimed);
}

/// A release on an output link wakes exactly the headers parked on that
/// link, and no other — also where a node has more input VCs than
/// waiter bits (4 channels x 8 VCs plus injection), so that several
/// share the top bit and only their candidate channels tell them apart.
TEST(Wakeups, ReleaseWakesExactlyTheHeadersParkedOnThatLink) {
  for (const unsigned vcs : {3u, 8u}) {
    SCOPED_TRACE("num_vcs " + std::to_string(vcs));
    const topo::KAryNCube topo(4, 2);
    NetworkParams params;
    params.num_vcs = vcs;
    params.inj_channels = 2;
    Network net(topo, params);
    const NodeId node = 5;
    const unsigned chans = topo.num_channels();
    // Every header routed at `node` sits in one of these.
    std::vector<VcSlot> inputs;
    for (LinkId l = 0; l < net.num_net_links(); ++l) {
      if (net.link(l).dst != node) continue;
      for (unsigned v = 0; v < vcs; ++v) {
        inputs.push_back(net.vc_flat_index({l, static_cast<std::uint8_t>(v)}));
      }
    }
    for (unsigned i = 0; i < params.inj_channels; ++i) {
      inputs.push_back(net.vc_flat_index({net.inj_link(node, i), 0}));
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      net.park_route(inputs[i], node, 1u << (i % chans));
    }
    const VcRef out{net.net_link(node, 1), 0};
    net.set_active(out, true);  // an allocation wakes nobody
    for (const VcSlot slot : inputs) {
      EXPECT_EQ(net.route_park(slot), Network::RoutePark::Asleep);
    }
    net.set_active(out, false);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(net.route_park(inputs[i]) == Network::RoutePark::Awake,
                i % chans == 1)
          << "input " << i;
    }
  }
}

/// The same wakes through the shared top waiter bit, end to end: a
/// 4-D node has more input VCs than waiter bits (8 channels x 3 VCs,
/// padded to 4, plus injection), and the saturated parked core must
/// still match the dense core cycle for cycle.
TEST(Wakeups, SharedWaiterBitMatchesDenseEveryCycle) {
  const auto make = [](SimCore core) {
    SimulatorConfig cfg = default_config();
    cfg.core = core;
    return testing::make_traffic_sim(3, 4, 1.2, 16, cfg);
  };
  auto parked = make(SimCore::Active);
  auto dense = make(SimCore::Dense);
  for (int i = 0; i < 600; ++i) {
    parked->step();
    dense->step();
    expect_lock_step(*parked, *dense);
    std::string why;
    ASSERT_TRUE(parked->check_active_sets(&why))
        << why << " cycle " << parked->cycle();
  }
  EXPECT_GT(parked->scan_stats().route_memo_hits, 0u);
}

/// Counts allow() calls and forwards everything else, including the
/// capability bits, to the wrapped limiter.
class CountingLimiter final : public core::InjectionLimiter {
 public:
  CountingLimiter(std::unique_ptr<core::InjectionLimiter> inner,
                  std::uint64_t* calls)
      : inner_(std::move(inner)), calls_(calls) {}
  bool allow(const core::InjectionRequest& req,
             const core::ChannelStatus& status) override {
    ++*calls_;
    return inner_->allow(req, status);
  }
  void on_injected(NodeId node, std::uint64_t cycle) override {
    inner_->on_injected(node, cycle);
  }
  void reset() override { inner_->reset(); }
  bool reads_route() const noexcept override { return inner_->reads_route(); }
  bool verdict_reads_only_row() const noexcept override {
    return inner_->verdict_reads_only_row();
  }
  core::LimiterKind kind() const noexcept override { return inner_->kind(); }

 private:
  std::unique_ptr<core::InjectionLimiter> inner_;
  std::uint64_t* calls_;
};

/// ALO's rule (a) over the raw free masks, as an out-of-tree limiter
/// would write it: it declares no capability, so it must never be
/// skipped.
class UserRuleA final : public core::InjectionLimiter {
 public:
  explicit UserRuleA(std::uint64_t* calls) : calls_(calls) {}
  bool allow(const core::InjectionRequest& req,
             const core::ChannelStatus& status) override {
    ++*calls_;
    for (std::uint32_t m = req.route->useful_phys_mask; m != 0; m &= m - 1) {
      const auto c = static_cast<core::ChannelId>(std::countr_zero(m));
      if (status.free_vc_mask(req.node, c) == 0) return false;
    }
    return true;
  }
  core::LimiterKind kind() const noexcept override {
    return core::LimiterKind::ALO;
  }

 private:
  std::uint64_t* calls_;
};

enum class Gate { Alo, Lf, Dril, User };

struct GateRun {
  std::uint64_t calls = 0;
  std::uint64_t delivered = 0;
  std::uint64_t queued = 0;
  std::uint64_t route_evals = 0;
};

GateRun run_gate(SimCore core, FlowControl scheme, Gate gate) {
  SimulatorConfig cfg = default_config();
  cfg.core = core;
  cfg.flow.scheme = scheme;
  auto sim = testing::make_traffic_sim(8, 2, 1.0, 16, cfg);
  GateRun r;
  core::LimiterConfig lc;
  switch (gate) {
    case Gate::Alo: lc.kind = core::LimiterKind::ALO; break;
    case Gate::Lf: lc.kind = core::LimiterKind::LF; break;
    case Gate::Dril: lc.kind = core::LimiterKind::DRIL; break;
    case Gate::User: break;
  }
  if (gate == Gate::User) {
    sim->set_limiter(std::make_unique<UserRuleA>(&r.calls));
  } else {
    sim->set_limiter(std::make_unique<CountingLimiter>(
        core::make_limiter(lc, sim->topology().num_nodes()), &r.calls));
  }
  for (int i = 0; i < 1500; ++i) {
    sim->step();
    if (i % 100 == 0) {
      std::string why;
      EXPECT_TRUE(sim->check_active_sets(&why)) << why;
    }
  }
  r.delivered = sim->total_delivered();
  r.queued = sim->source_queue_total();
  r.route_evals = sim->scan_stats().route_evals;
  return r;
}

/// ALO and LF read nothing but the status row and the route, so under
/// a scheme whose row changes only through set_active a denied source
/// parks: fewer allow() calls (and routes), the same simulation.
TEST(Wakeups, RowOnlyLimitersSkipStandingDenials) {
  for (const Gate gate : {Gate::Alo, Gate::Lf}) {
    const GateRun parked =
        run_gate(SimCore::Active, FlowControl::Wormhole, gate);
    const GateRun dense = run_gate(SimCore::Dense, FlowControl::Wormhole, gate);
    EXPECT_EQ(parked.delivered, dense.delivered);
    EXPECT_EQ(parked.queued, dense.queued);
    EXPECT_GT(dense.calls, parked.calls + parked.calls / 10)
        << "the denied sources were asked again every cycle";
  }
}

/// Where a verdict can change without a VC release — Credit's status
/// row follows credit returns, DRIL's threshold follows time and waits,
/// and a user limiter promises nothing — every denial is asked again
/// every cycle, exactly as often as the dense core asks.
TEST(Wakeups, LimitersWhoseVerdictCanChangeAreNeverSkipped) {
  const std::vector<std::tuple<FlowControl, Gate>> never_skipped = {
      {FlowControl::Credit, Gate::Alo},
      {FlowControl::Credit, Gate::Lf},
      {FlowControl::Wormhole, Gate::Dril},
      {FlowControl::Wormhole, Gate::User},
  };
  for (const auto& [scheme, gate] : never_skipped) {
    SCOPED_TRACE(std::string(flow_control_name(scheme)) + " gate " +
                 std::to_string(static_cast<int>(gate)));
    const GateRun active = run_gate(SimCore::Active, scheme, gate);
    const GateRun dense = run_gate(SimCore::Dense, scheme, gate);
    EXPECT_GT(dense.calls, 0u);
    EXPECT_EQ(active.calls, dense.calls);
    EXPECT_EQ(active.delivered, dense.delivered);
    EXPECT_EQ(active.queued, dense.queued);
  }
}

/// Dense/active lock-step, every cycle, with every wake source busy:
/// ALO-denied sources, deadlocking 2-VC headers, a link and a node that
/// die and heal (faults wake everything, since a restored link frees
/// VCs without a release), under each flow-control scheme. The
/// invariant check asserts that every parked header and source is
/// still provably blocked.
class WakeLockStep : public ::testing::TestWithParam<FlowControl> {};

TEST_P(WakeLockStep, ParkedCoreMatchesDenseEveryCycle) {
  const fault::FaultSchedule schedule({
      {150, fault::FaultKind::LinkKill, 5, 1},
      {300, fault::FaultKind::NodeKill, 10, 0},
      {450, fault::FaultKind::LinkRestore, 5, 1},
      {600, fault::FaultKind::NodeRestore, 10, 0},
  });
  const auto make = [&](SimCore core) {
    SimulatorConfig cfg = default_config();
    cfg.core = core;
    cfg.flow.scheme = GetParam();
    cfg.limiter.kind = core::LimiterKind::ALO;
    cfg.net.num_vcs = 2;
    cfg.faults = schedule;
    // Four-flit messages fit VCT's whole-packet admission.
    return testing::make_traffic_sim(4, 2, 1.2, 4, cfg,
                                     traffic::PatternKind::Uniform, 31);
  };
  auto parked = make(SimCore::Active);
  auto dense = make(SimCore::Dense);
  for (int i = 0; i < 900; ++i) {
    parked->step();
    dense->step();
    expect_lock_step(*parked, *dense);
    std::string why;
    ASSERT_TRUE(parked->check_active_sets(&why))
        << why << " cycle " << parked->cycle();
  }
  EXPECT_EQ(parked->fault_events_applied(), 4u);
  EXPECT_GT(parked->scan_stats().route_memo_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, WakeLockStep,
                         ::testing::Values(FlowControl::Wormhole,
                                           FlowControl::Credit,
                                           FlowControl::Vct),
                         [](const auto& info) {
                           return std::string(flow_control_name(info.param));
                         });

}  // namespace
}  // namespace wormsim::sim
