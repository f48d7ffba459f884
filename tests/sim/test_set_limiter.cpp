// Simulator::set_limiter, the extension seam for out-of-tree injection
// limiters (examples/custom_limiter.cpp). A user limiter sees the same
// ChannelStatus the built-in mechanisms read, gets the same route, and
// is asked at the same moments — so a user limiter that reimplements a
// built-in rule must reproduce the built-in run byte for byte, in both
// cores and under every flow-control scheme.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "harness/sweep.hpp"
#include "sim/flow_control.hpp"
#include "sim_test_util.hpp"

namespace wormsim::sim {
namespace {

using testing::default_config;

/// Allows every injection, like the built-in None — but as a user
/// limiter it keeps the default reads_route() == true, so the simulator
/// routes every request for it.
class AlwaysAllow final : public core::InjectionLimiter {
 public:
  bool allow(const core::InjectionRequest& req,
             const core::ChannelStatus&) override {
    EXPECT_NE(req.route, nullptr);
    return true;
  }
  core::LimiterKind kind() const noexcept override {
    return core::LimiterKind::None;
  }
};

/// ALO's two rules (routing-aware form) applied through the per-channel
/// ChannelStatus::free_vc_mask accessor, one VC bit at a time.
class UserAlo final : public core::InjectionLimiter {
 public:
  bool allow(const core::InjectionRequest& req,
             const core::ChannelStatus& status) override {
    const routing::RouteResult& route = *req.route;
    bool every_useful_has_free = true;
    bool some_useful_all_free = false;
    for (unsigned c = 0; c < status.num_phys_channels(); ++c) {
      if (!(route.useful_phys_mask & (1u << c))) continue;
      std::uint32_t usable = 0;
      for (const auto& cand : route.candidates) {
        if (cand.channel == c) usable |= cand.vc_mask;
      }
      const std::uint32_t free =
          status.free_vc_mask(req.node, static_cast<core::ChannelId>(c));
      bool any_usable_free = false;
      bool all_free = true;
      for (unsigned v = 0; v < status.num_vcs(); ++v) {
        const bool is_free = (free >> v) & 1u;
        if (is_free && (usable == 0 || ((usable >> v) & 1u))) {
          any_usable_free = true;
        }
        if (!is_free) all_free = false;
      }
      if (!any_usable_free) every_useful_has_free = false;
      if (all_free) some_useful_all_free = true;
    }
    return every_useful_has_free || some_useful_all_free;
  }
  core::LimiterKind kind() const noexcept override {
    return core::LimiterKind::ALO;
  }
};

/// Saturated 64-node run (limiters and deadlock recovery both busy),
/// summarized as its sweep CSV plus end-of-run counters.
std::string run_summary(SimCore core, FlowControl scheme,
                        core::LimiterKind builtin,
                        std::unique_ptr<core::InjectionLimiter> user) {
  SimulatorConfig cfg = default_config();
  cfg.core = core;
  cfg.flow.scheme = scheme;
  cfg.limiter.kind = builtin;
  auto sim = testing::make_traffic_sim(8, 2, 1.0, 16, cfg);
  if (user) sim->set_limiter(std::move(user));
  RunProtocol protocol;
  protocol.warmup = 300;
  protocol.measure = 1000;
  protocol.drain_max = 1200;
  const metrics::SimResult r = sim->run(protocol);
  std::ostringstream out;
  harness::write_sweep_csv(out, {{builtin, 1.0, r, nullptr}});
  out << "delivered=" << sim->total_delivered()
      << " detections=" << sim->total_deadlock_detections()
      << " in_flight=" << sim->messages_in_flight()
      << " queued=" << sim->source_queue_total()
      << " probes=" << r.probe.samples << "\n";
  return out.str();
}

class SetLimiter
    : public ::testing::TestWithParam<std::tuple<SimCore, FlowControl>> {};

TEST_P(SetLimiter, AlwaysAllowIsByteIdenticalToBuiltinNone) {
  const auto [core, scheme] = GetParam();
  EXPECT_EQ(run_summary(core, scheme, core::LimiterKind::None, nullptr),
            run_summary(core, scheme, core::LimiterKind::None,
                        std::make_unique<AlwaysAllow>()));
}

TEST_P(SetLimiter, UserAloIsByteIdenticalToBuiltinAlo) {
  const auto [core, scheme] = GetParam();
  const std::string builtin =
      run_summary(core, scheme, core::LimiterKind::ALO, nullptr);
  EXPECT_EQ(builtin, run_summary(core, scheme, core::LimiterKind::ALO,
                                 std::make_unique<UserAlo>()));
  // ALO actually throttled: the run differs from the unlimited one.
  EXPECT_NE(builtin,
            run_summary(core, scheme, core::LimiterKind::None, nullptr));
}

INSTANTIATE_TEST_SUITE_P(
    CoresAndSchemes, SetLimiter,
    ::testing::Combine(::testing::Values(SimCore::Dense, SimCore::Active),
                       ::testing::Values(FlowControl::Wormhole,
                                         FlowControl::Credit)),
    [](const auto& param) {
      return std::string(sim_core_name(std::get<0>(param.param))) + "_" +
             std::string(flow_control_name(std::get<1>(param.param)));
    });

/// Checks, on every call, that the status a user limiter is handed
/// equals the raw network register with every VC that still has
/// outstanding credits masked out.
class CreditProbe final : public core::InjectionLimiter {
 public:
  explicit CreditProbe(const Simulator& sim) : sim_(&sim) {}

  bool allow(const core::InjectionRequest& req,
             const core::ChannelStatus& status) override {
    const Network& net = sim_->network();
    const auto& credit =
        static_cast<const CreditFlowControl&>(sim_->flow_control());
    for (unsigned c = 0; c < status.num_phys_channels(); ++c) {
      const auto ch = static_cast<core::ChannelId>(c);
      const std::uint32_t raw = net.free_mask_row(req.node)[c];
      std::uint32_t expected = raw;
      for (unsigned v = 0; v < status.num_vcs(); ++v) {
        const VcRef ref{net.net_link(req.node, ch),
                        static_cast<std::uint8_t>(v)};
        if (credit.in_use(net.vc_flat_index(ref)) != 0) {
          expected &= ~(1u << v);
        }
      }
      EXPECT_EQ(status.free_vc_mask(req.node, ch), expected)
          << "node " << req.node << " channel " << c;
      if (expected != raw) ++masked_;
    }
    ++calls_;
    return true;
  }
  core::LimiterKind kind() const noexcept override {
    return core::LimiterKind::None;
  }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t masked() const { return masked_; }

 private:
  const Simulator* sim_;
  std::uint64_t calls_ = 0;
  std::uint64_t masked_ = 0;
};

TEST(SetLimiterCredit, UserLimiterSeesOutstandingCreditsAsBusy) {
  for (const SimCore core : {SimCore::Dense, SimCore::Active}) {
    SCOPED_TRACE(std::string(sim_core_name(core)));
    SimulatorConfig cfg = default_config();
    cfg.core = core;
    cfg.flow.scheme = FlowControl::Credit;
    cfg.flow.credit_return_delay = 4;
    auto sim = testing::make_traffic_sim(8, 2, 0.6, 16, cfg);
    auto probe = std::make_unique<CreditProbe>(*sim);
    const CreditProbe* p = probe.get();
    sim->set_limiter(std::move(probe));
    sim->step_cycles(1500);
    EXPECT_GT(p->calls(), 1000u);
    // Credits were outstanding on VCs the network already shows free.
    EXPECT_GT(p->masked(), 0u);
  }
}

}  // namespace
}  // namespace wormsim::sim
