#include "core/alo.hpp"

#include <gtest/gtest.h>

#include "fake_status.hpp"
#include "util/rng.hpp"

namespace wormsim::core {
namespace {

using testing::FakeStatus;
using testing::make_request;
using testing::make_route;

class AloTest : public ::testing::Test {
 protected:
  FakeStatus status_{4, 6, 3};  // 4 nodes, 6 channels (8-ary 3-cube), 3 VCs
  AloLimiter alo_;
};

TEST_F(AloTest, AllowsWhenEverythingFree) {
  const auto route = make_route({0, 2, 4}, 3);
  EXPECT_TRUE(alo_.allow(make_request(0, route), status_));
}

TEST_F(AloTest, RuleA_AllUsefulChannelsHaveOneFreeVc) {
  // Every useful channel keeps exactly one free VC: rule (a) holds.
  for (unsigned c : {0u, 2u, 4u}) {
    status_.set_free(0, static_cast<ChannelId>(c), 0b001);
  }
  const auto route = make_route({0, 2, 4}, 3);
  const auto cond =
      evaluate_alo(status_.free_row(0), 3, route.useful_phys_mask);
  EXPECT_TRUE(cond.all_useful_partially_free);
  EXPECT_FALSE(cond.any_useful_completely_free);
  EXPECT_TRUE(alo_.allow(make_request(0, route), status_));
}

TEST_F(AloTest, DeniesWhenOneUsefulChannelFullyBusy) {
  status_.set_free(0, 0, 0b000);  // channel 0 fully busy
  status_.set_free(0, 2, 0b011);
  status_.set_free(0, 4, 0b001);
  const auto route = make_route({0, 2, 4}, 3);
  const auto cond =
      evaluate_alo(status_.free_row(0), 3, route.useful_phys_mask);
  EXPECT_FALSE(cond.all_useful_partially_free);
  EXPECT_FALSE(cond.any_useful_completely_free);
  EXPECT_FALSE(alo_.allow(make_request(0, route), status_));
}

TEST_F(AloTest, RuleB_OneCompletelyFreeChannelOverridesBusyOnes) {
  status_.set_free(0, 0, 0b000);  // fully busy
  status_.set_free(0, 2, 0b111);  // completely free -> rule (b)
  status_.set_free(0, 4, 0b001);
  const auto route = make_route({0, 2, 4}, 3);
  const auto cond =
      evaluate_alo(status_.free_row(0), 3, route.useful_phys_mask);
  EXPECT_FALSE(cond.all_useful_partially_free);
  EXPECT_TRUE(cond.any_useful_completely_free);
  EXPECT_TRUE(alo_.allow(make_request(0, route), status_));
}

TEST_F(AloTest, IgnoresChannelsOutsideUsefulMask) {
  // Congested areas the message will not traverse must not block it
  // (paper §3: "it does not matter that some network areas are
  // congested if they are not likely to be used by the message").
  for (unsigned c = 0; c < 6; ++c) {
    status_.set_free(0, static_cast<ChannelId>(c), 0b000);
  }
  status_.set_free(0, 3, 0b001);
  const auto route = make_route({3}, 3);
  EXPECT_TRUE(alo_.allow(make_request(0, route), status_));
}

TEST_F(AloTest, ButterflyStyleTwoChannelExample) {
  // Paper §3 example: a butterfly message uses channels in two
  // dimensions; injection allowed with >= 1 free VC in each, or one of
  // them completely free.
  const auto route = make_route({0, 2}, 3);
  status_.set_free(0, 0, 0b010);
  status_.set_free(0, 2, 0b100);
  EXPECT_TRUE(alo_.allow(make_request(0, route), status_));
  status_.set_free(0, 2, 0b000);
  EXPECT_FALSE(alo_.allow(make_request(0, route), status_));
  status_.set_free(0, 0, 0b111);  // completely free -> rule (b)
  EXPECT_TRUE(alo_.allow(make_request(0, route), status_));
}

TEST_F(AloTest, EmptyUsefulMaskVacuouslyAllows) {
  const auto cond = evaluate_alo(status_.free_row(0), 3, 0);
  EXPECT_TRUE(cond.allow());
}

TEST_F(AloTest, PerNodeIndependence) {
  status_.set_free(1, 0, 0b000);
  const auto route = make_route({0}, 3);
  EXPECT_TRUE(alo_.allow(make_request(0, route), status_));
  EXPECT_FALSE(alo_.allow(make_request(1, route), status_));
}

TEST_F(AloTest, NoThresholdNoState) {
  // ALO is stateless: the same status always yields the same answer,
  // regardless of history.
  const auto route = make_route({0, 2}, 3);
  status_.set_free(0, 0, 0b000);
  status_.set_free(0, 2, 0b011);  // partially (not completely) free
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(alo_.allow(make_request(0, route), status_));
  }
  status_.set_free(0, 0, 0b001);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(alo_.allow(make_request(0, route), status_));
  }
}

TEST(AloRouted, ReducesToUnmaskedFormForTfarStyleMasks) {
  // When every candidate offers all VCs (TFAR), the routed evaluation
  // must agree with the paper's formulation on every status register.
  FakeStatus status(1, 6, 3);
  util::Rng rng(31);
  for (int iter = 0; iter < 5000; ++iter) {
    for (unsigned c = 0; c < 6; ++c) {
      status.set_free(0, static_cast<ChannelId>(c),
                      static_cast<std::uint32_t>(rng.below(8)));
    }
    const auto chans = static_cast<std::uint32_t>(rng.between(1, 0b111111));
    routing::RouteResult route;
    for (unsigned c = 0; c < 6; ++c) {
      if (chans & (1u << c)) {
        route.candidates.push_back(
            {static_cast<ChannelId>(c), 0b111, false});
        route.useful_phys_mask |= 1u << c;
      }
    }
    const auto plain =
        evaluate_alo(status.free_row(0), 3, route.useful_phys_mask);
    const auto routed = evaluate_alo_routed(status.free_row(0), 3, route);
    ASSERT_EQ(plain.allow(), routed.allow()) << "iteration " << iter;
    ASSERT_EQ(plain.all_useful_partially_free,
              routed.all_useful_partially_free);
    ASSERT_EQ(plain.any_useful_completely_free,
              routed.any_useful_completely_free);
  }
}

TEST(AloRouted, IdleEscapeVcsDoNotMaskCongestion) {
  // Duato-style restriction: adaptive traffic may only use VC 2; the
  // escape VCs (0, 1) on non-DOR channels are structurally idle. With
  // every adaptive VC busy, rule (a) must fail even though each channel
  // still shows "free" escape VCs.
  FakeStatus status(1, 4, 3);
  routing::RouteResult route;
  route.candidates.push_back({0, 0b100, false});  // adaptive VC2 only
  route.candidates.push_back({2, 0b100, false});
  route.candidates.push_back({0, 0b001, true});   // escape on DOR channel
  route.useful_phys_mask = 0b101;

  // Adaptive VC2 busy everywhere; escape VC0 busy on the DOR channel;
  // VC1s idle.
  status.set_free(0, 0, 0b010);
  status.set_free(0, 2, 0b011);
  const auto cond = evaluate_alo_routed(status.free_row(0), 3, route);
  EXPECT_FALSE(cond.all_useful_partially_free);
  EXPECT_FALSE(cond.any_useful_completely_free);
  EXPECT_FALSE(cond.allow());
  // The paper's unmasked form would wrongly allow here (footnote 1).
  EXPECT_TRUE(
      evaluate_alo(status.free_row(0), 3, route.useful_phys_mask).allow());

  // Freeing an adaptive VC on every useful channel restores rule (a).
  status.set_free(0, 0, 0b110);
  status.set_free(0, 2, 0b111);
  EXPECT_TRUE(evaluate_alo_routed(status.free_row(0), 3, route).allow());
}

/// Brute-force reference for both ALO rules, written straight from the
/// paper's wording: it reads the status register one channel at a time
/// through ChannelStatus::free_vc_mask and tests every VC bit
/// separately, sharing no code with the row evaluators. `usable[c]`
/// restricts rule (a) to the VCs the routing function offers on channel
/// c (0 = every VC, the paper's formulation).
AloConditions reference_alo(const ChannelStatus& status, NodeId node,
                            std::uint32_t useful_phys_mask,
                            const std::uint32_t* usable) {
  AloConditions cond;
  cond.all_useful_partially_free = true;
  const unsigned vcs = status.num_vcs();
  for (unsigned c = 0; c < status.num_phys_channels(); ++c) {
    if (!(useful_phys_mask & (1u << c))) continue;
    const std::uint32_t free =
        status.free_vc_mask(node, static_cast<ChannelId>(c));
    bool some_usable_free = false;
    bool all_free = true;
    for (unsigned v = 0; v < vcs; ++v) {
      const bool is_free = (free >> v) & 1u;
      const bool is_usable = usable[c] == 0 || ((usable[c] >> v) & 1u);
      if (is_free && is_usable) some_usable_free = true;
      if (!is_free) all_free = false;
    }
    if (!some_usable_free) cond.all_useful_partially_free = false;
    if (all_free) cond.any_useful_completely_free = true;
  }
  return cond;
}

/// Property: the row evaluators (the only implementation, used by the
/// limiter, the Figure-2 probe and both simulation cores) agree with
/// the per-VC reference on random status registers and random routes —
/// both rules, not just the final allow.
TEST(AloRowTwin, MatchesChannelStatusEvaluatorsOnRandomState) {
  constexpr unsigned kChannels = 6;
  constexpr unsigned kVcs = 3;
  constexpr NodeId kNodes = 4;
  FakeStatus status(kNodes, kChannels, kVcs);
  util::Rng rng(0xA10);
  const std::uint32_t all_vcs[kChannels] = {};
  for (int iter = 0; iter < 5000; ++iter) {
    const auto node = static_cast<NodeId>(rng.below(kNodes));
    for (unsigned c = 0; c < kChannels; ++c) {
      status.set_free(node, static_cast<ChannelId>(c),
                      static_cast<std::uint32_t>(rng.below(1u << kVcs)));
    }
    // Unmasked form over a random useful set (zero included: vacuous).
    const auto useful = static_cast<std::uint32_t>(rng.below(1u << kChannels));
    const AloConditions ref = reference_alo(status, node, useful, all_vcs);
    const AloConditions row =
        evaluate_alo(status.free_row(node), kVcs, useful);
    ASSERT_EQ(ref.all_useful_partially_free, row.all_useful_partially_free)
        << "iter " << iter << " useful " << useful;
    ASSERT_EQ(ref.any_useful_completely_free, row.any_useful_completely_free)
        << "iter " << iter << " useful " << useful;

    // Routed form over a random candidate set with random VC masks and
    // an optional trailing escape candidate (the Duato shape).
    routing::RouteResult route;
    std::uint32_t usable[kChannels] = {};
    const unsigned cands = 1 + static_cast<unsigned>(rng.below(kChannels));
    for (unsigned i = 0; i < cands; ++i) {
      const auto vc_mask =
          static_cast<std::uint32_t>(rng.between(1, (1u << kVcs) - 1));
      const bool escape = (i == cands - 1) && rng.bernoulli(0.5);
      route.candidates.push_back(
          {static_cast<ChannelId>(i), vc_mask, escape});
      route.useful_phys_mask |= 1u << i;
      usable[i] |= vc_mask;
    }
    const AloConditions ref_routed =
        reference_alo(status, node, route.useful_phys_mask, usable);
    const AloConditions row_routed =
        evaluate_alo_routed(status.free_row(node), kVcs, route);
    ASSERT_EQ(ref_routed.all_useful_partially_free,
              row_routed.all_useful_partially_free)
        << "iter " << iter;
    ASSERT_EQ(ref_routed.any_useful_completely_free,
              row_routed.any_useful_completely_free)
        << "iter " << iter;
    // The limiter is exactly the routed evaluator on the request's node.
    ASSERT_EQ(AloLimiter().allow(testing::make_request(node, route), status),
              ref_routed.allow())
        << "iter " << iter;
  }
}

TEST(AloUniformExample, PaperSixChannelScenario) {
  // Paper §3: with uniform traffic in a k-ary 3-cube a message may use
  // all 6 physical channels; rule (a) needs >= 6 free VCs spread one per
  // channel.
  testing::FakeStatus status(1, 6, 3);
  AloLimiter alo;
  auto route = make_route({0, 1, 2, 3, 4, 5}, 3);
  for (unsigned c = 0; c < 6; ++c) {
    status.set_free(0, static_cast<ChannelId>(c), 0b100);
  }
  EXPECT_TRUE(alo.allow(make_request(0, route), status));
  // Losing the last free VC of one channel flips the decision.
  status.set_free(0, 5, 0b000);
  EXPECT_FALSE(alo.allow(make_request(0, route), status));
}

}  // namespace
}  // namespace wormsim::core
