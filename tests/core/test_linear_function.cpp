#include "core/linear_function.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "fake_status.hpp"
#include "util/rng.hpp"

namespace wormsim::core {
namespace {

using testing::FakeStatus;
using testing::make_request;
using testing::make_route;

TEST(LinearFunction, ValidatesAlpha) {
  EXPECT_THROW(LinearFunctionLimiter(-0.1), std::invalid_argument);
  EXPECT_THROW(LinearFunctionLimiter(1.1), std::invalid_argument);
  EXPECT_NO_THROW(LinearFunctionLimiter(0.0));
  EXPECT_NO_THROW(LinearFunctionLimiter(1.0));
}

TEST(LinearFunction, CountsOnlyUsefulChannels) {
  FakeStatus status(1, 6, 3);
  status.set_free(0, 0, 0b001);  // 2 busy
  status.set_free(0, 2, 0b000);  // 3 busy
  status.set_free(0, 4, 0b111);  // 0 busy
  status.set_free(0, 1, 0b000);  // 3 busy but NOT useful
  const auto route = make_route({0, 2, 4}, 3);
  const auto counts = LinearFunctionLimiter::count_useful(
      status.free_row(0), 3, route.useful_phys_mask);
  EXPECT_EQ(counts.total, 9u);
  EXPECT_EQ(counts.busy, 5u);
}

TEST(LinearFunction, ThresholdScalesWithUsefulVcs) {
  LinearFunctionLimiter lf(0.5);
  FakeStatus status(1, 6, 3);
  const auto route = make_route({0, 2}, 3);  // 6 useful VCs, threshold 3

  status.set_free(0, 0, 0b001);  // 2 busy
  status.set_free(0, 2, 0b011);  // 1 busy -> total 3 busy <= 3
  EXPECT_TRUE(lf.allow(make_request(0, route), status));

  status.set_free(0, 2, 0b001);  // 2 busy -> total 4 busy > 3
  EXPECT_FALSE(lf.allow(make_request(0, route), status));
}

TEST(LinearFunction, AlphaOneNeverRestrictsUntilSaturated) {
  LinearFunctionLimiter lf(1.0);
  FakeStatus status(1, 6, 3);
  const auto route = make_route({0}, 3);
  status.set_free(0, 0, 0b000);  // all busy: busy == total == threshold
  EXPECT_TRUE(lf.allow(make_request(0, route), status));
}

TEST(LinearFunction, AlphaZeroRequiresAllFree) {
  LinearFunctionLimiter lf(0.0);
  FakeStatus status(1, 6, 3);
  const auto route = make_route({0, 2}, 3);
  EXPECT_TRUE(lf.allow(make_request(0, route), status));
  status.set_free(0, 0, 0b011);  // one busy VC
  EXPECT_FALSE(lf.allow(make_request(0, route), status));
}

TEST(LinearFunction, VacuousWithNoUsefulChannels) {
  LinearFunctionLimiter lf(0.5);
  FakeStatus status(1, 6, 3);
  routing::RouteResult route;  // empty
  EXPECT_TRUE(lf.allow(make_request(0, route), status));
}

TEST(LinearFunction, AdaptsToPatternFootprint) {
  // A butterfly-style 2-channel request and a uniform 6-channel request
  // see different absolute thresholds from the same alpha.
  LinearFunctionLimiter lf(0.625);
  FakeStatus status(1, 6, 3);
  // 6 channels x 3 VCs = 18 useful, threshold floor(11.25) = 11.
  const auto uniform = make_route({0, 1, 2, 3, 4, 5}, 3);
  // 2 channels x 3 VCs = 6 useful, threshold floor(3.75) = 3.
  const auto butterfly = make_route({0, 2}, 3);

  // 4 busy VCs on channels 0 and 2 (2 each): uniform passes (4 <= 11),
  // butterfly fails (4 > 3).
  status.set_free(0, 0, 0b001);
  status.set_free(0, 2, 0b100);
  EXPECT_TRUE(lf.allow(make_request(0, uniform), status));
  EXPECT_FALSE(lf.allow(make_request(0, butterfly), status));
}

/// Brute-force reference for LF's decision, written from the rule
/// itself: walk every VC of every useful channel through
/// ChannelStatus::free_vc_mask, count the busy ones, and compare with
/// floor(alpha * useful VCs). Shares no code with count_useful.
bool reference_lf(const ChannelStatus& status, NodeId node,
                  std::uint32_t useful_phys_mask, double alpha,
                  LinearFunctionLimiter::Counts* counts) {
  unsigned busy = 0;
  unsigned total = 0;
  for (unsigned c = 0; c < status.num_phys_channels(); ++c) {
    if (!(useful_phys_mask & (1u << c))) continue;
    const std::uint32_t free =
        status.free_vc_mask(node, static_cast<ChannelId>(c));
    for (unsigned v = 0; v < status.num_vcs(); ++v) {
      ++total;
      if (!((free >> v) & 1u)) ++busy;
    }
  }
  counts->busy = busy;
  counts->total = total;
  if (total == 0) return true;
  return busy <= static_cast<unsigned>(std::floor(alpha * total));
}

/// Property: count_useful and allow (the only implementation, run by
/// both simulation cores) agree with the per-VC reference on random
/// state.
TEST(LinearFunctionRowTwin, MatchesChannelStatusPathOnRandomState) {
  constexpr unsigned kChannels = 6;
  constexpr unsigned kVcs = 3;
  constexpr NodeId kNodes = 4;
  FakeStatus status(kNodes, kChannels, kVcs);
  util::Rng rng(0x1F);
  for (int iter = 0; iter < 5000; ++iter) {
    const auto node = static_cast<NodeId>(rng.below(kNodes));
    for (unsigned c = 0; c < kChannels; ++c) {
      status.set_free(node, static_cast<ChannelId>(c),
                      static_cast<std::uint32_t>(rng.below(1u << kVcs)));
    }
    routing::RouteResult route;
    const unsigned cands = static_cast<unsigned>(rng.below(kChannels + 1));
    for (unsigned i = 0; i < cands; ++i) {
      route.candidates.push_back(
          {static_cast<ChannelId>(i), (1u << kVcs) - 1u, false});
      route.useful_phys_mask |= 1u << i;
    }
    LinearFunctionLimiter lf(static_cast<double>(rng.below(11)) / 10.0);
    LinearFunctionLimiter::Counts ref;
    const bool ref_allow = reference_lf(status, node, route.useful_phys_mask,
                                        lf.alpha(), &ref);
    const auto rc = LinearFunctionLimiter::count_useful(
        status.free_row(node), kVcs, route.useful_phys_mask);
    ASSERT_EQ(ref.busy, rc.busy) << "iter " << iter;
    ASSERT_EQ(ref.total, rc.total) << "iter " << iter;
    ASSERT_EQ(ref_allow, lf.allow(make_request(node, route), status))
        << "iter " << iter << " alpha " << lf.alpha();
  }
}

}  // namespace
}  // namespace wormsim::core
