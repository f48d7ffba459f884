// Property tests: for random status registers and candidate sets, every
// Pick a Selector returns must be admissible (free + usable), and the
// three policies must agree on *feasibility* (all succeed or all fail).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "routing/selection.hpp"
#include "util/rng.hpp"

namespace wormsim::routing {
namespace {

constexpr unsigned kChannels = 6;

/// Brute-force reference selector, written from the policy definitions
/// rather than from selection.cpp: enumerate every (candidate, VC) pair
/// that is free and usable, keep the adaptive ones if there are any
/// (escape otherwise), then pick per policy — FirstFit the first
/// candidate in route order, RoundRobin the first in rotated order,
/// MaxFreeVcs the candidate with the most usable free VCs (first in
/// rotated order on ties) — always on its lowest such VC.
std::optional<Pick> reference_select(SelectionPolicy policy,
                                     const RouteResult& route,
                                     const std::uint8_t* row,
                                     std::uint32_t rr) {
  for (const bool escape : {false, true}) {
    std::vector<std::size_t> tier;  // candidate indices, route order
    for (std::size_t i = 0; i < route.candidates.size(); ++i) {
      if (route.candidates[i].escape == escape) tier.push_back(i);
    }
    const auto free_usable = [&](std::size_t i) {
      const Candidate& c = route.candidates[i];
      std::vector<std::uint8_t> vcs;
      for (std::uint8_t v = 0; v < 8; ++v) {
        if (((row[c.channel] >> v) & 1u) && ((c.vc_mask >> v) & 1u)) {
          vcs.push_back(v);
        }
      }
      return vcs;
    };
    std::vector<std::size_t> order = tier;
    if (policy != SelectionPolicy::FirstFit && !tier.empty()) {
      for (std::size_t j = 0; j < tier.size(); ++j) {
        order[j] = tier[(j + rr) % tier.size()];
      }
    }
    std::optional<Pick> best;
    std::size_t best_free = 0;
    for (const std::size_t i : order) {
      const auto vcs = free_usable(i);
      if (vcs.empty()) continue;
      const Candidate& c = route.candidates[i];
      if (policy != SelectionPolicy::MaxFreeVcs) {
        return Pick{c.channel, vcs.front(), c.escape};
      }
      if (vcs.size() > best_free) {
        best_free = vcs.size();
        best = Pick{c.channel, vcs.front(), c.escape};
      }
    }
    if (best) return best;
  }
  return std::nullopt;
}

class SelectionPropertyTest : public ::testing::TestWithParam<SelectionPolicy> {
};

TEST_P(SelectionPropertyTest, PicksAreAlwaysAdmissible) {
  const Selector sel(GetParam());
  util::Rng rng(1234);
  constexpr unsigned kVcs = 3;
  for (int iter = 0; iter < 5000; ++iter) {
    std::uint8_t row[kChannels] = {};
    RouteResult route;
    const unsigned num_cands = 1 + static_cast<unsigned>(rng.below(6));
    bool feasible = false;
    for (unsigned i = 0; i < num_cands; ++i) {
      const auto ch = static_cast<topo::ChannelId>(i);
      const auto vc_mask =
          static_cast<std::uint32_t>(rng.between(1, (1u << kVcs) - 1));
      const auto free =
          static_cast<std::uint32_t>(rng.below(1u << kVcs));
      row[i] = static_cast<std::uint8_t>(free);
      // Escape candidates must come last; make the final one escape
      // half the time.
      const bool escape = (i == num_cands - 1) && rng.bernoulli(0.5);
      route.candidates.push_back({ch, vc_mask, escape});
      route.useful_phys_mask |= 1u << ch;
      feasible |= (vc_mask & free) != 0;
    }
    const auto rr = static_cast<std::uint32_t>(rng.below(16));
    const auto pick = sel.select(route, row, rr);
    ASSERT_EQ(pick.has_value(), feasible) << "iteration " << iter;
    if (pick) {
      // The picked VC must be free and usable on the picked channel.
      const Candidate* cand = nullptr;
      for (const auto& c : route.candidates) {
        if (c.channel == pick->channel && c.escape == pick->escape) cand = &c;
      }
      ASSERT_NE(cand, nullptr);
      EXPECT_TRUE(cand->vc_mask & (1u << pick->vc));
      EXPECT_TRUE(row[pick->channel] & (1u << pick->vc));
    }
  }
}

TEST_P(SelectionPropertyTest, EscapeOnlyChosenWhenNoAdaptiveOption) {
  const Selector sel(GetParam());
  util::Rng rng(99);
  for (int iter = 0; iter < 2000; ++iter) {
    std::uint8_t row[kChannels] = {};
    RouteResult route;
    const auto adaptive_free = static_cast<std::uint8_t>(rng.below(8));
    row[0] = adaptive_free;
    row[2] = 0b111;
    route.candidates.push_back({0, 0b111, false});
    route.candidates.push_back({2, 0b011, true});
    route.useful_phys_mask = 0b101;
    const auto pick = sel.select(route, row, static_cast<std::uint32_t>(iter));
    ASSERT_TRUE(pick.has_value());
    if (adaptive_free != 0) {
      EXPECT_FALSE(pick->escape) << "adaptive VC was free but escape taken";
    } else {
      EXPECT_TRUE(pick->escape);
    }
  }
}

/// Property: Selector::select (the only implementation, run by both
/// simulation cores) returns the identical Pick — channel, VC and
/// escape flag — as the brute-force reference selector for random
/// candidate sets, masks and round-robin states.
TEST_P(SelectionPropertyTest, RowOverloadMatchesVirtualView) {
  const Selector sel(GetParam());
  util::Rng rng(0x5E1);
  constexpr unsigned kVcs = 3;
  for (int iter = 0; iter < 5000; ++iter) {
    std::uint8_t row[kChannels] = {};
    RouteResult route;
    const unsigned num_cands =
        1 + static_cast<unsigned>(rng.below(kChannels));
    for (unsigned i = 0; i < num_cands; ++i) {
      const auto ch = static_cast<topo::ChannelId>(i);
      const auto vc_mask =
          static_cast<std::uint32_t>(rng.between(1, (1u << kVcs) - 1));
      row[i] = static_cast<std::uint8_t>(rng.below(1u << kVcs));
      const bool escape = (i == num_cands - 1) && rng.bernoulli(0.5);
      route.candidates.push_back({ch, vc_mask, escape});
      route.useful_phys_mask |= 1u << i;
    }
    const auto rr = static_cast<std::uint32_t>(rng.below(16));
    const auto want = reference_select(GetParam(), route, row, rr);
    const auto got = sel.select(route, row, rr);
    ASSERT_EQ(want.has_value(), got.has_value()) << "iter " << iter;
    if (want) {
      ASSERT_EQ(want->channel, got->channel) << "iter " << iter;
      ASSERT_EQ(want->vc, got->vc) << "iter " << iter;
      ASSERT_EQ(want->escape, got->escape) << "iter " << iter;
    }
  }
}

/// The rotated scan computes its start once and advances with
/// increment-with-wrap; its picks must equal the per-candidate modulo
/// formula (the reference) at the rotation's edge states — rr_state 0,
/// 1, count-1, count and 2^32-1 — for 1 to 6 candidates, both for a
/// range starting at candidate 0 and for an escape range behind an
/// unusable adaptive candidate. Every candidate's free mask runs over
/// {none, 1, 2, 3 free VCs}, so MaxFreeVcs sees both ties and strict
/// winners.
TEST_P(SelectionPropertyTest, RotationMatchesModuloFormulaAtEdgeStates) {
  const Selector sel(GetParam());
  constexpr std::uint8_t kFree[] = {0b000, 0b001, 0b011, 0b111};
  for (unsigned count = 1; count <= kChannels; ++count) {
    const std::uint32_t states[] = {0, 1, count - 1, count, 0xFFFFFFFFu};
    for (const bool behind_adaptive : {false, true}) {
      RouteResult route;
      if (behind_adaptive) {
        route.candidates.push_back({0, 0, false});  // never usable
      }
      for (unsigned i = 0; i < count; ++i) {
        route.candidates.push_back(
            {static_cast<topo::ChannelId>(i), 0b111, behind_adaptive});
        route.useful_phys_mask |= 1u << i;
      }
      unsigned combos = 1;
      for (unsigned i = 0; i < count; ++i) combos *= 4;
      for (unsigned combo = 0; combo < combos; ++combo) {
        std::uint8_t row[kChannels] = {};
        for (unsigned i = 0, c = combo; i < count; ++i, c /= 4) {
          row[i] = kFree[c % 4];
        }
        for (const std::uint32_t rr : states) {
          const auto want = reference_select(GetParam(), route, row, rr);
          const auto got = sel.select(route, row, rr);
          ASSERT_EQ(want.has_value(), got.has_value())
              << "count " << count << " rr " << rr << " combo " << combo;
          if (want) {
            ASSERT_EQ(want->channel, got->channel)
                << "count " << count << " rr " << rr << " combo " << combo;
            ASSERT_EQ(want->vc, got->vc);
            ASSERT_EQ(want->escape, got->escape);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, SelectionPropertyTest,
                         ::testing::Values(SelectionPolicy::MaxFreeVcs,
                                           SelectionPolicy::FirstFit,
                                           SelectionPolicy::RoundRobin));

}  // namespace
}  // namespace wormsim::routing
