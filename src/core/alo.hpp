// ALO ("At Least One") — the paper's injection limitation mechanism.
#pragma once

#include <cstdint>

#include "core/limiter.hpp"

namespace wormsim::core {

/// Decomposed evaluation of the two ALO rules, reusable by the Figure-2
/// routing-occurrence probe and by tests.
struct AloConditions {
  bool all_useful_partially_free = false;  // rule (a)
  bool any_useful_completely_free = false;  // rule (b)
  bool allow() const noexcept {
    return all_useful_partially_free || any_useful_completely_free;
  }
};

/// Evaluate both rules on one node's free-VC row (`free_row[c]` = free
/// mask of physical channel c, see ChannelStatus::free_row) given the
/// useful-physical-channel mask produced by the routing function. A
/// mask of zero (no useful channels, i.e. message already at
/// destination) permits injection vacuously. This is the paper's
/// formulation, which (its footnote 1) assumes every VC of a physical
/// channel is usable by the message — true for TFAR.
AloConditions evaluate_alo(const std::uint8_t* free_row, unsigned num_vcs,
                           std::uint32_t useful_phys_mask);

/// Routing-aware generalization: rule (a) checks each useful physical
/// channel for a free VC *among the VCs the routing function actually
/// offers on it* (the union of candidate vc_masks), while rule (b)
/// keeps its physical meaning (every VC of the channel free). For TFAR
/// the candidate masks cover all VCs and this reduces exactly to
/// evaluate_alo(); for restricted routing (e.g. Duato's protocol, where
/// escape VCs are usable only on the DOR channel) it prevents
/// permanently-idle escape VCs from masking congestion.
AloConditions evaluate_alo_routed(const std::uint8_t* free_row,
                                  unsigned num_vcs,
                                  const routing::RouteResult& route);

class AloLimiter final : public InjectionLimiter {
 public:
  bool allow(const InjectionRequest& req, const ChannelStatus& status) override;
  LimiterKind kind() const noexcept override { return LimiterKind::ALO; }
};

}  // namespace wormsim::core
