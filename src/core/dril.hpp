// DRIL — Dynamically Reduced Injection Limitation [López, Martínez,
// Duato: ICPP'98].
//
// Each node starts unrestricted. When it first observes the network
// entering saturation (here: the head of its source queue has waited
// more than `detect_wait` cycles), it freezes a personal threshold equal
// to the busy output-VC count sampled at that moment minus a margin, and
// from then on injects only while the current busy count stays below the
// frozen threshold. Every `relax_period` cycles a frozen node relaxes
// its threshold by one; reaching the total VC count unfreezes it.
//
// Because nodes freeze at different times they end up with different
// thresholds: nodes that freeze early restrict themselves harder, reduce
// traffic in their area, and let later nodes freeze looser thresholds —
// exactly the unfairness the paper reports in Figure 4 ("some nodes may
// begin to apply strict restrictions before others do").
#pragma once

#include <vector>

#include "core/limiter.hpp"

namespace wormsim::core {

class DrilLimiter final : public InjectionLimiter {
 public:
  DrilLimiter(NodeId num_nodes, std::uint64_t detect_wait, unsigned margin,
              std::uint64_t relax_period, unsigned num_vcs_hint = 0);

  bool allow(const InjectionRequest& req, const ChannelStatus& status) override;
  void reset() override;
  bool reads_route() const noexcept override { return false; }
  LimiterKind kind() const noexcept override { return LimiterKind::DRIL; }

  /// Introspection for tests and the fairness study.
  bool frozen(NodeId node) const { return state_[node].frozen; }
  unsigned threshold(NodeId node) const { return state_[node].threshold; }

  /// Busy count over ALL output VCs of one node's free-VC row (DRIL
  /// monitors total occupancy, not just useful channels).
  static unsigned busy_total(const std::uint8_t* free_row, unsigned num_phys,
                             unsigned num_vcs);

 private:
  struct NodeState {
    bool frozen = false;
    unsigned threshold = 0;
    std::uint64_t last_relax = 0;
  };

  std::uint64_t detect_wait_;
  unsigned margin_;
  std::uint64_t relax_period_;
  std::vector<NodeState> state_;
};

}  // namespace wormsim::core
