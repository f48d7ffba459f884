#include "core/dril.hpp"

#include <algorithm>
#include <bit>

namespace wormsim::core {

DrilLimiter::DrilLimiter(NodeId num_nodes, std::uint64_t detect_wait,
                         unsigned margin, std::uint64_t relax_period,
                         unsigned /*num_vcs_hint*/)
    : detect_wait_(detect_wait),
      margin_(margin),
      relax_period_(relax_period == 0 ? 1 : relax_period),
      state_(num_nodes) {}

unsigned DrilLimiter::busy_total(const std::uint8_t* free_row,
                                 unsigned num_phys, unsigned num_vcs) {
  const std::uint32_t vc_field = (1u << num_vcs) - 1u;
  unsigned busy = 0;
  for (unsigned c = 0; c < num_phys; ++c) {
    busy += num_vcs - static_cast<unsigned>(std::popcount(
                          free_row[c] & vc_field));
  }
  return busy;
}

bool DrilLimiter::allow(const InjectionRequest& req,
                        const ChannelStatus& status) {
  NodeState& st = state_[req.node];
  // Unrestricted until saturation is detected.
  if (!st.frozen && req.head_wait <= detect_wait_) return true;

  const unsigned num_phys = status.num_phys_channels();
  const unsigned num_vcs = status.num_vcs();
  const unsigned total_vcs = num_phys * num_vcs;
  const unsigned busy =
      busy_total(status.free_row(req.node), num_phys, num_vcs);
  if (!st.frozen) {
    // Entering saturation: freeze the threshold at the busy count seen
    // right now, minus the safety margin.
    st.frozen = true;
    st.threshold = busy > margin_ ? busy - margin_ : 1;
    st.threshold = std::max(1u, std::min(st.threshold, total_vcs));
    st.last_relax = req.cycle;
  }

  // Periodic relaxation; unfreeze once fully relaxed.
  while (req.cycle - st.last_relax >= relax_period_) {
    st.last_relax += relax_period_;
    if (++st.threshold >= total_vcs) {
      st.frozen = false;
      return true;
    }
  }

  return busy < st.threshold;
}

void DrilLimiter::reset() {
  for (auto& st : state_) st = NodeState{};
}

}  // namespace wormsim::core
