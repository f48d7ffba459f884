#include "routing/routing_lut.hpp"

#include <limits>
#include <stdexcept>

namespace wormsim::routing {

using topo::ChannelId;
using topo::NodeId;

RoutingLut::RoutingLut(const RoutingFunction& fn, const topo::KAryNCube& topo)
    : topo_(&topo),
      algo_(fn.algorithm()),
      num_vcs_(fn.num_vcs()),
      nodes_(topo.num_nodes()),
      dims_(topo.dims()),
      radix_(topo.radix()),
      digits_(static_cast<std::size_t>(nodes_) * dims_) {
  for (NodeId node = 0; node < nodes_; ++node) {
    const topo::Coords c = topo.coords_of(node);
    for (unsigned d = 0; d < dims_; ++d) {
      digits_[static_cast<std::size_t>(node) * dims_ + d] = c[d];
    }
  }
}

void RoutingLut::rebuild(const topo::FaultMask* faults) {
  if (faults == nullptr || !faults->any()) {
    // Healthy again: the computed words are the original routes.
    std::vector<Word>().swap(entries_);
    return;
  }
  if (algo_ != Algorithm::TFAR) {
    throw std::invalid_argument(
        "RoutingLut::rebuild: fault-aware routes require TFAR (deterministic "
        "algorithms have no alternative paths to bend around faults)");
  }
  const std::size_t pairs =
      static_cast<std::size_t>(nodes_) * static_cast<std::size_t>(nodes_);
  if (pairs > kMaxEntries) {
    throw std::invalid_argument(
        "RoutingLut::rebuild: network too large for the fault-aware route "
        "table");
  }
  entries_.resize(pairs);

  // One reverse BFS per destination over the alive graph. On a healthy
  // torus the BFS distance equals the minimal hop distance, so the
  // useful mask below coincides with TFAR's minimal-channel mask; dead
  // components simply drop out of the frontier.
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  const unsigned channels = topo_->num_channels();
  std::vector<std::uint32_t> dist(nodes_);
  std::vector<NodeId> frontier;
  std::vector<NodeId> next;
  for (NodeId dst = 0; dst < nodes_; ++dst) {
    dist.assign(nodes_, kInf);
    frontier.clear();
    if (!faults->node_dead(dst)) {
      dist[dst] = 0;
      frontier.push_back(dst);
    }
    std::uint32_t depth = 0;
    while (!frontier.empty()) {
      ++depth;
      next.clear();
      for (const NodeId u : frontier) {
        for (unsigned c = 0; c < channels; ++c) {
          // Expanding backwards along (v -> u) uses the same edge set:
          // kills are symmetric, so alive(u, c) iff alive(v, c ^ 1).
          if (faults->link_dead(u, static_cast<ChannelId>(c))) continue;
          const NodeId v = topo_->neighbor(u, static_cast<ChannelId>(c));
          if (dist[v] != kInf) continue;
          dist[v] = depth;
          next.push_back(v);
        }
      }
      frontier.swap(next);
    }
    for (NodeId here = 0; here < nodes_; ++here) {
      Word& e = entries_[static_cast<std::size_t>(here) * nodes_ + dst];
      e.det_channel = 0;
      e.det_class = 0;
      std::uint32_t useful = 0;
      if (here != dst && dist[here] != kInf &&
          !faults->node_dead(here)) {
        for (unsigned c = 0; c < channels; ++c) {
          if (faults->link_dead(here, static_cast<ChannelId>(c))) continue;
          const NodeId v = topo_->neighbor(here, static_cast<ChannelId>(c));
          if (dist[v] != kInf && dist[v] + 1 == dist[here]) {
            useful |= 1u << c;
          }
        }
      }
      e.useful = static_cast<std::uint16_t>(useful);  // 0 = unreachable
    }
  }
}

void RoutingLut::expand(Word e, RouteResult& out) const {
  out.clear();
  const std::uint32_t mask = e.useful;
  out.useful_phys_mask = mask;
  const std::uint32_t all_vcs = (1u << num_vcs_) - 1u;
  switch (algo_) {
    case Algorithm::TFAR: {
      for (std::uint32_t m = mask; m != 0; m &= m - 1) {
        const auto c = static_cast<ChannelId>(
            __builtin_ctz(m));  // ascending channel order
        out.candidates.push_back({c, all_vcs, /*escape=*/false});
      }
      break;
    }
    case Algorithm::DOR: {
      const std::uint32_t vcs = e.det_class == 0 ? 0b1u : (all_vcs & ~0b1u);
      out.candidates.push_back({e.det_channel, vcs, /*escape=*/false});
      break;
    }
    case Algorithm::Duato: {
      const std::uint32_t adaptive = all_vcs & ~0b11u;
      for (std::uint32_t m = mask; m != 0; m &= m - 1) {
        const auto c = static_cast<ChannelId>(__builtin_ctz(m));
        out.candidates.push_back({c, adaptive, /*escape=*/false});
      }
      const std::uint32_t esc_vcs = e.det_class == 0 ? 0b01u : 0b10u;
      out.candidates.push_back({e.det_channel, esc_vcs, /*escape=*/true});
      break;
    }
  }
}

}  // namespace wormsim::routing
