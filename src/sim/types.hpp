// Shared simulator identifiers.
#pragma once

#include <cstdint>

#include "topology/kary_ncube.hpp"

namespace wormsim::sim {

using topo::ChannelId;
using topo::NodeId;
using Cycle = std::uint64_t;
using MsgId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr MsgId kNoMsg = ~MsgId{0};
inline constexpr LinkId kNoLink = ~LinkId{0};

/// Flat index of one VC buffer in the Network's VcState array (see
/// Network::vc_flat_index): the 4-byte form hot state stores.
using VcSlot = std::uint32_t;
inline constexpr VcSlot kNoSlot = ~VcSlot{0};

/// Reference to one virtual-channel buffer anywhere in the system
/// (network input VC or injection VC; the link index space distinguishes
/// them — see Network).
struct VcRef {
  LinkId link = kNoLink;
  std::uint8_t vc = 0;

  bool valid() const noexcept { return link != kNoLink; }
  friend bool operator==(const VcRef& a, const VcRef& b) noexcept {
    return a.link == b.link && a.vc == b.vc;
  }
};

}  // namespace wormsim::sim
