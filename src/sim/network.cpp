#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace wormsim::sim {

Network::Network(const topo::KAryNCube& topo, const NetworkParams& params)
    : topo_(&topo), params_(params) {
  if (params.num_vcs < 1 || params.num_vcs > 8) {
    throw std::invalid_argument("num_vcs must be in [1, 8]");
  }
  if (params.buf_flits < 1 || params.buf_flits > 255) {
    throw std::invalid_argument("buf_flits must be in [1, 255]");
  }
  if (params.inj_channels < 1 || params.eje_channels < 1) {
    throw std::invalid_argument("need >= 1 injection and ejection channel");
  }
  if (params.link_delay < 1 || params.link_delay > InFlightQueue::kMaxDelay) {
    throw std::invalid_argument("link_delay out of range");
  }

  const NodeId nodes = topo.num_nodes();
  num_net_links_ = nodes * topo.num_channels();
  num_inj_links_ = nodes * params.inj_channels;
  const std::uint64_t slots =
      std::uint64_t{num_net_links_} * params.num_vcs + num_inj_links_;
  if (slots >= kNoSlot) {
    throw std::invalid_argument("too many VC slots for 32-bit slot ids");
  }
  net_vc_count_ = num_net_links_ * params.num_vcs;

  links_.resize(num_net_links_ + num_inj_links_);
  vcs_.resize(slots);
  header_arrival_.assign(slots, 0);
  eject_.resize(static_cast<std::size_t>(nodes) * params.eje_channels);
  free_mask_.assign(num_net_links_,
                    static_cast<std::uint8_t>((1u << params.num_vcs) - 1u));
  vc_field_.assign(num_net_links_,
                   static_cast<std::uint8_t>((1u << params.num_vcs) - 1u));
  link_epoch_.assign(num_net_links_, 0);
  tenant_links_.reset(num_net_links_);
  arrival_links_.reset(num_net_links_);
  waiters_.assign(num_net_links_, 0);
  park_bit_.assign(slots, 0);
  route_park_.assign(slots, RoutePark::Awake);
  park_cands_.assign(slots, 0);
  in_links_.assign(num_net_links_, kNoLink);

  for (NodeId node = 0; node < nodes; ++node) {
    for (unsigned c = 0; c < topo.num_channels(); ++c) {
      Link& l = links_[net_link(node, static_cast<ChannelId>(c))];
      l.src = node;
      l.src_channel = static_cast<ChannelId>(c);
      l.dst = topo.neighbor(node, static_cast<ChannelId>(c));
    }
    for (unsigned i = 0; i < params.inj_channels; ++i) {
      Link& l = links_[inj_link(node, i)];
      l.src = topo::kInvalidNode;
      l.dst = node;
    }
  }
  // Incoming links per node (every node of a k-ary n-cube has exactly
  // num_channels of them) and each input VC's waiter bit.
  vc_shift_ = static_cast<unsigned>(std::bit_width(params.num_vcs - 1u));
  const unsigned chans = topo.num_channels();
  std::vector<unsigned> filled(nodes, 0);
  for (LinkId l = 0; l < num_net_links_; ++l) {
    const NodeId to = links_[l].dst;
    assert(filled[to] < chans);
    const unsigned port = filled[to]++;
    in_links_[static_cast<std::size_t>(to) * chans + port] = l;
    for (unsigned v = 0; v < params.num_vcs; ++v) {
      park_bit_[l * params.num_vcs + v] = static_cast<std::uint8_t>(
          std::min(port << vc_shift_ | v, kSharedBit));
    }
  }
  for (NodeId node = 0; node < nodes; ++node) {
    for (unsigned i = 0; i < params.inj_channels; ++i) {
      park_bit_[net_vc_count_ + node * params.inj_channels + i] =
          static_cast<std::uint8_t>(
              std::min((chans << vc_shift_) + i, kSharedBit));
    }
  }
}

void Network::wake_waiters(LinkId link) noexcept {
  const NodeId node = links_[link].src;
  const std::uint32_t channel = 1u << links_[link].src_channel;
  const std::uint32_t waiting = waiters_[link];
  if (waiting & kGateWaiter) {
    std::uint32_t* row = waiters_.data() + net_link(node, 0);
    for (unsigned c = 0; c < topo_->num_channels(); ++c) row[c] &= ~kGateWaiter;
  }
  waiters_[link] = 0;
  // A bit may outlive its header's wait (it woke through another link
  // and parked again elsewhere), so wake only headers still parked on
  // this channel.
  const auto wake = [&](VcSlot slot) {
    if (route_park_[slot] != RoutePark::Awake &&
        (park_cands_[slot] & channel) != 0) {
      route_park_[slot] = RoutePark::Awake;
    }
  };
  for (std::uint32_t m = waiting & ~kGateWaiter; m != 0; m &= m - 1) {
    const auto bit = static_cast<unsigned>(std::countr_zero(m));
    if (bit < kSharedBit) {
      wake(input_slot(node, bit));
      continue;
    }
    const unsigned net_inputs = topo_->num_channels() << vc_shift_;
    for (unsigned i = kSharedBit; i < net_inputs + params_.inj_channels; ++i) {
      if (i >= net_inputs || (i & ((1u << vc_shift_) - 1u)) < params_.num_vcs) {
        wake(input_slot(node, i));
      }
    }
  }
}

void Network::wake_all_parked() noexcept {
  std::fill(waiters_.begin(), waiters_.end(), 0u);
  std::fill(route_park_.begin(), route_park_.end(), RoutePark::Awake);
}

int Network::find_free_eject_port(NodeId node) const noexcept {
  for (unsigned p = 0; p < params_.eje_channels; ++p) {
    if (!eject_port(node, p).busy()) return static_cast<int>(p);
  }
  return -1;
}

int Network::find_free_inj_channel(NodeId node) const noexcept {
  const VcState* row = inj_vc_row(node);
  for (unsigned i = 0; i < params_.inj_channels; ++i) {
    if (row[i].free()) return static_cast<int>(i);
  }
  return -1;
}

bool Network::quiescent() const noexcept {
  for (const auto& l : links_) {
    if (l.active_vc_mask != 0 || !l.in_flight.empty()) return false;
  }
  for (const auto& p : eject_) {
    if (p.busy()) return false;
  }
  return true;
}

std::uint64_t Network::flits_in_network() const noexcept {
  std::uint64_t total = 0;
  for (const auto& v : vcs_) {
    if (!v.free()) total += v.buffered;
  }
  for (const auto& l : links_) total += l.in_flight.size();
  return total;
}

void Network::allocate_out_vc(VcSlot from, VcRef out, MsgId msg,
                              Cycle now) noexcept {
  const VcSlot out_slot = vc_flat_index(out);
  VcState& upstream = vcs_[from];
  VcState& downstream = vcs_[out_slot];
  assert(downstream.free() && downstream.occupancy == 0);
  downstream.clear();
  downstream.msg = msg;
  downstream.msg_length = upstream.msg_length;  // propagate down the worm
  downstream.upstream = from;
  downstream.last_activity = now;  // fresh tenancy counts as activity
  upstream.out_kind = VcState::OutKind::Vc;
  upstream.out = out_slot;
  set_active(out, true);
}

void Network::bind_eject(VcSlot from, NodeId node, unsigned port,
                         MsgId msg) noexcept {
  VcState& upstream = vcs_[from];
  EjectPort& p = eject_port(node, port);
  assert(!p.busy());
  p.msg = msg;
  p.src = from;
  upstream.out_kind = VcState::OutKind::Eject;
  upstream.eject_port = static_cast<std::uint8_t>(port);
}

unsigned Network::absorb_drop(LinkId link, MsgId msg) noexcept {
  Link& l = links_[link];
  const unsigned dropped = l.in_flight.drop_message(msg);
  if (l.in_flight.empty() && link < num_net_links_) {
    arrival_links_.erase(link);
  }
  return dropped;
}

void Network::force_free(VcRef ref) noexcept {
  VcState& v = vc(ref);
  if (v.out_kind == VcState::OutKind::Vc && vcs_[v.out].msg == v.msg) {
    vcs_[v.out].upstream = kNoSlot;
  }
  set_active(ref, false);
  v.clear();
}

}  // namespace wormsim::sim
