#include "sim/flow_control.hpp"

#include <stdexcept>

#include "sim/network.hpp"

namespace wormsim::sim {

FlowControl parse_flow_control(std::string_view name) {
  if (name == "wormhole") return FlowControl::Wormhole;
  if (name == "credit") return FlowControl::Credit;
  if (name == "vct") return FlowControl::Vct;
  throw std::invalid_argument(
      "unknown flow-control scheme (wormhole|credit|vct): " +
      std::string(name));
}

std::string_view flow_control_name(FlowControl scheme) noexcept {
  switch (scheme) {
    case FlowControl::Wormhole: return "wormhole";
    case FlowControl::Credit: return "credit";
    case FlowControl::Vct: return "vct";
  }
  return "unknown";
}

CreditChannelStatus::CreditChannelStatus(const Network& net,
                                         const CreditFlowControl& credit)
    : net_(&net), credit_(&credit), scratch_(net.num_phys_channels()) {}

unsigned CreditChannelStatus::num_phys_channels() const {
  return net_->num_phys_channels();
}

unsigned CreditChannelStatus::num_vcs() const { return net_->num_vcs(); }

const std::uint8_t* CreditChannelStatus::free_row_into(
    core::NodeId node, std::uint8_t* out) const {
  const unsigned vcs = net_->num_vcs();
  credit_->filter_free_row(
      net_->free_mask_row(node),
      static_cast<std::size_t>(net_->net_link(node, 0)) * vcs,
      net_->num_phys_channels(), vcs, out);
  return out;
}

namespace {

bool fail(std::string* why, const std::string& msg) {
  if (why) *why = msg;
  return false;
}

/// Buffer sanity every scheme guarantees: no VC holds more flits than
/// its capacity, counters never run backwards (no more flits entered
/// than the message has), and the credit-tracked occupancy covers
/// everything actually buffered.
bool check_buffers(const Network& net, std::string* why) {
  const unsigned cap = net.params().buf_flits;
  const unsigned vcs = net.params().num_vcs;
  for (LinkId l = 0; l < net.num_net_links(); ++l) {
    for (unsigned v = 0; v < vcs; ++v) {
      const VcState& w = net.vc({l, static_cast<std::uint8_t>(v)});
      if (w.occupancy > cap) {
        return fail(why, "buffer overflow: occupancy " +
                             std::to_string(w.occupancy) + " > cap " +
                             std::to_string(cap) + " at link " +
                             std::to_string(l) + " vc " + std::to_string(v));
      }
      // A buffer drained below empty wraps its one-byte count, which
      // shows as more flits entered than the message has.
      if (w.in_count() > w.msg_length) {
        return fail(why, "buffer underflow: in_count " +
                             std::to_string(w.in_count()) + " > msg_length " +
                             std::to_string(w.msg_length) + " at link " +
                             std::to_string(l) + " vc " + std::to_string(v));
      }
      if (w.buffered > w.occupancy) {
        return fail(why, "occupancy undercounts buffered flits at link " +
                             std::to_string(l) + " vc " + std::to_string(v));
      }
    }
  }
  return true;
}

}  // namespace

bool FlowControlScheme::check(const Network& net, std::string* why) const {
  return check_buffers(net, why);
}

bool CreditFlowControl::check(const Network& net, std::string* why) const {
  if (!check_buffers(net, why)) return false;
  const unsigned cap = net.params().buf_flits;
  const unsigned vcs = net.params().num_vcs;
  // Credit conservation per network slot: credits consumed equal the
  // flits the downstream buffer still accounts for (buffered plus in
  // flight toward it) plus the returns currently on the wire for the
  // live generation.
  const std::size_t net_slots =
      static_cast<std::size_t>(net.num_net_links()) * vcs;
  std::vector<std::uint32_t> pending(net_slots, 0);
  for (const PendingReturn& r : returns_) {
    if (r.slot < net_slots && gen_[r.slot] == r.gen) ++pending[r.slot];
  }
  for (std::size_t slot = 0; slot < net_slots; ++slot) {
    const auto l = static_cast<LinkId>(slot / vcs);
    const auto v = static_cast<std::uint8_t>(slot % vcs);
    const VcState& w = net.vc({l, v});
    if (in_use_[slot] > cap) {
      return fail(why, "credit overdraft: in_use " +
                           std::to_string(in_use_[slot]) + " > cap " +
                           std::to_string(cap) + " at link " +
                           std::to_string(l) + " vc " + std::to_string(v));
    }
    const std::uint32_t expected = w.occupancy + pending[slot];
    if (in_use_[slot] != expected) {
      return fail(why, "credit conservation violated at link " +
                           std::to_string(l) + " vc " + std::to_string(v) +
                           ": in_use " + std::to_string(in_use_[slot]) +
                           " != occupancy " + std::to_string(w.occupancy) +
                           " + pending returns " +
                           std::to_string(pending[slot]));
    }
  }
  // Injection buffers live outside the credit loop.
  for (std::size_t slot = net_slots; slot < in_use_.size(); ++slot) {
    if (in_use_[slot] != 0) {
      return fail(why, "injection slot " + std::to_string(slot) +
                           " acquired credits");
    }
  }
  return true;
}

std::unique_ptr<FlowControlScheme> make_flow_control(
    const FlowControlConfig& cfg, std::size_t num_slots) {
  switch (cfg.scheme) {
    case FlowControl::Wormhole:
      return std::make_unique<WormholeFlowControl>();
    case FlowControl::Credit:
      return std::make_unique<CreditFlowControl>(num_slots,
                                                 cfg.credit_return_delay);
    case FlowControl::Vct:
      return std::make_unique<VctFlowControl>();
  }
  throw std::invalid_argument("invalid flow-control scheme");
}

}  // namespace wormsim::sim
