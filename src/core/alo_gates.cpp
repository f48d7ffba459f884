#include "core/alo_gates.hpp"

#include <stdexcept>

namespace wormsim::core {

AloGateCircuit::AloGateCircuit(unsigned num_channels, unsigned num_vcs)
    : channels_(num_channels), vcs_(num_vcs) {
  if (num_channels == 0 || num_vcs == 0 ||
      num_channels * num_vcs > 64 || num_channels > 32) {
    throw std::invalid_argument(
        "AloGateCircuit supports up to 32 channels and 64 total VCs");
  }
}

AloGateCircuit::Wires AloGateCircuit::trace(std::uint64_t busy_bits,
                                            std::uint32_t useful_mask) const {
  Wires w;
  const std::uint64_t vc_field = (vcs_ >= 64) ? ~0ULL : ((1ULL << vcs_) - 1);
  for (unsigned c = 0; c < channels_; ++c) {
    const std::uint64_t busy = (busy_bits >> (c * vcs_)) & vc_field;
    const std::uint64_t free = ~busy & vc_field;
    if (free != 0) w.c_gates |= 1u << c;          // C: OR of free bits
    if (free == vc_field) w.d_gates |= 1u << c;   // D: AND of free bits
  }
  const std::uint32_t chan_field = (1u << channels_) - 1u;
  useful_mask &= chan_field;
  w.b_gates = (w.c_gates | ~useful_mask) & chan_field;  // B: C OR NOT useful
  w.e_gates = w.d_gates & useful_mask;                  // E: D AND useful
  w.a_gate = w.b_gates == chan_field;                   // A: AND reduction
  w.f_gate = w.e_gates != 0;                            // F: OR reduction
  w.g_gate = w.a_gate || w.f_gate;                      // G
  return w;
}

bool AloGateCircuit::evaluate(std::uint64_t busy_bits,
                              std::uint32_t useful_mask) const {
  return trace(busy_bits, useful_mask).g_gate;
}

unsigned AloGateCircuit::gate_count() const noexcept {
  // Two-input-gate equivalents per stage:
  //   C_c: (vcs-1) OR gates per channel (after inverting busy bits;
  //        inverters counted once per VC bit).
  //   D_c: (vcs-1) AND gates per channel.
  //   B_c: 1 OR + 1 NOT per channel. E_c: 1 AND per channel.
  //   A: (channels-1) ANDs. F: (channels-1) ORs. G: 1 OR.
  const unsigned inverters = channels_ * vcs_;
  const unsigned c_gates = channels_ * (vcs_ - 1);
  const unsigned d_gates = channels_ * (vcs_ - 1);
  const unsigned be_gates = channels_ * 3;
  const unsigned reductions = 2 * (channels_ - 1) + 1;
  return inverters + c_gates + d_gates + be_gates + reductions;
}

std::uint64_t AloGateCircuit::pack_busy_bits(const ChannelStatus& status,
                                             NodeId node) {
  const unsigned vcs = status.num_vcs();
  const std::uint64_t vc_field = (1ULL << vcs) - 1;
  const std::uint8_t* row = status.free_row(node);
  std::uint64_t bits = 0;
  for (unsigned c = 0; c < status.num_phys_channels(); ++c) {
    const std::uint64_t free = row[c];
    bits |= ((~free) & vc_field) << (c * vcs);
  }
  return bits;
}

}  // namespace wormsim::core
