// Gate-level model of the paper's Figure 3 hardware implementation of
// the ALO mechanism.
//
// The circuit takes the virtual-channel status register (one busy bit
// per VC) and the routing function's useful-channel vector, and computes
// INJECTION PERMITTED through seven gate stages:
//
//   C_c = OR over v of FREE(c, v)     -- channel c has >= 1 free VC
//   D_c = AND over v of FREE(c, v)    -- channel c is completely free
//   B_c = C_c OR NOT USEFUL_c         -- mask rule (a) to useful channels
//   E_c = D_c AND USEFUL_c            -- mask rule (b) to useful channels
//   A   = AND over c of B_c           -- rule (a): all useful partially free
//   F   = OR  over c of E_c           -- rule (b): some useful completely free
//   G   = A OR F                      -- injection permitted
//
// This model exists to (1) document the hardware cost claimed in the
// paper — pure combinational logic, no registers or comparators — and
// (2) be property-tested for equivalence against the behavioural
// predicate in alo.hpp. It also reports a gate inventory.
#pragma once

#include <cstdint>

#include "core/limiter.hpp"

namespace wormsim::core {

/// Combinational evaluation of the Figure-3 circuit.
///
/// `busy_bits` packs the VC status register: bit (c * num_vcs + v) set
/// means VC v of physical channel c is busy. `useful_mask` has bit c set
/// for useful physical channels. Supports num_channels * num_vcs <= 64.
class AloGateCircuit {
 public:
  AloGateCircuit(unsigned num_channels, unsigned num_vcs);

  /// Value of the G gate: injection permitted.
  bool evaluate(std::uint64_t busy_bits, std::uint32_t useful_mask) const;

  /// Intermediate wires, for the gate-level tests.
  struct Wires {
    std::uint32_t c_gates = 0;  // per-channel "has a free VC"
    std::uint32_t d_gates = 0;  // per-channel "completely free"
    std::uint32_t b_gates = 0;
    std::uint32_t e_gates = 0;
    bool a_gate = false;
    bool f_gate = false;
    bool g_gate = false;
  };
  Wires trace(std::uint64_t busy_bits, std::uint32_t useful_mask) const;

  /// Two-input-gate-equivalent count of the circuit, substantiating the
  /// paper's "only some logic gates are required" cost claim.
  unsigned gate_count() const noexcept;

  unsigned num_channels() const noexcept { return channels_; }
  unsigned num_vcs() const noexcept { return vcs_; }

  /// Pack one node's ChannelStatus free-VC row into the busy-bits format.
  static std::uint64_t pack_busy_bits(const ChannelStatus& status,
                                      NodeId node);

 private:
  unsigned channels_;
  unsigned vcs_;
};

}  // namespace wormsim::core
