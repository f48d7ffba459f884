// Computed routing: route words from node coordinates.
//
// All shipped routing functions are *static*: the candidate list and the
// useful-physical-channel mask depend only on (here, dst), never on
// channel status. The whole route therefore fits in one 4-byte route
// word — the useful-channel mask plus the deterministic dimension-order
// hop (channel + dateline class) — computed on demand from per-node
// coordinate digits:
//
//   * per dimension d, fwd = (dst_d - here_d) mod k hops going Plus:
//     Plus is minimal iff 2·fwd <= k, Minus iff 2·fwd >= k (both on the
//     k/2 tie of an even radix, which also covers k = 2);
//   * the first dimension with fwd != 0 carries the DOR/escape hop,
//     Plus on a tie, with its Dally/Seitz dateline class.
//
// expand() turns a word into the exact RouteResult the wrapped function
// would have produced, in the same candidate order:
//
//   * TFAR  — one candidate per set bit of the useful mask, ascending
//             channel order, all VCs usable.
//   * DOR   — the single deterministic hop with its dateline class mask.
//   * Duato — adaptive candidates as TFAR (VCs 2..V-1), then the
//             deterministic hop as the escape candidate (VC 0 or 1 by
//             dateline class).
//
// Nothing O(nodes²) exists on a healthy network: the state is one digit
// row per node. Only a fault-aware rebuild() tabulates — BFS routes
// around dead components have no closed form — into a nodes² word
// table bounded by kMaxEntries; a healthy rebuild drops the table
// again. A status-dependent routing function added in the future must
// NOT be wrapped in a RoutingLut; the blocked-header route memo in the
// simulator makes the same staticness assumption.
//
// tests/routing/test_routing_lut.cpp asserts word+expand equals the
// wrapped function exhaustively over small cubes and on seeded samples
// of large ones.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/routing.hpp"
#include "topology/fault_mask.hpp"

namespace wormsim::routing {

class RoutingLut {
 public:
  /// Budget of the fault-aware table: 4M words = 16 MiB, i.e. fault
  /// schedules on up to 2048-node networks.
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 22;

  /// One route, packed.
  struct Word {
    std::uint16_t useful = 0;      // useful physical channel mask
    std::uint8_t det_channel = 0;  // DOR hop channel (DOR/Duato escape)
    std::uint8_t det_class = 0;    // its dateline VC class (0 or 1)
  };

  /// `fn` supplies the algorithm and VC count; routes are computed from
  /// `topo`'s coordinates, never by calling `fn`.
  RoutingLut(const RoutingFunction& fn, const topo::KAryNCube& topo);

  /// True while a fault-aware rebuild's table is in force.
  bool tabulated() const noexcept { return !entries_.empty(); }

  /// Route word of (here, dst), here != dst.
  Word word(topo::NodeId here, topo::NodeId dst) const {
    if (!entries_.empty()) {
      return entries_[static_cast<std::size_t>(here) * nodes_ + dst];
    }
    return computed_word(here, dst);
  }

  /// The RouteResult a word stands for; `out` is cleared first.
  void expand(Word w, RouteResult& out) const;

  /// Bit-identical replacement for fn.route(here, dst, out).
  void route(topo::NodeId here, topo::NodeId dst, RouteResult& out) const {
    expand(word(here, dst), out);
  }

  Algorithm algorithm() const noexcept { return algo_; }

  /// Apply a fault mask. A null or empty mask restores the computed
  /// healthy routes (and frees any table). A non-empty mask tabulates
  /// BFS-shortest-path routes over the alive graph (TFAR only: every
  /// alive channel one hop closer to dst becomes a candidate, so routes
  /// bend around dead components and may leave the minimal quadrant).
  /// Throws std::invalid_argument for a non-empty mask under a
  /// deterministic algorithm or on a network over kMaxEntries pairs.
  void rebuild(const topo::FaultMask* faults);

  /// After a fault-aware rebuild: is dst reachable from `here` over the
  /// alive graph? Healthy networks report every pair reachable.
  bool reachable(topo::NodeId here, topo::NodeId dst) const noexcept {
    if (here == dst) return true;
    if (entries_.empty()) return true;
    return entries_[static_cast<std::size_t>(here) * nodes_ + dst].useful != 0;
  }

 private:
  Word computed_word(topo::NodeId here, topo::NodeId dst) const noexcept;

  const topo::KAryNCube* topo_;
  Algorithm algo_;
  unsigned num_vcs_;
  topo::NodeId nodes_;
  unsigned dims_;
  unsigned radix_;
  /// Coordinate digits, node-major: digits_[node * dims_ + d].
  std::vector<std::uint16_t> digits_;
  /// Fault-aware routes, [here * nodes_ + dst]; empty when healthy.
  std::vector<Word> entries_;
};

// Inline: it is the whole per-query cost of a healthy route lookup.
inline RoutingLut::Word RoutingLut::computed_word(
    topo::NodeId here, topo::NodeId dst) const noexcept {
  const std::uint16_t* from = &digits_[static_cast<std::size_t>(here) * dims_];
  const std::uint16_t* to = &digits_[static_cast<std::size_t>(dst) * dims_];
  // Branch-free: the direction bits depend on the pair, so branching on
  // them would mispredict about once per dimension. With fwd the hops
  // going Plus, (b - a) mod k, Plus is minimal iff 1 <= fwd <= k/2 and
  // Minus iff k - k/2 <= fwd <= k - 1 (integer k/2; both on the tie of
  // an even k); unsigned wrap-around folds each range test into one
  // compare.
  const unsigned half = radix_ / 2;
  const unsigned upper = radix_ - half;
  std::uint32_t useful = 0;
  for (unsigned d = 0; d < dims_; ++d) {
    const unsigned a = from[d];
    const unsigned b = to[d];
    const unsigned fwd = b - a + static_cast<unsigned>(b < a) * radix_;
    const unsigned plus = static_cast<unsigned>(fwd - 1 < half);
    const unsigned minus = static_cast<unsigned>(fwd - upper < half);
    useful |= (plus | minus << 1) << (2 * d);
  }
  // The DOR hop is the lowest useful channel: the first differing
  // dimension, Plus on a tie (its bit sits below Minus). Its dateline
  // class is KAryNCube::dateline_class: 1 once the position has passed
  // the destination in the travel direction.
  Word w;
  w.useful = static_cast<std::uint16_t>(useful);
  const unsigned c =
      useful != 0 ? static_cast<unsigned>(__builtin_ctz(useful)) : 0u;
  const unsigned a = from[c / 2];
  const unsigned b = to[c / 2];
  const bool minus_dir = (c & 1u) != 0;
  w.det_channel = static_cast<topo::ChannelId>(c);
  w.det_class = static_cast<std::uint8_t>(minus_dir ? a >= b : b >= a);
  return w;
}

}  // namespace wormsim::routing
