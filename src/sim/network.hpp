// Network: flat state container for every link, VC buffer and ejection
// port, with the status queries the routing selector and the injection
// limiters consume. All control flow lives in Simulator.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/limiter.hpp"
#include "sim/channel.hpp"
#include "sim/types.hpp"
#include "topology/kary_ncube.hpp"
#include "util/active_set.hpp"

namespace wormsim::sim {

struct NetworkParams {
  unsigned num_vcs = 3;       // virtual channels per physical channel
  unsigned buf_flits = 4;     // per-VC buffer depth
  unsigned inj_channels = 4;  // injection channels per node
  unsigned eje_channels = 4;  // ejection channels per node
  unsigned link_delay = 2;    // crossbar + channel cycles per hop
};

class Network final : public core::ChannelStatus {
 public:
  Network(const topo::KAryNCube& topo, const NetworkParams& params);

  // --- Identity / indexing -------------------------------------------
  const topo::KAryNCube& topology() const noexcept { return *topo_; }
  const NetworkParams& params() const noexcept { return params_; }

  LinkId num_net_links() const noexcept { return num_net_links_; }
  LinkId num_inj_links() const noexcept { return num_inj_links_; }
  LinkId num_links() const noexcept { return num_net_links_ + num_inj_links_; }

  LinkId net_link(NodeId node, ChannelId out_channel) const noexcept {
    return node * topo_->num_channels() + out_channel;
  }
  LinkId inj_link(NodeId node, unsigned channel) const noexcept {
    return num_net_links_ + node * params_.inj_channels +
           static_cast<LinkId>(channel);
  }
  bool is_injection(LinkId link) const noexcept {
    return link >= num_net_links_;
  }
  /// VCs on a link: params.num_vcs for network links, 1 for injection.
  unsigned vcs_on(LinkId link) const noexcept {
    return is_injection(link) ? 1u : params_.num_vcs;
  }

  Link& link(LinkId id) noexcept { return links_[id]; }
  const Link& link(LinkId id) const noexcept { return links_[id]; }

  /// Dense [0, num_vc_slots()) index of a VC (net-link VCs first, then
  /// one slot per injection link): the slot id VcState and EjectPort
  /// store for their references, and the key for per-VC side tables
  /// like the simulator's route memo.
  VcSlot vc_flat_index(VcRef ref) const noexcept {
    if (ref.link < num_net_links_) {
      return ref.link * params_.num_vcs + ref.vc;
    }
    return net_vc_count_ + (ref.link - num_net_links_);
  }
  /// Inverse of vc_flat_index. Costs a division, so only the cold paths
  /// (tail release, teardown, tracer events, sharded stamps) call it.
  VcRef vc_ref(VcSlot slot) const noexcept {
    if (slot < net_vc_count_) {
      return VcRef{slot / params_.num_vcs,
                   static_cast<std::uint8_t>(slot % params_.num_vcs)};
    }
    return VcRef{num_net_links_ + (slot - net_vc_count_), 0};
  }
  /// True iff `slot` is an injection link's VC (outside the credit loop).
  bool is_injection_slot(VcSlot slot) const noexcept {
    return slot >= net_vc_count_;
  }
  std::size_t num_vc_slots() const noexcept { return vcs_.size(); }

  VcState& vc(VcRef ref) noexcept { return vcs_[vc_flat_index(ref)]; }
  const VcState& vc(VcRef ref) const noexcept {
    return vcs_[vc_flat_index(ref)];
  }
  VcState& vc_at(VcSlot slot) noexcept { return vcs_[slot]; }
  const VcState& vc_at(VcSlot slot) const noexcept { return vcs_[slot]; }

  /// Cycle the current tenant's header flit entered the buffer at
  /// `slot`; routable from header_arrival + routing_delay onwards. Kept
  /// beside VcState because the route phase is its only reader. Not
  /// reset when a tenancy ends: it is read only while the slot holds an
  /// enrolled header, and enrollment writes it first.
  Cycle header_arrival(VcSlot slot) const noexcept {
    return header_arrival_[slot];
  }
  void set_header_arrival(VcSlot slot, Cycle at) noexcept {
    header_arrival_[slot] = at;
  }

  EjectPort& eject_port(NodeId node, unsigned port) noexcept {
    return eject_[node * params_.eje_channels + port];
  }
  const EjectPort& eject_port(NodeId node, unsigned port) const noexcept {
    return eject_[node * params_.eje_channels + port];
  }

  // --- Status queries --------------------------------------------------
  // core::ChannelStatus: the per-node virtual output channel register.
  unsigned num_phys_channels() const override { return topo_->num_channels(); }
  unsigned num_vcs() const override { return params_.num_vcs; }
  const std::uint8_t* free_row(NodeId node) const override {
    return free_mask_row(node);
  }

  /// SoA view of the free-VC masks: one byte per network link, rows of
  /// num_phys_channels() bytes per node (net_link layout). A VC is free
  /// iff unallocated; the mirror is kept equal to ~active_vc_mask &
  /// vc_field by set_active, the sole writer of active_vc_mask. The
  /// non-virtual form of free_row() for the cycle loop.
  const std::uint8_t* free_mask_row(NodeId node) const noexcept {
    return free_mask_.data() +
           static_cast<std::size_t>(node) * topo_->num_channels();
  }

  /// Monotonic per-network-link change counter: bumped on every
  /// set_active touching the link, i.e. whenever its free-VC mask may
  /// have changed. Equal epoch (and thus equal epoch sums over a set of
  /// links) guarantees the masks are unchanged. The simulator no longer
  /// reads it — blocked headers park and a release wakes them (see
  /// "Parked waiters") — so it is only a contract the tests still pin.
  std::uint64_t link_epoch(LinkId link) const noexcept {
    return link_epoch_[link];
  }

  /// Epoch row of one node's output links (num_phys_channels() entries,
  /// net_link layout): row[c] == link_epoch(net_link(node, c)).
  const std::uint64_t* link_epoch_row(NodeId node) const noexcept {
    return link_epoch_.data() +
           static_cast<std::size_t>(node) * topo_->num_channels();
  }

  /// Contiguous VcState row of one *network* link (vcs_on(link) slots).
  VcState* vc_row(LinkId link) noexcept {
    assert(link < num_net_links_);
    return vcs_.data() + static_cast<std::size_t>(link) * params_.num_vcs;
  }

  /// Contiguous VcState row of one node's injection-channel VCs
  /// (params.inj_channels slots — injection links are laid out per node
  /// after all network-link VCs).
  VcState* inj_vc_row(NodeId node) noexcept {
    return vcs_.data() + net_vc_count_ +
           static_cast<std::size_t>(node) * params_.inj_channels;
  }
  const VcState* inj_vc_row(NodeId node) const noexcept {
    return vcs_.data() + net_vc_count_ +
           static_cast<std::size_t>(node) * params_.inj_channels;
  }

  /// Index of a free ejection port at `node`, or -1.
  int find_free_eject_port(NodeId node) const noexcept;
  /// Index of an injection link at `node` whose VC is free, or -1.
  int find_free_inj_channel(NodeId node) const noexcept;

  /// Every VC in the network idle, every pipeline empty (used by drain
  /// checks and tests).
  bool quiescent() const noexcept;

  /// Total flits currently buffered plus in flight (invariant checks).
  std::uint64_t flits_in_network() const noexcept;

  // --- State mutation helpers ------------------------------------------
  /// Claim downstream VC `out` for `msg`, linking it after the VC at
  /// slot `from`.
  void allocate_out_vc(VcSlot from, VcRef out, MsgId msg, Cycle now) noexcept;
  /// Bind the worm ending at slot `from` to ejection port `port` of its
  /// destination node.
  void bind_eject(VcSlot from, NodeId node, unsigned port, MsgId msg) noexcept;
  /// Move one flit out of slot `from` into its allocated downstream VC
  /// `to` (slot `to_slot`, which the caller already holds). The caller
  /// has checked transmissibility. Returns true if the tail left `from`
  /// (the VC was freed). Defined inline: this is the single hottest
  /// Network mutator in the saturated regime.
  bool transmit_flit(VcSlot from, VcRef to, VcSlot to_slot,
                     Cycle now) noexcept {
    VcState& u = vcs_[from];
    VcState& d = vcs_[to_slot];
    assert(u.buffered > 0 && u.out_kind == VcState::OutKind::Vc);
    assert(u.out == to_slot && to_slot == vc_flat_index(to));
    assert(d.occupancy < params_.buf_flits);

    Link& out_link = links_[to.link];
    out_link.in_flight.push(now + params_.link_delay, to.vc, u.msg);
    arrival_links_.insert(to.link);
    ++out_link.flits_carried;
    ++d.occupancy;
    ++u.out_count;
    --u.buffered;
    --u.occupancy;
    u.last_activity = now;

    if (u.out_count == u.msg_length) {
      // Tail left: free this VC; downstream will receive no more flits
      // from it.
      d.upstream = kNoSlot;
      set_active(vc_ref(from), false);
      u.clear();
      return true;
    }
    return false;
  }
  /// Deliver arrived in-flight flits for `link` up to cycle `now`,
  /// invoking `on_header(VcSlot)` for each header flit that enters an
  /// empty buffer (so the simulator can enroll it for routing).
  template <typename OnNewHeader>
  void process_arrivals(LinkId link_id, Cycle now, OnNewHeader&& on_header) {
    if (process_arrivals_sharded(link_id, now,
                                 std::forward<OnNewHeader>(on_header))) {
      arrival_links_.adjust_size(-1);
    }
  }

  /// process_arrivals for the sharded core: when the pipeline drains it
  /// clears the link's pending-arrival bit without touching the set's
  /// shared size counter (each word is owned by one shard; the counter
  /// is not). Returns true iff the bit was cleared; the caller batches
  /// the count back in via `adjust_arrival_links` at the barrier.
  template <typename OnNewHeader>
  bool process_arrivals_sharded(LinkId link_id, Cycle now,
                                OnNewHeader&& on_header) {
    // Only network links have in-flight pipelines (injection writes
    // buffers directly), so the VC row lookup can be hoisted.
    assert(link_id < num_net_links_);
    Link& l = links_[link_id];
    const VcSlot base = link_id * params_.num_vcs;
    while (l.in_flight.front_due(now)) {
      const InFlightQueue::Entry entry = l.in_flight.front();
      const VcSlot slot = base + entry.vc;
      VcState& v = vcs_[slot];
      assert(v.msg == entry.msg);
      if (v.in_count() == 0) {
        header_arrival_[slot] = now;
        on_header(slot);
      }
      ++v.buffered;
      v.last_activity = now;
      l.in_flight.pop();
    }
    if (l.in_flight.empty()) {
      return arrival_links_.erase_unsized(link_id);
    }
    return false;
  }

  /// Fold the per-shard pending-arrival erase deltas back into the
  /// arrival set's size at the per-cycle barrier.
  void adjust_arrival_links(std::ptrdiff_t delta) noexcept {
    arrival_links_.adjust_size(delta);
  }
  /// Free one VC unconditionally (deadlock absorption).
  void force_free(VcRef ref) noexcept;

  /// Drop every in-flight flit of `msg` on `link` (deadlock absorption),
  /// keeping the pending-arrival set coherent. Returns flits removed.
  unsigned absorb_drop(LinkId link, MsgId msg) noexcept;

  /// Mark/unmark tenancy in the link's active mask. The SOLE writer of
  /// active_vc_mask, which is what keeps the SoA free-mask mirror, the
  /// per-link epochs and the parked waiters coherent: a release on a
  /// link someone waits on wakes them (one load otherwise). Inline: called
  /// on every tenancy transition.
  void set_active(VcRef ref, bool active) noexcept {
    Link& l = links_[ref.link];
    if (active) {
      l.active_vc_mask |= static_cast<std::uint8_t>(1u << ref.vc);
    } else {
      l.active_vc_mask &= static_cast<std::uint8_t>(~(1u << ref.vc));
    }
    if (ref.link < num_net_links_) {
      free_mask_[ref.link] =
          static_cast<std::uint8_t>(~l.active_vc_mask) & vc_field_[ref.link];
      ++link_epoch_[ref.link];
      if (l.active_vc_mask != 0) {
        tenant_links_.insert(ref.link);
      } else {
        tenant_links_.erase(ref.link);
      }
      if (!active && waiters_[ref.link] != 0) wake_waiters(ref.link);
    }
  }

  // --- Parked waiters (active core) --------------------------------------
  // A route-pending header that failed to claim a VC, and a source whose
  // limiter denied its queue head, can only be unblocked by a VC release
  // on one of their node's output links (or by a fault, which wakes
  // everything). They park here, and set_active wakes them when such a
  // release happens, so the cycle loop never re-proves "still blocked".
  // Every header routed at a node sits in one of its input VCs (the VCs
  // of its incoming network links and its injection links); each has a
  // bit, and waiters_[link] holds the bits of the headers waiting on
  // that output link, so a wake touches exactly its waiters.

  /// State of the route-pending header at a VC slot.
  enum class RoutePark : std::uint8_t {
    Awake,        // the route phase evaluates it
    Asleep,       // provably still blocked: the route phase skips it
    DeadlineDue,  // its detection deadline arrived, but no candidate
                  // channel released a VC since it parked
  };
  RoutePark route_park(VcSlot slot) const noexcept {
    return route_park_[slot];
  }
  /// Park the blocked header at `slot`, routed at `node`, until a VC of
  /// one of the output channels in `cand_mask` is released.
  void park_route(VcSlot slot, NodeId node, std::uint32_t cand_mask) noexcept {
    route_park_[slot] = RoutePark::Asleep;
    park_cands_[slot] = static_cast<std::uint16_t>(cand_mask);
    std::uint32_t* row = waiters_.data() + net_link(node, 0);
    const std::uint32_t bit = 1u << park_bit_[slot];
    for (std::uint32_t m = cand_mask; m != 0; m &= m - 1) {
      row[std::countr_zero(m)] |= bit;
    }
  }
  /// The header's detection deadline arrived (no-op unless it sleeps).
  void wake_route_deadline(VcSlot slot) noexcept {
    if (route_park_[slot] == RoutePark::Asleep) {
      route_park_[slot] = RoutePark::DeadlineDue;
    }
  }
  /// Its tenancy ended or the caller stops tracking it.
  void wake_route(VcSlot slot) noexcept {
    route_park_[slot] = RoutePark::Awake;
  }
  /// Park `node`'s source until a VC of any of its output links is
  /// released (the limiter verdict reads the whole status row): the
  /// gate bit goes on every output link of the node.
  void park_gate(NodeId node) noexcept {
    std::uint32_t* row = waiters_.data() + net_link(node, 0);
    for (unsigned c = 0; c < topo_->num_channels(); ++c) row[c] |= kGateWaiter;
  }
  bool gate_parked(NodeId node) const noexcept {
    return (waiters_[net_link(node, 0)] & kGateWaiter) != 0;
  }
  /// Whether a release on output link `link` wakes the header parked at
  /// `slot` (invariant checks).
  bool waits_on(VcSlot slot, LinkId link) const noexcept {
    const std::uint32_t cands = park_cands_[slot];
    return (waiters_[link] >> park_bit_[slot] & 1u) != 0 &&
           (cands >> links_[link].src_channel & 1u) != 0;
  }
  /// Candidate channels the header parked at `slot` waits on.
  std::uint32_t park_cands(VcSlot slot) const noexcept {
    return park_cands_[slot];
  }
  /// Wake every parked header and source (fault events).
  void wake_all_parked() noexcept;

  // --- Dead links (fault injection) ------------------------------------
  /// Zero / restore a network link's admissible-VC field. A dead link's
  /// free mask reads 0, so no selection, limiter or injection scan can
  /// pick it; its epoch bumps. A restore frees VCs without a release,
  /// so the caller wakes every parked waiter after a fault. The caller
  /// must have torn down every tenant and drained the in-flight
  /// pipeline before killing.
  void set_link_dead(LinkId link, bool dead) noexcept {
    assert(link < num_net_links_);
    assert(!dead || (links_[link].active_vc_mask == 0 &&
                     links_[link].in_flight.empty()));
    vc_field_[link] =
        dead ? 0 : static_cast<std::uint8_t>((1u << params_.num_vcs) - 1u);
    free_mask_[link] =
        static_cast<std::uint8_t>(~links_[link].active_vc_mask) &
        vc_field_[link];
    ++link_epoch_[link];
  }
  bool link_dead(LinkId link) const noexcept {
    return link < num_net_links_ && vc_field_[link] == 0;
  }
  /// Bump every network link's epoch — a routing-table rebuild changes
  /// which candidates are valid even where free masks did not move.
  void bump_all_epochs() noexcept {
    for (std::uint64_t& e : link_epoch_) ++e;
  }

  // --- Active sets ------------------------------------------------------
  // Maintained unconditionally (transitions are O(1)); the active-set
  // core iterates them, the dense core ignores them, and the coherence
  // checks compare them against a full rescan in either mode.

  /// Network links with at least one allocated (tenant) VC — exactly the
  /// links whose active_vc_mask is non-zero.
  const util::ActiveSet& tenant_links() const noexcept {
    return tenant_links_;
  }
  /// Network links with at least one flit in their in-flight pipeline.
  const util::ActiveSet& arrival_links() const noexcept {
    return arrival_links_;
  }

 private:
  const topo::KAryNCube* topo_;
  NetworkParams params_;
  LinkId num_net_links_ = 0;
  LinkId num_inj_links_ = 0;
  VcSlot net_vc_count_ = 0;

  std::vector<Link> links_;
  std::vector<VcState> vcs_;
  std::vector<Cycle> header_arrival_;  // per slot, see header_arrival()
  std::vector<EjectPort> eject_;

  // SoA mirrors for the cycle-loop fast path, maintained by set_active
  // (the sole writer of active_vc_mask). Net links only.
  std::vector<std::uint8_t> free_mask_;    // ~active_vc_mask & vc_field
  std::vector<std::uint8_t> vc_field_;     // admissible VCs; 0 = dead link
  std::vector<std::uint64_t> link_epoch_;  // bumped per set_active

  util::ActiveSet tenant_links_;   // net links with active_vc_mask != 0
  util::ActiveSet arrival_links_;  // net links with non-empty in_flight

  // Parked waiters (see "Parked waiters" above). A node's input VC with
  // index i (VC v of its p-th incoming link: p << vc_shift_ | v; then its
  // injection VCs) owns bit min(i, kSharedBit); the shared top bit stands
  // for every input VC past it, so any network size stays exact.
  static constexpr unsigned kSharedBit = 30;
  static constexpr std::uint32_t kGateWaiter = 1u << 31;
  /// Wake the headers waiting on output link `link` and, when its gate
  /// bit is set, the source of the link's node.
  void wake_waiters(LinkId link) noexcept;
  /// Input VC slot with index `i` at `node` (see park_bit_).
  VcSlot input_slot(NodeId node, unsigned i) const noexcept {
    const unsigned net_inputs = topo_->num_channels() << vc_shift_;
    if (i < net_inputs) {
      return in_links_[net_link(node, 0) + (i >> vc_shift_)] * params_.num_vcs +
             (i & ((1u << vc_shift_) - 1u));
    }
    return net_vc_count_ + node * params_.inj_channels + (i - net_inputs);
  }
  std::vector<std::uint32_t> waiters_;     // per net link: slot bits | gate
  std::vector<std::uint8_t> park_bit_;     // per VC slot: its waiter bit
  std::vector<RoutePark> route_park_;      // per VC slot
  std::vector<std::uint16_t> park_cands_;  // per VC slot, while parked
  std::vector<LinkId> in_links_;  // per node: num_channels incoming links
  unsigned vc_shift_ = 0;         // bit_width(num_vcs - 1)
};

}  // namespace wormsim::sim
