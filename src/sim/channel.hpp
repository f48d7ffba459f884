// Virtual-channel buffers, physical links and their in-flight pipelines.
//
// Layout: every physical channel of the network is a unidirectional
// Link; its VC buffers physically sit at the receiving router's input,
// while allocation status is what the sending router's "virtual channel
// status register" shows (the two are the same state — exactly as in
// hardware, where the sender tracks the receiver's buffers via credits).
#pragma once

#include <cassert>
#include <cstdint>

#include "sim/types.hpp"

namespace wormsim::sim {

/// State of one virtual-channel buffer (one tenancy = one message from
/// header acceptance to tail departure). 32 bytes, so two records share
/// a cache line: transmit reads the link's own record and a random
/// upstream one per visit, arrivals and eject one each. References to
/// other VCs are flat slot ids (Network::vc_flat_index), which index the
/// VcState array directly; the header's arrival cycle, read only by the
/// route phase, lives in Network's per-slot side array.
struct alignas(32) VcState {
  MsgId msg = kNoMsg;

  /// Length of the tenant message in flits, mirrored here at tenancy
  /// creation (start of injection / VC allocation) so the per-cycle
  /// streaming loops need no Message-pool lookup for tail detection.
  std::uint32_t msg_length = 0;

  /// Flits of the tenant that have left this buffer. The flit at the
  /// head of the buffer has message-relative index `out_count`.
  std::uint32_t out_count = 0;

  /// Feeder of this buffer: the upstream VC's slot while the worm
  /// occupies it, kNoSlot when source-fed (injection VC) or fully
  /// drained upstream.
  VcSlot upstream = kNoSlot;
  VcSlot out = kNoSlot;  // downstream VC's slot (OutKind::Vc)

  /// Buffered flits plus flits in flight toward this buffer (the
  /// credit-tracked occupancy the sender checks).
  std::uint8_t occupancy = 0;
  /// Flits currently in the buffer; never exceeds occupancy, so it fits
  /// the same byte. The header is at the head iff out_count == 0 and
  /// the buffer is non-empty.
  std::uint8_t buffered = 0;
  std::uint8_t eject_port = 0;  // bound port (OutKind::Eject)

  enum class OutKind : std::uint8_t { None, Vc, Eject };
  OutKind out_kind : 2 = OutKind::None;
  bool pending_route : 1 = false;  // enrolled in the simulator's route list
  bool probed : 1 = false;         // Figure-2 probe taken for this tenancy

  /// Cycle a flit last entered or left this buffer (flow-control
  /// activity, the signal FC3D-style deadlock detection watches).
  Cycle last_activity = 0;

  /// Flits of the tenant that have entered this buffer.
  std::uint32_t in_count() const noexcept { return out_count + buffered; }
  bool free() const noexcept { return msg == kNoMsg; }
  bool header_at_head() const noexcept {
    return msg != kNoMsg && out_count == 0 && buffered > 0;
  }

  void clear() noexcept { *this = VcState{}; }
};
// Cache budget: the 11,264 slots of the 512-node paper network take
// 352 KB (see DESIGN.md "Hot-state layout").
static_assert(sizeof(VcState) <= 32, "VcState outgrew its cache budget");

/// Fixed-delay link pipeline: at most one flit enters per cycle, so a
/// ring of `delay + 1` entries always suffices. Stored as parallel
/// arrays so the arrival scan reads 4-byte stamps and the whole ring
/// fits the Link's hot cache footprint. A stamp holds the low 32 bits
/// of the arrival cycle: every entry is popped within kMaxDelay cycles
/// of its push, so the signed 32-bit difference to `now` is exact
/// across the 2^32 wrap.
class InFlightQueue {
 public:
  static constexpr unsigned kMaxDelay = 7;
  static constexpr unsigned kSlots = kMaxDelay + 1;

  /// One in-flight flit, as front() returns it; `arrival` is the
  /// 32-bit stamp.
  struct Entry {
    std::uint32_t arrival = 0;
    std::uint8_t vc = 0;
    MsgId msg = kNoMsg;
  };

  bool empty() const noexcept { return count_ == 0; }
  unsigned size() const noexcept { return count_; }

  void push(Cycle arrival, std::uint8_t vc, MsgId msg) noexcept {
    assert(count_ < kSlots);
    const unsigned i = (head_ + count_) % kSlots;
    arrival_[i] = static_cast<std::uint32_t>(arrival);
    vc_[i] = vc;
    msg_[i] = msg;
    ++count_;
  }

  /// True iff the queue is non-empty and its front flit arrives at or
  /// before `now` (wrap-safe stamp comparison).
  bool front_due(Cycle now) const noexcept {
    return count_ != 0 &&
           static_cast<std::int32_t>(static_cast<std::uint32_t>(now) -
                                     arrival_[head_]) >= 0;
  }

  Entry front() const noexcept {
    assert(count_ > 0);
    return Entry{arrival_[head_], vc_[head_], msg_[head_]};
  }

  void pop() noexcept {
    assert(count_ > 0);
    head_ = static_cast<std::uint8_t>((head_ + 1u) % kSlots);
    --count_;
  }

  /// Drop every in-flight flit belonging to `msg` (deadlock-recovery
  /// absorption); returns the number removed. Survivors keep their
  /// order and move to the front of the ring.
  unsigned drop_message(MsgId msg) noexcept {
    unsigned kept = 0, dropped = 0;
    Entry tmp[kSlots];
    while (count_ > 0) {
      if (msg_[head_] == msg) {
        ++dropped;
      } else {
        tmp[kept++] = front();
      }
      pop();
    }
    head_ = 0;
    for (unsigned i = 0; i < kept; ++i) {
      arrival_[i] = tmp[i].arrival;
      vc_[i] = tmp[i].vc;
      msg_[i] = tmp[i].msg;
    }
    count_ = static_cast<std::uint8_t>(kept);
    return dropped;
  }

 private:
  std::uint8_t head_ = 0;
  std::uint8_t count_ = 0;
  std::uint8_t vc_[kSlots]{};
  std::uint32_t arrival_[kSlots]{};
  MsgId msg_[kSlots]{};
};

/// One unidirectional physical channel (or injection channel). VC
/// storage lives in the Network's flat array; the Link carries
/// arbitration state, topology endpoints and the in-flight pipeline.
/// Field order is hot-first: transmit reads the arbitration byte pair
/// on every visit, so it leads the record.
struct Link {
  std::uint8_t rr_next = 0;          // round-robin VC arbitration pointer
  std::uint8_t active_vc_mask = 0;   // bit v set iff VC v has a tenant
  ChannelId src_channel = 0;  // output-channel index at src (network links)
  NodeId src = topo::kInvalidNode;  // kInvalidNode for injection links
  NodeId dst = topo::kInvalidNode;
  InFlightQueue in_flight{};
  std::uint64_t flits_carried = 0;   // cumulative utilization counter
};
// Cache budget: 5,120 links of the 512-node paper network stay within
// ~480 KB (see DESIGN.md "Hot-state layout").
static_assert(sizeof(Link) <= 96, "Link outgrew its cache budget");

/// Ejection port: consumes one flit per cycle from the bound VC.
struct EjectPort {
  MsgId msg = kNoMsg;
  VcSlot src = kNoSlot;  // slot of the VC feeding the port
  bool busy() const noexcept { return msg != kNoMsg; }
};

}  // namespace wormsim::sim
