// Message bookkeeping and pooled storage.
//
// Flits are not materialized individually: a virtual channel holds a
// contiguous run of one message's flits, so per-VC in/out counters plus
// the message length describe every flit position exactly (see
// channel.hpp). The Message records end-to-end identity, timing and the
// worm's most-downstream VC, from which the whole occupied chain is
// reachable via per-VC upstream references.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace wormsim::sim {

struct Message {
  NodeId src = 0;        // original generating node (stable across recovery)
  NodeId dst = 0;
  std::uint32_t length = 0;  // flits, header and tail included

  Cycle gen_time = 0;      // generation (enqueue at source) cycle
  Cycle inject_time = 0;   // cycle the header entered an injection channel

  /// Most-downstream VC allocated to this worm; invalid while the
  /// message sits in a source/recovery queue.
  VcRef head{};

  // The cycle any flit last moved lives in the simulator's dense
  // per-MsgId progress array, not here: every forwarded flit writes it,
  // and 8 contiguous bytes are cheaper to touch than this record.

  std::uint16_t deadlock_detections = 0;  // times absorbed by recovery
  bool measured = false;    // generated inside the measurement window
  bool in_network = false;  // holds at least one VC
  /// Header is at (or bound to an ejection port of) the destination;
  /// such messages always drain and are exempt from deadlock detection.
  bool at_destination = false;
  /// Header has left the injection channel into a network VC at least
  /// once this tenancy; only then can the message participate in a
  /// network deadlock.
  bool entered_network = false;

  std::uint32_t active_pos = 0;  // index in the simulator's active list
};

/// Pool with free-list reuse; MsgId is the slot index. Slots are never
/// reclaimed while referenced by any VC, queue or active list.
class MessagePool {
 public:
  MsgId allocate() {
    if (!free_.empty()) {
      const MsgId id = free_.back();
      free_.pop_back();
      slots_[id] = Message{};
      return id;
    }
    slots_.emplace_back();
    return static_cast<MsgId>(slots_.size() - 1);
  }

  void release(MsgId id) { free_.push_back(id); }

  Message& operator[](MsgId id) noexcept { return slots_[id]; }
  const Message& operator[](MsgId id) const noexcept { return slots_[id]; }

  std::size_t capacity() const noexcept { return slots_.size(); }
  std::size_t live() const noexcept { return slots_.size() - free_.size(); }

 private:
  std::vector<Message> slots_;
  std::vector<MsgId> free_;
};

}  // namespace wormsim::sim
