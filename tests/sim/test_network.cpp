#include "sim/network.hpp"

#include <gtest/gtest.h>

namespace wormsim::sim {
namespace {

NetworkParams small_params() {
  NetworkParams p;
  p.num_vcs = 3;
  p.buf_flits = 4;
  p.inj_channels = 2;
  p.eje_channels = 2;
  p.link_delay = 2;
  return p;
}

class NetworkTest : public ::testing::Test {
 protected:
  topo::KAryNCube topo_{4, 2};
  Network net_{topo_, small_params()};
};

TEST_F(NetworkTest, LinkCounts) {
  EXPECT_EQ(net_.num_net_links(), 16u * 4u);
  EXPECT_EQ(net_.num_inj_links(), 16u * 2u);
  EXPECT_EQ(net_.num_links(), 96u);
}

TEST_F(NetworkTest, ParamsValidation) {
  NetworkParams bad = small_params();
  bad.num_vcs = 0;
  EXPECT_THROW(Network(topo_, bad), std::invalid_argument);
  bad = small_params();
  bad.num_vcs = 9;
  EXPECT_THROW(Network(topo_, bad), std::invalid_argument);
  bad = small_params();
  bad.link_delay = 0;
  EXPECT_THROW(Network(topo_, bad), std::invalid_argument);
  bad = small_params();
  bad.buf_flits = 0;
  EXPECT_THROW(Network(topo_, bad), std::invalid_argument);
}

TEST_F(NetworkTest, LinkEndpointsMatchTopology) {
  for (topo::NodeId node = 0; node < topo_.num_nodes(); ++node) {
    for (unsigned c = 0; c < topo_.num_channels(); ++c) {
      const Link& l = net_.link(net_.net_link(node, static_cast<topo::ChannelId>(c)));
      EXPECT_EQ(l.src, node);
      EXPECT_EQ(l.dst, topo_.neighbor(node, static_cast<topo::ChannelId>(c)));
      EXPECT_EQ(l.src_channel, c);
    }
    for (unsigned i = 0; i < 2; ++i) {
      const Link& l = net_.link(net_.inj_link(node, i));
      EXPECT_EQ(l.src, topo::kInvalidNode);
      EXPECT_EQ(l.dst, node);
      EXPECT_TRUE(net_.is_injection(net_.inj_link(node, i)));
    }
  }
}

/// Slot ids are what VcState and EjectPort store; vc_ref must invert
/// vc_flat_index for every network and injection VC, including at the
/// 32,768-node scale where slots pass 2^19.
TEST(NetworkSlots, SlotRefRoundTrip) {
  const std::pair<unsigned, unsigned> shapes[] = {
      {8, 2}, {8, 3}, {16, 3}, {32, 3}};  // 64, 512, 4,096, 32,768 nodes
  NetworkParams p;
  p.num_vcs = 3;
  p.inj_channels = 4;
  for (const auto& [k, n] : shapes) {
    const topo::KAryNCube topo(k, n);
    const Network net(topo, p);
    ASSERT_EQ(net.num_vc_slots(),
              std::size_t{net.num_net_links()} * p.num_vcs +
                  net.num_inj_links());
    VcSlot expect = 0;
    for (LinkId l = 0; l < net.num_links(); ++l) {
      for (unsigned v = 0; v < net.vcs_on(l); ++v, ++expect) {
        const VcRef ref{l, static_cast<std::uint8_t>(v)};
        const VcSlot slot = net.vc_flat_index(ref);
        ASSERT_EQ(slot, expect) << k << "-ary " << n << "-cube link " << l;
        ASSERT_EQ(net.vc_ref(slot), ref) << "slot " << slot;
        ASSERT_EQ(net.is_injection_slot(slot), net.is_injection(l));
        ASSERT_EQ(&net.vc_at(slot), &net.vc(ref));
      }
    }
    EXPECT_EQ(expect, net.num_vc_slots());
  }
}

TEST_F(NetworkTest, FreshNetworkFullyFree) {
  EXPECT_TRUE(net_.quiescent());
  EXPECT_EQ(net_.flits_in_network(), 0u);
  for (topo::NodeId node = 0; node < topo_.num_nodes(); ++node) {
    for (unsigned c = 0; c < topo_.num_channels(); ++c) {
      EXPECT_EQ(net_.free_vc_mask(node, static_cast<topo::ChannelId>(c)),
                0b111u);
    }
    EXPECT_EQ(net_.find_free_eject_port(node), 0);
    EXPECT_EQ(net_.find_free_inj_channel(node), 0);
  }
}

TEST_F(NetworkTest, AllocationUpdatesStatusRegister) {
  const VcRef from{net_.inj_link(0, 0), 0};
  net_.vc(from).msg = 7;
  net_.set_active(from, true);

  const VcRef out{net_.net_link(0, 2), 1};
  net_.allocate_out_vc(net_.vc_flat_index(from), out, 7, /*now=*/5);

  EXPECT_EQ(net_.free_vc_mask(0, 2), 0b101u);  // VC 1 now busy
  EXPECT_EQ(net_.vc(out).msg, 7u);
  EXPECT_EQ(net_.vc_ref(net_.vc(out).upstream).link, from.link);
  EXPECT_EQ(net_.vc(from).out_kind, VcState::OutKind::Vc);
  EXPECT_EQ(net_.vc(from).out, net_.vc_flat_index(out));
  EXPECT_FALSE(net_.quiescent());
}

TEST_F(NetworkTest, TransmitMovesOneFlitAndReservesSpace) {
  const VcRef from{net_.inj_link(0, 0), 0};
  VcState& u = net_.vc(from);
  u.msg = 3;
  u.msg_length = 16;
  u.buffered = 4;  // four flits written, 16 total
  u.occupancy = 4;
  net_.set_active(from, true);

  const VcRef out{net_.net_link(0, 0), 0};
  const VcSlot from_slot = net_.vc_flat_index(from);
  const VcSlot out_slot = net_.vc_flat_index(out);
  net_.allocate_out_vc(from_slot, out, 3, 0);

  EXPECT_FALSE(net_.transmit_flit(from_slot, out, out_slot, /*now=*/10));
  EXPECT_EQ(u.out_count, 1u);
  EXPECT_EQ(u.buffered, 3u);
  EXPECT_EQ(u.in_count(), 4u);
  EXPECT_EQ(u.occupancy, 3u);
  EXPECT_EQ(net_.vc(out).occupancy, 1u);     // reserved while in flight
  EXPECT_EQ(net_.vc(out).in_count(), 0u);    // not arrived yet
  EXPECT_EQ(net_.link(out.link).in_flight.size(), 1u);

  // Arrival lands after link_delay.
  bool header_seen = false;
  net_.process_arrivals(out.link, 11, [&](VcSlot) { header_seen = true; });
  EXPECT_FALSE(header_seen);
  EXPECT_EQ(net_.vc(out).in_count(), 0u);
  net_.process_arrivals(out.link, 12, [&](VcSlot slot) {
    header_seen = true;
    EXPECT_EQ(slot, out_slot);
  });
  EXPECT_TRUE(header_seen);
  EXPECT_EQ(net_.vc(out).in_count(), 1u);
  EXPECT_EQ(net_.vc(out).buffered, 1u);
  EXPECT_EQ(net_.header_arrival(out_slot), 12u);
}

TEST_F(NetworkTest, TailDepartureFreesVc) {
  const VcRef from{net_.inj_link(0, 0), 0};
  VcState& u = net_.vc(from);
  u.msg = 3;
  u.msg_length = 2;
  u.buffered = 2;  // a 2-flit message fully buffered
  u.occupancy = 2;
  net_.set_active(from, true);

  const VcRef out{net_.net_link(0, 0), 2};
  const VcSlot from_slot = net_.vc_flat_index(from);
  const VcSlot out_slot = net_.vc_flat_index(out);
  net_.allocate_out_vc(from_slot, out, 3, 0);

  EXPECT_FALSE(net_.transmit_flit(from_slot, out, out_slot, 0));
  EXPECT_TRUE(net_.transmit_flit(from_slot, out, out_slot, 1));  // tail left
  EXPECT_TRUE(net_.vc(from).free());
  EXPECT_EQ(net_.find_free_inj_channel(0), 0);
  // Downstream keeps its tenancy but loses the upstream reference.
  EXPECT_EQ(net_.vc(out).msg, 3u);
  EXPECT_EQ(net_.vc(out).upstream, kNoSlot);
}

TEST_F(NetworkTest, ForceFreeClearsDownstreamBacklink) {
  const VcRef a{net_.inj_link(0, 0), 0};
  net_.vc(a).msg = 9;
  net_.vc(a).buffered = 1;
  net_.vc(a).occupancy = 1;
  net_.set_active(a, true);
  const VcRef b{net_.net_link(0, 1), 0};
  net_.allocate_out_vc(net_.vc_flat_index(a), b, 9, 0);
  EXPECT_EQ(net_.vc(b).upstream, net_.vc_flat_index(a));

  net_.force_free(a);
  EXPECT_TRUE(net_.vc(a).free());
  EXPECT_EQ(net_.vc(b).upstream, kNoSlot);
  EXPECT_EQ(net_.vc(b).msg, 9u);  // b itself untouched
}

TEST_F(NetworkTest, EjectPortBinding) {
  const VcRef from{net_.net_link(1, 0), 0};
  net_.vc(from).msg = 5;
  net_.set_active(from, true);
  const topo::NodeId node = net_.link(from.link).dst;
  net_.bind_eject(net_.vc_flat_index(from), node, 1, 5);
  EXPECT_TRUE(net_.eject_port(node, 1).busy());
  EXPECT_EQ(net_.eject_port(node, 1).msg, 5u);
  EXPECT_EQ(net_.eject_port(node, 1).src, net_.vc_flat_index(from));
  EXPECT_EQ(net_.find_free_eject_port(node), 0);
  EXPECT_EQ(net_.vc(from).out_kind, VcState::OutKind::Eject);
}

TEST(InFlightQueueTest, FifoOrder) {
  InFlightQueue q;
  q.push(10, 0, 1);
  q.push(11, 1, 2);
  q.push(12, 2, 3);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.front().arrival, 10u);
  q.pop();
  EXPECT_EQ(q.front().msg, 2u);
}

TEST(InFlightQueueTest, DropMessageKeepsOthersInOrder) {
  InFlightQueue q;
  q.push(10, 0, 1);
  q.push(11, 1, 2);
  q.push(12, 2, 1);
  q.push(13, 0, 3);
  EXPECT_EQ(q.drop_message(1), 2u);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front().msg, 2u);
  q.pop();
  EXPECT_EQ(q.front().msg, 3u);
  EXPECT_EQ(q.front().arrival, 13u);
}

TEST(InFlightQueueTest, ArrivalStampsWrapPast32Bits) {
  // Stamps keep the low 32 bits of the arrival cycle; due checks stay
  // exact across the 2^32 boundary because an entry lives at most
  // kMaxDelay cycles.
  constexpr Cycle kWrap = Cycle{1} << 32;
  InFlightQueue q;
  q.push(kWrap - 1, 0, 1);
  q.push(kWrap, 1, 2);
  q.push(kWrap + 1, 2, 3);
  EXPECT_FALSE(q.front_due(kWrap - 2));
  EXPECT_TRUE(q.front_due(kWrap - 1));
  q.pop();
  EXPECT_FALSE(q.front_due(kWrap - 1));
  EXPECT_TRUE(q.front_due(kWrap));
  EXPECT_EQ(q.front().arrival, 0u);  // the stamp wrapped
  EXPECT_EQ(q.front().msg, 2u);
  q.pop();
  EXPECT_FALSE(q.front_due(kWrap));
  EXPECT_TRUE(q.front_due(kWrap + InFlightQueue::kMaxDelay));
  q.pop();
  EXPECT_FALSE(q.front_due(kWrap + 1));  // empty queues are never due
}

TEST(InFlightQueueTest, ArrivalsDeliverAcrossTheWrap) {
  // End to end through Network: a flit sent just below 2^32 cycles
  // lands link_delay cycles later, on the other side of the wrap.
  const topo::KAryNCube topo(4, 2);
  Network net(topo, NetworkParams{});
  const VcRef from{net.inj_link(0, 0), 0};
  VcState& u = net.vc(from);
  u.msg = 3;
  u.msg_length = 16;
  u.buffered = 2;
  u.occupancy = 2;
  net.set_active(from, true);
  const VcRef out{net.net_link(0, 0), 0};
  const VcSlot out_slot = net.vc_flat_index(out);
  net.allocate_out_vc(net.vc_flat_index(from), out, 3, 0);
  const Cycle sent = (Cycle{1} << 32) - 1;
  net.transmit_flit(net.vc_flat_index(from), out, out_slot, sent);
  int headers = 0;
  net.process_arrivals(out.link, sent + 1, [&](VcSlot) { ++headers; });
  EXPECT_EQ(headers, 0);
  net.process_arrivals(out.link, sent + net.params().link_delay,
                       [&](VcSlot) { ++headers; });
  EXPECT_EQ(headers, 1);
  EXPECT_EQ(net.vc(out).in_count(), 1u);
  EXPECT_EQ(net.header_arrival(out_slot), sent + net.params().link_delay);
  EXPECT_TRUE(net.link(out.link).in_flight.empty());
}

TEST(InFlightQueueTest, DropOnEmptyIsZero) {
  InFlightQueue q;
  EXPECT_EQ(q.drop_message(1), 0u);
}

}  // namespace
}  // namespace wormsim::sim
