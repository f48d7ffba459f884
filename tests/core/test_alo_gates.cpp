#include "core/alo_gates.hpp"

#include <gtest/gtest.h>

#include "core/alo.hpp"
#include "fake_status.hpp"
#include "util/rng.hpp"

namespace wormsim::core {
namespace {

TEST(AloGates, ValidatesDimensions) {
  EXPECT_THROW(AloGateCircuit(0, 3), std::invalid_argument);
  EXPECT_THROW(AloGateCircuit(6, 0), std::invalid_argument);
  EXPECT_THROW(AloGateCircuit(33, 2), std::invalid_argument);
  EXPECT_THROW(AloGateCircuit(32, 3), std::invalid_argument);  // 96 bits
  EXPECT_NO_THROW(AloGateCircuit(6, 3));
}

TEST(AloGates, WiresOnIdleNetwork) {
  const AloGateCircuit circuit(6, 3);
  const auto w = circuit.trace(/*busy=*/0, /*useful=*/0b000101);
  EXPECT_EQ(w.c_gates, 0b111111u);  // every channel has free VCs
  EXPECT_EQ(w.d_gates, 0b111111u);  // every channel completely free
  EXPECT_EQ(w.b_gates, 0b111111u);
  EXPECT_EQ(w.e_gates, 0b000101u);
  EXPECT_TRUE(w.a_gate);
  EXPECT_TRUE(w.f_gate);
  EXPECT_TRUE(w.g_gate);
}

TEST(AloGates, WiresOnSaturatedUsefulChannel) {
  const AloGateCircuit circuit(6, 3);
  // Channel 0 fully busy (bits 0..2), channel 2 has one busy VC.
  const std::uint64_t busy = 0b111ULL | (0b001ULL << 6);
  const auto w = circuit.trace(busy, /*useful=*/0b000101);
  EXPECT_EQ(w.c_gates & 0b1u, 0u);       // channel 0 has no free VC
  EXPECT_NE(w.c_gates & 0b100u, 0u);     // channel 2 still has free VCs
  EXPECT_EQ(w.d_gates & 0b101u, 0u);     // neither useful channel empty
  EXPECT_FALSE(w.a_gate);
  EXPECT_FALSE(w.f_gate);
  EXPECT_FALSE(w.g_gate);
}

TEST(AloGates, RuleBRescues) {
  const AloGateCircuit circuit(6, 3);
  // Channel 0 fully busy but channel 2 completely free.
  const std::uint64_t busy = 0b111ULL;
  const auto w = circuit.trace(busy, /*useful=*/0b000101);
  EXPECT_FALSE(w.a_gate);
  EXPECT_TRUE(w.f_gate);
  EXPECT_TRUE(w.g_gate);
}

TEST(AloGates, EquivalentToBehaviouralPredicateExhaustive) {
  // Small configuration (3 channels x 2 VCs = 6 status bits): check all
  // 2^6 status registers x 2^3 useful masks against evaluate_alo().
  const unsigned channels = 3, vcs = 2;
  const AloGateCircuit circuit(channels, vcs);
  testing::FakeStatus status(1, channels, vcs);
  for (std::uint64_t busy = 0; busy < (1u << (channels * vcs)); ++busy) {
    for (std::uint32_t useful = 0; useful < (1u << channels); ++useful) {
      for (unsigned c = 0; c < channels; ++c) {
        const auto busy_c = (busy >> (c * vcs)) & 0b11;
        status.set_free(0, static_cast<ChannelId>(c),
                        static_cast<std::uint32_t>(~busy_c & 0b11));
      }
      const bool behavioural =
          evaluate_alo(status.free_row(0), vcs, useful).allow();
      const bool gates = circuit.evaluate(busy, useful);
      ASSERT_EQ(gates, behavioural)
          << "busy=" << busy << " useful=" << useful;
    }
  }
}

TEST(AloGates, EquivalentToBehaviouralPredicateRandomPaperSize) {
  // Paper configuration: 6 channels x 3 VCs. Randomized equivalence.
  const unsigned channels = 6, vcs = 3;
  const AloGateCircuit circuit(channels, vcs);
  testing::FakeStatus status(1, channels, vcs);
  util::Rng rng(77);
  for (int iter = 0; iter < 20000; ++iter) {
    const std::uint64_t busy = rng.bits() & ((1ULL << (channels * vcs)) - 1);
    const auto useful =
        static_cast<std::uint32_t>(rng.bits() & ((1u << channels) - 1));
    for (unsigned c = 0; c < channels; ++c) {
      const auto busy_c = (busy >> (c * vcs)) & 0b111;
      status.set_free(0, static_cast<ChannelId>(c),
                      static_cast<std::uint32_t>(~busy_c & 0b111));
    }
    const bool behavioural =
        evaluate_alo(status.free_row(0), vcs, useful).allow();
    ASSERT_EQ(circuit.evaluate(busy, useful), behavioural)
        << "busy=" << busy << " useful=" << useful;
  }
}

TEST(AloGates, PackBusyBitsMatchesStatus) {
  testing::FakeStatus status(2, 4, 3);
  status.set_free(1, 0, 0b010);  // busy = 101
  status.set_free(1, 2, 0b000);  // busy = 111
  const std::uint64_t bits = AloGateCircuit::pack_busy_bits(status, 1);
  EXPECT_EQ((bits >> 0) & 0b111, 0b101u);
  EXPECT_EQ((bits >> 3) & 0b111, 0b000u);
  EXPECT_EQ((bits >> 6) & 0b111, 0b111u);
}

TEST(AloGates, GateCountIsSmall) {
  // The paper's cost claim: pure combinational logic. For the 8-ary
  // 3-cube router (6 channels, 3 VCs) the whole mechanism is well under
  // a hundred two-input-gate equivalents.
  const AloGateCircuit circuit(6, 3);
  EXPECT_GT(circuit.gate_count(), 0u);
  EXPECT_LT(circuit.gate_count(), 100u);
}

}  // namespace
}  // namespace wormsim::core
