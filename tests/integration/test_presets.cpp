// Config presets, validation and the sweep harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "config/presets.hpp"
#include "harness/sweep.hpp"

namespace wormsim {
namespace {

TEST(Presets, PaperBaseMatchesSection41) {
  const auto cfg = config::paper_base();
  EXPECT_EQ(cfg.k, 8u);
  EXPECT_EQ(cfg.n, 3u);
  EXPECT_EQ(topo::KAryNCube(cfg.k, cfg.n).num_nodes(), 512u);
  EXPECT_EQ(cfg.sim.net.num_vcs, 3u);
  EXPECT_EQ(cfg.sim.net.buf_flits, 4u);
  EXPECT_EQ(cfg.sim.net.inj_channels, 4u);
  EXPECT_EQ(cfg.sim.net.eje_channels, 4u);
  EXPECT_EQ(cfg.sim.algorithm, routing::Algorithm::TFAR);
  EXPECT_TRUE(cfg.sim.detection.enabled);
  EXPECT_EQ(cfg.sim.detection.threshold, 32u);
  EXPECT_EQ(cfg.workload.length.fixed, 16u);
  EXPECT_NO_THROW(config::validate(cfg));
}

TEST(Presets, SmallBaseIsValid) {
  EXPECT_NO_THROW(config::validate(config::small_base()));
  EXPECT_EQ(topo::KAryNCube(config::small_base().k, config::small_base().n)
                .num_nodes(),
            64u);
}

TEST(Presets, ValidationCatchesBadConfigs) {
  auto cfg = config::small_base();
  cfg.k = 1;
  EXPECT_THROW(config::validate(cfg), std::invalid_argument);

  cfg = config::small_base();
  cfg.sim.detection.enabled = false;  // TFAR needs recovery
  EXPECT_THROW(config::validate(cfg), std::invalid_argument);

  cfg = config::small_base();
  cfg.sim.algorithm = routing::Algorithm::Duato;
  cfg.sim.detection.enabled = false;  // fine: Duato is deadlock-free
  EXPECT_NO_THROW(config::validate(cfg));

  cfg = config::small_base();
  cfg.sim.net.num_vcs = 2;
  cfg.sim.algorithm = routing::Algorithm::Duato;  // needs >= 3 VCs
  EXPECT_THROW(config::validate(cfg), std::invalid_argument);

  cfg = config::small_base();
  cfg.protocol.measure = 0;
  EXPECT_THROW(config::validate(cfg), std::invalid_argument);
}

TEST(Presets, BuildSimulatorProducesRunnableInstance) {
  auto cfg = config::small_base();
  cfg.workload.offered_flits_per_node_cycle = 0.1;
  auto sim = config::build_simulator(cfg);
  sim->step_cycles(500);
  EXPECT_GT(sim->collector().finish(64).messages_generated, 0u);
}

/// Routing state is O(nodes): one coordinate-digit row per node and a
/// 32-byte memo key per VC slot. Only a fault schedule adds the
/// O(nodes^2) word table its first kill tabulates. Each VC slot costs
/// a 32-byte VcState plus its 8-byte header-arrival cycle.
TEST(Presets, MemoryEstimateCountsDigitRowsAndMemoKeys) {
  EXPECT_LE(sim::Simulator::route_memo_entry_bytes(), 32u);
  EXPECT_EQ(sizeof(sim::VcState), 32u);

  config::SimConfig cfg = config::paper_base();  // 512 nodes, 3 VCs
  const std::uint64_t nodes = 512;
  const std::uint64_t net_links = nodes * 2 * cfg.n;
  const std::uint64_t inj_links = nodes * cfg.sim.net.inj_channels;
  const std::uint64_t slots = net_links * cfg.sim.net.num_vcs + inj_links;
  const config::MemoryFootprint active = config::estimate_memory(cfg);
  EXPECT_EQ(active.network_bytes,
            (net_links + inj_links) * sizeof(sim::Link) +
                slots * (32 + sizeof(sim::Cycle)) +
                nodes * cfg.sim.net.eje_channels * sizeof(sim::EjectPort));
  EXPECT_EQ(active.lut_bytes, nodes * cfg.n * sizeof(std::uint16_t));
  EXPECT_EQ(active.status_bytes,
            net_links * (2 + sizeof(std::uint64_t)) +
                slots * sizeof(topo::NodeId) +
                slots * sim::Simulator::route_memo_entry_bytes());

  cfg.sim.core = sim::SimCore::Dense;  // virtual routing, no memo
  const config::MemoryFootprint dense = config::estimate_memory(cfg);
  EXPECT_EQ(dense.lut_bytes, 0u);
  EXPECT_EQ(dense.status_bytes, net_links * (2 + sizeof(std::uint64_t)) +
                                    slots * sizeof(topo::NodeId));

  cfg.sim.core = sim::SimCore::Active;
  const topo::KAryNCube topo(cfg.k, cfg.n);
  cfg.sim.faults = fault::make_transient(topo, 2, 100, 100, 7);
  EXPECT_EQ(config::estimate_memory(cfg).lut_bytes,
            active.lut_bytes + nodes * nodes * 4);

  // The 32,768-node cube carries 192 KiB of digit rows, not the
  // 4 GiB an N^2 table would need; the whole estimate is ~85 MiB.
  config::SimConfig big = config::paper_base();
  big.k = 32;
  const config::MemoryFootprint big_mem = config::estimate_memory(big);
  EXPECT_EQ(big_mem.lut_bytes, 32768u * 3 * sizeof(std::uint16_t));
  EXPECT_GT(big_mem.total_bytes(), 85u << 20);
  EXPECT_LT(big_mem.total_bytes(), 86u << 20);
}

TEST(Sweep, LoadRange) {
  const auto r = harness::load_range(0.1, 0.5, 5);
  ASSERT_EQ(r.size(), 5u);
  EXPECT_DOUBLE_EQ(r.front(), 0.1);
  EXPECT_DOUBLE_EQ(r.back(), 0.5);
  EXPECT_DOUBLE_EQ(r[2], 0.3);
  EXPECT_EQ(harness::load_range(0.1, 0.5, 1).size(), 1u);
  EXPECT_TRUE(harness::load_range(0.1, 0.5, 0).empty());
}

TEST(Sweep, RunsEveryPointAndEmitsCsv) {
  harness::SweepSpec spec;
  spec.base = config::small_base();
  spec.base.protocol.warmup = 500;
  spec.base.protocol.measure = 1500;
  spec.base.protocol.drain_max = 2000;
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO};
  spec.offered_loads = {0.05, 0.15};
  unsigned seen = 0;
  spec.on_point = [&](const harness::SweepPoint&) { ++seen; };

  const auto points = harness::run_sweep(spec);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(seen, 4u);
  for (const auto& p : points) {
    EXPECT_GT(p.result.messages_generated, 0u);
  }

  std::ostringstream os;
  harness::write_sweep_csv(os, points);
  const std::string out = os.str();
  EXPECT_NE(out.find("mechanism,offered"), std::string::npos);
  EXPECT_NE(out.find("none,"), std::string::npos);
  EXPECT_NE(out.find("alo,"), std::string::npos);
  // Header + 4 data rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(Sweep, ReplicatedSweepAggregatesRuns) {
  harness::SweepSpec spec;
  spec.base = config::small_base();
  spec.base.protocol.warmup = 500;
  spec.base.protocol.measure = 1500;
  spec.base.protocol.drain_max = 2000;
  spec.limiters = {core::LimiterKind::ALO};
  spec.offered_loads = {0.2};
  const auto points = harness::run_replicated_sweep(spec, 3);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].replications, 3u);
  EXPECT_EQ(points[0].latency.count(), 3u);
  // Independent seeds: some run-to-run spread, but a stable mean.
  EXPECT_GT(points[0].latency.sample_variance(), 0.0);
  EXPECT_NEAR(points[0].accepted.mean(), 0.2, 0.02);

  std::ostringstream os;
  harness::write_replicated_csv(os, points);
  EXPECT_NE(os.str().find("replications"), std::string::npos);
  EXPECT_NE(os.str().find("alo,"), std::string::npos);
}

TEST(Sweep, ReplicatedSweepZeroReplicationsEmpty) {
  harness::SweepSpec spec;
  spec.base = config::small_base();
  spec.limiters = {core::LimiterKind::ALO};
  spec.offered_loads = {0.2};
  EXPECT_TRUE(harness::run_replicated_sweep(spec, 0).empty());
}

TEST(Sweep, CommonFlagsOverrideConfig) {
  const char* argv[] = {"prog",          "--k=4",        "--n=2",
                        "--vcs=2",       "--msg-len=32", "--pattern=butterfly",
                        "--routing=dor", "--seed=99",    "--measure=1234"};
  util::ArgParser args(9, argv);
  auto cfg = config::paper_base();
  harness::apply_common_flags(cfg, args);
  EXPECT_EQ(cfg.k, 4u);
  EXPECT_EQ(cfg.n, 2u);
  EXPECT_EQ(cfg.sim.net.num_vcs, 2u);
  EXPECT_EQ(cfg.workload.length.fixed, 32u);
  EXPECT_EQ(cfg.workload.pattern, traffic::PatternKind::Butterfly);
  EXPECT_EQ(cfg.sim.algorithm, routing::Algorithm::DOR);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.protocol.measure, 1234u);
}

TEST(Sweep, DescribeMentionsKeyParameters) {
  const auto s = harness::describe(config::paper_base());
  EXPECT_NE(s.find("8-ary 3-cube"), std::string::npos);
  EXPECT_NE(s.find("512 nodes"), std::string::npos);
  EXPECT_NE(s.find("tfar"), std::string::npos);
}

}  // namespace
}  // namespace wormsim
