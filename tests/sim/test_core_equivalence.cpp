// Differential harness for the two simulation cores: SimCore::Dense
// (reference full scan) versus SimCore::Active (active-set iteration)
// must be indistinguishable in results — byte-identical sweep CSVs,
// exactly equal SimResult fields, and equal microarchitectural state in
// lock-step execution. Any divergence is a bug in the active-set
// bookkeeping, never an acceptable approximation.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "../support/invariants.hpp"
#include "config/presets.hpp"
#include "fault/schedule.hpp"
#include "harness/sweep.hpp"
#include "harness/telemetry.hpp"
#include "metrics/spatial.hpp"
#include "obs/tracer.hpp"
#include "sim/flow_control.hpp"
#include "sim_test_util.hpp"

namespace wormsim::sim {
namespace {

using testing::default_config;

/// FAST-sized experiment base: 64 nodes, short windows. Small enough
/// that the full differential matrix stays test-suite friendly, long
/// enough that near-saturation and oversaturated points exercise
/// deadlock detection/recovery and limiter state.
config::SimConfig equivalence_base() {
  config::SimConfig cfg = config::small_base();
  cfg.protocol.warmup = 300;
  cfg.protocol.measure = 1000;
  cfg.protocol.drain_max = 1200;
  cfg.seed = 0xD1FF0001;
  return cfg;
}

void expect_results_identical(const metrics::SimResult& d,
                              const metrics::SimResult& a,
                              const std::string& label) {
  SCOPED_TRACE(label);
  // Volume counters.
  EXPECT_EQ(d.messages_generated, a.messages_generated);
  EXPECT_EQ(d.messages_injected, a.messages_injected);
  EXPECT_EQ(d.messages_delivered, a.messages_delivered);
  EXPECT_EQ(d.measured_generated, a.measured_generated);
  EXPECT_EQ(d.measured_delivered, a.measured_delivered);
  EXPECT_EQ(d.messages_injected_window, a.messages_injected_window);
  // Latency statistics are accumulated in the same order from the same
  // values, so even the floating-point results are exactly equal.
  EXPECT_EQ(d.latency_mean, a.latency_mean);
  EXPECT_EQ(d.latency_stddev, a.latency_stddev);
  EXPECT_EQ(d.latency_min, a.latency_min);
  EXPECT_EQ(d.latency_max, a.latency_max);
  EXPECT_EQ(d.latency_p50, a.latency_p50);
  EXPECT_EQ(d.latency_p95, a.latency_p95);
  EXPECT_EQ(d.latency_p99, a.latency_p99);
  EXPECT_EQ(d.accepted_flits_per_node_cycle, a.accepted_flits_per_node_cycle);
  // Deadlocks, queues, probes.
  EXPECT_EQ(d.deadlock_detections, a.deadlock_detections);
  EXPECT_EQ(d.deadlock_pct, a.deadlock_pct);
  EXPECT_EQ(d.avg_queue_len, a.avg_queue_len);
  EXPECT_EQ(d.max_queue_len, a.max_queue_len);
  EXPECT_EQ(d.probe.samples, a.probe.samples);
  EXPECT_EQ(d.probe.rule_a, a.probe.rule_a);
  EXPECT_EQ(d.probe.rule_b, a.probe.rule_b);
  EXPECT_EQ(d.probe.either, a.probe.either);
  // Run shape.
  EXPECT_EQ(d.total_cycles, a.total_cycles);
  EXPECT_EQ(d.fully_drained, a.fully_drained);
  EXPECT_EQ(d.saturated, a.saturated);
  // The occupied-link average is exact simulation state, not an
  // active-set diagnostic, so it must match across cores too.
  EXPECT_EQ(d.avg_active_links, a.avg_active_links);
}

void expect_networks_equal(const Simulator& ds, const Simulator& as, Cycle at);

/// The full differential matrix the PR promises: every limitation
/// mechanism under three traffic patterns at a low, a near-saturation
/// and an oversaturated load, as one sweep per core per pattern. The
/// sweep CSV — the artifact figures are drawn from — must be
/// byte-identical.
class CoreEquivalence
    : public ::testing::TestWithParam<traffic::PatternKind> {};

TEST_P(CoreEquivalence, SweepCsvIsByteIdentical) {
  harness::SweepSpec spec;
  spec.base = equivalence_base();
  spec.base.workload.pattern = GetParam();
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO,
                   core::LimiterKind::LF, core::LimiterKind::DRIL};
  spec.offered_loads = {0.1, 0.45, 1.0};
  spec.jobs = 1;

  spec.base.sim.core = SimCore::Dense;
  const auto dense = harness::run_sweep(spec);
  spec.base.sim.core = SimCore::Active;
  const auto active = harness::run_sweep(spec);

  ASSERT_EQ(dense.size(), active.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    expect_results_identical(
        dense[i].result, active[i].result,
        std::string(core::limiter_name(dense[i].limiter)) + " @ " +
            std::to_string(dense[i].offered));
  }

  std::ostringstream dense_csv;
  harness::write_sweep_csv(dense_csv, dense);
  std::ostringstream active_csv;
  harness::write_sweep_csv(active_csv, active);
  EXPECT_EQ(dense_csv.str(), active_csv.str());
}

INSTANTIATE_TEST_SUITE_P(Patterns, CoreEquivalence,
                         ::testing::Values(traffic::PatternKind::Uniform,
                                           traffic::PatternKind::Complement,
                                           traffic::PatternKind::BitReversal),
                         [](const auto& info) {
                           std::string name(traffic::pattern_name(info.param));
                           // gtest param names must be alphanumeric.
                           std::erase_if(name,
                                         [](char c) { return !std::isalnum(
                                               static_cast<unsigned char>(c)); });
                           return name;
                         });

/// The active core's computed route words and blocked-header route
/// memo, and the single limiter/selection call both cores share, must
/// emit the dense reference's sweep CSV under every routing algorithm
/// and selection policy — not just the TFAR/MaxFreeVcs default the
/// pattern matrix above runs. They are pure speedups, never approximations.
TEST(CoreEquivalence, EveryRoutingAndSelectionKeepsSweepCsvByteIdentical) {
  harness::SweepSpec spec;
  spec.base = equivalence_base();
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO,
                   core::LimiterKind::LF, core::LimiterKind::DRIL};
  spec.offered_loads = {0.1, 1.0};
  spec.jobs = 1;

  struct Variant {
    routing::Algorithm algorithm;
    routing::SelectionPolicy selection;
  };
  const Variant variants[] = {
      {routing::Algorithm::DOR, routing::SelectionPolicy::MaxFreeVcs},
      {routing::Algorithm::Duato, routing::SelectionPolicy::MaxFreeVcs},
      {routing::Algorithm::TFAR, routing::SelectionPolicy::FirstFit},
      {routing::Algorithm::TFAR, routing::SelectionPolicy::RoundRobin},
  };
  for (const auto& v : variants) {
    SCOPED_TRACE(std::string(routing::algorithm_name(v.algorithm)) + "/" +
                 std::string(routing::selection_name(v.selection)));
    spec.base.sim.algorithm = v.algorithm;
    spec.base.sim.selection = v.selection;
    spec.base.sim.core = SimCore::Dense;
    std::ostringstream dense;
    harness::write_sweep_csv(dense, harness::run_sweep(spec));
    spec.base.sim.core = SimCore::Active;
    std::ostringstream active;
    harness::write_sweep_csv(active, harness::run_sweep(spec));
    EXPECT_EQ(dense.str(), active.str());
  }
}

/// Sweep CSV captured from the pre-flow-control-refactor tree (commit
/// 1a11c95) for the exact configuration below: equivalence_base(), all
/// four limiters, loads {0.1, 1.0}, serial sweep on the dense core.
/// The FlowControlScheme extraction promises the default wormhole
/// scheme is byte-identical to the fused pre-refactor channel logic;
/// this string is the proof anchor — it must never be regenerated to
/// make a refactor pass.
constexpr const char* kWormholeGoldenCsv =
    "mechanism,offered_flits_node_cycle,latency_avg_cycles,"
    "latency_sd_cycles,latency_p99_cycles,accepted_flits_node_cycle,"
    "deadlock_pct,avg_queue_len,fully_drained,saturated\n"
    "none,0.1,30.64231738,6.605701123,47,0.0989375,0,0,1,0\n"
    "none,1,414.6392016,253.9850793,1145.5,0.670890625,3.313911143,"
    "1384.65,0,1\n"
    "alo,0.1,30.83957219,6.563220794,47.66666667,0.092234375,0,0,1,0\n"
    "alo,1,298.2652809,159.7969833,752,0.762109375,0,970.4444444,1,1\n"
    "lf,0.1,31.0719603,6.811702299,50,0.101734375,0,0,1,0\n"
    "lf,1,355.2577475,212.3022723,1005,0.733390625,0,1278.125,0,1\n"
    "dril,0.1,31.18537859,6.400032254,48.33333333,0.0976875,0,0,1,0\n"
    "dril,1,338.1130166,312.0642251,1433,0.71309375,0,1393.1,0,1\n";

harness::SweepSpec golden_sweep_spec() {
  harness::SweepSpec spec;
  spec.base = equivalence_base();
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO,
                   core::LimiterKind::LF, core::LimiterKind::DRIL};
  spec.offered_loads = {0.1, 1.0};
  spec.jobs = 1;
  return spec;
}

std::string sweep_csv(const harness::SweepSpec& spec) {
  std::ostringstream csv;
  harness::write_sweep_csv(csv, harness::run_sweep(spec));
  return csv.str();
}

/// The tentpole guarantee: wormhole-through-the-interface reproduces
/// the pre-refactor sweep byte-for-byte on every core and under any
/// --jobs count. Any diff here means the interface extraction changed
/// behavior, which it is never allowed to do.
TEST(FlowControl, WormholeViaInterfaceMatchesPreRefactorGolden) {
  harness::SweepSpec spec = golden_sweep_spec();
  for (const auto core : {SimCore::Dense, SimCore::Active}) {
    for (const unsigned jobs : {1u, 4u}) {
      SCOPED_TRACE(std::string(sim_core_name(core)) +
                   " jobs=" + std::to_string(jobs));
      spec.base.sim.core = core;
      spec.jobs = jobs;
      EXPECT_EQ(kWormholeGoldenCsv, sweep_csv(spec));
    }
  }
}

/// Attaching the online statistics engine — latency histograms, the
/// windowed series, the saturation detector, and even the wall-clock
/// phase profiler — must not perturb the simulation: the golden sweep
/// CSV stays byte-identical with it enabled, on both cores, at any
/// --jobs count. The observers only ever read simulation state.
TEST(CoreEquivalence, OnlineStatsKeepSweepCsvByteIdentical) {
  harness::SweepSpec spec = golden_sweep_spec();
  spec.online = true;
  spec.online_config.window_cycles = 128;
  spec.online_config.profile_period = 64;
  for (const auto core : {SimCore::Dense, SimCore::Active}) {
    for (const unsigned jobs : {1u, 4u}) {
      SCOPED_TRACE(std::string(sim_core_name(core)) +
                   " jobs=" + std::to_string(jobs));
      spec.base.sim.core = core;
      spec.jobs = jobs;
      EXPECT_EQ(kWormholeGoldenCsv, sweep_csv(spec));
    }
  }
}

/// Credit-based flow control with zero return latency is wormhole: the
/// credit counter then equals the receiver occupancy the wormhole gate
/// reads directly, so the schemes must produce the byte-identical CSV
/// — including the credit bookkeeping, generation tags and teardown
/// resets running hot underneath.
TEST(FlowControl, CreditZeroDelayIsByteIdenticalToWormhole) {
  harness::SweepSpec spec = golden_sweep_spec();
  spec.base.sim.flow.scheme = FlowControl::Credit;
  spec.base.sim.flow.credit_return_delay = 0;
  for (const auto core : {SimCore::Dense, SimCore::Active}) {
    SCOPED_TRACE(sim_core_name(core));
    spec.base.sim.core = core;
    EXPECT_EQ(kWormholeGoldenCsv, sweep_csv(spec));
  }
}

/// With buffers at least one whole message deep, virtual cut-through's
/// whole-packet admission test always passes exactly when wormhole's
/// free-VC claim does (a free VC has occupancy zero), so the two
/// schemes coincide — byte-identical CSVs at buf_flits = msg_len.
TEST(FlowControl, VctIsByteIdenticalToWormholeAtDeepBuffers) {
  harness::SweepSpec spec = golden_sweep_spec();
  spec.base.sim.net.buf_flits = 16;  // == message length
  spec.base.sim.core = SimCore::Dense;
  const std::string reference = sweep_csv(spec);

  spec.base.sim.flow.scheme = FlowControl::Vct;
  for (const auto core : {SimCore::Dense, SimCore::Active}) {
    SCOPED_TRACE(sim_core_name(core));
    spec.base.sim.core = core;
    EXPECT_EQ(reference, sweep_csv(spec));
  }
}

/// The dense-vs-active and serial-vs-parallel equivalence contracts
/// extend to the alternative schemes: credit (with a real return
/// latency) and VCT each emit one CSV, independent of core, dispatch
/// mode and job count.
TEST(FlowControl, AlternativeSchemesAgreeAcrossCoresAndJobs) {
  struct Scheme {
    const char* label;
    FlowControl scheme;
    unsigned credit_delay;
    std::uint32_t buf_flits;
  };
  const Scheme schemes[] = {
      {"credit-delay2", FlowControl::Credit, 2, 4},
      {"vct", FlowControl::Vct, 0, 16},
  };
  for (const auto& s : schemes) {
    SCOPED_TRACE(s.label);
    harness::SweepSpec spec = golden_sweep_spec();
    spec.base.sim.flow.scheme = s.scheme;
    spec.base.sim.flow.credit_return_delay = s.credit_delay;
    spec.base.sim.net.buf_flits = s.buf_flits;
    spec.base.sim.core = SimCore::Dense;
    const std::string reference = sweep_csv(spec);
    for (const auto core : {SimCore::Dense, SimCore::Active}) {
      for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(std::string(sim_core_name(core)) + " jobs=" +
                     std::to_string(jobs));
        spec.base.sim.core = core;
        spec.jobs = jobs;
        EXPECT_EQ(reference, sweep_csv(spec));
      }
    }
  }
}

/// Cross-scheme statistical sanity at low load: every scheme drains
/// completely and delivers every generated message; generation is
/// workload-side, so the delivered counts agree across schemes; and
/// the latency ordering is physical — credit's non-zero return latency
/// can only slow streaming down relative to ideal wormhole credits,
/// and VCT with message-deep buffers can never be slower than it.
TEST(FlowControl, SchemesConserveAndOrderLatencyAtLowLoad) {
  struct Run {
    const char* label;
    FlowControl scheme;
    unsigned credit_delay;
    std::uint32_t buf_flits;
    metrics::SimResult result;
  };
  Run runs[] = {
      {"wormhole", FlowControl::Wormhole, 0, 4, {}},
      {"credit-delay2", FlowControl::Credit, 2, 4, {}},
      {"vct", FlowControl::Vct, 0, 16, {}},
  };
  for (auto& r : runs) {
    SCOPED_TRACE(r.label);
    config::SimConfig cfg = equivalence_base();
    cfg.workload.offered_flits_per_node_cycle = 0.1;
    cfg.sim.flow.scheme = r.scheme;
    cfg.sim.flow.credit_return_delay = r.credit_delay;
    cfg.sim.net.buf_flits = r.buf_flits;
    r.result = config::run_experiment(cfg);
    // Full drain: every message generated in the measurement window
    // was delivered (generation keeps running during the drain phase,
    // so the total counters intentionally disagree).
    EXPECT_TRUE(r.result.fully_drained);
    EXPECT_EQ(r.result.measured_generated, r.result.measured_delivered);
    EXPECT_EQ(r.result.deadlock_detections, 0u);
  }
  // Same seed, same workload: generation is independent of the scheme,
  // so the delivered measured cohort is identical in size.
  EXPECT_EQ(runs[0].result.measured_delivered,
            runs[1].result.measured_delivered);
  EXPECT_EQ(runs[0].result.measured_delivered,
            runs[2].result.measured_delivered);
  // wormhole <= credit: delayed credit returns only ever add stalls.
  EXPECT_LE(runs[0].result.latency_mean, runs[1].result.latency_mean);
  // vct (deep buffers) ~<= wormhole (shallow): whole-message buffers
  // remove downstream backpressure bubbles. At this load contention is
  // rare, so the schemes nearly tie — allow sub-cycle noise, but catch
  // any systematic slowdown.
  EXPECT_LE(runs[2].result.latency_mean, runs[0].result.latency_mean + 0.5);
}

/// Lock-step microscope over the schemes themselves: for each scheme
/// the dense core and the active core (computed routes, route memo,
/// active-set iteration) must agree on complete channel-level state
/// every cycle, with the full shared invariant battery — including
/// credit conservation — green on both.
class FlowControlLockStep : public ::testing::TestWithParam<FlowControl> {};

TEST_P(FlowControlLockStep, ChannelStateAgreesEveryCycle) {
  const topo::KAryNCube topo(4, 2);
  const auto make = [&](SimCore core) {
    SimulatorConfig cfg = default_config();
    cfg.core = core;
    cfg.limiter.kind = core::LimiterKind::ALO;
    cfg.flow.scheme = GetParam();
    if (GetParam() == FlowControl::Vct) {
      cfg.net.buf_flits = 16;  // admission needs message-deep buffers
    }
    traffic::WorkloadConfig wcfg;
    wcfg.offered_flits_per_node_cycle = 1.1;  // well past saturation
    wcfg.length.fixed = 16;
    auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 901);
    return std::make_unique<Simulator>(topo, cfg, std::move(workload));
  };
  auto dense = make(SimCore::Dense);
  auto active = make(SimCore::Active);

  for (int block = 0; block < 200; ++block) {
    for (int i = 0; i < 10; ++i) {
      dense->step();
      active->step();
    }
    const Cycle at = dense->cycle();
    ASSERT_EQ(at, active->cycle());
    expect_networks_equal(*dense, *active, at);
    ASSERT_EQ(dense->total_delivered(), active->total_delivered());
    ASSERT_EQ(dense->messages_in_flight(), active->messages_in_flight());
    ASSERT_EQ(dense->source_queue_total(), active->source_queue_total());
    ASSERT_EQ(dense->total_deadlock_detections(),
              active->total_deadlock_detections());
    ASSERT_TRUE(testing::check_all_invariants(*dense));
    ASSERT_TRUE(testing::check_all_invariants(*active));
  }
  // Both cores must account credit messages identically.
  ASSERT_EQ(dense->flow_control().credit_messages(),
            active->flow_control().credit_messages());
  if (GetParam() == FlowControl::Credit) {
    EXPECT_GT(dense->flow_control().credit_messages(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, FlowControlLockStep,
                         ::testing::Values(FlowControl::Wormhole,
                                           FlowControl::Credit,
                                           FlowControl::Vct),
                         [](const auto& info) {
                           return std::string(
                               flow_control_name(info.param));
                         });

/// Observability must observe, never participate: attaching a tracer
/// and spatial metrics to a run cannot change a single result field on
/// either core, even with deadlock recovery and limiter state hot.
TEST(CoreEquivalence, InstrumentationDoesNotPerturbResults) {
  for (const auto core : {SimCore::Dense, SimCore::Active}) {
    config::SimConfig base = equivalence_base();
    base.sim.core = core;
    base.sim.limiter.kind = core::LimiterKind::ALO;
    base.workload.offered_flits_per_node_cycle = 1.0;  // past saturation

    const auto plain = config::run_experiment(base);

    obs::Tracer tracer(1u << 12);
    const topo::KAryNCube topo(base.k, base.n);
    metrics::SpatialMetrics spatial(
        topo.num_nodes(), topo.num_nodes() * topo.num_channels(),
        base.sim.net.num_vcs);
    config::RunHooks hooks;
    hooks.tracer = &tracer;
    hooks.spatial = &spatial;
    const auto instrumented = config::run_experiment(base, hooks);

    // The hooks saw real traffic...
    EXPECT_GT(tracer.events_recorded(), 0u);
    std::uint64_t ejected = 0;
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
      ejected += spatial.node_ejected_flits(n);
    }
    EXPECT_GT(ejected, 0u);
    // ...and the results are exactly what the plain run produced.
    expect_results_identical(
        plain, instrumented,
        "instrumented " + std::string(sim_core_name(core)));
  }
}

/// Messages longer than a VcState byte counter can hold (300 flits)
/// and longer than 16 bits (70,000 flits) are delivered whole: with the
/// closed-form latency when alone, and identically on both cores when
/// a second worm waits behind the first for the destination's single
/// ejection port, which fills its buffers to capacity (255 flits in the
/// deep-buffer case).
TEST(CoreEquivalence, LongMessagesDeliveredIntact) {
  for (const std::uint32_t length : {300u, 70000u}) {
    for (const unsigned buf : {4u, 255u}) {
      SCOPED_TRACE("length " + std::to_string(length) + " buf " +
                   std::to_string(buf));
      metrics::SimResult shared[2];
      Cycle done[2] = {0, 0};
      for (const SimCore core : {SimCore::Dense, SimCore::Active}) {
        SimulatorConfig cfg = default_config();
        cfg.core = core;
        cfg.net.buf_flits = buf;
        // Alone: every flit arrives, with the no-contention latency.
        auto alone = testing::make_sim(4, 2, cfg);
        ASSERT_TRUE(alone->push_message(0, 10, length));
        ASSERT_TRUE(testing::run_until_delivered(*alone, 1, 2 * length + 200));
        EXPECT_EQ(alone->collector().finish(16).latency_max,
                  static_cast<double>(
                      testing::ideal_latency(*alone, 0, 10, length)));
        EXPECT_TRUE(alone->network().quiescent());
        EXPECT_EQ(alone->network().flits_in_network(), 0u);
        // Two worms, one ejection port at their common destination.
        cfg.net.eje_channels = 1;
        auto pair = testing::make_sim(4, 2, cfg);
        ASSERT_TRUE(pair->push_message(0, 10, length));
        ASSERT_TRUE(pair->push_message(8, 10, length));
        const Network& net = pair->network();
        unsigned fullest = 0;
        for (Cycle c = 0; c < 4 * length + 400; ++c) {
          if (pair->total_delivered() == 2) break;
          pair->step();
          for (std::size_t slot = 0; slot < net.num_vc_slots(); ++slot) {
            fullest = std::max<unsigned>(
                fullest, net.vc_at(static_cast<VcSlot>(slot)).buffered);
          }
        }
        ASSERT_EQ(pair->total_delivered(), 2u);
        EXPECT_EQ(fullest, buf);
        EXPECT_TRUE(net.quiescent());
        std::string why;
        EXPECT_TRUE(pair->check_conservation(&why)) << why;
        const auto i = static_cast<std::size_t>(core == SimCore::Active);
        shared[i] = pair->collector().finish(16);
        done[i] = pair->cycle();
      }
      EXPECT_EQ(done[0], done[1]);
      EXPECT_EQ(shared[0].latency_mean, shared[1].latency_mean);
      EXPECT_EQ(shared[0].latency_max, shared[1].latency_max);
      EXPECT_EQ(shared[0].messages_delivered, 2u);
      EXPECT_EQ(shared[1].messages_delivered, 2u);
    }
  }
}

/// Lock-step microscope: one dense and one active simulator advance a
/// cycle at a time from identical seeds; their complete channel-level
/// state must agree at every comparison point, not just the end-of-run
/// aggregates. High offered load keeps deadlock recovery and limiter
/// paths hot.
class LockStep : public ::testing::TestWithParam<core::LimiterKind> {};

void expect_networks_equal(const Simulator& ds, const Simulator& as,
                           Cycle at) {
  const Network& d = ds.network();
  const Network& a = as.network();
  ASSERT_EQ(d.num_links(), a.num_links());
  for (LinkId l = 0; l < d.num_links(); ++l) {
    const Link& dl = d.link(l);
    const Link& al = a.link(l);
    ASSERT_EQ(dl.active_vc_mask, al.active_vc_mask)
        << "link " << l << " cycle " << at;
    ASSERT_EQ(dl.rr_next, al.rr_next) << "link " << l << " cycle " << at;
    ASSERT_EQ(dl.in_flight.size(), al.in_flight.size())
        << "link " << l << " cycle " << at;
    ASSERT_EQ(dl.flits_carried, al.flits_carried)
        << "link " << l << " cycle " << at;
    for (unsigned v = 0; v < d.vcs_on(l); ++v) {
      const VcRef ref{l, static_cast<std::uint8_t>(v)};
      const VcState& dv = d.vc(ref);
      const VcState& av = a.vc(ref);
      ASSERT_EQ(dv.msg == kNoMsg, av.msg == kNoMsg)
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(dv.in_count(), av.in_count())
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(dv.out_count, av.out_count)
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(dv.occupancy, av.occupancy)
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(d.header_arrival(d.vc_flat_index(ref)),
                a.header_arrival(a.vc_flat_index(ref)))
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(dv.last_activity, av.last_activity)
          << "vc " << l << "/" << v << " cycle " << at;
      ASSERT_EQ(dv.pending_route, av.pending_route)
          << "vc " << l << "/" << v << " cycle " << at;
    }
  }
  ASSERT_EQ(d.flits_in_network(), a.flits_in_network()) << "cycle " << at;
}

TEST_P(LockStep, ChannelStateAgreesEveryCycle) {
  const unsigned k = 4, n = 2;
  const topo::KAryNCube topo(k, n);
  const auto make = [&](SimCore core) {
    SimulatorConfig cfg = default_config();
    cfg.core = core;
    cfg.limiter.kind = GetParam();
    traffic::WorkloadConfig wcfg;
    wcfg.offered_flits_per_node_cycle = 1.1;  // well past saturation
    wcfg.length.fixed = 16;
    auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 777);
    return std::make_unique<Simulator>(topo, cfg, std::move(workload));
  };
  auto dense = make(SimCore::Dense);
  auto active = make(SimCore::Active);

  for (int block = 0; block < 300; ++block) {
    for (int i = 0; i < 10; ++i) {
      dense->step();
      active->step();
    }
    const Cycle at = dense->cycle();
    ASSERT_EQ(at, active->cycle());
    expect_networks_equal(*dense, *active, at);
    ASSERT_EQ(dense->total_delivered(), active->total_delivered());
    ASSERT_EQ(dense->messages_in_flight(), active->messages_in_flight());
    ASSERT_EQ(dense->source_queue_total(), active->source_queue_total());
    ASSERT_EQ(dense->recovery_pending(), active->recovery_pending());
    ASSERT_EQ(dense->total_deadlock_detections(),
              active->total_deadlock_detections());
    for (NodeId node = 0; node < topo.num_nodes(); ++node) {
      ASSERT_EQ(dense->source_queue_len(node), active->source_queue_len(node))
          << "node " << node << " cycle " << at;
      ASSERT_EQ(dense->collector().fairness().at(node),
                active->collector().fairness().at(node))
          << "node " << node << " cycle " << at;
    }
    std::string why;
    ASSERT_TRUE(active->check_active_sets(&why)) << why;
    ASSERT_TRUE(active->check_conservation(&why)) << why;
    ASSERT_TRUE(dense->check_active_sets(&why)) << why;
    ASSERT_TRUE(dense->check_conservation(&why)) << why;
  }
}

INSTANTIATE_TEST_SUITE_P(Limiters, LockStep,
                         ::testing::Values(core::LimiterKind::None,
                                           core::LimiterKind::ALO,
                                           core::LimiterKind::LF,
                                           core::LimiterKind::DRIL),
                         [](const auto& info) {
                           return std::string(
                               core::limiter_name(info.param));
                         });

/// The sharded core's headline contract: the golden sweep CSV is
/// byte-identical for every --shards x --jobs combination. At this
/// 64-node scale the effective shard count clamps to the single bitmap
/// word (the sharded machinery engages but degenerates to one lane);
/// RealPartitionKeepsSweepCsvByteIdentical below covers true
/// multi-lane execution.
TEST(ShardEquivalence, GoldenSweepCsvByteIdenticalAcrossShardsAndJobs) {
  harness::SweepSpec spec = golden_sweep_spec();
  spec.base.sim.core = SimCore::Active;
  for (const unsigned shards : {1u, 2u, 4u}) {
    for (const unsigned jobs : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " jobs=" + std::to_string(jobs));
      spec.base.sim.shards = shards;
      spec.jobs = jobs;
      EXPECT_EQ(kWormholeGoldenCsv, sweep_csv(spec));
    }
  }
}

/// True multi-lane equivalence: a 16-ary 2-cube (256 nodes = 4 bitmap
/// words) genuinely splits across 2 and 4 shards. The sweep CSV must
/// match the sequential active core byte-for-byte, at a drained low
/// load and an oversaturated point with deadlock recovery hot.
TEST(ShardEquivalence, RealPartitionKeepsSweepCsvByteIdentical) {
  harness::SweepSpec spec;
  spec.base = equivalence_base();
  spec.base.k = 16;  // 256 nodes
  spec.base.sim.core = SimCore::Active;
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO};
  spec.offered_loads = {0.1, 1.0};
  spec.jobs = 1;

  spec.base.sim.shards = 1;
  const std::string reference = sweep_csv(spec);
  for (const unsigned shards : {2u, 4u}) {
    for (const unsigned jobs : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " jobs=" + std::to_string(jobs));
      spec.base.sim.shards = shards;
      spec.jobs = jobs;
      EXPECT_EQ(reference, sweep_csv(spec));
    }
  }
}

/// Telemetry across shard counts: every record must be byte-identical
/// once the volatile "perf" tail (which deliberately echoes the shard
/// count and the memory estimate) is stripped — the same contract the
/// --jobs determinism test enforces.
TEST(ShardEquivalence, TelemetryByteIdenticalOutsidePerf) {
  const auto serialize = [](unsigned shards) {
    harness::SweepSpec spec;
    spec.base = equivalence_base();
    spec.base.k = 16;  // 256 nodes: real partitioning
    spec.base.sim.core = SimCore::Active;
    spec.base.sim.shards = shards;
    spec.limiters = {core::LimiterKind::ALO};
    spec.offered_loads = {0.1, 1.0};
    spec.jobs = 1;
    std::ostringstream out;
    harness::write_sweep_telemetry(out, spec, harness::run_sweep(spec),
                                   nullptr);
    return out.str();
  };
  const auto lines_of = [](const std::string& s) {
    std::vector<std::string> lines;
    std::istringstream in(s);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  };
  const auto strip_perf = [](std::string line) {
    const std::size_t pos = line.find(",\"perf\":");
    if (pos != std::string::npos) line.resize(pos);
    return line;
  };
  const auto seq = lines_of(serialize(1));
  const auto sharded = lines_of(serialize(4));
  ASSERT_EQ(seq.size(), sharded.size());
  bool saw_shards_field = false;
  bool saw_conflict_field = false;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(strip_perf(seq[i]), strip_perf(sharded[i])) << "record " << i;
    saw_shards_field |=
        sharded[i].find("\"shards\":{\"count\":4") != std::string::npos;
    saw_conflict_field |=
        sharded[i].find("\"commit_conflicts\":") != std::string::npos;
  }
  // And the perf section does report the execution strategy, including
  // the evaluate/commit speculation counters.
  EXPECT_TRUE(saw_shards_field);
  EXPECT_TRUE(saw_conflict_field);
}

/// The dense reference core stays single-threaded by design; asking it
/// to shard must be rejected up front, not silently ignored.
TEST(ShardEquivalence, DenseCoreRejectsSharding) {
  config::SimConfig cfg = equivalence_base();
  cfg.sim.core = SimCore::Dense;
  cfg.sim.shards = 2;
  EXPECT_THROW(config::validate(cfg), std::invalid_argument);
  EXPECT_THROW((void)config::build_simulator(cfg), std::invalid_argument);
}

/// The fault subsystem at rest must be invisible: a sweep whose base
/// config carries an empty schedule (no FaultManager at all) and one
/// whose schedule only fires beyond the run horizon (manager wired in,
/// per-cycle due() gate armed, RoutingLut forced on both cores) must
/// both emit the byte-identical CSV of the plain no-fault sweep, on
/// either core and for any --jobs count.
TEST(CoreEquivalence, FaultNoopKeepsSweepCsvByteIdentical) {
  harness::SweepSpec spec;
  spec.base = equivalence_base();
  spec.limiters = {core::LimiterKind::None, core::LimiterKind::ALO};
  spec.offered_loads = {0.1, 1.0};
  spec.jobs = 1;

  spec.base.sim.core = SimCore::Dense;
  std::ostringstream reference;
  harness::write_sweep_csv(reference, harness::run_sweep(spec));

  const fault::FaultSchedule beyond_horizon(
      {{std::uint64_t{1} << 40, fault::FaultKind::LinkKill, 0, 0}});
  for (const auto core : {SimCore::Dense, SimCore::Active}) {
    for (const unsigned jobs : {1u, 2u}) {
      SCOPED_TRACE(std::string(sim_core_name(core)) + " jobs=" +
                   std::to_string(jobs));
      spec.base.sim.core = core;
      spec.jobs = jobs;
      spec.base.sim.faults = fault::FaultSchedule{};
      std::ostringstream empty_csv;
      harness::write_sweep_csv(empty_csv, harness::run_sweep(spec));
      EXPECT_EQ(reference.str(), empty_csv.str());

      spec.base.sim.faults = beyond_horizon;
      std::ostringstream armed_csv;
      harness::write_sweep_csv(armed_csv, harness::run_sweep(spec));
      EXPECT_EQ(reference.str(), armed_csv.str());
    }
  }
}

/// Lock-step equivalence through live fault surgery: both cores take
/// the same kills and restores mid-traffic and must agree on complete
/// channel-level state, the lost-message count and the rebuild count at
/// every comparison point. Parametrized over the flow-control schemes
/// so fault teardown is exercised against credit bookkeeping and VCT
/// admission too.
class FaultLockStep : public ::testing::TestWithParam<FlowControl> {};

TEST_P(FaultLockStep, AgreesThroughFaultTransients) {
  const topo::KAryNCube topo(4, 2);
  const fault::FaultSchedule schedule({
      {400, fault::FaultKind::LinkKill, 5, 1},
      {700, fault::FaultKind::NodeKill, 10, 0},
      {1400, fault::FaultKind::LinkRestore, 5, 1},
      {1800, fault::FaultKind::NodeRestore, 10, 0},
  });
  const auto make = [&](SimCore core) {
    SimulatorConfig cfg = default_config();
    cfg.core = core;
    cfg.limiter.kind = core::LimiterKind::ALO;
    cfg.flow.scheme = GetParam();
    if (GetParam() == FlowControl::Vct) {
      cfg.net.buf_flits = 16;  // admission needs message-deep buffers
    }
    cfg.faults = schedule;
    traffic::WorkloadConfig wcfg;
    wcfg.offered_flits_per_node_cycle = 1.1;  // well past saturation
    wcfg.length.fixed = 16;
    auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 777);
    return std::make_unique<Simulator>(topo, cfg, std::move(workload));
  };
  auto dense = make(SimCore::Dense);
  auto active = make(SimCore::Active);

  for (int block = 0; block < 250; ++block) {
    for (int i = 0; i < 10; ++i) {
      dense->step();
      active->step();
    }
    const Cycle at = dense->cycle();
    ASSERT_EQ(at, active->cycle());
    expect_networks_equal(*dense, *active, at);
    ASSERT_EQ(dense->total_delivered(), active->total_delivered());
    ASSERT_EQ(dense->total_lost(), active->total_lost());
    ASSERT_EQ(dense->messages_in_flight(), active->messages_in_flight());
    ASSERT_EQ(dense->source_queue_total(), active->source_queue_total());
    ASSERT_EQ(dense->recovery_pending(), active->recovery_pending());
    ASSERT_EQ(dense->fault_events_applied(), active->fault_events_applied());
    ASSERT_EQ(dense->lut_rebuilds(), active->lut_rebuilds());
    ASSERT_TRUE(testing::check_all_invariants(*dense));
    ASSERT_TRUE(testing::check_all_invariants(*active));
  }
  EXPECT_EQ(dense->fault_events_applied(), 4u);
  EXPECT_EQ(dense->lut_rebuilds(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, FaultLockStep,
                         ::testing::Values(FlowControl::Wormhole,
                                           FlowControl::Credit,
                                           FlowControl::Vct),
                         [](const auto& info) {
                           return std::string(
                               flow_control_name(info.param));
                         });

/// A mid-run offered-load change (the epoch path): dense re-polls
/// naturally, the active core must tear down stale generation
/// subscriptions. End state has to agree exactly.
TEST(CoreEquivalence, LoadChangeMidRunStaysIdentical) {
  const topo::KAryNCube topo(4, 2);
  const auto make = [&](SimCore core) {
    SimulatorConfig cfg = default_config();
    cfg.core = core;
    traffic::WorkloadConfig wcfg;
    wcfg.offered_flits_per_node_cycle = 0.05;  // sparse: hints skip a lot
    wcfg.length.fixed = 16;
    auto workload = std::make_unique<traffic::Workload>(topo, wcfg, 4242);
    return std::make_unique<Simulator>(topo, cfg, std::move(workload));
  };
  auto dense = make(SimCore::Dense);
  auto active = make(SimCore::Active);
  const auto lockstep = [&](Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) {
      dense->step();
      active->step();
    }
  };
  lockstep(1500);
  dense->workload()->set_offered_load(0.8);
  active->workload()->set_offered_load(0.8);
  lockstep(1500);
  dense->workload()->set_offered_load(0.0);
  active->workload()->set_offered_load(0.0);
  lockstep(3000);
  expect_networks_equal(*dense, *active, dense->cycle());
  EXPECT_EQ(dense->total_delivered(), active->total_delivered());
  EXPECT_EQ(dense->source_queue_total(), active->source_queue_total());
  EXPECT_EQ(dense->collector().measured_generated(),
            active->collector().measured_generated());
}

/// Same matrix point under the bursty ON/OFF process, whose poll hints
/// are phase-bounded — a distinct skip-logic path from the plain
/// exponential process.
TEST(CoreEquivalence, BurstyProcessStaysIdentical) {
  config::SimConfig base = equivalence_base();
  base.workload.process = traffic::ProcessKind::Bursty;
  base.workload.offered_flits_per_node_cycle = 0.3;
  base.sim.core = SimCore::Dense;
  const auto d = config::run_experiment(base);
  base.sim.core = SimCore::Active;
  const auto a = config::run_experiment(base);
  expect_results_identical(d, a, "bursty");
}

/// Bernoulli polls every cycle by contract (its hint is always now+1),
/// so the active core must not skip any of its RNG draws.
TEST(CoreEquivalence, BernoulliProcessStaysIdentical) {
  config::SimConfig base = equivalence_base();
  base.workload.process = traffic::ProcessKind::Bernoulli;
  base.workload.offered_flits_per_node_cycle = 0.4;
  base.sim.core = SimCore::Dense;
  const auto d = config::run_experiment(base);
  base.sim.core = SimCore::Active;
  const auto a = config::run_experiment(base);
  expect_results_identical(d, a, "bernoulli");
}

}  // namespace
}  // namespace wormsim::sim
