// Degraded-operation bench: kill links mid-measurement at saturation
// load and watch whether the injection limiters hold the network out of
// saturation through the reconfiguration transient (ISSUE 6 headline
// experiment).
//
// Default mode runs a None/ALO sweep at one offered load with a fault
// schedule folded into every point (2 random links die halfway through
// the measurement window unless --faults overrides the schedule) and
// prints the standard sweep CSV plus per-mechanism transient summaries;
// the usual observability flags (--metrics-out/--trace/--spatial-out)
// apply, so the run can drop JSONL telemetry and spatial heatmap CSVs
// of the degraded network.
//
// `--json [path]` runs the gated acceptance mode at the FAST operating
// point (8-ary 2-cube) and emits a JSON record with an embedded
// criteria block for tools/check_bench.py:
//   recovery_cycles_max          ALO throughput must return to >= 80%
//                                of its pre-fault mean within this many
//                                cycles of the kill
//   post_rebuild_cps_ratio_min   simulation throughput on the degraded
//                                network (2 dead links, rebuilt routes)
//                                must stay within this fraction of the
//                                healthy network's cycles/s: the median
//                                over alternating degraded/healthy pairs
//                                of the per-pair ratio of cycles per
//                                process CPU second
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>

#include "fault/schedule.hpp"
#include "fig_common.hpp"
#include "host_timing.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace wormsim::bench {
namespace {

/// Time-series interval width for the transient analysis; coarse enough
/// that per-interval accepted traffic is not shot noise, fine enough to
/// bound the recovery time usefully.
constexpr std::uint64_t kIntervalCycles = 250;

struct TransientMetrics {
  double pre_accepted = 0.0;   // mean accepted traffic before the kill
  double post_accepted = 0.0;  // mean accepted traffic after recovery
  std::uint64_t recovery_cycles = 0;
  bool recovered = false;
};

/// One instrumented run of `cfg` (which carries a fault schedule whose
/// first event is the kill): per-interval accepted traffic before the
/// kill versus after, and the first interval boundary at which
/// throughput is back above 80% of the pre-fault mean.
TransientMetrics measure_transient(const config::SimConfig& cfg) {
  const std::uint64_t kill_cycle = cfg.sim.faults.events().front().cycle;
  auto simulator = config::build_simulator(cfg);
  simulator->enable_timeseries(kIntervalCycles);
  simulator->run(cfg.protocol);
  const metrics::TimeSeries* ts = simulator->timeseries();
  const topo::KAryNCube topo(cfg.k, cfg.n);
  const std::uint32_t nodes = topo.num_nodes();
  const std::uint64_t window_end = cfg.protocol.warmup + cfg.protocol.measure;

  TransientMetrics m;
  util::RunningStats pre;
  const auto& intervals = ts->intervals();
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const std::uint64_t start = intervals[i].start_cycle;
    if (start >= cfg.protocol.warmup &&
        start + kIntervalCycles <= kill_cycle) {
      pre.add(ts->accepted(i, nodes));
    }
  }
  m.pre_accepted = pre.mean();

  const double recovery_floor = 0.8 * m.pre_accepted;
  util::RunningStats post;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const std::uint64_t start = intervals[i].start_cycle;
    if (start < kill_cycle || start + kIntervalCycles > window_end) continue;
    const double accepted = ts->accepted(i, nodes);
    if (!m.recovered && accepted >= recovery_floor) {
      m.recovered = true;
      m.recovery_cycles = start + kIntervalCycles - kill_cycle;
    }
    if (m.recovered) post.add(ts->accepted(i, nodes));
  }
  m.post_accepted = post.mean();
  if (!m.recovered) m.recovery_cycles = window_end - kill_cycle;
  return m;
}

config::SimConfig transient_base() {
  // The hotpath FAST operating point: 8-ary 2-cube, uniform traffic,
  // 16-flit messages, bench-sized windows, ALO at saturation load.
  config::SimConfig cfg = config::paper_base();
  cfg.n = 2;
  cfg.protocol.warmup = 3000;
  cfg.protocol.measure = 8000;
  cfg.protocol.drain_max = 8000;
  cfg.sim.limiter.kind = core::LimiterKind::ALO;
  cfg.workload.offered_flits_per_node_cycle = 1.0;
  return cfg;
}

/// Simulation throughput of the degraded network against the healthy
/// one: `pairs` back-to-back runs of each, the order alternating from
/// pair to pair, each timed in process CPU time (immune to preemption;
/// the alternation cancels frequency drift).
struct CpsComparison {
  double healthy_cps = 0.0;   // median cycles per CPU second
  double degraded_cps = 0.0;
  double ratio = 0.0;         // median per-pair degraded/healthy ratio
  double ratio_q1 = 0.0;
  double ratio_q3 = 0.0;
};

CpsComparison compare_cps(const config::SimConfig& healthy,
                          const config::SimConfig& degraded, int pairs) {
  const auto cps = [](const config::SimConfig& cfg) {
    const double t0 = cpu_seconds();
    const metrics::SimResult r = config::run_experiment(cfg);
    const double cpu = cpu_seconds() - t0;
    return cpu > 0.0 ? static_cast<double>(r.total_cycles) / cpu : 0.0;
  };
  std::vector<double> healthy_cps, degraded_cps, ratio;
  for (int i = 0; i < pairs; ++i) {
    if (i % 2 == 0) {
      healthy_cps.push_back(cps(healthy));
      degraded_cps.push_back(cps(degraded));
    } else {
      degraded_cps.push_back(cps(degraded));
      healthy_cps.push_back(cps(healthy));
    }
    ratio.push_back(healthy_cps.back() > 0.0
                        ? degraded_cps.back() / healthy_cps.back()
                        : 0.0);
  }
  CpsComparison out;
  out.healthy_cps = median_of(healthy_cps);
  out.degraded_cps = median_of(degraded_cps);
  out.ratio = median_of(ratio);
  std::sort(ratio.begin(), ratio.end());
  out.ratio_q1 = ratio[ratio.size() / 4];
  out.ratio_q3 = ratio[(3 * ratio.size()) / 4];
  return out;
}

int run_transient_json(const char* path) {
  constexpr std::uint64_t kRecoveryCyclesMax = 2000;
  constexpr double kPostRebuildCpsRatioMin = 0.5;
  const int pairs = 11;

  std::ostream* os = &std::cout;
  std::ofstream file;
  if (path) {
    file.open(path);
    if (!file) {
      obs::logf(obs::LogLevel::Error, "error: cannot write %s\n", path);
      return 1;
    }
    os = &file;
  }

  const config::SimConfig healthy = transient_base();
  const topo::KAryNCube topo(healthy.k, healthy.n);

  // Recovery transient: 2 links die halfway through the measurement.
  config::SimConfig faulty = healthy;
  const std::uint64_t kill_cycle =
      healthy.protocol.warmup + healthy.protocol.measure / 2;
  faulty.sim.faults =
      fault::make_transient(topo, 2, kill_cycle, 0, healthy.seed);
  obs::logf(obs::LogLevel::Info,
            "# fault_transient: ALO @ 1.0, 2 links killed at cycle %llu\n",
            static_cast<unsigned long long>(kill_cycle));
  const TransientMetrics m = measure_transient(faulty);

  // Post-rebuild engine throughput: same point with the links dead (and
  // the routes rebuilt) from cycle 0, against the healthy network.
  config::SimConfig degraded = healthy;
  degraded.sim.faults = fault::make_transient(topo, 2, 0, 0, healthy.seed);
  config::run_experiment(healthy);  // cache warmup, discarded
  const CpsComparison cps = compare_cps(healthy, degraded, pairs);

  obs::logf(obs::LogLevel::Info,
            "# fault_transient: pre=%.4f post=%.4f recovery=%llu cycles, "
            "degraded %.0f cps vs healthy %.0f cps (ratio %.3f, "
            "%.3f..%.3f)\n",
            m.pre_accepted, m.post_accepted,
            static_cast<unsigned long long>(m.recovery_cycles),
            cps.degraded_cps, cps.healthy_cps, cps.ratio, cps.ratio_q1,
            cps.ratio_q3);

  util::JsonWriter w(*os);
  w.begin_object();
  w.field("schema", "wormsim.bench/1");
  w.field("bench", "fault_transient");
  w.field("config",
          "ALO FAST point: 8-ary 2-cube (64 nodes), uniform, 16-flit "
          "messages, load 1.0, 2 links killed mid-measure; "
          "post_rebuild_cps_ratio = median over " +
              std::to_string(pairs) +
              " alternating degraded/healthy pairs of the per-pair ratio "
              "of cycles per process CPU second (quartiles alongside), "
              "cycles/s fields = median per side; host: " +
              host_fingerprint());
  w.key("points");
  w.begin_array();
  w.begin_object();
  w.field("offered_flits_node_cycle", 1.0);
  w.field("mechanism", "alo");
  w.field("pre_fault_accepted", m.pre_accepted);
  w.field("post_fault_accepted", m.post_accepted);
  w.field("recovered", m.recovered);
  w.field("recovery_cycles", m.recovery_cycles);
  w.field("post_rebuild_cycles_per_second", cps.degraded_cps);
  w.field("healthy_cycles_per_second", cps.healthy_cps);
  w.field("post_rebuild_cps_ratio", cps.ratio);
  w.field("post_rebuild_cps_ratio_q1", cps.ratio_q1);
  w.field("post_rebuild_cps_ratio_q3", cps.ratio_q3);
  w.end_object();
  w.end_array();
  w.key("criteria");
  w.begin_object();
  w.field("recovery_cycles_max", kRecoveryCyclesMax);
  w.field("post_rebuild_cps_ratio_min", kPostRebuildCpsRatioMin);
  w.end_object();
  w.end_object();
  *os << "\n";

  if (!m.recovered || m.recovery_cycles > kRecoveryCyclesMax ||
      cps.ratio < kPostRebuildCpsRatioMin) {
    obs::logf(obs::LogLevel::Error,
              "# fault_transient: ACCEPTANCE CRITERIA NOT MET\n");
    return 2;
  }
  return 0;
}

int run_demo(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  config::SimConfig cfg = config::paper_base();
  cfg.protocol.warmup = 3000;
  cfg.protocol.measure = 8000;
  cfg.protocol.drain_max = 8000;
  harness::apply_common_flags(cfg, args);
  harness::apply_scale_env(cfg);
  harness::apply_fault_flag(cfg, args);
  if (cfg.sim.faults.empty()) {
    // Default schedule: 2 random links die halfway through measurement
    // and stay dead, so the CSV reflects degraded steady state.
    const topo::KAryNCube topo(cfg.k, cfg.n);
    cfg.sim.faults = fault::make_transient(
        topo, 2, cfg.protocol.warmup + cfg.protocol.measure / 2, 0, cfg.seed);
  }

  harness::SweepSpec sweep;
  sweep.base = cfg;
  sweep.limiters = {core::LimiterKind::None, core::LimiterKind::ALO};
  sweep.offered_loads = {args.get_double("load", 1.0)};
  sweep.jobs = harness::jobs_flag(args);
  metrics::SweepStats stats;
  sweep.stats = &stats;
  sweep.progress = true;
  harness::ObsSession session(args);
  harness::reject_unknown_flags(args);
  session.attach(sweep);

  std::cout << "# Degraded operation — " << cfg.sim.faults.size()
            << "-event fault schedule, first event at cycle "
            << cfg.sim.faults.events().front().cycle << "\n";
  std::cout << "# expectation: ALO re-stabilizes throughput within a "
               "bounded transient; None collapses further\n";
  std::cout << harness::describe(cfg) << "\n";
  const auto points = harness::run_sweep(sweep);
  harness::write_sweep_csv(std::cout, points);

  // Per-mechanism transient summaries from instrumented reruns.
  for (const auto limiter : sweep.limiters) {
    config::SimConfig point_cfg = cfg;
    point_cfg.sim.limiter.kind = limiter;
    point_cfg.workload.offered_flits_per_node_cycle = sweep.offered_loads[0];
    const TransientMetrics m = measure_transient(point_cfg);
    std::cout << "# transient " << core::limiter_name(limiter)
              << ": pre_accepted=" << m.pre_accepted
              << " post_accepted=" << m.post_accepted
              << " recovered=" << (m.recovered ? 1 : 0)
              << " recovery_cycles=" << m.recovery_cycles << "\n";
  }
  obs::logf(obs::LogLevel::Info, "# %s\n", stats.summary().c_str());
  session.finish(sweep, points, &stats);
  return 0;
}

}  // namespace
}  // namespace wormsim::bench

int main(int argc, char** argv) {
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        return wormsim::bench::run_transient_json(i + 1 < argc ? argv[i + 1]
                                                               : nullptr);
      }
    }
    return wormsim::bench::run_demo(argc, argv);
  } catch (const std::exception& e) {
    wormsim::obs::logf(wormsim::obs::LogLevel::Error, "error: %s\n", e.what());
    return 1;
  }
}
