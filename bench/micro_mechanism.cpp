// Micro-benchmarks (google-benchmark): per-operation cost of the ALO
// decision (behavioural predicate and gate-circuit model), the LF and
// DRIL checks, the routing functions and the selection function — the
// hardware-cost claims of §3 translated to software terms, plus overall
// simulator cycle throughput for both simulation cores.
//
// Besides the google-benchmark suite, `--hotpath-json [path]` runs the
// dense-vs-active hot-path comparison at the FAST fig05 low-load and
// saturation points and emits a JSON record (see BENCH_hotpath.json at
// the repo root for the committed baseline), and
// `--obs-overhead-json [path]` measures the cost of the observability
// hooks at the same operating points: each mode (instrumented-off as an
// A/A control, online statistics, tracing, tracing+spatial) runs in
// alternating back-to-back pairs against the instrumented-off baseline
// in the same process, every run timed in process CPU time (see
// BENCH_obs_overhead.json for the committed record).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "config/presets.hpp"
#include "core/alo.hpp"
#include "core/alo_gates.hpp"
#include "core/dril.hpp"
#include "core/linear_function.hpp"
#include "metrics/spatial.hpp"
#include "obs/log.hpp"
#include "obs/tracer.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace wormsim;

/// Synthetic channel-status register with pseudo-random occupancy:
/// 512 nodes' free-VC rows, laid out contiguously like the Network's.
class SyntheticStatus final : public core::ChannelStatus {
 public:
  static constexpr core::NodeId kNodes = 512;

  SyntheticStatus(unsigned channels, unsigned vcs, std::uint64_t seed)
      : channels_(channels), vcs_(vcs), rng_(seed) {
    rows_.resize(static_cast<std::size_t>(kNodes) * channels);
    for (auto& m : rows_) {
      m = static_cast<std::uint8_t>(rng_.bits() & ((1u << vcs) - 1));
    }
  }
  unsigned num_phys_channels() const override { return channels_; }
  unsigned num_vcs() const override { return vcs_; }
  const std::uint8_t* free_row(core::NodeId node) const override {
    return rows_.data() + static_cast<std::size_t>(node % kNodes) * channels_;
  }

 private:
  unsigned channels_;
  unsigned vcs_;
  util::Rng rng_;
  std::vector<std::uint8_t> rows_;
};

void BM_AloPredicate(benchmark::State& state) {
  SyntheticStatus status(6, 3, 1);
  std::uint32_t node = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::evaluate_alo(status.free_row(node++), 3, 0b010101));
  }
}
BENCHMARK(BM_AloPredicate);

void BM_AloGateCircuit(benchmark::State& state) {
  core::AloGateCircuit circuit(6, 3);
  util::Rng rng(2);
  std::uint64_t busy = rng.bits();
  for (auto _ : state) {
    busy = busy * 6364136223846793005ULL + 1;
    benchmark::DoNotOptimize(
        circuit.evaluate(busy & ((1ULL << 18) - 1), 0b010101));
  }
}
BENCHMARK(BM_AloGateCircuit);

void BM_LinearFunctionCheck(benchmark::State& state) {
  SyntheticStatus status(6, 3, 3);
  core::LinearFunctionLimiter lf(0.625);
  routing::RouteResult route;
  for (unsigned c = 0; c < 6; c += 2) {
    route.candidates.push_back({static_cast<topo::ChannelId>(c), 0b111, false});
    route.useful_phys_mask |= 1u << c;
  }
  core::InjectionRequest req;
  req.route = &route;
  std::uint32_t node = 0;
  for (auto _ : state) {
    req.node = node++ % 512;
    benchmark::DoNotOptimize(lf.allow(req, status));
  }
}
BENCHMARK(BM_LinearFunctionCheck);

void BM_DrilCheck(benchmark::State& state) {
  SyntheticStatus status(6, 3, 4);
  core::DrilLimiter dril(512, 16, 1, 2048);
  routing::RouteResult route;
  route.useful_phys_mask = 0b111111;
  core::InjectionRequest req;
  req.route = &route;
  std::uint64_t cycle = 0;
  for (auto _ : state) {
    req.node = static_cast<core::NodeId>(cycle % 512);
    req.cycle = ++cycle;
    req.head_wait = cycle % 40;
    benchmark::DoNotOptimize(dril.allow(req, status));
  }
}
BENCHMARK(BM_DrilCheck);

void BM_RoutingFunction(benchmark::State& state) {
  const topo::KAryNCube topo(8, 3);
  const auto algo = static_cast<routing::Algorithm>(state.range(0));
  auto routing = routing::make_routing(algo, topo, 3);
  routing::RouteResult out;
  util::Rng rng(5);
  for (auto _ : state) {
    const auto src = static_cast<topo::NodeId>(rng.below(512));
    auto dst = static_cast<topo::NodeId>(rng.below(512));
    if (dst == src) dst = (dst + 1) % 512;
    routing->route(src, dst, out);
    benchmark::DoNotOptimize(out.useful_phys_mask);
  }
}
BENCHMARK(BM_RoutingFunction)
    ->Arg(static_cast<int>(routing::Algorithm::TFAR))
    ->Arg(static_cast<int>(routing::Algorithm::DOR))
    ->Arg(static_cast<int>(routing::Algorithm::Duato));

void BM_SimulatorCycle(benchmark::State& state) {
  // Whole-simulator throughput: node-cycles per second on the
  // configured cube size (range(0) = n) under the selected core
  // (range(1): 0 = dense, 1 = active) at the given offered load
  // (range(2), in hundredths of a flit/node/cycle). The dense/active
  // pairs at the same (n, load) are the skip-idle-work speedup.
  config::SimConfig cfg = config::paper_base();
  cfg.n = static_cast<unsigned>(state.range(0));
  cfg.sim.core = state.range(1) ? sim::SimCore::Active : sim::SimCore::Dense;
  cfg.workload.offered_flits_per_node_cycle =
      static_cast<double>(state.range(2)) / 100.0;
  auto sim = config::build_simulator(cfg);
  sim->step_cycles(500);  // warm into steady state
  const auto nodes = sim->topology().num_nodes();
  for (auto _ : state) {
    sim->step();
  }
  state.SetItemsProcessed(state.iterations() * nodes);
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["skip_ratio"] = sim->scan_stats().skipped_scan_ratio();
  state.SetLabel(std::string(sim_core_name(sim->core())));
}
BENCHMARK(BM_SimulatorCycle)
    ->Args({2, 0, 10})
    ->Args({2, 1, 10})
    ->Args({2, 0, 40})
    ->Args({2, 1, 40})
    ->Args({3, 0, 40})
    ->Args({3, 1, 40})
    ->Unit(benchmark::kMicrosecond);

// --- Hot-path JSON mode ------------------------------------------------

config::SimConfig hotpath_base() {
  // The fig05 bench under WORMSIM_FAST=1: 8-ary 2-cube, uniform
  // traffic, 16-flit messages, bench-sized windows.
  config::SimConfig cfg = config::paper_base();
  cfg.n = 2;
  cfg.protocol.warmup = 3000;
  cfg.protocol.measure = 8000;
  cfg.protocol.drain_max = 8000;
  cfg.workload.pattern = traffic::PatternKind::Uniform;
  cfg.workload.length.fixed = 16;
  return cfg;
}

metrics::SimResult run_point(sim::SimCore core, double offered) {
  config::SimConfig cfg = hotpath_base();
  cfg.sim.core = core;
  cfg.workload.offered_flits_per_node_cycle = offered;
  return config::run_experiment(cfg);
}

/// CPU seconds consumed by this process so far. The CPU-time overhead
/// gates compare throughputs a couple percent apart; on a shared CI
/// vCPU, wall clock carries multi-second preemption phases that dwarf
/// the effect, while process CPU time is immune to them (frequency
/// drift remains, which the alternating pair order cancels).
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Host fingerprint for the bench's config string: hardware threads,
/// CPU model, compiler and build type. Numbers from different
/// fingerprints are not comparable.
std::string host_fingerprint() {
  std::string model = "unknown CPU";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown compiler";
#endif
  return std::to_string(std::thread::hardware_concurrency()) +
         " hardware threads, " + model + ", " + compiler + ", " +
         WORMSIM_BUILD_TYPE;
}

/// One core's side of the hotpath measurement: the (deterministic)
/// simulation result plus the median process CPU seconds per run.
struct CoreSample {
  metrics::SimResult result;
  double cpu_seconds = 0.0;
};

struct HotpathPoint {
  CoreSample dense;
  CoreSample active;
  /// Median over pairs of dense CPU / active CPU, and its quartiles.
  double speedup = 0.0;
  double speedup_q1 = 0.0;
  double speedup_q3 = 0.0;
};

/// Dense vs active at one load over `pairs` back-to-back pairs, the
/// order alternating from pair to pair, each run timed in process CPU
/// time. CPU time is immune to preemption and alternating order
/// cancels frequency drift; the per-pair ratio's median is what the
/// gates read. Results are deterministic — only the timing varies.
HotpathPoint measure_hotpath(double offered, int pairs) {
  HotpathPoint out;
  run_point(sim::SimCore::Active, offered);  // cache/frequency warmup
  std::vector<double> dense_cpu, active_cpu, ratio;
  const auto timed = [&](sim::SimCore core, CoreSample& sample,
                         std::vector<double>& cpu) {
    const double t0 = cpu_seconds();
    sample.result = run_point(core, offered);
    cpu.push_back(cpu_seconds() - t0);
  };
  for (int i = 0; i < pairs; ++i) {
    if (i % 2 == 0) {
      timed(sim::SimCore::Dense, out.dense, dense_cpu);
      timed(sim::SimCore::Active, out.active, active_cpu);
    } else {
      timed(sim::SimCore::Active, out.active, active_cpu);
      timed(sim::SimCore::Dense, out.dense, dense_cpu);
    }
    ratio.push_back(active_cpu.back() > 0.0
                        ? dense_cpu.back() / active_cpu.back()
                        : 0.0);
  }
  out.dense.cpu_seconds = median_of(dense_cpu);
  out.active.cpu_seconds = median_of(active_cpu);
  std::sort(ratio.begin(), ratio.end());
  out.speedup = median_of(ratio);
  out.speedup_q1 = ratio[ratio.size() / 4];
  out.speedup_q3 = ratio[(3 * ratio.size()) / 4];
  return out;
}

void emit_sample(std::ostream& os, const CoreSample& s) {
  const metrics::SimResult& r = s.result;
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"cycles_per_cpu_second\": %.0f, \"cpu_seconds\": %.4f, "
                "\"scan_skip_ratio\": %.4f, "
                "\"avg_active_links\": %.2f, \"avg_active_nodes\": %.2f, "
                "\"route_memo_hit_rate\": %.4f, \"total_cycles\": %llu}",
                s.cpu_seconds > 0.0
                    ? static_cast<double>(r.total_cycles) / s.cpu_seconds
                    : 0.0,
                s.cpu_seconds, r.scan_skip_ratio, r.avg_active_links,
                r.avg_active_nodes, r.route_memo_hit_rate,
                static_cast<unsigned long long>(r.total_cycles));
  os << buf;
}

int run_hotpath_json(const char* path) {
  const int pairs = 11;
  // The two acceptance points: the lowest-load fig05 point (where
  // skipping idle work should dominate) and the oversaturated end of
  // the sweep (where nothing is idle, so the gains must come from
  // computed routing and the blocked-header route memo).
  const double loads[] = {0.1, 1.2};

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

  *os << "{\n  \"schema\": \"wormsim.bench/1\",\n  \"bench\": \"hotpath\",\n"
      << "  \"config\": \"fig05 FAST point: 8-ary 2-cube (64 nodes), "
         "uniform, 16-flit messages, warmup 3000, measure 8000, "
         "drain 8000; active_speedup = median over "
      << pairs
      << " alternating dense/active pairs of the process-CPU-time ratio; "
         "host: "
      << host_fingerprint() << "\",\n  \"points\": [\n";
  bool ok = true;
  for (std::size_t i = 0; i < 2; ++i) {
    const double offered = loads[i];
    obs::logf(obs::LogLevel::Info,
              "# hotpath: offered=%.2f (%d alternating CPU-time pairs)...\n",
              offered, pairs);
    const HotpathPoint pt = measure_hotpath(offered, pairs);
    *os << "    {\"offered_flits_node_cycle\": " << offered
        << ", \"dense\": ";
    emit_sample(*os, pt.dense);
    *os << ", \"active\": ";
    emit_sample(*os, pt.active);
    // Three decimals: the ratio sits close to its 1.5 gate, and
    // check_bench.py must read the value this binary gated on, not a
    // rounding of it.
    char sp[128];
    std::snprintf(sp, sizeof(sp),
                  ", \"active_speedup\": %.3f, \"active_speedup_q1\": %.3f, "
                  "\"active_speedup_q3\": %.3f}",
                  pt.speedup, pt.speedup_q1, pt.speedup_q3);
    *os << sp << (i + 1 < 2 ? ",\n" : "\n");
    obs::logf(obs::LogLevel::Info, "# hotpath: offered=%.2f speedup=%.3fx "
                 "(quartiles %.3f-%.3f, active skip ratio %.3f)\n",
                 offered, pt.speedup, pt.speedup_q1, pt.speedup_q3,
                 pt.active.result.scan_skip_ratio);
    // Acceptance gates: >= 2x at the low-load point (active-set
    // skipping) and >= 1.5x at saturation (computed routing and
    // blocked-header route memo).
    if (i == 0 && pt.speedup < 2.0) ok = false;
    if (i == 1 && pt.speedup < 1.5) ok = false;
  }
  *os << "  ],\n  \"criteria\": {\"low_load_speedup_min\": 2.0, "
         "\"saturation_speedup_min\": 1.5}\n}\n";
  if (!ok) {
    obs::logf(obs::LogLevel::Error, "# hotpath: ACCEPTANCE CRITERIA NOT MET\n");
    return 2;
  }
  return 0;
}

// --- Observability-overhead JSON mode ----------------------------------

enum class ObsMode { Off, Online, Tracing, TracingSpatial };

metrics::SimResult run_obs_point(double offered, ObsMode mode,
                                 std::uint64_t* events_recorded,
                                 std::uint64_t* events_dropped,
                                 unsigned window_scale = 1) {
  config::SimConfig cfg = hotpath_base();
  cfg.sim.core = sim::SimCore::Active;
  cfg.workload.offered_flits_per_node_cycle = offered;
  cfg.protocol.warmup *= window_scale;
  cfg.protocol.measure *= window_scale;
  cfg.protocol.drain_max *= window_scale;
  if (mode == ObsMode::Off) return config::run_experiment(cfg);

  const topo::KAryNCube topo(cfg.k, cfg.n);
  if (mode == ObsMode::Online) {
    // The streaming-statistics engine exactly as --metrics-out /
    // --timeseries-out attach it: latency histograms plus the windowed
    // recorder and onset detector (profiler off — it is opt-in).
    metrics::OnlineStats online(topo.num_nodes());
    config::RunHooks hooks;
    hooks.online = &online;
    return config::run_experiment(cfg, hooks);
  }
  obs::Tracer tracer;
  metrics::SpatialMetrics spatial(topo.num_nodes(),
                                  topo.num_nodes() * topo.num_channels(),
                                  cfg.sim.net.num_vcs);
  config::RunHooks hooks;
  hooks.tracer = &tracer;
  if (mode == ObsMode::TracingSpatial) hooks.spatial = &spatial;
  metrics::SimResult r = config::run_experiment(cfg, hooks);
  if (events_recorded) *events_recorded = tracer.events_recorded();
  if (events_dropped) *events_dropped = tracer.events_dropped();
  return r;
}

/// One mode's side of the observability-overhead measurement.
struct ObsOverhead {
  /// Aggregate ratio: total mode CPU / total baseline CPU - 1, in %.
  /// Its error shrinks with the pair count (empirically ±1% at 20
  /// pairs); the tight off/online gates read it.
  double aggregate_pct = 0.0;
  /// Median per-pair ratio - 1 and its quartiles, in %, as the hotpath
  /// gate reads its speedup; the tracing gates read it.
  double median_pct = 0.0;
  double q1_pct = 0.0;
  double q3_pct = 0.0;
  double cpu_seconds = 0.0;  // median per mode run
  metrics::SimResult result;  // deterministic; only the timing varies
  std::uint64_t events_recorded = 0;
  std::uint64_t events_dropped = 0;
};

/// `mode` vs the instrumented-off baseline over `pairs` back-to-back
/// pairs, the order alternating from pair to pair, each run timed in
/// process CPU time: CPU time is immune to preemption and alternating
/// order cancels frequency drift. With mode == Off this is an A/A
/// control: it measures the method's noise floor, which is what the
/// instrumented-off ≤2% gate bounds.
ObsOverhead measure_obs_overhead(double offered, int pairs, ObsMode mode) {
  const unsigned scale = offered < 0.5 ? 4 : 1;
  ObsOverhead out;
  std::vector<double> base_cpu, mode_cpu, ratio;
  const auto timed_base = [&] {
    const double t0 = cpu_seconds();
    run_obs_point(offered, ObsMode::Off, nullptr, nullptr, scale);
    base_cpu.push_back(cpu_seconds() - t0);
  };
  const auto timed_mode = [&] {
    const double t0 = cpu_seconds();
    metrics::SimResult r = run_obs_point(offered, mode, &out.events_recorded,
                                         &out.events_dropped, scale);
    mode_cpu.push_back(cpu_seconds() - t0);
    out.result = std::move(r);
  };
  for (int i = 0; i < pairs; ++i) {
    if (i % 2 == 0) {
      timed_base();
      timed_mode();
    } else {
      timed_mode();
      timed_base();
    }
    ratio.push_back(base_cpu.back() > 0.0 ? mode_cpu.back() / base_cpu.back()
                                          : 1.0);
  }
  const double base_total =
      std::accumulate(base_cpu.begin(), base_cpu.end(), 0.0);
  const double mode_total =
      std::accumulate(mode_cpu.begin(), mode_cpu.end(), 0.0);
  out.aggregate_pct =
      base_total > 0.0 ? (mode_total / base_total - 1.0) * 100.0 : 0.0;
  std::sort(ratio.begin(), ratio.end());
  out.median_pct = (median_of(ratio) - 1.0) * 100.0;
  out.q1_pct = (ratio[ratio.size() / 4] - 1.0) * 100.0;
  out.q3_pct = (ratio[(3 * ratio.size()) / 4] - 1.0) * 100.0;
  out.cpu_seconds = median_of(mode_cpu);
  return out;
}

int run_obs_overhead_json(const char* path) {
  const int pairs = 20;
  const double loads[] = {0.1, 1.2};
  // Tight gates on the aggregate ratio: the A/A control bounds the
  // instrumented-off noise floor (the branch-on-null hook checks plus
  // measurement noise), and the online gate bounds the streaming
  // histograms + windowed-recorder + detector cost.
  constexpr double kMaxOffOverheadPct = 2.0;
  constexpr double kMaxOnlineOverheadPct = 5.0;
  // Tracing gates on the median per-pair ratio. Generous: these exist
  // to catch pathological regressions (a hook on the per-flit path,
  // say), not to benchmark the tracer.
  constexpr double kMaxTracingOverheadPct = 25.0;
  constexpr double kMaxTracingSpatialOverheadPct = 50.0;

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

  util::JsonWriter w(*os);
  w.begin_object();
  w.field("schema", "wormsim.bench/1");
  w.field("bench", "obs_overhead");
  w.field("config",
          "fig05 FAST point: 8-ary 2-cube (64 nodes), uniform, 16-flit "
          "messages, warmup 3000, measure 8000, drain 8000 (x4 at load "
          "0.1), active core; every mode runs " +
              std::to_string(pairs) +
              " alternating pairs against the instrumented-off baseline, "
              "each run timed in process CPU time; off/online overheads = "
              "aggregate CPU-time ratio (off is an A/A control bounding the "
              "noise floor), tracing overheads = median per-pair ratio "
              "(quartiles alongside); host: " +
              host_fingerprint());
  w.field("baseline_source", "instrumented-off run, same process and batch");
  w.key("points");
  w.begin_array();

  bool ok = true;
  const auto emit_mode = [&](const char* name, const ObsOverhead& m,
                             bool traced) {
    w.key(name);
    w.begin_object();
    w.field("cycles_per_cpu_second",
            m.cpu_seconds > 0.0
                ? static_cast<double>(m.result.total_cycles) / m.cpu_seconds
                : 0.0);
    w.field("cpu_seconds", m.cpu_seconds);
    w.field("total_cycles", m.result.total_cycles);
    if (traced) {
      w.field("events_recorded", m.events_recorded);
      w.field("events_dropped", m.events_dropped);
    }
    w.end_object();
  };

  for (const double offered : loads) {
    obs::logf(obs::LogLevel::Info,
              "# obs-overhead: offered=%.2f (%d alternating CPU-time pairs "
              "per mode)...\n",
              offered, pairs);
    run_obs_point(offered, ObsMode::Off, nullptr, nullptr);  // warmup
    const ObsOverhead off = measure_obs_overhead(offered, pairs, ObsMode::Off);
    const ObsOverhead online =
        measure_obs_overhead(offered, pairs, ObsMode::Online);
    const ObsOverhead tracing =
        measure_obs_overhead(offered, pairs, ObsMode::Tracing);
    const ObsOverhead both =
        measure_obs_overhead(offered, pairs, ObsMode::TracingSpatial);
    // Positive = the instrumented mode is slower than the
    // instrumented-off baseline.
    const double off_overhead_pct = off.aggregate_pct;
    const double online_overhead_pct = online.aggregate_pct;
    const double tracing_overhead_pct = tracing.median_pct;
    const double spatial_overhead_pct = both.median_pct;

    w.begin_object();
    w.field("offered_flits_node_cycle", offered);
    emit_mode("off", off, false);
    emit_mode("online", online, false);
    emit_mode("tracing", tracing, true);
    emit_mode("tracing_spatial", both, true);
    w.field("off_overhead_pct", off_overhead_pct);
    w.field("online_overhead_pct", online_overhead_pct);
    w.field("tracing_overhead_pct", tracing_overhead_pct);
    w.field("tracing_overhead_q1_pct", tracing.q1_pct);
    w.field("tracing_overhead_q3_pct", tracing.q3_pct);
    w.field("tracing_spatial_overhead_pct", spatial_overhead_pct);
    w.field("tracing_spatial_overhead_q1_pct", both.q1_pct);
    w.field("tracing_spatial_overhead_q3_pct", both.q3_pct);
    w.end_object();

    obs::logf(obs::LogLevel::Info,
              "# obs-overhead: offered=%.2f off(A/A) %+.2f%%, online "
              "%+.2f%%, tracing %+.2f%% (%+.2f..%+.2f), +spatial %+.2f%% "
              "(%+.2f..%+.2f)\n",
              offered, off_overhead_pct, online_overhead_pct,
              tracing_overhead_pct, tracing.q1_pct, tracing.q3_pct,
              spatial_overhead_pct, both.q1_pct, both.q3_pct);
    if (off_overhead_pct > kMaxOffOverheadPct) ok = false;
    if (online_overhead_pct > kMaxOnlineOverheadPct) ok = false;
    if (tracing_overhead_pct > kMaxTracingOverheadPct) ok = false;
    if (spatial_overhead_pct > kMaxTracingSpatialOverheadPct) ok = false;
  }

  w.end_array();
  w.key("criteria");
  w.begin_object();
  w.field("off_overhead_max_pct", kMaxOffOverheadPct);
  w.field("online_overhead_max_pct", kMaxOnlineOverheadPct);
  w.field("tracing_overhead_max_pct", kMaxTracingOverheadPct);
  w.field("tracing_spatial_overhead_max_pct", kMaxTracingSpatialOverheadPct);
  w.end_object();
  w.end_object();
  *os << "\n";
  if (!ok) {
    obs::logf(obs::LogLevel::Error,
              "# obs-overhead: ACCEPTANCE CRITERIA NOT MET\n");
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hotpath-json") == 0) {
      return run_hotpath_json(i + 1 < argc ? argv[i + 1] : nullptr);
    }
    if (std::strcmp(argv[i], "--obs-overhead-json") == 0) {
      return run_obs_overhead_json(i + 1 < argc ? argv[i + 1] : nullptr);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
