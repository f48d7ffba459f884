// Shard-count scaling for the sharded single-simulation core, plus the
// 32-ary 3-cube (32,768-node) scale demonstration.
//
// Two claims are measured and gated (see BENCH_shard.json):
//
//  1. `--shards 1` carries no overhead versus the sequential active
//     core. In this build shards=1 dispatches to the unmodified
//     sequential step path (no crew, no barriers, no mailboxes), so
//     the alternating A/B CPU-time pair below is the runtime proof:
//     the aggregate ratio must stay within measurement noise, and the
//     <= 5% gate fails loudly if a future change makes shards=1
//     engage the sharded machinery.
//
//  2. On multi-core hosts, multi-shard execution must not be slower
//     than sequential (speedup >= 1). Single-core hosts record the
//     shard-2 throughput informationally — there the per-cycle
//     barriers serialize onto one CPU and a speedup gate would only
//     measure the scheduler — and emit no speedup criterion.
//
// The scale demo runs one low-load 32-ary 3-cube sweep point end to
// end through the standard experiment harness (the LUT auto-degrades
// to passthrough above its size budget; the memory estimate is
// reported alongside).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <thread>

#include "config/presets.hpp"
#include "harness/sweep.hpp"
#include "obs/log.hpp"

namespace wormsim::bench {
namespace {

/// 16-ary 2-cube (256 nodes = 4 bitmap words): the smallest network
/// where 2- and 4-way splits genuinely partition the node and link
/// words, with equivalence-harness-sized windows so a run is cheap
/// enough for alternating-pair timing.
config::SimConfig scaling_base() {
  config::SimConfig cfg = config::small_base();
  cfg.k = 16;
  cfg.protocol.warmup = 300;
  cfg.protocol.measure = 1000;
  cfg.protocol.drain_max = 1200;
  cfg.sim.limiter.kind = core::LimiterKind::ALO;
  cfg.seed = 0x5A4DD001;
  return cfg;
}

/// CPU seconds consumed by this process so far; immune to the
/// preemption phases that dominate wall clock on shared CI vCPUs (same
/// rationale as micro_mechanism's fc-overhead gate).
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct OverheadPoint {
  double baseline_cps = 0.0;  // best sequential-run throughput
  double overhead_pct = 0.0;  // aggregate CPU-time ratio, A vs B
};

/// Alternating A/B pairs at one offered load: A is the active core as
/// configured by default, B is the same config with `--shards 1` set
/// explicitly. The two must run the same code; the aggregate CPU-time
/// ratio measures any divergence plus timing noise.
OverheadPoint measure_shard1_overhead(double offered, int pairs) {
  config::SimConfig cfg = scaling_base();
  cfg.workload.offered_flits_per_node_cycle = offered;
  OverheadPoint out;
  double a_cpu = 0.0, b_cpu = 0.0;
  config::run_experiment(cfg);  // thermal/cache warmup, discarded
  for (int i = 0; i < pairs; ++i) {
    cfg.sim.shards = 1;
    metrics::SimResult a, b;
    if (i % 2 == 0) {
      const double t0 = cpu_seconds();
      a = config::run_experiment(cfg);
      const double t1 = cpu_seconds();
      b = config::run_experiment(cfg);
      a_cpu += t1 - t0;
      b_cpu += cpu_seconds() - t1;
    } else {
      const double t0 = cpu_seconds();
      b = config::run_experiment(cfg);
      const double t1 = cpu_seconds();
      a = config::run_experiment(cfg);
      b_cpu += t1 - t0;
      a_cpu += cpu_seconds() - t1;
    }
    out.baseline_cps = std::max(out.baseline_cps, a.cycles_per_second);
  }
  if (a_cpu > 0.0) out.overhead_pct = (b_cpu / a_cpu - 1.0) * 100.0;
  return out;
}

/// Best-of-`reps` wall-clock throughput at a shard count.
double best_cps(unsigned shards, double offered, int reps) {
  config::SimConfig cfg = scaling_base();
  cfg.sim.shards = shards;
  cfg.workload.offered_flits_per_node_cycle = offered;
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    best = std::max(best, config::run_experiment(cfg).cycles_per_second);
  }
  return best;
}

/// Fraction of evaluate/commit decisions that were invalidated and
/// re-evaluated inline at a fixed 4-way split (the 16-ary 2-cube's
/// maximum genuine partition). Reported per point but not gated: the
/// rate characterises how often the optimistic evaluate phase loses,
/// which grows with load, while correctness never depends on it.
double conflict_rate(double offered) {
  config::SimConfig cfg = scaling_base();
  cfg.sim.shards = 4;
  cfg.workload.offered_flits_per_node_cycle = offered;
  const metrics::SimResult r = config::run_experiment(cfg);
  return static_cast<double>(r.commit_conflicts) /
         static_cast<double>(
             std::max<std::uint64_t>(1, r.commit_decisions));
}

/// One 32-ary 3-cube sweep point through the standard harness: short
/// windows at a drained low load — the point is that 32,768 nodes
/// construct, simulate and tear down cleanly, not a long measurement.
config::SimConfig scale_demo_config() {
  config::SimConfig cfg = config::paper_base();
  cfg.k = 32;  // 32-ary 3-cube: 32,768 nodes
  cfg.workload.offered_flits_per_node_cycle = 0.03;
  cfg.protocol.warmup = 100;
  cfg.protocol.measure = 300;
  cfg.protocol.drain_max = 600;
  cfg.sim.shards = 0;  // one shard per hardware thread
  return cfg;
}

int run_json(const char* path) {
  constexpr double kShard1OverheadMaxPct = 5.0;
  constexpr double kMultishardSpeedupMin = 1.0;
  const int pairs = 12;
  const int reps = 3;
  const unsigned host_cores =
      std::max(1u, std::thread::hardware_concurrency());
  const bool multi_core = host_cores > 1;
  const unsigned multi_shards = std::min(4u, host_cores);
  // Drained, at saturation onset, and past saturation: the 1.2 point
  // exercises the evaluate/commit machinery where speculation conflicts
  // actually occur (a drained network routes almost nothing per cycle).
  const double loads[] = {0.1, 1.0, 1.2};
  constexpr std::size_t kNumLoads = sizeof(loads) / sizeof(loads[0]);

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

  *os << "{\n  \"schema\": \"wormsim.bench/1\",\n"
      << "  \"bench\": \"shard_scaling\",\n"
      << "  \"config\": \"16-ary 2-cube (256 nodes), uniform, 16-flit "
         "messages, ALO, warmup 300, measure 1000, drain 1200; shard1 "
         "overhead = aggregate CPU-time ratio over "
      << pairs
      << " alternating A/B pairs (both sides run the sequential path by "
         "construction); multi-shard speedup = best-of-"
      << reps
      << " wall-clock cps, gated only on multi-core hosts; "
         "commit_conflict_rate = invalidated decisions / total decisions "
         "of the shard-parallel evaluate + deterministic-commit protocol "
         "at a 4-way split (informational, ungated)\",\n"
      << "  \"host_cores\": " << host_cores << ",\n  \"points\": [\n";
  bool ok = true;
  for (std::size_t i = 0; i < kNumLoads; ++i) {
    const double offered = loads[i];
    obs::logf(obs::LogLevel::Info,
              "# shard_scaling: offered=%.2f (x%d pairs)...\n", offered,
              pairs);
    const OverheadPoint o = measure_shard1_overhead(offered, pairs);
    const double conflicts = conflict_rate(offered);
    double multishard_cps = 0.0, speedup = 0.0;
    if (multi_core) {
      multishard_cps = best_cps(multi_shards, offered, reps);
      const double seq_cps = best_cps(1, offered, reps);
      speedup = seq_cps > 0.0 ? multishard_cps / seq_cps : 0.0;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"offered_flits_node_cycle\": %g, "
                  "\"baseline_cycles_per_second\": %.0f, "
                  "\"shard1_overhead_pct\": %.2f, "
                  "\"commit_conflict_rate\": %.4f",
                  offered, o.baseline_cps, o.overhead_pct, conflicts);
    *os << buf;
    if (multi_core) {
      std::snprintf(buf, sizeof(buf),
                    ", \"shards\": %u, \"multishard_cycles_per_second\": "
                    "%.0f, \"multishard_speedup\": %.2f",
                    multi_shards, multishard_cps, speedup);
      *os << buf;
    }
    *os << "}" << (i + 1 < kNumLoads ? ",\n" : "\n");
    obs::logf(obs::LogLevel::Info,
              "# shard_scaling: offered=%.2f shard1 %+.2f%% (%.0f cps) "
              "conflict rate %.4f%s\n",
              offered, o.overhead_pct, o.baseline_cps, conflicts,
              multi_core ? " + multishard measured" : "");
    ok = ok && o.overhead_pct <= kShard1OverheadMaxPct;
    if (multi_core) ok = ok && speedup >= kMultishardSpeedupMin;
  }
  *os << "  ],\n";

  obs::logf(obs::LogLevel::Info,
            "# shard_scaling: 32-ary 3-cube scale demo (32768 nodes)...\n");
  const config::SimConfig demo = scale_demo_config();
  const config::MemoryFootprint mem = config::estimate_memory(demo);
  const metrics::SimResult r = config::run_experiment(demo);
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "  \"scale_demo\": {\"k\": 32, \"n\": 3, \"nodes\": 32768, "
      "\"offered_flits_node_cycle\": %g, \"total_cycles\": %llu, "
      "\"messages_delivered\": %llu, \"latency_mean\": %.2f, "
      "\"fully_drained\": %s, \"cycles_per_second\": %.0f, "
      "\"estimated_bytes_per_node\": %.1f, \"estimated_total_mib\": %.1f},\n",
      demo.workload.offered_flits_per_node_cycle,
      static_cast<unsigned long long>(r.total_cycles),
      static_cast<unsigned long long>(r.messages_delivered), r.latency_mean,
      r.fully_drained ? "true" : "false", r.cycles_per_second,
      mem.bytes_per_node(),
      static_cast<double>(mem.total_bytes()) / (1024.0 * 1024.0));
  *os << buf;
  obs::logf(obs::LogLevel::Info,
            "# shard_scaling: scale demo done: %llu cycles, %llu delivered, "
            "%.0f cps\n",
            static_cast<unsigned long long>(r.total_cycles),
            static_cast<unsigned long long>(r.messages_delivered),
            r.cycles_per_second);

  *os << "  \"criteria\": {\"shard1_overhead_max_pct\": "
      << kShard1OverheadMaxPct;
  if (multi_core) {
    *os << ", \"multishard_speedup_min\": " << kMultishardSpeedupMin;
  }
  *os << "}\n}\n";
  if (!ok) {
    obs::logf(obs::LogLevel::Error,
              "# shard_scaling: ACCEPTANCE GATE FAILED\n");
  }
  return ok ? 0 : 1;
}

/// Human-readable mode: one line per shard count per load, plus the
/// scale demo.
int run_demo() {
  config::SimConfig cfg = scaling_base();
  std::cout << harness::describe(cfg) << "\n";
  std::printf("offered,shards,cycles_per_second,latency_mean\n");
  for (const double offered : {0.1, 1.0, 1.2}) {
    for (const unsigned shards : {1u, 2u, 4u}) {
      cfg.sim.shards = shards;
      cfg.workload.offered_flits_per_node_cycle = offered;
      const metrics::SimResult r = config::run_experiment(cfg);
      std::printf("%g,%u,%.0f,%.2f\n", offered, shards, r.cycles_per_second,
                  r.latency_mean);
    }
  }
  const config::SimConfig demo = scale_demo_config();
  std::cout << harness::describe(demo) << "\n";
  const metrics::SimResult r = config::run_experiment(demo);
  std::printf("scale_demo: %llu cycles, %llu delivered, %.0f cps\n",
              static_cast<unsigned long long>(r.total_cycles),
              static_cast<unsigned long long>(r.messages_delivered),
              r.cycles_per_second);
  return 0;
}

}  // namespace
}  // namespace wormsim::bench

int main(int argc, char** argv) {
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        return wormsim::bench::run_json(i + 1 < argc ? argv[i + 1]
                                                     : nullptr);
      }
    }
    // The demo takes no flags: reject any instead of ignoring them.
    wormsim::harness::reject_unknown_flags(
        wormsim::util::ArgParser(argc, argv));
    return wormsim::bench::run_demo();
  } catch (const std::exception& e) {
    wormsim::obs::logf(wormsim::obs::LogLevel::Error, "error: %s\n",
                       e.what());
    return 1;
  }
}
