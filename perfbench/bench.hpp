// Shared definitions of the wormbench measurement binary: the workload
// table, per-point configuration, host clocks and the result digests.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "config/presets.hpp"
#include "core/limiter.hpp"
#include "metrics/collector.hpp"
#include "sim/simulator.hpp"

namespace wormbench {

using wormsim::sim::Cycle;

/// One named workload: the paper's router (TFAR, 3 VCs x 4 flits,
/// uniform destinations, 16-flit messages) at one network size and load,
/// run once per limiter in `limiters` ("points").
struct Workload {
  std::string name;
  unsigned k = 8;
  unsigned n = 3;
  double load = 1.0;
  std::vector<wormsim::core::LimiterKind> limiters;
  bool online = false;   // attach metrics::OnlineStats to every point
  bool sharded = false;  // SimulatorConfig::shards = min(nproc, 4)
  Cycle warmup = 0;
  Cycle measure = 0;
};

/// The workload table; `smoke` shrinks every workload to a 64-node,
/// 300-cycle variant for the self-test (same code paths, same metrics).
std::vector<Workload> workloads(bool smoke);
const Workload* find_workload(const std::vector<Workload>& table,
                              std::string_view name);

/// Shard count the sharded workload requests: min(nproc, 4).
unsigned requested_shards();

/// Configuration of one point. Drain is 0: every run is exactly
/// warmup + measure cycles, so the traced run can replay it with step().
wormsim::config::SimConfig point_config(const Workload& wl,
                                        wormsim::core::LimiterKind limiter,
                                        std::uint64_t seed, unsigned shards);

double wall_now();  // steady clock, seconds
double cpu_now();   // process CPU time over all threads, seconds
double peak_rss_mib();

/// Host-speed probe. Other tenants of a shared host change how fast it
/// runs this benchmark by up to 2x, for minutes at a time, through the
/// CPU clock and the shared caches. The probe is a fixed amount of
/// work, compiled here and independent of the library: an integer
/// mixing loop and a dependent walk over a 4 MiB table. Timed between
/// the timed calls, it tells how fast the host runs at that moment;
/// scaling a measured time by a power of kReferenceS / (probe time)
/// gives the time the call would have taken on the reference host
/// ("reference seconds"; see to_reference in wormbench.cpp).
class HostProbe {
 public:
  struct Sample {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double mix_wall_s = 0.0;   // the two loops' wall times
    double walk_wall_s = 0.0;
  };
  /// The probe's duration on the reference host, the unit of reference
  /// seconds: about its fastest tenth on a 4-vCPU Xeon VM (gcc 12.2,
  /// Release), whose median was 0.0119 s.
  static constexpr double kReferenceS = 0.01;

  HostProbe();
  /// Runs the probe once: a weighted geometric mean of the two loops'
  /// times (see kProbeWalkShare in wormbench.cpp).
  Sample run();

 private:
  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
  std::uint64_t mix_ = 0x9e3779b97f4a7c15ULL;
};

/// 64-bit FNV-1a over a canonical text rendering of the fields.
class Digest {
 public:
  Digest& add(std::string_view key, std::uint64_t v);
  Digest& add(std::string_view key, double v);
  std::string hex() const;

 private:
  void bytes(std::string_view s);
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Simulation state after a point, identical whether the point was
/// driven through Simulator::run() or step(): cycle count, volume
/// counters and the simulator's live getters. `r` must come from a
/// collector that started at cycle 0 (window-independent fields only).
void digest_state(Digest& d, const wormsim::sim::Simulator& sim,
                  const wormsim::metrics::SimResult& r);
/// The window-dependent SimResult fields of a Simulator::run() result
/// (latency, accepted traffic, deadlocks, probe).
void digest_result(Digest& d, const wormsim::metrics::SimResult& r);

/// Runs check_conservation, check_active_sets and check_flow_control;
/// returns the first violation ("" when all hold).
std::string check_invariants(const wormsim::sim::Simulator& sim);

/// Per-layer measurements of one traced run (see layers.cpp).
struct TraceReport {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> not_applicable;
  std::vector<std::pair<std::string, double>> phase_share;
  std::string state_digest;
  std::string error;  // first invariant violation or exception
  double cpu_s = 0.0;
  Cycle cycles = 0;
};

/// Drive every point of `wl` cycle by cycle with step(), timing each
/// call and each layer from the outside. `untraced_cpu_s` is the CPU
/// time of an untraced repetition of the same points (for
/// trace.overhead_pct).
TraceReport traced_run(const Workload& wl, std::uint64_t seed,
                       unsigned shards, double untraced_cpu_s);

}  // namespace wormbench
