// Offered-load sweep harness shared by the figure benches and examples.
//
// A sweep runs one simulation per (limiter, offered-load) point and
// prints CSV rows compatible with the paper's figures: latency and
// accepted traffic versus offered traffic, per mechanism.
//
// Parallel execution: points are fully independent, so the engine
// submits each one to a work-stealing thread pool (`jobs` workers;
// 0 = WORMSIM_JOBS env or hardware concurrency, 1 = the serial code
// path with no pool). Every point derives its own RNG stream from the
// base seed by index (util::derive_stream_seed), and results land in
// pre-sized slots indexed by point, so CSV output is bit-identical
// regardless of thread count or scheduling order.
//
// Scale control: `apply_scale_env` honours WORMSIM_FAST=1 (shrink to the
// 64-node small preset and shorten the windows) so the full bench suite
// stays runnable on modest machines; the committed outputs record which
// mode produced them.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "config/presets.hpp"
#include "metrics/collector.hpp"
#include "metrics/online/online_stats.hpp"
#include "metrics/sweep_stats.hpp"
#include "obs/tracer.hpp"
#include "util/stats.hpp"
#include "util/cli.hpp"

namespace wormsim::harness {

struct SweepPoint {
  core::LimiterKind limiter;
  double offered;
  metrics::SimResult result;
  /// Per-point streaming statistics (latency histogram, windowed time
  /// series, saturation verdict); null unless SweepSpec::online was set.
  std::shared_ptr<metrics::OnlineStats> online;
};

struct SweepSpec {
  config::SimConfig base;
  std::vector<core::LimiterKind> limiters;
  std::vector<double> offered_loads;
  /// Called after each point finishes (progress reporting); may be
  /// empty. Invocations are serialized behind a mutex, so the callback
  /// needs no locking of its own — but under `jobs > 1` points complete
  /// in an arbitrary order, so it must not assume sweep order.
  std::function<void(const SweepPoint&)> on_point;
  /// Worker threads: 0 = WORMSIM_JOBS env override or hardware
  /// concurrency; 1 = serial fallback path (no thread pool at all).
  unsigned jobs = 0;
  /// Optional out-param: wall-clock/throughput counters for this sweep.
  metrics::SweepStats* stats = nullptr;
  /// Optional event tracer. Each simulation is bracketed with
  /// begin_point/end_point (pid = flattened grid index, which matches
  /// the telemetry record index) and attached for the duration of the
  /// run. Purely observational: results are unchanged.
  obs::Tracer* tracer = nullptr;
  /// Emit a "[done/total] mechanism @ load ... eta" line on stderr
  /// after every point (obs::logf at Info level).
  bool progress = false;
  /// Attach a per-point metrics::OnlineStats (streaming histograms,
  /// windowed time series, saturation detector) configured by
  /// `online_config`. Results land in SweepPoint::online. All recorded
  /// quantities are integers derived from simulation state, so
  /// telemetry built from them is byte-identical at any `jobs`.
  bool online = false;
  metrics::OnlineConfig online_config{};
};

/// Run every (limiter, load) combination; each point uses a fresh
/// simulator seeded deterministically from the base seed (stream split
/// by point index — thread-count independent).
std::vector<SweepPoint> run_sweep(const SweepSpec& spec);

/// Emit the standard figure CSV:
/// mechanism,offered,latency_avg,latency_sd,accepted,deadlock_pct,...
void write_sweep_csv(std::ostream& out, const std::vector<SweepPoint>& points);

/// One sweep point aggregated over several independent seeds: reports
/// mean and spread so figure shapes can be checked against run-to-run
/// noise.
struct ReplicatedPoint {
  core::LimiterKind limiter;
  double offered = 0.0;
  unsigned replications = 0;
  util::RunningStats latency;       // of per-run latency means
  util::RunningStats accepted;      // of per-run accepted traffic
  util::RunningStats deadlock_pct;  // of per-run deadlock percentages
};

/// Like run_sweep but each point is run `replications` times with
/// decorrelated seeds (one derived stream per simulation). Replications
/// execute in parallel under `spec.jobs`, but per-run results are
/// accumulated into slots first and folded into the RunningStats in
/// replication-index order, so the reported mean/sd are identical no
/// matter which replication finishes first.
std::vector<ReplicatedPoint> run_replicated_sweep(const SweepSpec& spec,
                                                  unsigned replications);

/// CSV with mean and sample standard deviation per metric.
void write_replicated_csv(std::ostream& out,
                          const std::vector<ReplicatedPoint>& points);

/// Evenly spaced loads in [lo, hi].
std::vector<double> load_range(double lo, double hi, unsigned points);

/// Apply command-line overrides (--k, --n, --vcs, --msg-len, --pattern,
/// --warmup, --measure, --seed, ...) and the WORMSIM_FAST environment
/// switch to a base config. Used by every bench binary so they share
/// flags.
void apply_common_flags(config::SimConfig& cfg, const util::ArgParser& args);
void apply_scale_env(config::SimConfig& cfg);

/// Materialize a `--faults <spec>` flag into cfg.sim.faults, where
/// <spec> is either a schedule file path or a `transient:...` preset
/// (see fault/schedule.hpp). Must run AFTER apply_common_flags and
/// apply_scale_env: presets pick random links from the *final*
/// topology, and WORMSIM_FAST=1 shrinks `n`. No-op without the flag.
void apply_fault_flag(config::SimConfig& cfg, const util::ArgParser& args);

/// Read the `--jobs N` flag for SweepSpec::jobs (0 = auto: WORMSIM_JOBS
/// env override or hardware concurrency). Shared by every bench/example
/// so the knob is spelled the same everywhere.
unsigned jobs_flag(const util::ArgParser& args);

/// Exit with status 2, naming every flag no get_*/has call consumed
/// ("error: unknown flag(s): --a --b" on stderr), when any went
/// unconsumed. Every bench/example main calls this once all of its
/// flags have been read, so a typo (`--shardz 4`) fails before any
/// simulation runs instead of being silently ignored.
void reject_unknown_flags(const util::ArgParser& args);

/// Human banner describing a config (topology, router, workload).
std::string describe(const config::SimConfig& cfg);

}  // namespace wormsim::harness
