// The traced run: per-layer metrics taken from outside the library by
// timing calls into each module's public functions.
//
//   sim      step() per call, the PhaseProfiler (through the public
//            OnlineStats profile_period), scan_stats() counters
//   util     an empty-body ShardCrew::run at min(nproc, 4) shards
//   routing  RoutingFunction::route, RoutingLut::route and
//            Selector::select replayed on a seeded sample of
//            (node, dst) pairs against the network mid-measure
//   core     fresh make_limiter instances replayed the same way
//   deadlock, traffic   the simulator's public getters, every step
//   config   build_simulator and estimate_memory
//   metrics  CPU cost of attaching OnlineStats (alternating pairs)
//
// Observation never writes simulation state, so the traced points must
// end in exactly the state digest of the untraced ones.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "metrics/online/online_stats.hpp"
#include "routing/routing_lut.hpp"
#include "routing/selection.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wormbench {

namespace {

namespace cfgns = wormsim::config;
namespace routing = wormsim::routing;
using wormsim::core::LimiterKind;
using wormsim::metrics::Phase;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSamplePairs = 2048;
constexpr int kReplayRounds = 9;
constexpr int kCrewRuns = 2000;

// Replay results are folded into this so no timed call is optimized away.
volatile std::uint64_t g_sink = 0;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Median over kReplayRounds of the mean ns per call of body(i), i over
/// [0, n). body returns a value folded into `sink` so no call is
/// optimized away.
template <typename Body>
double ns_per_call(std::size_t n, std::uint64_t& sink, Body&& body) {
  std::vector<double> rounds;
  for (int r = 0; r < kReplayRounds; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) sink += body(i);
    rounds.push_back(ns_since(t0) / static_cast<double>(n));
  }
  return median(std::move(rounds));
}

struct Replay {
  double fn_route_ns = 0.0;
  double lut_route_ns = 0.0;
  double select_ns = 0.0;
  double alo_ns = 0.0;
  double lf_ns = 0.0;
  double dril_ns = 0.0;
  double alo_allow_ratio = 0.0;
};

/// Replay routing, selection and limiter calls against `sim`'s network
/// as it stands (read-only; the limiters are fresh instances).
Replay replay_layers(const wormsim::sim::Simulator& sim, std::uint64_t seed) {
  const auto& topo = sim.topology();
  const auto& net = sim.network();
  const auto nodes = topo.num_nodes();
  wormsim::util::Rng rng(wormsim::util::derive_stream_seed(seed, 0x7a7e));
  std::vector<std::pair<wormsim::topo::NodeId, wormsim::topo::NodeId>> pairs(kSamplePairs);
  for (auto& [here, dst] : pairs) {
    here = static_cast<wormsim::topo::NodeId>(rng.below(nodes));
    dst = static_cast<wormsim::topo::NodeId>(rng.below(nodes - 1));
    if (dst >= here) ++dst;
  }
  const auto fn = routing::make_routing(routing::Algorithm::TFAR, topo,
                                        net.params().num_vcs);
  const routing::RoutingLut lut(*fn, topo);
  std::vector<routing::RouteResult> routes(kSamplePairs);
  for (std::size_t i = 0; i < kSamplePairs; ++i) {
    fn->route(pairs[i].first, pairs[i].second, routes[i]);
  }

  Replay out;
  std::uint64_t sink = 0;
  routing::RouteResult scratch;
  out.fn_route_ns = ns_per_call(kSamplePairs, sink, [&](std::size_t i) {
    fn->route(pairs[i].first, pairs[i].second, scratch);
    return std::uint64_t{scratch.useful_phys_mask};
  });
  out.lut_route_ns = ns_per_call(kSamplePairs, sink, [&](std::size_t i) {
    lut.route(pairs[i].first, pairs[i].second, scratch);
    return std::uint64_t{scratch.useful_phys_mask};
  });
  const routing::Selector selector(routing::SelectionPolicy::MaxFreeVcs);
  out.select_ns = ns_per_call(kSamplePairs, sink, [&](std::size_t i) {
    const auto pick = selector.select(routes[i], net.free_mask_row(pairs[i].first),
                                      static_cast<std::uint32_t>(i));
    return pick ? std::uint64_t{pick->channel} + 1 : 0;
  });

  const auto limiter_ns = [&](LimiterKind kind, std::uint64_t* allowed) {
    wormsim::core::LimiterConfig lc;
    lc.kind = kind;
    const auto limiter = wormsim::core::make_limiter(lc, nodes);
    std::uint64_t ok = 0;
    const double ns = ns_per_call(kSamplePairs, ok, [&](std::size_t i) {
      wormsim::core::InjectionRequest req;
      req.node = pairs[i].first;
      req.dst = pairs[i].second;
      req.length_flits = 16;
      req.route = &routes[i];
      req.cycle = sim.cycle();
      req.queue_len = 1;
      return std::uint64_t{limiter->allow(req, net)};
    });
    if (allowed) *allowed = ok;
    sink += ok;
    return ns;
  };
  std::uint64_t alo_allowed = 0;
  out.alo_ns = limiter_ns(LimiterKind::ALO, &alo_allowed);
  out.lf_ns = limiter_ns(LimiterKind::LF, nullptr);
  out.dril_ns = limiter_ns(LimiterKind::DRIL, nullptr);
  out.alo_allow_ratio = static_cast<double>(alo_allowed) /
                        static_cast<double>(kSamplePairs * kReplayRounds);
  g_sink = g_sink + sink;
  return out;
}

/// ns per empty-body ShardCrew::run, median of five batches.
double shard_crew_run_ns(unsigned shards) {
  wormsim::util::ShardCrew crew(shards);
  const wormsim::util::ShardCrew::Body body = [](unsigned) {};
  for (int i = 0; i < 100; ++i) crew.run(body);
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kCrewRuns; ++i) crew.run(body);
    batches.push_back(ns_since(t0) / kCrewRuns);
  }
  return median(std::move(batches));
}

/// CPU cost of attaching OnlineStats to the workload's last point, as a
/// percentage: median over alternating (without, with) pairs.
double online_overhead_pct(const Workload& wl, std::uint64_t seed,
                           unsigned shards, int pairs) {
  const cfgns::SimConfig cfg =
      point_config(wl, wl.limiters.back(), seed, shards);
  const auto point_cpu = [&](bool attach) {
    auto sim = cfgns::build_simulator(cfg);
    wormsim::metrics::OnlineStats online(sim->topology().num_nodes(),
                                         wormsim::metrics::OnlineConfig{});
    if (attach) sim->set_online(&online);
    const double c0 = cpu_now();
    sim->run(cfg.protocol);
    return cpu_now() - c0;
  };
  std::vector<double> ratios;
  for (int p = 0; p < pairs; ++p) {
    double off = 0.0;
    double on = 0.0;
    if (p % 2 == 0) {
      off = point_cpu(false);
      on = point_cpu(true);
    } else {
      on = point_cpu(true);
      off = point_cpu(false);
    }
    ratios.push_back(on / off);
  }
  return 100.0 * (median(std::move(ratios)) - 1.0);
}

}  // namespace

TraceReport traced_run(const Workload& wl, std::uint64_t seed,
                       unsigned shards, double untraced_cpu_s) {
  TraceReport out;
  Digest state;
  std::vector<double> step_ns;
  std::array<std::uint64_t, wormsim::metrics::kPhaseCount> phase_ns{};
  std::uint64_t profiled_cycles = 0;
  wormsim::sim::CoreScanStats scan;
  double queue_sum = 0.0;
  double in_flight_sum = 0.0;
  double pending_sum = 0.0;
  std::uint64_t detections = 0;
  unsigned shards_eff = 1;
  Replay replay;
  double crew_ns = 0.0;
  double online_pct = 0.0;
  std::vector<double> build_ms;
  cfgns::MemoryFootprint footprint;
  try {
    for (std::size_t p = 0; p < wl.limiters.size(); ++p) {
      const bool last = p + 1 == wl.limiters.size();
      const cfgns::SimConfig cfg = point_config(wl, wl.limiters[p], seed, shards);
      for (int b = 0; b < 3; ++b) {
        const double t0 = wall_now();
        auto probe = cfgns::build_simulator(cfg);
        build_ms.push_back(1e3 * (wall_now() - t0));
      }
      footprint = cfgns::estimate_memory(cfg);
      auto sim = cfgns::build_simulator(cfg);
      shards_eff = sim->shards();
      wormsim::metrics::OnlineConfig oc;
      oc.profile_period = 1;
      wormsim::metrics::OnlineStats online(sim->topology().num_nodes(), oc);
      sim->set_online(&online);

      const Cycle cycles = cfg.protocol.warmup + cfg.protocol.measure;
      const Cycle snapshot_at = cfg.protocol.warmup + cfg.protocol.measure / 2;
      double cpu = cpu_now();
      for (Cycle c = 0; c < cycles; ++c) {
        if (last && c == snapshot_at) {
          out.cpu_s += cpu_now() - cpu;
          replay = replay_layers(*sim, seed);
          cpu = cpu_now();
        }
        const auto t0 = Clock::now();
        sim->step();
        step_ns.push_back(ns_since(t0));
        queue_sum += static_cast<double>(sim->source_queue_total());
        in_flight_sum += static_cast<double>(sim->messages_in_flight());
        pending_sum += static_cast<double>(sim->recovery_pending());
      }
      out.cpu_s += cpu_now() - cpu;
      sim->finish_online();
      out.cycles += cycles;

      const auto& prof = online.profiler();
      for (std::size_t i = 0; i < phase_ns.size(); ++i) {
        phase_ns[i] += prof.phase_ns(static_cast<Phase>(i));
      }
      profiled_cycles += prof.sampled_cycles();
      const auto& s = sim->scan_stats();
      scan.cycles += s.cycles;
      scan.scan_visited += s.scan_visited;
      scan.scan_total += s.scan_total;
      scan.active_links_sum += s.active_links_sum;
      scan.route_evals += s.route_evals;
      scan.route_memo_hits += s.route_memo_hits;
      scan.commit_decisions += s.commit_decisions;
      scan.commit_conflicts += s.commit_conflicts;
      detections += sim->total_deadlock_detections();

      const std::string why = check_invariants(*sim);
      if (!why.empty() && out.error.empty()) out.error = why;
      digest_state(state, *sim,
                   sim->collector().finish(sim->topology().num_nodes()));
    }
    crew_ns = shard_crew_run_ns(requested_shards());
    online_pct = online_overhead_pct(wl, seed, shards, wl.sharded ? 1 : 3);
  } catch (const std::exception& e) {
    out.error = std::string("exception: ") + e.what();
  }
  out.state_digest = state.hex();

  const auto per_cycle = [&](double v) {
    return scan.cycles ? v / static_cast<double>(scan.cycles) : 0.0;
  };
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto& m = out.metrics;
  std::vector<double> sorted = step_ns;
  std::sort(sorted.begin(), sorted.end());
  const auto pct = [&](double q) {
    if (sorted.empty()) return 0.0;
    const auto i = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
    return sorted[i];
  };
  m.emplace_back("sim.step_ns_p50", pct(0.50));
  m.emplace_back("sim.step_ns_p99", pct(0.99));
  m.emplace_back("sim.step_samples", static_cast<double>(step_ns.size()));

  const bool sharded_path = shards_eff > 1;
  std::uint64_t phase_total = 0;
  for (std::size_t i = 1; i < phase_ns.size(); ++i) phase_total += phase_ns[i];
  for (std::size_t i = 1; i < phase_ns.size(); ++i) {
    const auto phase = static_cast<Phase>(i);
    const std::string name =
        "sim.phase." + std::string(wormsim::metrics::phase_name(phase)) + "_ns";
    m.emplace_back(name, ratio(static_cast<double>(phase_ns[i]),
                               static_cast<double>(profiled_cycles)));
    const bool split = phase >= Phase::RouteEval;
    const bool whole = phase == Phase::Route || phase == Phase::Transmit;
    if ((split && !sharded_path) || (whole && sharded_path)) {
      out.not_applicable.push_back(name);
    } else {
      out.phase_share.emplace_back(
          std::string(wormsim::metrics::phase_name(phase)),
          ratio(static_cast<double>(phase_ns[i]), static_cast<double>(phase_total)));
    }
  }

  m.emplace_back("sim.scan_visited_per_cycle", per_cycle(static_cast<double>(scan.scan_visited)));
  m.emplace_back("sim.scan_skip_ratio", scan.skipped_scan_ratio());
  m.emplace_back("sim.active_links_avg", scan.avg_active_links());
  m.emplace_back("sim.shards_effective", static_cast<double>(shards_eff));
  m.emplace_back("sim.commit_decisions_per_cycle",
                 per_cycle(static_cast<double>(scan.commit_decisions)));
  m.emplace_back("sim.commit_conflict_rate", scan.commit_conflict_rate());
  if (!sharded_path) {
    out.not_applicable.push_back("sim.commit_decisions_per_cycle");
    out.not_applicable.push_back("sim.commit_conflict_rate");
  }
  m.emplace_back("util.shard_crew_run_ns", crew_ns);

  m.emplace_back("routing.route_evals_per_cycle", per_cycle(static_cast<double>(scan.route_evals)));
  m.emplace_back("routing.memo_hit_rate", scan.route_memo_hit_rate());
  m.emplace_back("routing.lut_route_ns", replay.lut_route_ns);
  m.emplace_back("routing.fn_route_ns", replay.fn_route_ns);
  m.emplace_back("routing.select_ns", replay.select_ns);

  m.emplace_back("core.alo_allow_ns", replay.alo_ns);
  m.emplace_back("core.lf_allow_ns", replay.lf_ns);
  m.emplace_back("core.dril_allow_ns", replay.dril_ns);
  m.emplace_back("core.alo_allow_ratio", replay.alo_allow_ratio);

  m.emplace_back("deadlock.detections_per_kcycle", 1e3 * per_cycle(static_cast<double>(detections)));
  m.emplace_back("deadlock.recovery_pending_avg", per_cycle(pending_sum));
  m.emplace_back("traffic.source_queue_avg", per_cycle(queue_sum));
  m.emplace_back("traffic.in_flight_avg", per_cycle(in_flight_sum));

  m.emplace_back("config.build_ms", median(build_ms));
  m.emplace_back("config.lut_tabulated", footprint.lut_bytes > 0 ? 1.0 : 0.0);
  m.emplace_back("config.estimated_mib",
                 static_cast<double>(footprint.total_bytes()) / (1024.0 * 1024.0));

  m.emplace_back("metrics.online_overhead_pct", online_pct);
  m.emplace_back("trace.overhead_pct", 100.0 * (ratio(out.cpu_s, untraced_cpu_s) - 1.0));
  return out;
}

}  // namespace wormbench
