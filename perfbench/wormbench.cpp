// wormbench — the measurement binary of the repository benchmark.
//
//   wormbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// Untraced mode (--trace 0) builds and runs the workload's points back
// to back ("a repetition") until S seconds have elapsed, at least
// kMinReps times, timing config::build_simulator apart from
// Simulator::run, with a host-speed probe (HostProbe) between the timed
// calls. Traced mode (--trace 1) runs one untraced repetition
// and one traced repetition (layers.cpp). Either mode prints one JSON
// document with the raw per-repetition figures and result digests;
// perfbench/run.py turns it into the benchmark's metrics and checks the
// digests.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "metrics/online/online_stats.hpp"
#include "routing/routing.hpp"
#include "traffic/patterns.hpp"
#include "util/json.hpp"

namespace wormbench {

namespace cfgns = wormsim::config;
using wormsim::core::LimiterKind;
using wormsim::util::JsonWriter;

std::vector<Workload> workloads(bool smoke) {
  std::vector<Workload> t = {
      {"sat512", 8, 3, 1.0, {LimiterKind::None, LimiterKind::ALO},
       false, false, 1000, 2000},
      {"light512_online", 8, 3, 0.1, {LimiterKind::None, LimiterKind::ALO},
       true, false, 2000, 8000},
      {"sat4096_sharded", 16, 3, 1.0, {LimiterKind::ALO},
       false, true, 300, 700},
  };
  if (smoke) {
    for (auto& wl : t) {
      wl.k = 4;
      wl.warmup = 100;
      wl.measure = 200;
    }
  }
  return t;
}

const Workload* find_workload(const std::vector<Workload>& table,
                              std::string_view name) {
  for (const auto& wl : table) {
    if (wl.name == name) return &wl;
  }
  return nullptr;
}

unsigned requested_shards() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

cfgns::SimConfig point_config(const Workload& wl, LimiterKind limiter,
                              std::uint64_t seed, unsigned shards) {
  cfgns::SimConfig cfg = cfgns::paper_base();
  cfg.k = wl.k;
  cfg.n = wl.n;
  cfg.sim.limiter.kind = limiter;
  cfg.sim.shards = shards;
  cfg.workload.offered_flits_per_node_cycle = wl.load;
  cfg.protocol.warmup = wl.warmup;
  cfg.protocol.measure = wl.measure;
  cfg.protocol.drain_max = 0;
  cfg.seed = seed;
  return cfg;
}

double wall_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
constexpr std::size_t kProbeTableEntries = std::size_t{1} << 20;  // 4 MiB
constexpr int kProbeMixSteps = 1'500'000;
constexpr int kProbeWalkSteps = 250'000;
// The walk's share of the probe's time (a weighted geometric mean: 0 is
// the mixing loop alone, 1 the walk alone), and the power of the probe's
// time that the simulator's time follows as the host slows. Both were
// fitted on a shared 4-vCPU Xeon VM: on block averages of a series that
// alternated the simulator with candidate loops, the simulator's time
// followed the mixing loop to a power of about 1.1 and a 4 MiB walk to
// about 0.2, on both 512-node workloads; over eight 50-second runs of
// each, the spread between runs was least for shares of 0.1 to 0.3 and
// powers of 1.2 to 1.6 (README.md, "Reference seconds").
constexpr double kProbeWalkShare = 0.2;
constexpr double kProbeExponent = 1.4;

double weighted(double mix, double walk) {
  return std::pow(mix, 1.0 - kProbeWalkShare) * std::pow(walk, kProbeWalkShare);
}
}  // namespace

HostProbe::HostProbe() : next_(kProbeTableEntries) {
  // One cycle through every entry (Sattolo's shuffle), so the walk never
  // settles into a short, cache-resident loop.
  for (std::size_t i = 0; i < next_.size(); ++i) next_[i] = static_cast<std::uint32_t>(i);
  std::uint64_t z = 0x243f6a8885a308d3ULL;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    z += 0x9e3779b97f4a7c15ULL;  // splitmix64
    std::uint64_t r = z;
    r = (r ^ (r >> 30)) * 0xbf58476d1ce4e5b9ULL;
    r = (r ^ (r >> 27)) * 0x94d049bb133111ebULL;
    r ^= r >> 31;
    std::swap(next_[i], next_[r % i]);
  }
}

HostProbe::Sample HostProbe::run() {
  const double w0 = wall_now();
  const double c0 = cpu_now();
  std::uint64_t x = mix_;
  std::uint64_t acc = 0;
  for (int i = 0; i < kProbeMixSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (x & 1) {
      acc += x >> 3;
    } else {
      acc ^= x * 3;
    }
  }
  mix_ = x ^ acc;
  const double w1 = wall_now();
  const double c1 = cpu_now();
  std::uint32_t at = at_;
  for (int i = 0; i < kProbeWalkSteps; ++i) at = next_[at];
  at_ = at;
  const double w2 = wall_now();
  const double c2 = cpu_now();
  return {weighted(w1 - w0, w2 - w1), weighted(c1 - c0, c2 - c1), w1 - w0, w2 - w1};
}

void Digest::bytes(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

Digest& Digest::add(std::string_view key, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "=%llu;", static_cast<unsigned long long>(v));
  bytes(key);
  bytes(buf);
  return *this;
}

Digest& Digest::add(std::string_view key, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "=%.17g;", v);
  bytes(key);
  bytes(buf);
  return *this;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void digest_state(Digest& d, const wormsim::sim::Simulator& sim,
                  const wormsim::metrics::SimResult& r) {
  d.add("cycle", sim.cycle())
      .add("delivered", sim.total_delivered())
      .add("detections", sim.total_deadlock_detections())
      .add("in_flight", std::uint64_t{sim.messages_in_flight()})
      .add("queued", std::uint64_t{sim.source_queue_total()})
      .add("recovering", std::uint64_t{sim.recovery_pending()})
      .add("lost", sim.total_lost())
      .add("generated", r.messages_generated)
      .add("injected", r.messages_injected)
      .add("r.delivered", r.messages_delivered)
      .add("r.lost", r.messages_lost)
      .add("queue_avg", r.avg_queue_len)
      .add("queue_max", r.max_queue_len);
}

void digest_result(Digest& d, const wormsim::metrics::SimResult& r) {
  d.add("lat_mean", r.latency_mean)
      .add("lat_sd", r.latency_stddev)
      .add("lat_min", r.latency_min)
      .add("lat_max", r.latency_max)
      .add("lat_p50", r.latency_p50)
      .add("lat_p95", r.latency_p95)
      .add("lat_p99", r.latency_p99)
      .add("accepted", r.accepted_flits_per_node_cycle)
      .add("deadlocks", r.deadlock_detections)
      .add("injected_window", r.messages_injected_window)
      .add("measured_generated", r.measured_generated)
      .add("measured_delivered", r.measured_delivered)
      .add("probe", r.probe.samples)
      .add("probe_a", r.probe.rule_a)
      .add("probe_b", r.probe.rule_b)
      .add("total_cycles", r.total_cycles)
      .add("saturated", std::uint64_t{r.saturated});
}

std::string check_invariants(const wormsim::sim::Simulator& sim) {
  std::string why;
  if (!sim.check_conservation(&why)) return "conservation: " + why;
  if (!sim.check_active_sets(&why)) return "active sets: " + why;
  if (!sim.check_flow_control(&why)) return "flow control: " + why;
  return {};
}

namespace {

constexpr std::size_t kMinReps = 3;
constexpr int kSetupRounds = 5;

struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double setup_s = 0.0;
  // The same in reference seconds (see HostProbe); 0 when not probed.
  double ref_wall_s = 0.0;
  double ref_cpu_s = 0.0;
  double ref_setup_s = 0.0;
  std::vector<HostProbe::Sample> probes;  // taken after each point
  Cycle cycles = 0;
  std::uint64_t delivered_flits = 0;
  double accepted = 0.0;  // ALO point
  double p99 = 0.0;       // ALO point
  std::string state_digest;
  std::string result_digest;
  std::string error;
};

/// Scale from this host's seconds to reference seconds for a call that
/// ran between probe samples `before` and `after`.
HostProbe::Sample to_reference(const HostProbe::Sample& before,
                               const HostProbe::Sample& after) {
  HostProbe::Sample scale;
  scale.wall_s = std::pow(2.0 * HostProbe::kReferenceS / (before.wall_s + after.wall_s),
                          kProbeExponent);
  scale.cpu_s = std::pow(2.0 * HostProbe::kReferenceS / (before.cpu_s + after.cpu_s),
                         kProbeExponent);
  return scale;
}

/// One repetition: every point of the workload, built, run and checked.
/// With a `probe`, each point is bracketed by probe samples (`last` is
/// the latest one, carried from the previous point) and its times are
/// also reported in reference seconds.
Rep run_rep(const Workload& wl, std::uint64_t seed, unsigned shards,
            HostProbe* probe = nullptr, HostProbe::Sample* last = nullptr) {
  Rep rep;
  Digest state;
  Digest full;
  try {
    for (const LimiterKind limiter : wl.limiters) {
      const cfgns::SimConfig cfg = point_config(wl, limiter, seed, shards);
      const double t0 = wall_now();
      auto sim = cfgns::build_simulator(cfg);
      const double setup_s = wall_now() - t0;
      rep.setup_s += setup_s;
      std::unique_ptr<wormsim::metrics::OnlineStats> online;
      if (wl.online) {
        online = std::make_unique<wormsim::metrics::OnlineStats>(
            sim->topology().num_nodes(), wormsim::metrics::OnlineConfig{});
        sim->set_online(online.get());
      }
      const double w0 = wall_now();
      const double c0 = cpu_now();
      const wormsim::metrics::SimResult r = sim->run(cfg.protocol);
      const double cpu_s = cpu_now() - c0;
      const double wall_s = wall_now() - w0;
      rep.cpu_s += cpu_s;
      rep.wall_s += wall_s;
      if (probe != nullptr) {
        const HostProbe::Sample after = probe->run();
        const HostProbe::Sample scale = to_reference(*last, after);
        rep.ref_wall_s += wall_s * scale.wall_s;
        rep.ref_cpu_s += cpu_s * scale.cpu_s;
        rep.ref_setup_s += setup_s * scale.wall_s;
        *last = after;
        rep.probes.push_back(after);
      }
      rep.cycles += r.total_cycles;
      rep.delivered_flits += r.messages_delivered * cfg.workload.length.fixed;
      if (limiter == LimiterKind::ALO) {
        rep.accepted = r.accepted_flits_per_node_cycle;
        rep.p99 = r.latency_p99;
      }
      const std::string why = check_invariants(*sim);
      if (!why.empty() && rep.error.empty()) {
        rep.error = std::string(wormsim::core::limiter_name(limiter)) + ": " + why;
      }
      digest_state(state, *sim, r);
      digest_state(full, *sim, r);
      digest_result(full, r);
      if (online) {
        sim->finish_online();
        full.add("online.windows", std::uint64_t{online->windows().size()})
            .add("online.saturated", std::uint64_t{online->saturated()})
            .add("online.onset", online->onset_cycle().value_or(0))
            .add("online.p99", online->latency_hist().quantile(0.99));
      }
    }
  } catch (const std::exception& e) {
    rep.error = std::string("exception: ") + e.what();
  }
  rep.state_digest = state.hex();
  rep.result_digest = full.hex();
  return rep;
}

/// Build (and drop) every point's simulator; returns the summed
/// config::build_simulator time.
double setup_round(const Workload& wl, std::uint64_t seed, unsigned shards) {
  double total = 0.0;
  for (const LimiterKind limiter : wl.limiters) {
    const cfgns::SimConfig cfg = point_config(wl, limiter, seed, shards);
    const double t0 = wall_now();
    auto sim = cfgns::build_simulator(cfg);
    total += wall_now() - t0;
  }
  return total;
}

void write_rep(JsonWriter& w, const Rep& r) {
  w.begin_object();
  w.field("wall_s", r.wall_s);
  w.field("cpu_s", r.cpu_s);
  w.field("setup_s", r.setup_s);
  w.field("ref_wall_s", r.ref_wall_s);
  w.field("ref_cpu_s", r.ref_cpu_s);
  w.field("ref_setup_s", r.ref_setup_s);
  w.key("probes");
  w.begin_array();
  for (const HostProbe::Sample& p : r.probes) {
    w.begin_array();
    w.value(p.mix_wall_s);
    w.value(p.walk_wall_s);
    w.end_array();
  }
  w.end_array();
  w.field("cycles", std::uint64_t{r.cycles});
  w.field("delivered_flits", r.delivered_flits);
  w.field("accepted_flits_node_cycle", r.accepted);
  w.field("latency_p99_cycles", r.p99);
  w.field("state_digest", r.state_digest);
  w.field("result_digest", r.result_digest);
  w.field("error", r.error);
  w.end_object();
}

void write_config(JsonWriter& w, const Workload& wl, std::uint64_t seed,
                  unsigned shards) {
  const cfgns::SimConfig cfg = point_config(wl, wl.limiters.front(), seed, shards);
  char topology[48];
  std::snprintf(topology, sizeof topology, "%u-ary %u-cube", cfg.k, cfg.n);
  w.begin_object();
  w.field("topology", topology);
  w.field("nodes", cfgns::estimate_memory(cfg).nodes);
  w.field("offered_flits_node_cycle", cfg.workload.offered_flits_per_node_cycle);
  w.key("limiters");
  w.begin_array();
  for (const LimiterKind l : wl.limiters) w.value(wormsim::core::limiter_name(l));
  w.end_array();
  w.field("routing", wormsim::routing::algorithm_name(cfg.sim.algorithm));
  w.field("vcs", cfg.sim.net.num_vcs);
  w.field("buf_flits", cfg.sim.net.buf_flits);
  w.field("pattern", wormsim::traffic::pattern_name(cfg.workload.pattern));
  w.field("message_flits", cfg.workload.length.fixed);
  w.field("warmup_cycles", std::uint64_t{cfg.protocol.warmup});
  w.field("measure_cycles", std::uint64_t{cfg.protocol.measure});
  w.field("online_stats", wl.online);
  w.field("shards", shards);
  w.end_object();
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const std::vector<Workload> table = workloads(args.smoke);
  const Workload* wl = find_workload(table, args.workload);
  if (wl == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  const unsigned shards = wl->sharded ? requested_shards() : 1u;

  HostProbe probe;
  probe.run();  // warm the probe's table
  HostProbe::Sample last = probe.run();
  std::vector<double> setup;
  std::vector<double> ref_setup;
  for (int i = 0; i < kSetupRounds; ++i) {
    setup.push_back(setup_round(*wl, args.seed, shards));
    const HostProbe::Sample after = probe.run();
    ref_setup.push_back(setup.back() * to_reference(last, after).wall_s);
    last = after;
  }
  // The sharded workload's reference: the same points at one shard,
  // untimed. Sharding must not change a single simulated bit.
  Rep reference;
  if (shards > 1) {
    reference = run_rep(*wl, args.seed, 1);
    last = probe.run();
  }

  std::vector<Rep> reps;
  TraceReport trace;
  if (args.trace) {
    reps.push_back(run_rep(*wl, args.seed, shards));
    trace = traced_run(*wl, args.seed, shards, reps.front().cpu_s);
  } else {
    const double start = wall_now();
    while (reps.size() < kMinReps || wall_now() - start < args.seconds) {
      reps.push_back(run_rep(*wl, args.seed, shards, &probe, &last));
      setup.push_back(reps.back().setup_s);
      ref_setup.push_back(reps.back().ref_setup_s);
    }
  }

  JsonWriter w(std::cout);
  w.begin_object();
  w.field("workload", wl->name);
  w.field("seed", args.seed);
  w.field("trace", args.trace);
  w.key("config");
  write_config(w, *wl, args.seed, shards);
  w.key("host");
  w.begin_object();
  w.field("nproc", std::thread::hardware_concurrency());
  w.field("compiler", compiler());
  w.field("build_type", WORMBENCH_BUILD_TYPE);
  w.end_object();
  w.key("setup_s");
  w.begin_array();
  for (const double s : setup) w.value(s);
  w.end_array();
  w.key("ref_setup_s");
  w.begin_array();
  for (const double s : ref_setup) w.value(s);
  w.end_array();
  w.field("probe_reference_s", HostProbe::kReferenceS);
  w.key("reference");
  if (shards > 1) {
    write_rep(w, reference);
  } else {
    w.value_null();
  }
  w.key("reps");
  w.begin_array();
  for (const Rep& r : reps) write_rep(w, r);
  w.end_array();
  w.field("peak_rss_mib", peak_rss_mib());
  if (args.trace) {
    w.key("traced");
    w.begin_object();
    w.field("state_digest", trace.state_digest);
    w.field("error", trace.error);
    w.field("cycles", std::uint64_t{trace.cycles});
    w.field("cpu_s", trace.cpu_s);
    w.key("metrics");
    w.begin_object();
    for (const auto& [name, value] : trace.metrics) w.field(name, value);
    w.end_object();
    w.key("not_applicable");
    w.begin_array();
    for (const auto& name : trace.not_applicable) w.value(name);
    w.end_array();
    w.key("phase_share");
    w.begin_object();
    for (const auto& [name, value] : trace.phase_share) w.field(name, value);
    w.end_object();
    w.end_object();
  }
  w.end_object();
  std::cout << "\n";
  return 0;
}

}  // namespace
}  // namespace wormbench

int main(int argc, char** argv) {
  try {
    return wormbench::run(wormbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "wormbench: error: " << e.what() << "\n";
    return 1;
  }
}
