#include "config/presets.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fault/schedule.hpp"
#include "routing/routing_lut.hpp"

namespace wormsim::config {

SimConfig paper_base() {
  SimConfig cfg;
  cfg.k = 8;
  cfg.n = 3;
  cfg.sim.net.num_vcs = 3;
  cfg.sim.net.buf_flits = 4;
  cfg.sim.net.inj_channels = 4;
  cfg.sim.net.eje_channels = 4;
  cfg.sim.net.link_delay = 2;     // crossbar + channel, one cycle each
  cfg.sim.routing_delay = 1;      // routing, one cycle
  cfg.sim.algorithm = routing::Algorithm::TFAR;
  cfg.sim.selection = routing::SelectionPolicy::MaxFreeVcs;
  cfg.sim.detection.enabled = true;
  cfg.sim.detection.threshold = 32;
  cfg.sim.recovery.base_delay = 32;
  cfg.sim.limiter.kind = core::LimiterKind::None;
  cfg.workload.pattern = traffic::PatternKind::Uniform;
  cfg.workload.process = traffic::ProcessKind::Exponential;
  cfg.workload.length.kind = traffic::LengthDist::Kind::Fixed;
  cfg.workload.length.fixed = 16;
  cfg.workload.offered_flits_per_node_cycle = 0.1;
  cfg.protocol.warmup = 10000;
  cfg.protocol.measure = 30000;
  cfg.protocol.drain_max = 30000;
  cfg.seed = 20000501;  // IPPS 2000
  return cfg;
}

SimConfig small_base() {
  SimConfig cfg = paper_base();
  cfg.n = 2;  // 8-ary 2-cube, 64 nodes
  cfg.protocol.warmup = 5000;
  cfg.protocol.measure = 15000;
  cfg.protocol.drain_max = 20000;
  return cfg;
}

MemoryFootprint estimate_memory(const SimConfig& cfg) {
  MemoryFootprint f;
  const auto& net = cfg.sim.net;
  std::uint64_t nodes = 1;
  for (unsigned d = 0; d < cfg.n; ++d) nodes *= cfg.k;
  f.nodes = nodes;
  const std::uint64_t net_links = nodes * (2 * cfg.n);
  const std::uint64_t inj_links = nodes * net.inj_channels;
  const std::uint64_t links = net_links + inj_links;
  // One VC slot per (net link, vc) plus one per injection link, each a
  // VcState plus its header-arrival cycle in the per-slot side array;
  // each Link embeds its in-flight pipeline ring, so sizeof covers it.
  const std::uint64_t slots = net_links * net.num_vcs + inj_links;
  f.network_bytes = links * sizeof(sim::Link) +
                    slots * (sizeof(sim::VcState) + sizeof(sim::Cycle)) +
                    nodes * net.eje_channels * sizeof(sim::EjectPort);
  // Computed routing: one coordinate-digit row per node. A fault
  // schedule adds the word table its first kill tabulates (validate()
  // bounds it by kMaxEntries).
  const bool active = cfg.sim.core == sim::SimCore::Active;
  if (active || !cfg.sim.faults.empty()) {
    f.lut_bytes = nodes * cfg.n * sizeof(std::uint16_t);
    if (!cfg.sim.faults.empty()) {
      f.lut_bytes += nodes * nodes * sizeof(routing::RoutingLut::Word);
    }
  }
  // SoA status rows: per-net-link free/admissible masks and epoch
  // counters, plus the per-slot slot->router map and route memo. The
  // per-message progress array grows with the message pool, which this
  // estimate leaves out like the pool itself.
  f.status_bytes = net_links * (sizeof(std::uint8_t) * 2 +
                                sizeof(std::uint64_t)) +
                   slots * sizeof(topo::NodeId);
  if (active) {
    f.status_bytes += slots * sim::Simulator::route_memo_entry_bytes();
  }
  // Active-set bitmaps: tenant + arrival over net links; eject, inject
  // and generator-dense over nodes; plus the per-node generator
  // subscription byte.
  const auto bitmap_bytes = [](std::uint64_t n) {
    return (n + 63) / 64 * sizeof(std::uint64_t);
  };
  f.active_set_bytes =
      2 * bitmap_bytes(net_links) + 3 * bitmap_bytes(nodes) + nodes;
  return f;
}

void validate(const SimConfig& cfg) {
  if (cfg.k < 2) throw std::invalid_argument("k must be >= 2");
  if (cfg.n < 1 || cfg.n > topo::kMaxDims) {
    throw std::invalid_argument("n out of range");
  }
  if (cfg.workload.length.mean() <= 0) {
    throw std::invalid_argument("message length must be positive");
  }
  if (cfg.workload.offered_flits_per_node_cycle < 0) {
    throw std::invalid_argument("offered load must be >= 0");
  }
  if (cfg.sim.algorithm == routing::Algorithm::TFAR &&
      !cfg.sim.detection.enabled) {
    throw std::invalid_argument(
        "TFAR is not deadlock-free: deadlock detection must be enabled");
  }
  if (cfg.protocol.measure == 0) {
    throw std::invalid_argument("measurement window must be non-empty");
  }
  if (cfg.sim.flow.scheme == sim::FlowControl::Vct) {
    // Whole-packet admission: a packet longer than the buffer could
    // never claim a network VC and would wedge its source forever.
    const auto& len = cfg.workload.length;
    const std::uint32_t longest =
        len.kind == traffic::LengthDist::Kind::Bimodal
            ? std::max(len.short_len, len.long_len)
            : len.fixed;
    if (longest > cfg.sim.net.buf_flits) {
      throw std::invalid_argument(
          "virtual cut-through needs buf_flits >= the longest message (" +
          std::to_string(longest) + " flits)");
    }
  }
  if (cfg.sim.shards != 1 && cfg.sim.core == sim::SimCore::Dense) {
    throw std::invalid_argument(
        "shards != 1 requires the active core (the dense reference core "
        "stays single-threaded)");
  }
  // NetworkParams and routing constraints are validated by their
  // constructors; trigger them early for a clear error site.
  const topo::KAryNCube topo(cfg.k, cfg.n);
  sim::Network probe_net(topo, cfg.sim.net);
  (void)routing::make_routing(cfg.sim.algorithm, topo, cfg.sim.net.num_vcs);
  if (!cfg.sim.faults.empty()) {
    if (cfg.sim.algorithm != routing::Algorithm::TFAR) {
      throw std::invalid_argument(
          "fault schedules require TFAR routing (the only algorithm with a "
          "reachability-aware route rebuild)");
    }
    const std::uint64_t nodes = topo.num_nodes();
    if (nodes * nodes > routing::RoutingLut::kMaxEntries) {
      // Refuse up front with the arithmetic instead of letting a 32k-node
      // config attempt a multi-gigabyte fault-aware route table.
      throw std::invalid_argument(
          "fault schedules need a tabulable network: " +
          std::to_string(nodes) + " nodes would need a " +
          std::to_string(nodes * nodes * sizeof(routing::RoutingLut::Word) /
                         (1024 * 1024)) +
          " MiB fault-aware route table, over the " +
          std::to_string(routing::RoutingLut::kMaxEntries *
                         sizeof(routing::RoutingLut::Word) / (1024 * 1024)) +
          " MiB budget; shrink the network or drop the fault schedule");
    }
    fault::validate(cfg.sim.faults, topo);
  }
}

std::unique_ptr<sim::Simulator> build_simulator(const SimConfig& cfg) {
  validate(cfg);
  const topo::KAryNCube topo(cfg.k, cfg.n);
  auto workload =
      std::make_unique<traffic::Workload>(topo, cfg.workload, cfg.seed);
  sim::SimulatorConfig sc = cfg.sim;
  sc.seed = cfg.seed;
  return std::make_unique<sim::Simulator>(topo, sc, std::move(workload));
}

metrics::SimResult run_experiment(const SimConfig& cfg) {
  auto simulator = build_simulator(cfg);
  return simulator->run(cfg.protocol);
}

metrics::SimResult run_experiment(const SimConfig& cfg,
                                  const RunHooks& hooks) {
  auto simulator = build_simulator(cfg);
  simulator->set_tracer(hooks.tracer);
  simulator->set_spatial(hooks.spatial);
  simulator->set_online(hooks.online);
  metrics::SimResult r = simulator->run(cfg.protocol);
  simulator->finish_spatial();
  simulator->finish_online();
  return r;
}

}  // namespace wormsim::config
