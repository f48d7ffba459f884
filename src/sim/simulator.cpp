#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/alo.hpp"

namespace wormsim::sim {

namespace {
constexpr Cycle kForever = std::numeric_limits<Cycle>::max();
constexpr Cycle kQueueSamplePeriod = 64;
}  // namespace

SimCore parse_sim_core(std::string_view name) {
  if (name == "dense") return SimCore::Dense;
  if (name == "active") return SimCore::Active;
  throw std::invalid_argument("unknown sim core (dense|active): " +
                              std::string(name));
}

std::string_view sim_core_name(SimCore core) noexcept {
  switch (core) {
    case SimCore::Dense: return "dense";
    case SimCore::Active: return "active";
  }
  return "unknown";
}

Simulator::Simulator(const topo::KAryNCube& topo, const SimulatorConfig& cfg,
                     std::unique_ptr<traffic::Workload> workload)
    : topo_(topo),
      cfg_(cfg),
      net_(topo_, cfg.net),
      routing_(routing::make_routing(cfg.algorithm, topo_, cfg.net.num_vcs)),
      selector_(cfg.selection),
      limiter_(core::make_limiter(cfg.limiter, topo_.num_nodes())),
      workload_(std::move(workload)),
      recovery_(topo_.num_nodes()),
      collector_(topo_.num_nodes(), 0, kForever),
      queues_(topo_.num_nodes()),
      head_since_(topo_.num_nodes(), 0),
      alloc_rr_(topo_.num_nodes(), 0),
      eject_nodes_(topo_.num_nodes()),
      inject_nodes_(topo_.num_nodes()),
      gen_dense_(topo_.num_nodes()),
      gen_where_(topo_.num_nodes(), GenSub::None) {
  if (cfg.routing_delay < 1 || cfg.routing_delay > 8) {
    throw std::invalid_argument("routing_delay must be in [1, 8]");
  }
  // Computed route words and the route memo are active-core
  // properties: the dense core routes through the virtual function and
  // re-evaluates every blocked header, so the byte-identity tests
  // double as a differential check of both.
  const bool active = cfg_.core == SimCore::Active;
  if (!cfg_.faults.empty()) {
    fault::validate(cfg_.faults, topo_);
    if (cfg_.algorithm != routing::Algorithm::TFAR) {
      throw std::invalid_argument(
          "fault schedules require TFAR routing (reconfiguration has no "
          "alternative paths under a deterministic algorithm)");
    }
    // Reconfiguration tabulates BFS routes around the failures, so the
    // table must fit, and the dense core routes through it too — or the
    // two cores would diverge the moment a fault fires. Healthy words
    // are bit-identical to the wrapped function, so routing through the
    // RoutingLut cannot perturb pre-fault behavior.
    const std::uint64_t nodes = topo_.num_nodes();
    if (nodes * nodes > routing::RoutingLut::kMaxEntries) {
      throw std::invalid_argument(
          "fault schedules need a tabulable network (too many nodes for "
          "the fault-aware route table budget)");
    }
    faults_ = std::make_unique<fault::FaultManager>(topo_, cfg_.faults);
  }
  if (active || faults_) {
    lut_ = std::make_unique<routing::RoutingLut>(*routing_, topo_);
  }
  memo_on_ = active;
  if (memo_on_) route_memo_.resize(net_.num_vc_slots());
  if (memo_on_ && cfg_.detection.enabled) {
    // Deadlines lie at most `threshold` cycles ahead; a threshold past
    // the cap only costs far deadlines a lap of the wheel.
    constexpr Cycle kMaxWheel = 4096;
    const Cycle size = std::bit_ceil(
        std::min<Cycle>(Cycle{cfg_.detection.threshold} + 1, kMaxWheel));
    deadline_wheel_.resize(size);
    deadline_mask_ = size - 1;
  }
  // Flow-control scheme and its capability bits, resolved once: the
  // cycle loop consults the scheme object only where a bit says it can
  // change the outcome.
  flow_ = make_flow_control(cfg_.flow, net_.num_vc_slots());
  fc_tracks_ = flow_->tracks_flits();
  fc_vetoes_ = flow_->veto_sends();
  fc_admits_ = flow_->gates_admission();
  if (flow_->kind() == FlowControl::Credit) {
    credit_status_ = std::make_unique<CreditChannelStatus>(
        net_, static_cast<const CreditFlowControl&>(*flow_));
  }
  limiter_status_ = credit_status_
                        ? static_cast<const core::ChannelStatus*>(
                              credit_status_.get())
                        : &net_;
  resolve_limiter();
  // Per-slot owning router node (the link's dst): a contiguous 4-byte
  // lookup in phase_route instead of a Link record load.
  vc_node_.resize(net_.num_vc_slots());
  for (LinkId l = 0; l < net_.num_links(); ++l) {
    const NodeId dst = net_.link(l).dst;
    for (unsigned vc = 0; vc < net_.vcs_on(l); ++vc) {
      vc_node_[net_.vc_flat_index({l, static_cast<std::uint8_t>(vc)})] = dst;
    }
  }
  // Sharded core: resolve the shard count (0 = one per hardware
  // thread), clamp to the number of 64-node bitmap words so every
  // shard owns at least one word, and build the contiguous word
  // partition of the node and net-link bitmaps. shards_eff_ == 1
  // leaves the sequential path untouched (no crew, no lanes).
  if (cfg_.shards != 1 && !active) {
    throw std::invalid_argument(
        "--shards > 1 requires the active core (the dense reference "
        "core stays single-threaded)");
  }
  const unsigned shards_req =
      cfg_.shards == 0 ? std::max(1u, std::thread::hardware_concurrency())
                       : cfg_.shards;
  const auto node_words =
      static_cast<unsigned>(std::max<std::size_t>(1, gen_dense_.word_count()));
  shards_eff_ = active ? std::min(shards_req, node_words) : 1u;
  gen_heaps_.resize(shards_eff_);
  if (shards_eff_ > 1) {
    crew_ = std::make_unique<util::ShardCrew>(shards_eff_);
    lanes_.resize(shards_eff_);
    const std::size_t nw = gen_dense_.word_count();
    const std::size_t lw = net_.arrival_links().word_count();
    node_word_lo_.resize(shards_eff_ + 1);
    link_word_lo_.resize(shards_eff_ + 1);
    word_shard_.resize(nw);
    for (unsigned s = 0; s < shards_eff_; ++s) {
      const auto [n_lo, n_hi] = util::ShardCrew::slice(nw, s, shards_eff_);
      const auto [l_lo, l_hi] = util::ShardCrew::slice(lw, s, shards_eff_);
      node_word_lo_[s] = n_lo;
      node_word_lo_[s + 1] = n_hi;
      link_word_lo_[s] = l_lo;
      link_word_lo_[s + 1] = l_hi;
      for (std::size_t w = n_lo; w < n_hi; ++w) word_shard_[w] = s;
    }
    for (ShardLane& lane : lanes_) lane.fc_row.resize(topo_.num_channels());
    // Conflict stamps for the route/transmit evaluate-commit protocol.
    // kStampNever, not 0: cycle 0 is a real simulated cycle and a zero
    // init would mark everything dirty on the first commit.
    route_slot_stamp_.assign(net_.num_vc_slots(), kStampNever);
    route_node_stamp_.assign(topo_.num_nodes(), kStampNever);
    transmit_link_stamp_.assign(net_.num_links(), kStampNever);
  }
}

std::size_t Simulator::route_memo_entry_bytes() noexcept {
  return sizeof(RouteMemo);
}

void Simulator::resolve_limiter() {
  limiter_reads_route_ = limiter_->reads_route();
  // Under Credit the status row also changes when credits come home,
  // which no set_active reports, so a denied source could miss its
  // wake.
  park_gates_ = memo_on_ && limiter_->verdict_reads_only_row() &&
                credit_status_ == nullptr;
  net_.wake_all_parked();
}

void Simulator::enqueue_source(NodeId node, NodeId dst, std::uint32_t length,
                               Cycle t) {
  if (faults_ && !deliverable(node, dst)) {
    // The source cannot know the destination died, but queueing the
    // message would wedge the FIFO head forever: count it generated and
    // immediately lost instead. (Generation at a dead node itself is
    // suppressed in poll_node.)
    ++generated_total_;
    collector_.on_generated(t);
    if (online_) online_->on_generated(length);
    count_lost(collector_.in_window(t));
    return;
  }
  queues_[node].push_back({dst, length, t, collector_.in_window(t)});
  if (queues_[node].size() == 1) head_since_[node] = t;
  ++queue_total_;
  ++generated_total_;
  inject_nodes_.insert(node);
  collector_.on_generated(t);
  if (online_) online_->on_generated(length);
  if (tracer_) {
    tracer_->record(t, obs::EventKind::QueueEnqueue, node,
                    /*aux8=*/0, static_cast<std::uint16_t>(length),
                    static_cast<std::uint32_t>(queues_[node].size()));
  }
}

bool Simulator::push_message(NodeId src, NodeId dst, std::uint32_t length) {
  if (src == dst || length == 0) return false;
  enqueue_source(src, dst, length, cycle_);
  return true;
}

void Simulator::step() {
  const Cycle t = cycle_;
  scan_.cycles += 1;
  scan_.scan_total +=
      2 * static_cast<std::uint64_t>(net_.num_net_links()) +
      3 * static_cast<std::uint64_t>(topo_.num_nodes());
  if (fc_tracks_) flow_->begin_cycle(t);
  if (online_ && online_->profile_due(t)) {
    run_phases_profiled(t);
  } else if (use_sharded_step()) {
    // Sharded cycle: generate/arrivals/eject fan out across the crew
    // (their per-element work is element-local); route and transmit
    // fan out as a read-only evaluate pass whose speculative decisions
    // a serial commit replays in sequential arbitration order (stale
    // ones detected by write-stamps and re-run inline). Inject stays
    // sequential — one global allocator and FIFO fairness accounting.
    if (faults_ && faults_->due(t)) apply_faults(t);
    phase_generate_sharded(t);
    phase_arrivals_sharded(t);
    phase_eject_sharded(t);
    phase_route_sharded(t);
    phase_transmit_sharded(t);
    phase_inject(t);
  } else {
    if (faults_ && faults_->due(t)) apply_faults(t);
    phase_generate(t);
    phase_arrivals(t);
    phase_eject(t);
    phase_route(t);
    phase_transmit(t);
    phase_inject(t);
  }
  scan_.active_links_sum += net_.tenant_links().size();
  scan_.active_nodes_sum +=
      cfg_.core == SimCore::Active ? inject_nodes_.size() : 0;
  if (t % kQueueSamplePeriod == 0) {
    const std::size_t total = queue_total_;
    collector_.on_queue_sample(total);
    if (timeseries_) timeseries_->on_queue_sample(t, total);
    if (spatial_) {
      if (use_sharded_step()) {
        sample_spatial_sharded(t);
      } else {
        for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
          spatial_->on_queue_sample(node, queues_[node].size());
        }
        for (LinkId l = 0; l < net_.num_net_links(); ++l) {
          spatial_->on_link_occupancy_sample(
              l,
              static_cast<unsigned>(std::popcount(net_.link(l).active_vc_mask)));
        }
      }
    }
#ifndef NDEBUG
    std::string why;
    assert(check_active_sets(&why) && why.c_str());
    assert(check_conservation(&why) && why.c_str());
    assert(check_fault_invariants(&why) && why.c_str());
    assert(check_flow_control(&why) && why.c_str());
#endif
  }
  if (online_ && online_->window_closes(t)) {
    online_->close_window(t, online_sample());
  }
  ++cycle_;
}

void Simulator::run_phases_profiled(Cycle t) {
  metrics::PhaseProfiler& prof = online_->profiler();
  prof.time(metrics::Phase::Fault, [&] {
    if (faults_ && faults_->due(t)) apply_faults(t);
  });
  if (use_sharded_step()) {
    // Sharded profiled cycle: time the same phases the unprofiled
    // sharded step runs, with route/transmit split into their
    // evaluate/commit sub-phases so speculation cost is attributable.
    prof.time(metrics::Phase::Generate, [&] { phase_generate_sharded(t); });
    prof.time(metrics::Phase::Arrivals, [&] { phase_arrivals_sharded(t); });
    prof.time(metrics::Phase::Eject, [&] { phase_eject_sharded(t); });
    prof.time(metrics::Phase::RouteEval, [&] { route_evaluate(t); });
    prof.time(metrics::Phase::RouteCommit, [&] { route_commit(t); });
    prof.time(metrics::Phase::TransmitEval, [&] { transmit_evaluate(t); });
    prof.time(metrics::Phase::TransmitCommit, [&] { transmit_commit(t); });
  } else {
    prof.time(metrics::Phase::Generate, [&] { phase_generate(t); });
    prof.time(metrics::Phase::Arrivals, [&] { phase_arrivals(t); });
    prof.time(metrics::Phase::Eject, [&] { phase_eject(t); });
    prof.time(metrics::Phase::Route, [&] { phase_route(t); });
    prof.time(metrics::Phase::Transmit, [&] { phase_transmit(t); });
  }
  prof.time(metrics::Phase::Inject, [&] { phase_inject(t); });
  prof.count_sample();
}

metrics::WindowSample Simulator::online_sample() {
  metrics::WindowSample s;
  s.in_flight_flits = net_.flits_in_network();
  s.blocked_headers = pending_route_.size();
  const unsigned chans = topo_.num_channels();
  const unsigned vcs = net_.params().num_vcs;
  const std::uint8_t vc_mask =
      static_cast<std::uint8_t>((1u << vcs) - 1u);
  std::uint64_t free_vcs = 0;
  if (crew_) {
    // Per-shard partial sums over the owned node ranges (read-only,
    // per-lane scratch rows), folded in shard order. Integer addition
    // is exactly associative, so this equals the serial scan.
    const NodeId nodes = topo_.num_nodes();
    crew_->run([&](unsigned sh) {
      ShardLane& lane = lanes_[sh];
      const auto lo = static_cast<NodeId>(node_word_lo_[sh] * 64);
      const auto hi = static_cast<NodeId>(
          std::min<std::size_t>(node_word_lo_[sh + 1] * 64, nodes));
      std::uint64_t sum = 0;
      for (NodeId node = lo; node < hi; ++node) {
        const std::uint8_t* row = fc_status_row_into(node, lane.fc_row.data());
        for (unsigned c = 0; c < chans; ++c) {
          sum += static_cast<unsigned>(std::popcount(
              static_cast<std::uint8_t>(row[c] & vc_mask)));
        }
      }
      lane.free_vcs = sum;
    });
    for (unsigned sh = 0; sh < shards_eff_; ++sh) {
      free_vcs += lanes_[sh].free_vcs;
      lanes_[sh].free_vcs = 0;
    }
  } else {
    for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
      const std::uint8_t* row = fc_status_row(node);
      for (unsigned c = 0; c < chans; ++c) {
        free_vcs += static_cast<unsigned>(std::popcount(
            static_cast<std::uint8_t>(row[c] & vc_mask)));
      }
    }
  }
  s.free_vcs = free_vcs;
  s.total_vcs = static_cast<std::uint64_t>(topo_.num_nodes()) * chans * vcs;
  s.queue_total = queue_total_;
  s.credit_messages = flow_->credit_messages();
  return s;
}

void Simulator::finish_online() {
  if (!online_) return;
  online_->finish(cycle_, online_sample());
}

// --- Generation -------------------------------------------------------

void Simulator::poll_node(NodeId node, Cycle t) {
  // Dead sources are silent; skipping the poll leaves the per-node
  // generator state untouched, so it resumes cleanly on restore (both
  // cores skip identically).
  if (faults_ && faults_->mask().node_dead(node)) return;
  gen_buf_.clear();
  workload_->poll(node, t, gen_buf_);
  for (const auto& g : gen_buf_) {
    enqueue_source(node, g.dst, g.length_flits, t);
  }
}

void Simulator::poll_and_reschedule(NodeId node, Cycle t) {
  scan_.scan_visited += 1;
  poll_node(node, t);
  const std::uint64_t hint = workload_->next_poll(node, t);
  if (hint == traffic::kNeverPoll) {
    gen_dense_.erase(node);
    gen_where_[node] = GenSub::None;
  } else if (hint <= t + 1) {
    gen_dense_.insert(node);
    gen_where_[node] = GenSub::EveryCycle;
  } else {
    gen_dense_.erase(node);
    // Always the owner shard's heap, so the heap partition stays
    // coherent when sequential and sharded cycles interleave (profiled
    // cycles, observer attach/detach).
    gen_heaps_[shard_of_node(node)].push({hint, node});
    gen_where_[node] = GenSub::Timed;
  }
}

void Simulator::poll_and_reschedule_sharded(NodeId node, Cycle t,
                                            unsigned s) {
  ShardLane& lane = lanes_[s];
  lane.visited += 1;
  // Same dead-source rule as poll_node, but generated messages are
  // parked in the shard mailbox: enqueue_source touches cross-shard
  // state (counters, the inject set, the collector), so the commit
  // replays it under the barrier.
  if (!(faults_ && faults_->mask().node_dead(node))) {
    lane.gen_buf.clear();
    workload_->poll(node, t, lane.gen_buf);
    for (const auto& g : lane.gen_buf) {
      lane.gen_events.push_back({node, g.dst, g.length_flits});
    }
  }
  const std::uint64_t hint = workload_->next_poll(node, t);
  if (hint == traffic::kNeverPoll) {
    lane.gen_dense_delta -= gen_dense_.erase_unsized(node) ? 1 : 0;
    gen_where_[node] = GenSub::None;
  } else if (hint <= t + 1) {
    lane.gen_dense_delta += gen_dense_.insert_unsized(node) ? 1 : 0;
    gen_where_[node] = GenSub::EveryCycle;
  } else {
    lane.gen_dense_delta -= gen_dense_.erase_unsized(node) ? 1 : 0;
    gen_heaps_[s].push({hint, node});
    gen_where_[node] = GenSub::Timed;
  }
}

void Simulator::phase_generate(Cycle t) {
  if (!workload_) return;
  const NodeId nodes = topo_.num_nodes();
  if (cfg_.core == SimCore::Dense) {
    scan_.scan_visited += nodes;
    for (NodeId node = 0; node < nodes; ++node) poll_node(node, t);
    return;
  }
  // A workload mutation (set_offered_load) invalidates every
  // outstanding hint: drop the timed subscriptions and re-poll every
  // node from the next cycle on, exactly as the dense core would.
  if (workload_->mutation_epoch() != gen_epoch_) {
    gen_epoch_ = workload_->mutation_epoch();
    for (GenHeap& heap : gen_heaps_) heap = {};
    for (NodeId node = 0; node < nodes; ++node) {
      gen_dense_.insert(node);
      gen_where_[node] = GenSub::EveryCycle;
    }
  }
  // Every-cycle processes first, then due timed ones. Order matters for
  // subscription exclusivity, not results: a heap pop may re-subscribe
  // its node into gen_dense_, which must not be re-visited this cycle —
  // per-node generator state is independent, so cross-node poll order
  // itself is free (which is also why draining the per-shard heaps one
  // after another is equivalent to a single global heap: "due" is a
  // per-node property).
  gen_dense_.for_each(
      [&](std::size_t node) { poll_and_reschedule(static_cast<NodeId>(node), t); });
  for (GenHeap& heap : gen_heaps_) {
    while (!heap.empty() && heap.top().first <= t) {
      const NodeId node = heap.top().second;
      heap.pop();
      assert(gen_where_[node] == GenSub::Timed);
      poll_and_reschedule(node, t);
    }
  }
}

void Simulator::phase_generate_sharded(Cycle t) {
  if (!workload_) return;
  // The epoch refill is rare (a workload mutation) and touches every
  // node's subscription: run it sequentially before the fan-out.
  if (workload_->mutation_epoch() != gen_epoch_) {
    gen_epoch_ = workload_->mutation_epoch();
    for (GenHeap& heap : gen_heaps_) heap = {};
    const NodeId nodes = topo_.num_nodes();
    for (NodeId node = 0; node < nodes; ++node) {
      gen_dense_.insert(node);
      gen_where_[node] = GenSub::EveryCycle;
    }
  }
  // Fan out: each shard polls the dense subscribers in its node-word
  // range, then its own due timed nodes. All mutated state is
  // shard-local (per-node workload state, gen_where_, owned bitmap
  // words, the shard heap, the mailbox).
  crew_->run([&](unsigned s) {
    gen_dense_.for_each_in_words(
        node_word_lo_[s], node_word_lo_[s + 1], [&](std::size_t node) {
          poll_and_reschedule_sharded(static_cast<NodeId>(node), t, s);
        });
    GenHeap& heap = gen_heaps_[s];
    while (!heap.empty() && heap.top().first <= t) {
      const NodeId node = heap.top().second;
      heap.pop();
      assert(gen_where_[node] == GenSub::Timed);
      poll_and_reschedule_sharded(node, t, s);
    }
  });
  // Commit: replay the parked generations in shard order. Cross-node
  // enqueue order is commutative (per-node queues, summed counters),
  // and per-node order is preserved — each node generated in exactly
  // one shard — so this equals the sequential core's state exactly.
  std::ptrdiff_t dense_delta = 0;
  for (unsigned s = 0; s < shards_eff_; ++s) {
    ShardLane& lane = lanes_[s];
    scan_.scan_visited += lane.visited;
    lane.visited = 0;
    dense_delta += lane.gen_dense_delta;
    lane.gen_dense_delta = 0;
    for (const GenEvent& g : lane.gen_events) {
      enqueue_source(g.node, g.dst, g.length, t);
    }
    lane.gen_events.clear();
  }
  gen_dense_.adjust_size(dense_delta);
}

// --- Arrivals ---------------------------------------------------------

void Simulator::phase_arrivals(Cycle t) {
  if (cfg_.core == SimCore::Dense) {
    const LinkId n = net_.num_net_links();
    scan_.scan_visited += n;
    for (LinkId l = 0; l < n; ++l) {
      if (net_.link(l).in_flight.empty()) continue;
      net_.process_arrivals(l, t,
                            [this](VcSlot slot) { enroll_for_routing(slot); });
    }
    return;
  }
  scan_.scan_visited += net_.arrival_links().size();
  net_.arrival_links().for_each([&](std::size_t l) {
    net_.process_arrivals(static_cast<LinkId>(l), t,
                          [this](VcSlot slot) { enroll_for_routing(slot); });
  });
}

void Simulator::phase_arrivals_sharded(Cycle t) {
  // The sequential core charges the pre-iteration set size; compute it
  // before the erase deltas land.
  scan_.scan_visited += net_.arrival_links().size();
  crew_->run([&](unsigned s) {
    ShardLane& lane = lanes_[s];
    net_.arrival_links().for_each_in_words(
        link_word_lo_[s], link_word_lo_[s + 1], [&](std::size_t l) {
          // All VcState/in-flight mutation is local to the link, and
          // each link has exactly one owner. New headers are parked in
          // the mailbox; concatenating the mailboxes in shard order
          // reproduces the sequential enrollment order, because
          // for_each visits links ascending and the shard ranges are
          // ascending and disjoint.
          const bool erased = net_.process_arrivals_sharded(
              static_cast<LinkId>(l), t, [&](VcSlot slot) {
                VcState& v = net_.vc_at(slot);
                if (!v.pending_route) {
                  v.pending_route = true;
                  lane.enrolls.push_back({slot});
                }
              });
          lane.arrival_delta -= erased ? 1 : 0;
        });
  });
  std::ptrdiff_t delta = 0;
  for (unsigned s = 0; s < shards_eff_; ++s) {
    ShardLane& lane = lanes_[s];
    delta += lane.arrival_delta;
    lane.arrival_delta = 0;
    pending_route_.insert(pending_route_.end(), lane.enrolls.begin(),
                          lane.enrolls.end());
    lane.enrolls.clear();
  }
  net_.adjust_arrival_links(delta);
}

void Simulator::enroll_for_routing(VcSlot slot) {
  VcState& v = net_.vc_at(slot);
  if (!v.pending_route) {
    v.pending_route = true;
    pending_route_.push_back({slot});
  }
}

void Simulator::park_header(VcSlot slot, NodeId node, std::uint32_t cand_mask,
                            Cycle deadline) {
  net_.park_route(slot, node, cand_mask);
  if (deadline != kForever) {
    deadline_wheel_[deadline & deadline_mask_].push_back(slot);
  }
}

void Simulator::wake_due_headers(Cycle t) {
  std::vector<VcSlot>& bucket = deadline_wheel_[t & deadline_mask_];
  if (bucket.empty()) return;
  deadline_due_.swap(bucket);
  for (const VcSlot slot : deadline_due_) {
    // A slot a release already woke, or that parked again since with a
    // later deadline, is a stale entry — unless that deadline is a
    // whole number of turns away (a threshold beyond the wheel size).
    if (net_.route_park(slot) != Network::RoutePark::Asleep) continue;
    const Cycle deadline = route_memo_[slot].no_detect_before;
    if (deadline == t) {
      net_.wake_route_deadline(slot);
    } else if (deadline > t && ((deadline - t) & deadline_mask_) == 0) {
      bucket.push_back(slot);
    }
  }
  deadline_due_.clear();
}

void Simulator::wake_pending_routes() {
  for (const PendingRoute& e : pending_route_) net_.wake_route(e.slot);
  for (std::vector<VcSlot>& bucket : deadline_wheel_) bucket.clear();
}

// --- Ejection ---------------------------------------------------------

void Simulator::eject_node(NodeId node, Cycle t) {
  const unsigned ports = net_.params().eje_channels;
  for (unsigned p = 0; p < ports; ++p) {
    EjectPort& port = net_.eject_port(node, p);
    if (!port.busy()) continue;
    VcState& u = net_.vc_at(port.src);
    if (u.buffered == 0) continue;
    ++u.out_count;
    --u.buffered;
    --u.occupancy;
    u.last_activity = t;
    last_progress_[port.msg] = t;
    // Ejected flits return credits like forwarded ones — except from an
    // injection VC, which sits outside the credit loop (a recovery
    // re-injection at the absorb node can eject straight from one when
    // that node happens to be the destination).
    if (!net_.is_injection_slot(port.src)) fc_on_drained(port.src, t);
    collector_.on_flits_ejected(t, 1);
    if (timeseries_) timeseries_->on_flits_ejected(t, 1);
    if (online_) online_->on_flits_ejected(1);
    if (spatial_) spatial_->on_ejected_flit(node);
    if (u.out_count == u.msg_length) {
      const VcRef src = net_.vc_ref(port.src);
      net_.set_active(src, false);
      if (tracer_) {
        tracer_->record(t, obs::EventKind::VcRelease, src.link, src.vc, 0,
                        port.msg);
      }
      u.clear();
      const MsgId id = port.msg;
      port.msg = kNoMsg;
      port.src = kNoSlot;
      deliver(id, t);
    }
  }
}

void Simulator::phase_eject(Cycle t) {
  if (cfg_.core == SimCore::Dense) {
    const NodeId nodes = topo_.num_nodes();
    scan_.scan_visited += nodes;
    for (NodeId node = 0; node < nodes; ++node) eject_node(node, t);
    return;
  }
  const unsigned ports = net_.params().eje_channels;
  scan_.scan_visited += eject_nodes_.size();
  eject_nodes_.for_each([&](std::size_t node) {
    eject_node(static_cast<NodeId>(node), t);
    bool any_busy = false;
    for (unsigned p = 0; p < ports; ++p) {
      any_busy |= net_.eject_port(static_cast<NodeId>(node), p).busy();
    }
    if (!any_busy) eject_nodes_.erase(node);
  });
}

void Simulator::eject_node_sharded(NodeId node, Cycle t, unsigned s) {
  ShardLane& lane = lanes_[s];
  const unsigned ports = net_.params().eje_channels;
  for (unsigned p = 0; p < ports; ++p) {
    EjectPort& port = net_.eject_port(node, p);
    if (!port.busy()) continue;
    VcState& u = net_.vc_at(port.src);
    if (u.buffered == 0) continue;
    // The upstream VC may live on a link word another shard owns, but
    // no other shard touches it this phase: eject is the only writer of
    // VcStates here and each VC feeds at most one ejection port.
    ++u.out_count;
    --u.buffered;
    --u.occupancy;
    u.last_activity = t;
    last_progress_[port.msg] = t;
    // Per-flit counting hooks are additive over the cycle, so the lane
    // batches one count per shard (merged at the barrier) and the
    // spatial per-node counter — owned by this shard — lands inline.
    ++lane.ejected_flits;
    if (spatial_) spatial_->on_ejected_flit(node);
    EjectEvent ev;
    ev.src = port.src;
    ev.msg = port.msg;
    ev.credit = !net_.is_injection_slot(port.src);
    ev.completed = u.out_count == u.msg_length;
    if (ev.completed) {
      u.clear();
      port.msg = kNoMsg;
      port.src = kNoSlot;
    }
    // Only events with order-sensitive commit work are parked: credit
    // returns (when the scheme consumes them) and tail completions.
    if ((ev.credit && fc_tracks_) || ev.completed) lane.ejects.push_back(ev);
  }
}

void Simulator::phase_eject_sharded(Cycle t) {
  scan_.scan_visited += eject_nodes_.size();
  const unsigned ports = net_.params().eje_channels;
  crew_->run([&](unsigned s) {
    ShardLane& lane = lanes_[s];
    eject_nodes_.for_each_in_words(
        node_word_lo_[s], node_word_lo_[s + 1], [&](std::size_t node) {
          eject_node_sharded(static_cast<NodeId>(node), t, s);
          bool any_busy = false;
          for (unsigned p = 0; p < ports; ++p) {
            any_busy |=
                net_.eject_port(static_cast<NodeId>(node), p).busy();
          }
          if (!any_busy) {
            lane.eject_delta -= eject_nodes_.erase_unsized(node) ? 1 : 0;
          }
        });
  });
  // Replay in shard order == ascending node order == the sequential
  // core's event order: credit returns, then (for tails) tenancy
  // release and delivery. deliver() feeds the latency Welford
  // accumulator and recycles pool ids, both of which are
  // order-sensitive — the ordered replay is what keeps them exact. The
  // counting hooks (collector/timeseries/online flit counts) are
  // additive within the cycle, so they land as one batch per lane.
  std::ptrdiff_t delta = 0;
  for (unsigned s = 0; s < shards_eff_; ++s) {
    ShardLane& lane = lanes_[s];
    delta += lane.eject_delta;
    lane.eject_delta = 0;
    if (lane.ejected_flits != 0) {
      const auto count = static_cast<std::uint32_t>(lane.ejected_flits);
      lane.ejected_flits = 0;
      collector_.on_flits_ejected(t, count);
      if (timeseries_) timeseries_->on_flits_ejected(t, count);
      if (online_) online_->on_flits_ejected(count);
    }
    for (const EjectEvent& ev : lane.ejects) {
      if (ev.credit) fc_on_drained(ev.src, t);
      if (ev.completed) {
        net_.set_active(net_.vc_ref(ev.src), false);
        deliver(ev.msg, t);
      }
    }
    lane.ejects.clear();
  }
  eject_nodes_.adjust_size(delta);
}

// --- Sharded spatial sampling -----------------------------------------

void Simulator::sample_spatial_sharded(Cycle t) {
  (void)t;
  // Every sample is an element-local store into the sampled node's or
  // link's own spatial rows, and each element has exactly one owner —
  // no mailboxes needed, and per-element results match the serial
  // sweep bit for bit.
  const std::size_t nodes = topo_.num_nodes();
  const std::size_t links = net_.num_net_links();
  crew_->run([&](unsigned s) {
    const std::size_t n_lo = node_word_lo_[s] * 64;
    const std::size_t n_hi = std::min(node_word_lo_[s + 1] * 64, nodes);
    for (std::size_t node = n_lo; node < n_hi; ++node) {
      spatial_->on_queue_sample(static_cast<NodeId>(node),
                                queues_[node].size());
    }
    const std::size_t l_lo = link_word_lo_[s] * 64;
    const std::size_t l_hi = std::min(link_word_lo_[s + 1] * 64, links);
    for (std::size_t l = l_lo; l < l_hi; ++l) {
      spatial_->on_link_occupancy_sample(
          static_cast<LinkId>(l),
          static_cast<unsigned>(std::popcount(
              net_.link(static_cast<LinkId>(l)).active_vc_mask)));
    }
  });
}

// --- Routing ----------------------------------------------------------

bool Simulator::route_entry(std::size_t i, Cycle t, Cycle routing_delay,
                            bool detect_on, Cycle threshold, bool park) {
  const VcSlot slot = pending_route_[i].slot;
  const Network::RoutePark parked = net_.route_park(slot);
  assert(parked != Network::RoutePark::Asleep);  // phase_route skips those
  VcState& v = net_.vc_at(slot);
  if (!v.pending_route) {
    // Stale entry (the worm was absorbed by deadlock recovery).
    pending_route_[i] = pending_route_.back();
    pending_route_.pop_back();
    return true;
  }
  const Cycle header_arrival = net_.header_arrival(slot);
  if (t < header_arrival + routing_delay) return false;
  const NodeId node = vc_node_[slot];

  // Route lookup. The memo slot keys this VC's route by dst — a pure
  // function of (node, dst), node being fixed per slot, so a known
  // route even survives across tenancies — and keeps only its
  // candidate-channel mask. The tenancy key memo->msg marks a header
  // already observed blocked in transit this tenancy: its retries touch
  // neither the Message record nor the destination check (both settled
  // on first sight). The route itself is expanded from its computed
  // word into route_buf_ only when the visit reaches the probe,
  // selection or the FC3D check.
  RouteMemo* memo = nullptr;
  NodeId dst = topo::kInvalidNode;
  bool expanded = false;  // route_buf_ holds route(node, dst)
  if (memo_on_ && route_memo_[slot].msg == v.msg) {
    memo = &route_memo_[slot];
    ++scan_.route_memo_hits;
    dst = memo->dst;
  } else {
    assert(parked != Network::RoutePark::DeadlineDue);
    Message& m = pool_[v.msg];
    dst = m.dst;
    if (node == dst) {
      m.at_destination = true;
      const int port = net_.find_free_eject_port(node);
      if (port < 0) return false;  // wait for an ejection channel
      net_.bind_eject(slot, node, static_cast<unsigned>(port), v.msg);
      eject_nodes_.insert(node);
      last_progress_[v.msg] = t;
      v.pending_route = false;
      stamp_route_slot(slot, t);
      stamp_route_node(node, t);
      pending_route_[i] = pending_route_.back();
      pending_route_.pop_back();
      return true;
    }
    if (memo_on_) {
      memo = &route_memo_[slot];
      if (memo->dst == dst) {
        ++scan_.route_memo_hits;
      } else {
        route_at(node, dst, route_buf_);
        expanded = true;
        memo->dst = dst;
        memo->cand_mask = candidate_channel_mask(route_buf_);
      }
    } else {
      route_at(node, dst, route_buf_);
      expanded = true;
    }
  }
  const auto route = [&]() -> const routing::RouteResult& {
    if (!expanded) {
      route_lookup(node, dst, route_buf_);
      expanded = true;
    }
    return route_buf_;
  };
  if (probe_enabled_ && !v.probed) {
    v.probed = true;
    const auto cond = core::evaluate_alo(
        fc_status_row(node), net_.params().num_vcs, route().useful_phys_mask);
    collector_.on_probe(t, cond.all_useful_partially_free,
                        cond.any_useful_completely_free);
    if (tracer_) {
      const std::uint8_t rules = static_cast<std::uint8_t>(
          (cond.all_useful_partially_free ? 1u : 0u) |
          (cond.any_useful_completely_free ? 2u : 0u));
      tracer_->record(t, obs::EventKind::AloProbe, node, rules);
    }
  }
  // Selection cannot succeed, and is skipped with the route expansion,
  // when the header is still blocked: its detection deadline woke it
  // but no candidate channel released a VC since it parked, or no
  // candidate channel has a free VC at all (a release woke it, but a
  // header visited earlier claimed that VC).
  const bool still_blocked =
      parked == Network::RoutePark::DeadlineDue ||
      (memo != nullptr && !candidate_vc_free(node, memo->cand_mask));
  std::optional<routing::Pick> pick;
  // VCT's whole-packet admission gates the claim itself; a failed
  // admission leaves the header blocked exactly like a failed
  // selection (and parking stays exact: the admission verdict is a
  // constant of the tenancy).
  if (!still_blocked && fc_admit(v.msg_length, net_.params().buf_flits)) {
    pick = selector_.select(route(), net_.free_mask_row(node), alloc_rr_[node]);
  }
  if (!pick) {
    if (memo != nullptr && memo->msg != v.msg) {
      memo->msg = v.msg;      // tenancy key; cleared on success/absorb
      memo->no_detect_before = 0;  // prior tenancy's bound is void
    }
    // Blocked. FC3D-style deadlock presumption: the header has waited
    // at least `threshold` cycles, no flit of the message has moved,
    // and every virtual channel the routing function offers has shown
    // no flow-control activity for `threshold` cycles either — i.e.
    // the messages holding them are frozen too. Headers still inside
    // an injection channel hold no network resources and are exempt.
    // Every failed guard yields a monotone lower bound on the first
    // cycle detection could succeed (kForever for exempt headers); the
    // memo skips re-evaluation until that bound, and a parked header
    // sleeps until it.
    if (!detect_on || net_.is_injection_slot(slot)) {
      if (memo != nullptr) memo->no_detect_before = kForever;
    } else if (t - header_arrival < threshold) {
      if (memo != nullptr) {
        memo->no_detect_before = header_arrival + threshold;
      }
    } else if (memo == nullptr || t >= memo->no_detect_before) {
      const Cycle progress = last_progress_[v.msg];
      Cycle earliest = 0;
      if (t - progress < threshold) {
        if (memo != nullptr) memo->no_detect_before = progress + threshold;
      } else if (requested_channels_frozen(node, t, route(), &earliest)) {
        absorb_deadlocked(v.msg, t);
        pending_route_[i] = pending_route_.back();
        pending_route_.pop_back();
        return true;
      } else if (memo != nullptr) {
        memo->no_detect_before = earliest;
      }
    }
    if (park && memo != nullptr) {
      park_header(slot, node, memo->cand_mask, memo->no_detect_before);
    }
    // Retry next cycle. The stamp covers the memo/probed writes above:
    // a duplicate entry for this slot (stale enrollment followed by a
    // fresh one) must not replay a decision computed before them.
    stamp_route_slot(slot, t);
    return false;
  }
  ++alloc_rr_[node];
  const VcRef out{net_.net_link(node, pick->channel), pick->vc};
  net_.allocate_out_vc(slot, out, v.msg, t);
  if (memo != nullptr) memo->msg = kNoMsg;
  if (tracer_) {
    tracer_->record(t, obs::EventKind::VcAlloc, out.link, out.vc, 0, v.msg);
  }
  Message& m = pool_[v.msg];
  m.head = out;
  m.entered_network = true;
  last_progress_[v.msg] = t;
  v.pending_route = false;
  stamp_route_slot(slot, t);
  stamp_route_node(node, t);
  pending_route_[i] = pending_route_.back();
  pending_route_.pop_back();
  return true;
}

void Simulator::phase_route(Cycle t) {
  const Cycle routing_delay = cfg_.routing_delay;
  const bool detect_on = cfg_.detection.enabled;
  const Cycle threshold = cfg_.detection.threshold;
  if (!deadline_wheel_.empty()) wake_due_headers(t);
  for (std::size_t i = 0; i < pending_route_.size();) {
    // Parked header: it failed to claim a VC, and since then no VC of a
    // candidate channel was released (a release wakes it), its detection
    // deadline has not arrived (the wheel wakes it) and no fault fired —
    // it is provably still blocked and the visit is a no-op, decided
    // without touching the VcState, the memo or the Message record. The
    // dense core never parks.
    if (net_.route_park(pending_route_[i].slot) ==
        Network::RoutePark::Asleep) {
      ++scan_.route_memo_hits;
      ++i;
    } else if (!route_entry(i, t, routing_delay, detect_on, threshold,
                            /*park=*/true)) {
      ++i;
    }
  }
}

// --- Sharded routing: speculative evaluate + ordered commit -----------

void Simulator::route_evaluate_entry(std::size_t i, Cycle t,
                                     Cycle routing_delay, bool detect_on,
                                     Cycle threshold, ShardLane& lane) {
  const VcSlot slot = pending_route_[i].slot;
  RouteDecision& d = route_dec_[i];
  d.evals = 0;
  d.hits = 0;
  d.fresh_route = false;
  d.tenancy_reset = false;
  d.write_ndb = false;
  d.probe = false;
  // Mirror of route_entry, step for step, but read-only w.r.t. shared
  // state: every store route_entry would perform is recorded as a
  // write intent in the decision instead. Divergence between the two
  // bodies is a correctness bug the lock-step suites catch. Nothing is
  // parked here (route_evaluate woke every entry), so every entry is
  // evaluated in full.
  const VcState& v = net_.vc_at(slot);
  if (!v.pending_route) {
    d.kind = RouteDecKind::Stale;
    return;
  }
  const Cycle header_arrival = net_.header_arrival(slot);
  if (t < header_arrival + routing_delay) {
    d.kind = RouteDecKind::Wait;
    return;
  }
  const NodeId node = vc_node_[slot];

  const RouteMemo* memo = nullptr;
  NodeId dst = topo::kInvalidNode;
  bool expanded = false;  // lane.route_scratch holds route(node, dst)
  // memo->no_detect_before as the detection ladder would read it: the
  // sequential body zeroes it on tenancy reset before the ladder runs.
  Cycle ndb_now = 0;
  if (memo_on_ && route_memo_[slot].msg == v.msg) {
    memo = &route_memo_[slot];
    d.hits = 1;
    dst = memo->dst;
    ndb_now = memo->no_detect_before;
  } else {
    const Message& m = pool_[v.msg];
    dst = m.dst;
    if (node == dst) {
      d.msg = v.msg;
      const int port = net_.find_free_eject_port(node);
      if (port < 0) {
        d.kind = RouteDecKind::AtDestWait;
        return;
      }
      d.kind = RouteDecKind::AtDestBind;
      d.port = port;
      return;
    }
    if (memo_on_) {
      memo = &route_memo_[slot];
      if (memo->dst == dst) {
        d.hits = 1;
      } else {
        d.evals = 1;
        route_lookup(node, dst, lane.route_scratch);
        expanded = true;
        d.fresh_route = true;
        d.dst = dst;
        d.cand_mask = candidate_channel_mask(lane.route_scratch);
      }
    } else {
      d.evals = 1;
      route_lookup(node, dst, lane.route_scratch);
      expanded = true;
    }
  }
  const auto route = [&]() -> const routing::RouteResult& {
    if (!expanded) {
      route_lookup(node, dst, lane.route_scratch);
      expanded = true;
    }
    return lane.route_scratch;
  };
  if (probe_enabled_ && !v.probed) {
    d.probe = true;
    const auto cond =
        core::evaluate_alo(fc_status_row_into(node, lane.fc_row.data()),
                           net_.params().num_vcs, route().useful_phys_mask);
    d.probe_a = cond.all_useful_partially_free;
    d.probe_b = cond.any_useful_completely_free;
  }
  std::optional<routing::Pick> pick;
  if (fc_admit(v.msg_length, net_.params().buf_flits)) {
    pick = selector_.select(route(), net_.free_mask_row(node), alloc_rr_[node]);
  }
  if (!pick) {
    d.kind = RouteDecKind::Blocked;
    d.msg = v.msg;
    if (memo != nullptr && memo->msg != v.msg) d.tenancy_reset = true;
    if (!detect_on || net_.is_injection_slot(slot)) {
      if (memo != nullptr) {
        d.write_ndb = true;
        d.ndb = kForever;
      }
    } else if (t - header_arrival < threshold) {
      if (memo != nullptr) {
        d.write_ndb = true;
        d.ndb = header_arrival + threshold;
      }
    } else if (memo == nullptr || t >= (d.tenancy_reset ? 0 : ndb_now)) {
      const Cycle progress = last_progress_[v.msg];
      Cycle earliest = 0;
      if (t - progress < threshold) {
        if (memo != nullptr) {
          d.write_ndb = true;
          d.ndb = progress + threshold;
        }
      } else if (requested_channels_frozen(node, t, route(), &earliest)) {
        d.kind = RouteDecKind::Absorb;
      } else if (memo != nullptr) {
        d.write_ndb = true;
        d.ndb = earliest;
      }
    }
  } else {
    d.kind = RouteDecKind::Alloc;
    d.msg = v.msg;
    d.channel = pick->channel;
    d.vc = pick->vc;
  }
}

void Simulator::route_evaluate(Cycle t) {
  // A sharded step unparks everything: the evaluate pass reads no park
  // state and its commit parks nothing, so the sequential route phase
  // finds every entry awake when it runs again.
  wake_pending_routes();
  const std::size_t n = pending_route_.size();
  route_dec_.resize(n);
  if (n == 0) return;
  const Cycle routing_delay = cfg_.routing_delay;
  const bool detect_on = cfg_.detection.enabled;
  const Cycle threshold = cfg_.detection.threshold;
  crew_->run([&](unsigned s) {
    const auto [lo, hi] = util::ShardCrew::slice(n, s, shards_eff_);
    ShardLane& lane = lanes_[s];
    for (std::size_t i = lo; i < hi; ++i) {
      route_evaluate_entry(i, t, routing_delay, detect_on, threshold, lane);
    }
  });
}

void Simulator::route_commit(Cycle t) {
  const Cycle routing_delay = cfg_.routing_delay;
  const bool detect_on = cfg_.detection.enabled;
  const Cycle threshold = cfg_.detection.threshold;
  for (std::size_t i = 0; i < pending_route_.size();) {
    const PendingRoute e = pending_route_[i];
    const RouteDecision& d = route_dec_[i];
    ++scan_.commit_decisions;
    // A decision is valid iff no earlier commit touched its inputs:
    // its slot (memo, VcState, worm teardown walking through it) or
    // its routing node (free masks, epochs, alloc_rr_, ejection ports,
    // out-VC activity, credit registers). Stamps are conservative —
    // a false positive just re-runs the sequential body inline.
    if (route_slot_stamp_[e.slot] == t ||
        route_node_stamp_[vc_node_[e.slot]] == t) {
      ++scan_.commit_conflicts;
      if (route_entry(i, t, routing_delay, detect_on, threshold,
                      /*park=*/false)) {
        if (i + 1 != route_dec_.size()) {
          route_dec_[i] = std::move(route_dec_.back());
        }
        route_dec_.pop_back();
      } else {
        ++i;
      }
      continue;
    }
    bool removed = false;
    switch (d.kind) {
      case RouteDecKind::Wait:
        break;
      case RouteDecKind::Stale:
        pending_route_[i] = pending_route_.back();
        pending_route_.pop_back();
        removed = true;
        break;
      case RouteDecKind::AtDestWait:
        pool_[d.msg].at_destination = true;
        break;
      case RouteDecKind::AtDestBind: {
        Message& m = pool_[d.msg];
        m.at_destination = true;
        const NodeId node = vc_node_[e.slot];
        net_.bind_eject(e.slot, node, static_cast<unsigned>(d.port), d.msg);
        eject_nodes_.insert(node);
        last_progress_[d.msg] = t;
        net_.vc_at(e.slot).pending_route = false;
        stamp_route_slot(e.slot, t);
        stamp_route_node(node, t);
        pending_route_[i] = pending_route_.back();
        pending_route_.pop_back();
        removed = true;
        break;
      }
      case RouteDecKind::Blocked:
      case RouteDecKind::Absorb: {
        scan_.route_evals += d.evals;
        scan_.route_memo_hits += d.hits;
        if (memo_on_) {
          RouteMemo& memo = route_memo_[e.slot];
          if (d.fresh_route) {
            memo.dst = d.dst;
            memo.cand_mask = d.cand_mask;
          }
          if (d.tenancy_reset) {
            memo.msg = d.msg;
            memo.no_detect_before = 0;
          }
          if (d.write_ndb) memo.no_detect_before = d.ndb;
        }
        if (d.probe) {
          net_.vc_at(e.slot).probed = true;
          collector_.on_probe(t, d.probe_a, d.probe_b);
        }
        if (d.kind == RouteDecKind::Absorb) {
          // teardown_worm stamps every slot and source node the walk
          // releases, which is what invalidates later decisions that
          // saw the worm's channels as held.
          absorb_deadlocked(d.msg, t);
          pending_route_[i] = pending_route_.back();
          pending_route_.pop_back();
          removed = true;
        } else {
          stamp_route_slot(e.slot, t);
        }
        break;
      }
      case RouteDecKind::Alloc: {
        scan_.route_evals += d.evals;
        scan_.route_memo_hits += d.hits;
        const NodeId node = vc_node_[e.slot];
        if (memo_on_) {
          RouteMemo& memo = route_memo_[e.slot];
          if (d.fresh_route) {
            memo.dst = d.dst;
            memo.cand_mask = d.cand_mask;
          }
          memo.msg = kNoMsg;
        }
        if (d.probe) {
          net_.vc_at(e.slot).probed = true;
          collector_.on_probe(t, d.probe_a, d.probe_b);
        }
        ++alloc_rr_[node];
        const VcRef out{net_.net_link(node, d.channel), d.vc};
        net_.allocate_out_vc(e.slot, out, d.msg, t);
        Message& m = pool_[d.msg];
        m.head = out;
        m.entered_network = true;
        last_progress_[d.msg] = t;
        net_.vc_at(e.slot).pending_route = false;
        stamp_route_slot(e.slot, t);
        stamp_route_node(node, t);
        pending_route_[i] = pending_route_.back();
        pending_route_.pop_back();
        removed = true;
        break;
      }
    }
    if (removed) {
      if (i + 1 != route_dec_.size()) {
        route_dec_[i] = std::move(route_dec_.back());
      }
      route_dec_.pop_back();
    } else {
      ++i;
    }
  }
}

void Simulator::phase_route_sharded(Cycle t) {
  route_evaluate(t);
  route_commit(t);
}

// --- Transmission -----------------------------------------------------

void Simulator::transmit_link(LinkId l, Cycle t, unsigned vcs, unsigned cap) {
  Link& link = net_.link(l);
  if (link.active_vc_mask == 0) return;
  // Round-robin across this physical channel's allocated VCs: pick the
  // first whose upstream buffer has a flit and whose own buffer has
  // room. rr_next stays in [0, vcs), so the rotation is an
  // increment-with-wrap instead of a modulo.
  // The upstream record is loaded by its stored slot id: no (link, vc)
  // index math on the send path.
  VcState* const row = net_.vc_row(l);
  const VcSlot slot_base = l * vcs;
  std::uint8_t vcn = link.rr_next;
  for (unsigned j = 0; j < vcs; ++j, vcn = vcn + 1u == vcs ? 0 : vcn + 1u) {
    if (!(link.active_vc_mask & (1u << vcn))) continue;
    VcState& w = row[vcn];
    // Cheap structural checks first; the scheme veto runs last so it is
    // consulted only when a send is otherwise possible (every scheme's
    // may_send implies occupancy < cap, so the physical-space check is
    // a pure pre-filter, not a semantic change).
    if (w.occupancy >= cap) continue;
    const VcSlot up = w.upstream;  // transmit clears it when the tail leaves
    if (up == kNoSlot) continue;
    if (net_.vc_at(up).buffered == 0) continue;
    const VcSlot slot = slot_base + vcn;
    if (!fc_may_send(slot, w.occupancy, cap)) continue;
    const MsgId msg = w.msg;
    const bool freed = net_.transmit_flit(up, VcRef{l, vcn}, slot, t);
    fc_on_sent(slot, t);
    if (!net_.is_injection_slot(up)) fc_on_drained(up, t);
    if (freed && tracer_) {
      const VcRef r = net_.vc_ref(up);
      tracer_->record(t, obs::EventKind::VcRelease, r.link, r.vc, 0, msg);
    }
    last_progress_[msg] = t;
    link.rr_next = vcn + 1u == vcs ? 0 : static_cast<std::uint8_t>(vcn + 1u);
    // Every upstream-side effect of this send (drained buffer, freed
    // tail, returned credit) lives on the upstream's link: stamp it so
    // a later speculative decision that read that state pre-send
    // re-runs.
    stamp_transmit_slot(up, t);
    break;  // one flit per physical link per cycle
  }
}

void Simulator::phase_transmit(Cycle t) {
  const unsigned vcs = net_.params().num_vcs;
  const unsigned cap = net_.params().buf_flits;
  if (cfg_.core == SimCore::Dense) {
    const LinkId n = net_.num_net_links();
    scan_.scan_visited += n;
    for (LinkId l = 0; l < n; ++l) transmit_link(l, t, vcs, cap);
    return;
  }
  scan_.scan_visited += net_.tenant_links().size();
  net_.tenant_links().for_each([&](std::size_t l) {
    transmit_link(static_cast<LinkId>(l), t, vcs, cap);
  });
}

// --- Sharded transmission: speculative evaluate + ordered commit ------

int Simulator::evaluate_transmit_link(LinkId l, unsigned vcs, unsigned cap) {
  // Read-only twin of transmit_link's arbitration scan: same rotation,
  // same gate order, but the winning VC is returned instead of sent.
  const Link& link = net_.link(l);
  if (link.active_vc_mask == 0) return -1;
  const VcState* const row = net_.vc_row(l);
  const VcSlot slot_base = l * vcs;
  std::uint8_t vcn = link.rr_next;
  for (unsigned j = 0; j < vcs; ++j, vcn = vcn + 1u == vcs ? 0 : vcn + 1u) {
    if (!(link.active_vc_mask & (1u << vcn))) continue;
    const VcState& w = row[vcn];
    if (w.occupancy >= cap) continue;
    if (w.upstream == kNoSlot) continue;
    if (net_.vc_at(w.upstream).buffered == 0) continue;
    if (!fc_may_send(slot_base + vcn, w.occupancy, cap)) continue;
    return vcn;
  }
  return -1;
}

void Simulator::transmit_evaluate(Cycle t) {
  (void)t;
  const unsigned vcs = net_.params().num_vcs;
  const unsigned cap = net_.params().buf_flits;
  scan_.scan_visited += net_.tenant_links().size();
  crew_->run([&](unsigned s) {
    ShardLane& lane = lanes_[s];
    net_.tenant_links().for_each_in_words(
        link_word_lo_[s], link_word_lo_[s + 1], [&](std::size_t l) {
          // A no-send verdict (-1) is recorded too: an earlier commit
          // can drain this link's upstream or return a credit, turning
          // no-send into send — the stamp check catches exactly that.
          lane.xmits.push_back(
              {static_cast<LinkId>(l),
               static_cast<std::int16_t>(evaluate_transmit_link(
                   static_cast<LinkId>(l), vcs, cap))});
        });
  });
}

void Simulator::transmit_commit(Cycle t) {
  const unsigned vcs = net_.params().num_vcs;
  const unsigned cap = net_.params().buf_flits;
  // Lanes in shard order = ascending link order = the sequential scan
  // order. A send's only cross-link side effects land on its upstream
  // link (drained buffer, freed tail, credit return), so one stamp per
  // send is the exact conflict footprint.
  for (unsigned s = 0; s < shards_eff_; ++s) {
    ShardLane& lane = lanes_[s];
    for (const TransmitDecision& d : lane.xmits) {
      ++scan_.commit_decisions;
      if (transmit_link_stamp_[d.link] == t) {
        ++scan_.commit_conflicts;
        transmit_link(d.link, t, vcs, cap);
        continue;
      }
      if (d.vcn < 0) continue;
      Link& link = net_.link(d.link);
      const VcRef to{d.link, static_cast<std::uint8_t>(d.vcn)};
      const VcSlot slot = d.link * vcs + to.vc;
      VcState& w = net_.vc_at(slot);
      const VcSlot up = w.upstream;  // cleared when the tail leaves
      const MsgId msg = w.msg;
      net_.transmit_flit(up, to, slot, t);
      fc_on_sent(slot, t);
      if (!net_.is_injection_slot(up)) fc_on_drained(up, t);
      last_progress_[msg] = t;
      link.rr_next = static_cast<unsigned>(d.vcn) + 1u == vcs
                         ? 0
                         : static_cast<std::uint8_t>(d.vcn + 1);
      stamp_transmit_slot(up, t);
    }
    lane.xmits.clear();
  }
}

void Simulator::phase_transmit_sharded(Cycle t) {
  transmit_evaluate(t);
  transmit_commit(t);
}

// --- Injection --------------------------------------------------------

void Simulator::start_injection(NodeId node, unsigned inj_channel, MsgId id,
                                Cycle t) {
  const VcRef ref{net_.inj_link(node, inj_channel), 0};
  const VcSlot slot = net_.vc_flat_index(ref);
  VcState& v = net_.vc_at(slot);
  assert(v.free());
  v.clear();
  v.msg = id;
  v.msg_length = pool_[id].length;
  v.buffered = 1;  // the header flit is written immediately
  v.occupancy = 1;
  net_.set_header_arrival(slot, t);
  net_.set_active(ref, true);
  if (tracer_) {
    tracer_->record(t, obs::EventKind::VcAlloc, ref.link, ref.vc, 0, id);
  }

  Message& m = pool_[id];
  m.head = ref;
  m.in_network = true;
  m.at_destination = false;
  m.entered_network = false;
  m.inject_time = t;
  last_progress_[id] = t;
  enroll_for_routing(slot);
}

void Simulator::inject_node(NodeId node, Cycle t) {
  const unsigned inj = net_.params().inj_channels;
  const unsigned cap = net_.params().buf_flits;

  // 1. Stream body flits of messages already owning an injection
  //    channel (one flit per channel per cycle, space permitting).
  VcState* const inj_row = net_.inj_vc_row(node);
  for (unsigned i = 0; i < inj; ++i) {
    VcState& v = inj_row[i];
    if (v.free()) continue;
    if (v.in_count() < v.msg_length && v.occupancy < cap) {
      ++v.buffered;
      ++v.occupancy;
      last_progress_[v.msg] = t;
    }
  }

  // 2. Start new tenancies on free injection channels: absorbed
  //    (deadlock-recovered) messages first — they were already in the
  //    network and bypass the injection limiter — then the source
  //    queue in FIFO order (the paper: queued messages have priority
  //    over newer ones).
  while (true) {
    const int ch = net_.find_free_inj_channel(node);
    if (ch < 0) break;

    if (recovery_.has_ready(node, t)) {
      const MsgId id = recovery_.pop(node);
      if (tracer_) {
        tracer_->record(t, obs::EventKind::RecoveryReinject, node, 0, 0, id);
      }
      start_injection(node, static_cast<unsigned>(ch), id, t);
      continue;
    }

    if (queues_[node].empty()) break;
    const PendingMessage& pm = queues_[node].front();

    core::InjectionRequest req;
    req.node = node;
    req.dst = pm.dst;
    req.length_flits = pm.length;
    req.cycle = t;
    req.head_wait = t - head_since_[node];
    req.queue_len = queues_[node].size();
    // Gate decision. Limiters that never read the route (None, DRIL)
    // skip the routing step; the rest route through route_at (computed
    // route words in the active core). A parked source was denied for
    // this head, and no output link has released a VC since: the
    // verdict (a pure function of the status row and the head's route)
    // is still "deny", so neither the route nor the limiter runs.
    bool allowed = false;
    if (!net_.gate_parked(node)) {
      if (limiter_reads_route_) {
        route_at(node, pm.dst, route_buf_);
        req.route = &route_buf_;
      }
      allowed = limiter_->allow(req, *limiter_status_);
      if (!allowed && park_gates_) net_.park_gate(node);
    }
    if (!allowed) {
      if (tracer_) {
        tracer_->record(t, obs::EventKind::GateBlock, node,
                        static_cast<std::uint8_t>(cfg_.limiter.kind),
                        static_cast<std::uint16_t>(pm.length),
                        static_cast<std::uint32_t>(std::min<Cycle>(
                            req.head_wait,
                            std::numeric_limits<std::uint32_t>::max())));
      }
      break;  // FIFO: head blocks the rest
    }
    if (tracer_) {
      tracer_->record(t, obs::EventKind::GateAllow, node,
                      static_cast<std::uint8_t>(cfg_.limiter.kind),
                      static_cast<std::uint16_t>(pm.length),
                      static_cast<std::uint32_t>(std::min<Cycle>(
                          req.head_wait,
                          std::numeric_limits<std::uint32_t>::max())));
    }

    const MsgId id = pool_.allocate();
    if (id >= last_progress_.size()) last_progress_.resize(pool_.capacity());
    Message& m = pool_[id];
    m.src = node;
    m.dst = pm.dst;
    m.length = pm.length;
    m.gen_time = pm.gen_time;
    m.measured = pm.measured;
    queues_[node].pop_front();
    --queue_total_;
    head_since_[node] = t;
    if (tracer_) {
      tracer_->record(t, obs::EventKind::QueueDequeue, node, 0,
                      static_cast<std::uint16_t>(m.length),
                      static_cast<std::uint32_t>(queues_[node].size()));
    }
    if (spatial_) spatial_->on_injected(node);

    activate(id);
    start_injection(node, static_cast<unsigned>(ch), id, t);
    collector_.on_injected(node, t, /*counts_fairness=*/true);
    if (timeseries_) timeseries_->on_injected(t);
    if (online_) online_->on_injected();
    limiter_->on_injected(node, t);
  }
}

void Simulator::phase_inject(Cycle t) {
  if (cfg_.core == SimCore::Dense) {
    const NodeId nodes = topo_.num_nodes();
    scan_.scan_visited += nodes;
    for (NodeId node = 0; node < nodes; ++node) inject_node(node, t);
    return;
  }
  const unsigned inj = net_.params().inj_channels;
  scan_.scan_visited += inject_nodes_.size();
  inject_nodes_.for_each([&](std::size_t n) {
    const auto node = static_cast<NodeId>(n);
    inject_node(node, t);
    // Retire once fully idle: no injection tenancy to stream, nothing
    // queued, nothing awaiting recovery re-injection. Any future event
    // (queue push, recovery enqueue) re-inserts the node.
    if (queues_[node].empty() && recovery_.pending(node) == 0) {
      const VcState* const inj_row = net_.inj_vc_row(node);
      bool any_occupied = false;
      for (unsigned i = 0; i < inj; ++i) {
        any_occupied |= !inj_row[i].free();
      }
      if (!any_occupied) inject_nodes_.erase(node);
    }
  });
}

// --- Deadlock handling ------------------------------------------------

bool Simulator::requested_channels_frozen(
    NodeId node, Cycle t, const routing::RouteResult& route,
    Cycle* earliest) const {
  const Cycle threshold = cfg_.detection.threshold;
  for (const auto& cand : route.candidates) {
    const LinkId out_link = net_.net_link(node, cand.channel);
    std::uint32_t vcs = cand.vc_mask;
    while (vcs) {
      const auto v = static_cast<std::uint8_t>(std::countr_zero(vcs));
      vcs &= vcs - 1;
      const VcState& w = net_.vc({out_link, v});
      // A free VC here would have made allocation succeed; a busy one
      // with recent flit movement means the holder is alive.
      if (t - w.last_activity < threshold) {
        *earliest = w.last_activity + threshold;
        return false;
      }
    }
  }
  return true;
}

void Simulator::teardown_worm(MsgId id, Cycle t) {
  Message& m = pool_[id];
  // The header's slot may carry this tenancy's blocked-memo key and
  // park state; end both (its pending entry turns stale).
  const VcSlot head_slot = net_.vc_flat_index(m.head);
  if (memo_on_) route_memo_[head_slot].msg = kNoMsg;
  net_.wake_route(head_slot);
  // Deadlocked worms are never eject-bound (at-destination headers are
  // exempt from detection), but fault surgery can hit one mid-delivery:
  // release the ejection port too.
  VcState& head_vc = net_.vc(m.head);
  if (head_vc.out_kind == VcState::OutKind::Eject) {
    EjectPort& port =
        net_.eject_port(net_.link(m.head.link).dst, head_vc.eject_port);
    assert(port.msg == id);
    port.msg = kNoMsg;
    port.src = kNoSlot;
    // A freed ejection port changes what at-destination headers at this
    // node can bind this cycle.
    stamp_route_node(net_.link(m.head.link).dst, t);
  }
  VcSlot slot = head_slot;
  while (slot != kNoSlot) {
    const VcRef cur = net_.vc_ref(slot);
    VcState& v = net_.vc_at(slot);
    const VcSlot up = v.upstream;
    net_.absorb_drop(cur.link, id);
    v.pending_route = false;  // lazily dropped from the list
    net_.force_free(cur);
    // The slot's buffered and in-flight flits just vanished: restore
    // its full credit stock and invalidate returns still on the wire.
    fc_on_reset(slot);
    // The walk frees this slot (its own pending entry turns stale) and
    // flips free masks, epochs and credit registers of the source
    // node's status rows — invalidate decisions keyed on either.
    stamp_route_slot(slot, t);
    if (!net_.is_injection(cur.link)) {
      stamp_route_node(net_.link(cur.link).src, t);
    }
    if (tracer_) {
      tracer_->record(t, obs::EventKind::VcRelease, cur.link, cur.vc, 0, id);
    }
    slot = up;
  }
  m.head = VcRef{};
  m.in_network = false;
  m.at_destination = false;
  m.entered_network = false;
  last_progress_[id] = t;
}

void Simulator::absorb_deadlocked(MsgId id, Cycle t) {
  Message& m = pool_[id];
  ++m.deadlock_detections;
  ++deadlock_events_;
  collector_.on_deadlock(t);
  if (timeseries_) timeseries_->on_deadlock(t);
  if (online_) online_->on_deadlock();

  const NodeId absorb_node = net_.link(m.head.link).dst;
  if (tracer_) {
    tracer_->record(t, obs::EventKind::DeadlockDetect, absorb_node, 0,
                    static_cast<std::uint16_t>(m.length), id);
  }
  teardown_worm(id, t);
  recovery_.enqueue(absorb_node, id,
                    t + cfg_.recovery.base_delay + m.length);
  inject_nodes_.insert(absorb_node);
}

// --- Fault injection & dynamic reconfiguration ------------------------

void Simulator::count_lost(bool measured) {
  ++lost_total_;
  collector_.on_lost(measured);
}

void Simulator::drop_active_message(MsgId id, Cycle t) {
  (void)t;
  count_lost(pool_[id].measured);
  deactivate(id);
  pool_.release(id);
}

bool Simulator::deliverable(NodeId from, NodeId dst) const {
  const topo::FaultMask& mask = faults_->mask();
  if (mask.node_dead(from) || mask.node_dead(dst)) return false;
  return from == dst || lut_->reachable(from, dst);
}

void Simulator::fault_absorb(MsgId id, Cycle t) {
  // Same software-recovery path as a deadlocked worm (the DBR reuse):
  // tear the worm down and re-enqueue it at the node its header had
  // reached, minus the deadlock accounting — this message is a fault
  // casualty, not a presumed deadlock. If the absorb node itself died
  // (its header was entering it), purge_undeliverable drops the entry.
  const NodeId absorb_node = net_.link(pool_[id].head.link).dst;
  teardown_worm(id, t);
  recovery_.enqueue(absorb_node, id,
                    t + cfg_.recovery.base_delay + pool_[id].length);
  inject_nodes_.insert(absorb_node);
}

void Simulator::kill_node_state(NodeId node, Cycle t) {
  // Source-queued messages die with their node.
  auto& q = queues_[node];
  for (const PendingMessage& pm : q) count_lost(pm.measured);
  queue_total_ -= q.size();
  q.clear();
  // Worms still inside the node's injection channels are torn down like
  // any displaced worm; their absorb node is the dead node itself, so
  // purge_undeliverable drops them right after.
  VcState* const inj_row = net_.inj_vc_row(node);
  const unsigned inj = net_.params().inj_channels;
  for (unsigned i = 0; i < inj; ++i) {
    if (!inj_row[i].free()) fault_absorb(inj_row[i].msg, t);
  }
}

void Simulator::sync_dead_links(Cycle t) {
  const topo::FaultMask& mask = faults_->mask();
  for (LinkId l = 0; l < net_.num_net_links(); ++l) {
    const Link& lk = net_.link(l);
    const bool dead = mask.link_dead(lk.src, lk.src_channel);
    if (dead == net_.link_dead(l)) continue;
    if (dead) {
      // Every worm crossing the dying link is displaced into recovery.
      // teardown clears the link's tenant bits (and drains its
      // in-flight pipeline) as it walks, so this loop terminates.
      while (lk.active_vc_mask != 0) {
        const auto vcn = static_cast<std::uint8_t>(
            std::countr_zero(static_cast<unsigned>(lk.active_vc_mask)));
        fault_absorb(net_.vc(VcRef{l, vcn}).msg, t);
      }
    }
    net_.set_link_dead(l, dead);
  }
}

void Simulator::purge_undeliverable(Cycle t) {
  // In-network worms whose destination died or became unreachable from
  // the node their header has reached. Swap-remove iteration: stay on
  // index i after a drop.
  for (std::size_t i = 0; i < active_.size();) {
    const MsgId id = active_[i];
    const Message& m = pool_[id];
    if (m.in_network) {
      const NodeId here = net_.link(m.head.link).dst;
      if (!deliverable(here, m.dst)) {
        teardown_worm(id, t);
        drop_active_message(id, t);
        continue;
      }
    }
    ++i;
  }
  // Recovery-queued messages whose re-injection node died or whose
  // destination is no longer reachable from it.
  purge_buf_.clear();
  recovery_.purge(
      [this](deadlock::NodeId node, deadlock::MsgId id) {
        return !deliverable(node, pool_[id].dst);
      },
      purge_buf_);
  for (const auto& [node, id] : purge_buf_) {
    (void)node;
    drop_active_message(id, t);
  }
  // Source-queued messages to dead or unreachable destinations (a dead
  // node's own queue was already cleared by kill_node_state).
  for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
    auto& q = queues_[node];
    if (q.empty()) continue;
    bool head_changed = false;
    for (std::size_t qi = 0; qi < q.size();) {
      if (!deliverable(node, q[qi].dst)) {
        count_lost(q[qi].measured);
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(qi));
        --queue_total_;
        head_changed |= qi == 0;
      } else {
        ++qi;
      }
    }
    if (head_changed && !q.empty()) head_since_[node] = t;
  }
}

void Simulator::apply_faults(Cycle t) {
  fault_buf_.clear();
  faults_->take_due(t, fault_buf_);
  assert(!fault_buf_.empty());
  for (const fault::FaultEvent& e : fault_buf_) {
    ++fault_events_;
    if (tracer_) {
      obs::EventKind kind = obs::EventKind::FaultLinkKill;
      switch (e.kind) {
        case fault::FaultKind::LinkKill:
          kind = obs::EventKind::FaultLinkKill;
          break;
        case fault::FaultKind::LinkRestore:
          kind = obs::EventKind::FaultLinkRestore;
          break;
        case fault::FaultKind::NodeKill:
          kind = obs::EventKind::FaultNodeKill;
          break;
        case fault::FaultKind::NodeRestore:
          kind = obs::EventKind::FaultNodeRestore;
          break;
      }
      tracer_->record(t, kind, e.node, e.channel);
    }
    if (e.kind == fault::FaultKind::NodeKill) kill_node_state(e.node, t);
  }
  sync_dead_links(t);
  // Reconfiguration: tabulate BFS routes on the alive graph (or drop
  // the table once healthy), bump every link epoch, flush the route
  // memo and wake every parked header and source, so each re-routes
  // (or re-asks its limiter) against the new routes and the restored
  // or killed links — none of which a VC release reports.
  lut_->rebuild(&faults_->mask());
  ++lut_rebuilds_;
  net_.bump_all_epochs();
  if (memo_on_) {
    for (RouteMemo& memo : route_memo_) memo = RouteMemo{};
  }
  net_.wake_all_parked();
  for (std::vector<VcSlot>& bucket : deadline_wheel_) bucket.clear();
  if (tracer_) {
    tracer_->record(
        t, obs::EventKind::FaultLutRebuild, 0, 0,
        static_cast<std::uint16_t>(faults_->mask().dead_nodes()),
        static_cast<std::uint32_t>(faults_->mask().killed_links()));
  }
  purge_undeliverable(t);
}

// --- Delivery / bookkeeping -------------------------------------------

void Simulator::deliver(MsgId id, Cycle t) {
  const Message& m = pool_[id];
  collector_.on_delivered(m.gen_time, t, m.measured);
  if (timeseries_) {
    timeseries_->on_delivered(t, static_cast<double>(t - m.gen_time));
  }
  if (online_) online_->on_delivered(t - m.gen_time, m.measured);
  ++delivered_;
  deactivate(id);
  pool_.release(id);
}

void Simulator::activate(MsgId id) {
  pool_[id].active_pos = static_cast<std::uint32_t>(active_.size());
  active_.push_back(id);
}

void Simulator::deactivate(MsgId id) {
  const std::uint32_t pos = pool_[id].active_pos;
  const MsgId last = active_.back();
  active_[pos] = last;
  pool_[last].active_pos = pos;
  active_.pop_back();
}

// --- Coherence / conservation checks ----------------------------------

bool Simulator::check_active_sets(std::string* why) const {
  const auto fail = [why](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  const Network& net = net_;

  // Link sets are exact mirrors of link state in either core.
  for (LinkId l = 0; l < net.num_net_links(); ++l) {
    const bool tenant = net.link(l).active_vc_mask != 0;
    if (tenant != net.tenant_links().contains(l)) {
      return fail("tenant_links incoherent at link " + std::to_string(l));
    }
    const bool arriving = !net.link(l).in_flight.empty();
    if (arriving != net.arrival_links().contains(l)) {
      return fail("arrival_links incoherent at link " + std::to_string(l));
    }
  }
  if (net.tenant_links().size() != net.tenant_links().recount() ||
      net.arrival_links().size() != net.arrival_links().recount()) {
    return fail("link set count drifted from bitmap population");
  }

  // Node sets cover every active node (they prune lazily, so they may
  // temporarily hold extra members — and the dense core never prunes).
  const unsigned ports = net.params().eje_channels;
  const unsigned inj = net.params().inj_channels;
  std::size_t queue_sum = 0;
  for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
    queue_sum += queues_[node].size();
    bool busy = false;
    for (unsigned p = 0; p < ports; ++p) busy |= net.eject_port(node, p).busy();
    if (busy && !eject_nodes_.contains(node)) {
      return fail("busy ejection port not in eject set, node " +
                  std::to_string(node));
    }
    bool inject_active = !queues_[node].empty() || recovery_.pending(node) > 0;
    for (unsigned i = 0; i < inj; ++i) {
      inject_active |= !net.vc({net.inj_link(node, i), 0}).free();
    }
    if (inject_active && !inject_nodes_.contains(node)) {
      return fail("active node not in inject set, node " +
                  std::to_string(node));
    }
  }
  if (queue_sum != queue_total_) {
    return fail("incremental queue total drifted from recount");
  }
  if (eject_nodes_.size() != eject_nodes_.recount() ||
      inject_nodes_.size() != inject_nodes_.recount()) {
    return fail("node set count drifted from bitmap population");
  }

  // Generation subscriptions (active core): each node sits in exactly
  // the place gen_where_ says, and nowhere twice.
  if (cfg_.core == SimCore::Active && workload_) {
    std::size_t dense_n = 0, timed_n = 0;
    for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
      const bool in_dense = gen_dense_.contains(node);
      if (in_dense != (gen_where_[node] == GenSub::EveryCycle)) {
        return fail("gen_dense_ disagrees with gen_where_ at node " +
                    std::to_string(node));
      }
      dense_n += in_dense;
      timed_n += gen_where_[node] == GenSub::Timed;
    }
    std::size_t heap_n = 0;
    for (const GenHeap& heap : gen_heaps_) heap_n += heap.size();
    if (timed_n != heap_n) {
      return fail("gen heaps hold duplicate or orphan subscriptions");
    }
    if (dense_n + timed_n > topo_.num_nodes()) {
      return fail("duplicate generation subscription");
    }
  }

  // Parked waiters: every sleeping header still satisfies the parked
  // predicate — its tenancy key matches, its detection deadline has not
  // passed (and sits on the wheel), and no candidate VC was released
  // since it parked: each candidate channel is still watched (a release
  // there wakes it) and none has a claimable VC.
  std::vector<bool> enrolled(net.num_vc_slots(), false);
  for (const PendingRoute& e : pending_route_) enrolled[e.slot] = true;
  routing::RouteResult route;
  for (VcSlot slot = 0; slot < net.num_vc_slots(); ++slot) {
    const Network::RoutePark park = net.route_park(slot);
    if (park == Network::RoutePark::Awake) continue;
    const std::string at = " at slot " + std::to_string(slot);
    if (!memo_on_ || park != Network::RoutePark::Asleep) {
      return fail("header parked outside the route phase's states" + at);
    }
    const VcState& v = net.vc_at(slot);
    const RouteMemo& memo = route_memo_[slot];
    if (!enrolled[slot] || !v.pending_route) {
      return fail("parked header has no pending route entry" + at);
    }
    if (memo.msg != v.msg) {
      return fail("parked header's tenancy key is stale" + at);
    }
    if (memo.no_detect_before < cycle_) {
      return fail("parked header slept through its detection deadline" + at);
    }
    if (memo.no_detect_before != kForever) {
      const auto& bucket =
          deadline_wheel_[memo.no_detect_before & deadline_mask_];
      if (std::find(bucket.begin(), bucket.end(), slot) == bucket.end()) {
        return fail("parked header's deadline is not on the wheel" + at);
      }
    }
    const NodeId node = vc_node_[slot];
    if (net.park_cands(slot) != memo.cand_mask) {
      return fail("parked header's candidate channels are stale" + at);
    }
    for (std::uint32_t m = memo.cand_mask; m != 0; m &= m - 1) {
      const auto c = static_cast<ChannelId>(std::countr_zero(m));
      if (!net.waits_on(slot, net.net_link(node, c))) {
        return fail("parked header waits on an unwatched channel" + at);
      }
    }
    if (fc_admit(v.msg_length, net.params().buf_flits)) {
      route_lookup(node, memo.dst, route);
      const std::uint8_t* row = net.free_mask_row(node);
      for (const auto& cand : route.candidates) {
        if (row[cand.channel] & cand.vc_mask) {
          return fail("parked header has a free candidate VC" + at);
        }
      }
    }
  }
  for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
    if (!net.gate_parked(node)) continue;
    if (!park_gates_ || queues_[node].empty()) {
      return fail("source parked without a parkable limiter verdict, node " +
                  std::to_string(node));
    }
  }
  return true;
}

bool Simulator::check_conservation(std::string* why) const {
  const auto fail = [why](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  const std::uint64_t accounted =
      delivered_ + active_.size() + queue_total_ + lost_total_;
  if (generated_total_ != accounted) {
    return fail("message conservation violated: generated=" +
                std::to_string(generated_total_) + " delivered=" +
                std::to_string(delivered_) + " in-flight=" +
                std::to_string(active_.size()) + " queued=" +
                std::to_string(queue_total_) + " lost=" +
                std::to_string(lost_total_));
  }
  if (active_.empty() && net_.flits_in_network() != 0) {
    return fail("no active messages but " +
                std::to_string(net_.flits_in_network()) +
                " flits still in the network");
  }
  return true;
}

bool Simulator::check_fault_invariants(std::string* why) const {
  const auto fail = [why](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  if (!faults_) return true;
  const topo::FaultMask& mask = faults_->mask();

  for (LinkId l = 0; l < net_.num_net_links(); ++l) {
    const Link& lk = net_.link(l);
    const bool dead = mask.link_dead(lk.src, lk.src_channel);
    if (dead != net_.link_dead(l)) {
      return fail("dead-link field out of sync with fault mask at link " +
                  std::to_string(l));
    }
    if (!dead) continue;
    if (lk.active_vc_mask != 0) {
      return fail("dead link " + std::to_string(l) + " has tenant VCs");
    }
    if (!lk.in_flight.empty()) {
      return fail("dead link " + std::to_string(l) +
                  " still carries in-flight flits");
    }
    if (net_.free_vc_mask(lk.src, lk.src_channel) != 0) {
      return fail("dead link " + std::to_string(l) + " advertises free VCs");
    }
  }

  const unsigned ports = net_.params().eje_channels;
  const unsigned inj = net_.params().inj_channels;
  for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
    if (!mask.node_dead(node)) continue;
    for (unsigned p = 0; p < ports; ++p) {
      if (net_.eject_port(node, p).busy()) {
        return fail("dead node " + std::to_string(node) +
                    " has a busy ejection port");
      }
    }
    const VcState* const inj_row = net_.inj_vc_row(node);
    for (unsigned i = 0; i < inj; ++i) {
      if (!inj_row[i].free()) {
        return fail("dead node " + std::to_string(node) +
                    " has an occupied injection channel");
      }
    }
    if (!queues_[node].empty()) {
      return fail("dead node " + std::to_string(node) +
                  " has a non-empty source queue");
    }
    if (recovery_.pending(node) != 0) {
      return fail("dead node " + std::to_string(node) +
                  " has pending recovery re-injections");
    }
  }

  // No live message is headed for a dead destination: it could never
  // drain and would wedge a resource forever.
  for (const MsgId id : active_) {
    const Message& m = pool_[id];
    if (mask.node_dead(m.dst)) {
      return fail("message " + std::to_string(id) +
                  " still live but targets dead node " +
                  std::to_string(m.dst));
    }
  }
  return true;
}

void Simulator::finish_spatial() {
  if (!spatial_) return;
  for (LinkId l = 0; l < net_.num_net_links(); ++l) {
    spatial_->set_link_flits(l, net_.link(l).flits_carried);
  }
}

// --- Run protocol -----------------------------------------------------

metrics::SimResult Simulator::run(const RunProtocol& protocol) {
  const auto wall_start = std::chrono::steady_clock::now();
  const CoreScanStats scan_start = scan_;
  collector_ = metrics::Collector(topo_.num_nodes(), cycle_ + protocol.warmup,
                                  cycle_ + protocol.warmup + protocol.measure);
  const Cycle measure_end = cycle_ + protocol.warmup + protocol.measure;
  const std::size_t queue_at_start = source_queue_total();
  while (cycle_ < measure_end) step();
  const std::size_t queue_at_measure_end = source_queue_total();

  // Lost messages can never drain; the identity accounts for them so a
  // run with mid-measurement faults still terminates promptly.
  const Cycle drain_end = measure_end + protocol.drain_max;
  while (cycle_ < drain_end &&
         collector_.measured_delivered() + collector_.measured_lost() <
             collector_.measured_generated()) {
    step();
  }

  metrics::SimResult r = collector_.finish(topo_.num_nodes());
  r.warmup_cycles = protocol.warmup;
  r.measure_cycles = protocol.measure;
  r.total_cycles = cycle_;
  r.fully_drained =
      collector_.measured_delivered() + collector_.measured_lost() >=
      collector_.measured_generated();
  r.fault_events = fault_events_;
  r.lut_rebuilds = lut_rebuilds_;
  // Heuristic saturation flag: source queues grew substantially during
  // the measurement window.
  r.saturated = queue_at_measure_end >
                queue_at_start + topo_.num_nodes() / 2 + 8;
  r.limiter = std::string(core::limiter_name(cfg_.limiter.kind));
  if (workload_) {
    r.pattern = std::string(
        traffic::pattern_name(workload_->config().pattern));
    r.offered_flits_per_node_cycle =
        workload_->config().offered_flits_per_node_cycle;
    r.message_length = workload_->config().length.fixed;
  }
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const CoreScanStats window = scan_.since(scan_start);
  r.core = std::string(sim_core_name(cfg_.core));
  r.cycles_per_second =
      r.wall_seconds > 0.0
          ? static_cast<double>(window.cycles) / r.wall_seconds
          : 0.0;
  r.scan_skip_ratio = window.skipped_scan_ratio();
  r.avg_active_links = window.avg_active_links();
  r.avg_active_nodes = window.avg_active_nodes();
  r.route_memo_hit_rate = window.route_memo_hit_rate();
  r.commit_decisions = window.commit_decisions;
  r.commit_conflicts = window.commit_conflicts;
  r.shards = use_sharded_step() ? shards_eff_ : 1u;
  return r;
}

}  // namespace wormsim::sim
