// Cycle-accurate wormhole simulator.
//
// Timing model (paper §4.1: routing, crossbar and channel each take one
// cycle):
//   * a header arriving at a router input becomes routable after
//     `routing_delay` cycles (default 1);
//   * a granted flit reaches the next router's buffer `link_delay`
//     cycles after leaving (default 2 = crossbar + channel);
//   * each physical link carries at most one flit per cycle; virtual
//     channels multiplex it demand-slotted with round-robin arbitration;
//   * ejection ports consume one flit per cycle.
// Per-hop header latency is therefore routing_delay + link_delay = 3
// cycles, with data flits pipelined at one flit/cycle.
//
// Phase order within a cycle: generate → arrivals → eject → route →
// transmit → inject → detect. A flit can arrive and be forwarded in the
// same cycle (pipelining); a header routed in `route` sends its first
// flit in the same cycle's `transmit`.
//
// Simulation cores: the same phase logic runs in one of two modes.
//   * SimCore::Dense — the reference core: every phase scans every
//     link/node and skips idle ones with a per-element guard.
//   * SimCore::Active (default) — per-cycle cost proportional to the
//     *active* components: each phase iterates an incrementally
//     maintained active set (util::ActiveSet bitmaps, ascending index
//     order — the same visit order as the dense scan, which is what
//     makes the two cores bit-identical). Components enqueue themselves
//     on state transitions (flit push, queue push, recovery enqueue,
//     eject bind) and lazily retire when drained. Message generation is
//     scheduled by each injection process's next_poll_hint, so idle
//     sources are not polled at all.
// tests/sim/test_core_equivalence.cpp enforces byte-identical results.
#pragma once

#include <bit>
#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "core/limiter.hpp"
#include "deadlock/detection.hpp"
#include "deadlock/recovery.hpp"
#include "fault/manager.hpp"
#include "fault/schedule.hpp"
#include "metrics/collector.hpp"
#include "metrics/online/online_stats.hpp"
#include "metrics/spatial.hpp"
#include "metrics/timeseries.hpp"
#include "obs/tracer.hpp"
#include "routing/routing.hpp"
#include "routing/routing_lut.hpp"
#include "routing/selection.hpp"
#include "sim/flow_control.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "traffic/workload.hpp"
#include "util/thread_pool.hpp"

namespace wormsim::sim {

/// Which cycle-loop implementation drives the phases (results are
/// bit-identical; only the per-cycle cost differs).
enum class SimCore : std::uint8_t { Dense, Active };

SimCore parse_sim_core(std::string_view name);
std::string_view sim_core_name(SimCore core) noexcept;

struct SimulatorConfig {
  NetworkParams net{};
  routing::Algorithm algorithm = routing::Algorithm::TFAR;
  routing::SelectionPolicy selection = routing::SelectionPolicy::MaxFreeVcs;
  unsigned routing_delay = 1;
  core::LimiterConfig limiter{};
  deadlock::DetectionConfig detection{};
  deadlock::RecoveryConfig recovery{};
  /// Deterministic fault schedule (empty = no fault subsystem at all:
  /// the cycle loop's only cost is one branch on a null manager).
  /// Non-empty schedules require TFAR routing and a tabulable network —
  /// reconfiguration tabulates BFS routes around the failures.
  fault::FaultSchedule faults{};
  /// Flow-control scheme gating flit advance and VC admission
  /// (default: the paper's wormhole model).
  FlowControlConfig flow{};
  /// The active core always answers route queries from computed route
  /// words and caches blocked headers in the route memo; the dense core
  /// uses neither, which is what makes test_core_equivalence a
  /// differential test of both.
  SimCore core = SimCore::Active;
  /// Shard the single simulation across threads (active core only):
  /// the node/link bitmaps are partitioned into contiguous 64-bit-word
  /// ranges, one per shard. Generate/arrivals/eject run shard-parallel
  /// with their side effects drained through per-shard mailboxes at a
  /// deterministic barrier; route and transmit run as a shard-parallel
  /// read-only *evaluate* pass over per-shard decision lanes followed
  /// by a serial *commit* replay in ascending shard order, with
  /// link-epoch/stamp conflict detection falling back to inline
  /// re-evaluation — results are bit-exact vs `shards = 1` at any
  /// count. 1 = the unmodified sequential path; 0 = one shard per
  /// hardware thread. The effective count is clamped to the number of
  /// 64-node bitmap words, so small networks silently degenerate to
  /// sequential execution.
  unsigned shards = 1;
  std::uint64_t seed = 1;
};

/// Per-cycle scan accounting: how much per-phase iteration work the
/// core actually did versus what a dense scan would have done. The
/// active-link count is exact simulation state (identical across
/// cores); active nodes and the skip ratio describe the active-set
/// machinery, so the dense core reports 0 active nodes and a 0 ratio.
struct CoreScanStats {
  std::uint64_t cycles = 0;
  std::uint64_t scan_visited = 0;      // loop entries executed
  std::uint64_t scan_total = 0;        // entries a dense scan would execute
  std::uint64_t active_links_sum = 0;  // tenant links, summed per cycle
  std::uint64_t active_nodes_sum = 0;  // injection-active nodes, per cycle
  std::uint64_t route_evals = 0;       // routes computed (memo misses)
  std::uint64_t route_memo_hits = 0;   // blocked-header re-routes avoided
  std::uint64_t commit_decisions = 0;  // speculative decisions replayed
  std::uint64_t commit_conflicts = 0;  // decisions invalidated -> re-run

  /// Fraction of dense scan work skipped (0 for the dense core).
  double skipped_scan_ratio() const noexcept {
    return scan_total ? 1.0 - static_cast<double>(scan_visited) /
                                  static_cast<double>(scan_total)
                      : 0.0;
  }
  double avg_active_links() const noexcept {
    return cycles ? static_cast<double>(active_links_sum) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
  double avg_active_nodes() const noexcept {
    return cycles ? static_cast<double>(active_nodes_sum) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
  /// Fraction of route queries answered by the blocked-header memo
  /// (0 when the memo is off or nothing ever blocked).
  double route_memo_hit_rate() const noexcept {
    const std::uint64_t asked = route_evals + route_memo_hits;
    return asked ? static_cast<double>(route_memo_hits) /
                       static_cast<double>(asked)
                 : 0.0;
  }
  /// Fraction of sharded evaluate decisions an earlier commit
  /// invalidated (0 on the sequential path, which never speculates).
  double commit_conflict_rate() const noexcept {
    return commit_decisions ? static_cast<double>(commit_conflicts) /
                                  static_cast<double>(commit_decisions)
                            : 0.0;
  }
  /// Counter deltas since `earlier` (per-run windows inside one
  /// simulator lifetime).
  CoreScanStats since(const CoreScanStats& earlier) const noexcept {
    CoreScanStats d;
    d.cycles = cycles - earlier.cycles;
    d.scan_visited = scan_visited - earlier.scan_visited;
    d.scan_total = scan_total - earlier.scan_total;
    d.active_links_sum = active_links_sum - earlier.active_links_sum;
    d.active_nodes_sum = active_nodes_sum - earlier.active_nodes_sum;
    d.route_evals = route_evals - earlier.route_evals;
    d.route_memo_hits = route_memo_hits - earlier.route_memo_hits;
    d.commit_decisions = commit_decisions - earlier.commit_decisions;
    d.commit_conflicts = commit_conflicts - earlier.commit_conflicts;
    return d;
  }
};

/// Warm-up / measurement / drain protocol for one run.
struct RunProtocol {
  Cycle warmup = 5000;
  Cycle measure = 20000;
  /// Extra cycles (with traffic still flowing) allowed for measured
  /// messages to drain before the run is cut off.
  Cycle drain_max = 30000;
};

class Simulator {
 public:
  /// `workload` may be null: no autonomous traffic (tests drive the
  /// network through push_message()).
  Simulator(const topo::KAryNCube& topo, const SimulatorConfig& cfg,
            std::unique_ptr<traffic::Workload> workload);
  // Network and the routing function hold pointers into topo_.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- Driving ----------------------------------------------------------
  void step();
  void step_cycles(Cycle n) {
    for (Cycle i = 0; i < n; ++i) step();
  }
  Cycle cycle() const noexcept { return cycle_; }

  /// Enqueue one message directly at `src`'s source queue (test hook and
  /// trace-driven workloads). Returns false for src == dst.
  bool push_message(NodeId src, NodeId dst, std::uint32_t length);

  /// Run the full warm-up / measure / drain protocol and summarize.
  metrics::SimResult run(const RunProtocol& protocol);

  // --- Introspection ----------------------------------------------------
  const topo::KAryNCube& topology() const noexcept { return topo_; }
  Network& network() noexcept { return net_; }
  const Network& network() const noexcept { return net_; }
  const routing::RoutingFunction& routing_function() const noexcept {
    return *routing_;
  }
  core::InjectionLimiter& limiter() noexcept { return *limiter_; }
  /// Replace the injection-limitation mechanism with a user-supplied
  /// one (the extension seam for out-of-tree mechanisms); null is
  /// ignored. Takes effect from the next cycle.
  void set_limiter(std::unique_ptr<core::InjectionLimiter> limiter) {
    if (!limiter) return;
    limiter_ = std::move(limiter);
    limiter_reads_route_ = limiter_->reads_route();
  }
  traffic::Workload* workload() noexcept { return workload_.get(); }
  const metrics::Collector& collector() const noexcept { return collector_; }

  /// Record per-interval dynamics (accepted traffic, latency, deadlocks,
  /// queue depth) from now on; pass 0 to disable. Survives run().
  void enable_timeseries(Cycle interval_cycles) {
    timeseries_ = interval_cycles
                      ? std::make_unique<metrics::TimeSeries>(interval_cycles)
                      : nullptr;
  }
  const metrics::TimeSeries* timeseries() const noexcept {
    return timeseries_.get();
  }

  /// Attach an event tracer (nullptr detaches). Observation only: every
  /// hook is a branch-on-null, results are bit-identical with or
  /// without it, and the instrumented-off hot path stays unchanged
  /// (bench/micro_mechanism --obs-overhead-json gates this).
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  obs::Tracer* tracer() const noexcept { return tracer_; }

  /// Attach per-channel/per-node spatial metrics (nullptr detaches).
  /// Counters are fed incrementally plus a periodic link-occupancy
  /// sweep; call `finish_spatial()` after the run to copy the
  /// cumulative link flit counters in.
  void set_spatial(metrics::SpatialMetrics* spatial) noexcept {
    spatial_ = spatial;
  }
  metrics::SpatialMetrics* spatial() const noexcept { return spatial_; }
  /// Copy end-of-run link utilization counters into the attached
  /// SpatialMetrics (no-op when none is attached).
  void finish_spatial();

  /// Attach streaming online statistics (nullptr detaches): latency
  /// histogram, windowed time series, saturation-onset detector and the
  /// optional phase profiler. Same contract as the tracer: every hook
  /// branches on null and attaching never changes simulation results.
  void set_online(metrics::OnlineStats* online) noexcept { online_ = online; }
  metrics::OnlineStats* online() const noexcept { return online_; }
  /// Flush the final (possibly partial) recording window into the
  /// attached OnlineStats (no-op when none is attached).
  void finish_online();

  const SimulatorConfig& config() const noexcept { return cfg_; }

  SimCore core() const noexcept { return cfg_.core; }
  /// Effective shard count after clamping (1 = sequential path).
  unsigned shards() const noexcept { return shards_eff_; }
  /// Bytes per VC slot consumed by the blocked-header route memo
  /// (sizeof of a private struct, exported for memory-footprint math).
  static std::size_t route_memo_entry_bytes() noexcept;
  /// Cumulative scan accounting since construction.
  const CoreScanStats& scan_stats() const noexcept { return scan_; }

  /// Active-set coherence: the Network link sets exactly mirror link
  /// state, the node sets cover every active node, and the incremental
  /// counters match a recount. Returns false and fills `why` (if
  /// non-null) on the first violation. Cheap enough for test loops; the
  /// debug build runs it periodically via an assert.
  bool check_active_sets(std::string* why = nullptr) const;
  /// Message conservation: generated == delivered + in network/queues +
  /// lost-to-faults, and an empty network holds zero flits. Same
  /// reporting convention.
  bool check_conservation(std::string* why = nullptr) const;
  /// Fault coherence (trivially true without a fault schedule): the
  /// network's dead-link fields mirror the fault mask, dead links carry
  /// no tenants/flits and advertise no free VCs, dead nodes hold no
  /// queued, recovering or ejecting traffic, and no live in-network
  /// message targets a dead destination. Same reporting convention.
  bool check_fault_invariants(std::string* why = nullptr) const;
  /// Flow-control invariants: no buffer over/underflow in any scheme;
  /// under Credit additionally per-slot credit conservation (credits
  /// consumed == occupancy + returns on the wire). Same convention.
  bool check_flow_control(std::string* why = nullptr) const {
    return flow_->check(net_, why);
  }

  const FlowControlScheme& flow_control() const noexcept { return *flow_; }

  std::size_t messages_in_flight() const noexcept { return active_.size(); }
  std::size_t source_queue_len(NodeId node) const noexcept {
    return queues_[node].size();
  }
  std::size_t source_queue_total() const noexcept { return queue_total_; }
  std::size_t recovery_pending() const noexcept {
    return recovery_.pending_total();
  }
  std::uint64_t total_deadlock_detections() const noexcept {
    return deadlock_events_;
  }
  std::uint64_t total_delivered() const noexcept { return delivered_; }
  /// Messages dropped by fault reconfiguration (destination dead or
  /// unreachable); part of the conservation identity.
  std::uint64_t total_lost() const noexcept { return lost_total_; }
  /// Schedule events applied so far (kills + restores).
  std::uint64_t fault_events_applied() const noexcept { return fault_events_; }
  /// Routing-table reconfigurations triggered by fault events.
  std::uint64_t lut_rebuilds() const noexcept { return lut_rebuilds_; }
  /// Null when the fault schedule is empty.
  const fault::FaultManager* fault_manager() const noexcept {
    return faults_.get();
  }

  /// All in-flight message ids (diagnostics/tests).
  const std::vector<MsgId>& active_messages() const noexcept {
    return active_;
  }
  const Message& message(MsgId id) const noexcept { return pool_[id]; }

 private:
  struct PendingMessage {
    NodeId dst = 0;
    std::uint32_t length = 0;
    Cycle gen_time = 0;
    bool measured = false;
  };

  void phase_generate(Cycle t);
  void phase_arrivals(Cycle t);
  void phase_eject(Cycle t);
  void phase_route(Cycle t);
  void phase_transmit(Cycle t);
  void phase_inject(Cycle t);

  // Shard-parallel forms of the phases (see the "sharded core" section
  // below). Generate/arrivals/eject have exclusively element-local
  // per-element work and park cross-shard side effects in mailboxes.
  // Route and transmit arbitrate shared resources (free-VC masks,
  // ejection ports, the one-flit-per-link budget) whose outcome depends
  // on global visit order, so they split into a shard-parallel
  // *evaluate* pass — read-only w.r.t. shared state, one speculative
  // decision per work item — and a serial *commit* replay in ascending
  // shard order (= ascending id order = the sequential arbitration
  // order). A commit that mutates state stamps the slots/nodes/links it
  // touched; a later decision whose inputs carry this cycle's stamp is
  // invalidated and falls back to inline re-evaluation, which keeps
  // results bit-exact vs `shards = 1`. Inject stays sequential (one
  // global message-pool allocator and FIFO fairness accounting).
  void phase_generate_sharded(Cycle t);
  void phase_arrivals_sharded(Cycle t);
  void phase_eject_sharded(Cycle t);
  void phase_route_sharded(Cycle t);     // route_evaluate + route_commit
  void phase_transmit_sharded(Cycle t);  // transmit_evaluate + _commit
  void route_evaluate(Cycle t);
  void route_commit(Cycle t);
  void transmit_evaluate(Cycle t);
  void transmit_commit(Cycle t);
  /// True when this step may take the sharded path: more than one
  /// effective shard and no tracer attached (the tracer records
  /// per-event inside what would be the parallel region; rather than
  /// buffering that stream too, traced runs take the sequential path —
  /// observation must not change results anyway).
  bool use_sharded_step() const noexcept {
    return crew_ != nullptr && tracer_ == nullptr;
  }
  /// The step() phase sequence with each phase timed into the attached
  /// OnlineStats' profiler (taken only on sampled cycles).
  void run_phases_profiled(Cycle t);
  /// Snapshot the instantaneous state the online window recorder wants
  /// (in-flight flits, blocked headers, free-VC occupancy from the
  /// limiter-visible status registers, queue depth, credit messages).
  metrics::WindowSample online_sample();

  struct ShardLane;  // defined below with the sharded-core state

  // Per-element phase bodies shared by both cores (the cores differ
  // only in which elements they visit).
  void eject_node(NodeId node, Cycle t);
  /// `vcs`/`cap` are the network's num_vcs and buf_flits, hoisted by
  /// phase_transmit so the per-link call avoids the parameter loads.
  void transmit_link(LinkId l, Cycle t, unsigned vcs, unsigned cap);
  void inject_node(NodeId node, Cycle t);
  /// One pending_route_ entry of the sequential route phase, start to
  /// finish (parked check through allocation). Returns true when the
  /// entry was resolved and swap-removed from pending_route_ (the
  /// caller must then re-examine index i), false when it stays pending.
  /// Also serves as the commit phase's inline fallback for invalidated
  /// decisions — it stamps every slot/node it mutates.
  bool route_entry(std::size_t i, Cycle t, Cycle routing_delay,
                   bool detect_on, Cycle threshold);
  /// Speculative read-only twin of route_entry: computes entry i's
  /// decision into route_dec_[i], using only lane-local scratch.
  void route_evaluate_entry(std::size_t i, Cycle t, Cycle routing_delay,
                            bool detect_on, Cycle threshold,
                            ShardLane& lane);
  /// Read-only twin of transmit_link's arbitration scan: the VC index
  /// that would send a flit across link l this cycle, or -1.
  int evaluate_transmit_link(LinkId l, unsigned vcs, unsigned cap);
  /// The kQueueSamplePeriod spatial sweep (per-node queue depths +
  /// per-VC link occupancy histogram), fanned out across the crew over
  /// the node/link ranges each shard owns — every sample is an
  /// element-local write into the shard's own rows.
  void sample_spatial_sharded(Cycle t);

  /// Source-queue push shared by push_message and phase_generate:
  /// maintains the queue total, conservation counter and the
  /// injection-active node set.
  void enqueue_source(NodeId node, NodeId dst, std::uint32_t length,
                      Cycle t);
  /// Poll the workload for `node` at cycle `t` (both cores), then — in
  /// the active core — re-subscribe the node according to its process's
  /// next_poll_hint (every-cycle set, timed heap, or nothing for rate-0
  /// sources until a workload mutation bumps the epoch).
  void poll_node(NodeId node, Cycle t);
  void poll_and_reschedule(NodeId node, Cycle t);
  /// Sharded poll: identical rescheduling logic, but generated messages
  /// are parked in shard `s`'s mailbox (enqueue_source replays them at
  /// the barrier) and set mutations use the unsized bitmap ops with a
  /// per-shard size delta.
  void poll_and_reschedule_sharded(NodeId node, Cycle t, unsigned s);
  /// Sharded eject_node: flit movement on the (exclusively owned) VC
  /// and ejection-port state happens inline; credits, metrics hooks and
  /// delivery are parked in the mailbox for ordered replay.
  void eject_node_sharded(NodeId node, Cycle t, unsigned s);

  /// FC3D condition: every VC the routing function offered has shown no
  /// flow-control activity for the detection threshold. On failure,
  /// `*earliest` is set to the first future cycle at which the witness
  /// VC's inactivity could reach the threshold — a lower bound on when
  /// detection could fire (last_activity is monotone), which the route
  /// memo caches to skip re-evaluation until then.
  bool requested_channels_frozen(NodeId node, Cycle t,
                                 const routing::RouteResult& route,
                                 Cycle* earliest) const;

  /// Route query shared by both cores: the RoutingLut's route word when
  /// present, the virtual routing function otherwise. Counts into
  /// scan_.route_evals.
  void route_at(NodeId node, NodeId dst, routing::RouteResult& out) {
    ++scan_.route_evals;
    route_lookup(node, dst, out);
  }

  /// route_at without the counter bump: the shard-parallel evaluate
  /// pass calls this (counting into its per-decision delta instead, so
  /// a conflicted decision's discarded work never skews route_evals).
  void route_lookup(NodeId node, NodeId dst,
                    routing::RouteResult& out) const {
    if (lut_) {
      lut_->route(node, dst, out);
    } else {
      routing_->route(node, dst, out);
    }
  }

  /// Sum of the free-mask epochs of every candidate output link of
  /// `route` at `node`. Epochs are monotone, so an equal sum means no
  /// candidate's free-VC mask changed — the route-memo freshness key.
  /// Sum of the epoch counters of `node`'s output links selected by the
  /// candidate-channel bitmask (each distinct link counted once). The
  /// mask form keeps the hot re-check loop on one small integer instead
  /// of walking candidate records.
  std::uint64_t candidate_epoch_sum(NodeId node,
                                    std::uint32_t cand_mask) const {
    const std::uint64_t* row = net_.link_epoch_row(node);
    std::uint64_t sum = 0;
    for (std::uint32_t m = cand_mask; m != 0; m &= m - 1) {
      sum += row[std::countr_zero(m)];
    }
    return sum;
  }

  /// Union of a route's candidate physical channels as a bitmask.
  static std::uint32_t candidate_channel_mask(
      const routing::RouteResult& route) {
    std::uint32_t mask = 0;
    for (const auto& cand : route.candidates) mask |= 1u << cand.channel;
    return mask;
  }

  // --- Flow-control gates and hooks (see flow_control.hpp). Each is one
  // call into the scheme object, skipped outright when the capability
  // bit resolved at construction says the scheme cannot matter.

  /// May one more flit advance toward VC slot `slot`? The caller has
  /// already checked occupancy < cap, so schemes whose gate is exactly
  /// that test (veto_sends() false) are never consulted.
  bool fc_may_send(std::size_t slot, std::uint8_t occupancy,
                   unsigned cap) const {
    return !fc_vetoes_ || flow_->may_send(slot, occupancy, cap);
  }
  /// May a header claim a free downstream VC for this packet? Schemes
  /// that admit unconditionally (gates_admission() false) skip the call.
  bool fc_admit(std::uint32_t msg_length, unsigned cap) const {
    return !fc_admits_ || flow_->admit(msg_length, cap);
  }
  // The per-flit event hooks are gated on fc_tracks_: stateless schemes
  // never pay a virtual call per flit.
  void fc_on_sent(std::size_t slot, Cycle t) {
    if (fc_tracks_) flow_->on_flit_sent(slot, t);
  }
  void fc_on_drained(std::size_t slot, Cycle t) {
    if (fc_tracks_) flow_->on_flit_drained(slot, t);
  }
  void fc_on_reset(std::size_t slot) {
    if (fc_tracks_) flow_->on_slot_reset(slot);
  }
  /// Free-mask row the injection limiters and the Figure-2 probe read:
  /// the raw Network register, except under Credit where VCs with
  /// outstanding credits are masked out (a channel is only completely
  /// free once its credits came home). Selection does NOT use this —
  /// claimability is a tenancy property in every scheme, which is what
  /// keeps the route memo's epoch keys exact.
  const std::uint8_t* fc_status_row(NodeId node) const {
    return credit_status_ ? credit_status_->free_row(node)
                          : net_.free_mask_row(node);
  }
  /// fc_status_row writing into a caller-supplied scratch buffer of
  /// num_channels bytes — the reentrant form the shard-parallel
  /// evaluate pass uses with its per-lane scratch (the status object's
  /// own scratch would race across shards).
  const std::uint8_t* fc_status_row_into(NodeId node,
                                         std::uint8_t* buf) const {
    return credit_status_ ? credit_status_->free_row_into(node, buf)
                          : net_.free_mask_row(node);
  }

  void enroll_for_routing(VcSlot slot);
  void start_injection(NodeId node, unsigned inj_channel, MsgId id, Cycle t);
  /// Free every VC the worm occupies (head-to-tail upstream walk),
  /// including an ejection-port binding, and reset the message record
  /// to its pre-injection state. Shared by deadlock absorption and
  /// fault surgery.
  void teardown_worm(MsgId id, Cycle t);
  void absorb_deadlocked(MsgId id, Cycle t);
  void deliver(MsgId id, Cycle t);
  void activate(MsgId id);
  void deactivate(MsgId id);

  // --- Fault injection & dynamic reconfiguration -----------------------
  /// Apply due schedule events, tear traffic off dying components,
  /// rebuild the routing table and purge undeliverable messages.
  void apply_faults(Cycle t);
  /// Tear down a live worm and hand it to deadlock recovery at the node
  /// its header had reached (the DBR-style reuse of the recovery path).
  void fault_absorb(MsgId id, Cycle t);
  /// Mirror the fault mask into the network's dead-link fields, tearing
  /// down every worm crossing a newly dead link first.
  void sync_dead_links(Cycle t);
  /// Drop every active, recovery-queued or source-queued message whose
  /// destination died or became unreachable.
  void purge_undeliverable(Cycle t);
  /// Clear a dying node's source queue and tear down worms occupying
  /// its injection channels.
  void kill_node_state(NodeId node, Cycle t);
  /// Both endpoints alive and a route exists on the alive graph.
  bool deliverable(NodeId from, NodeId dst) const;
  void count_lost(bool measured);
  /// Deactivate + release an in-network/recovery message as lost.
  void drop_active_message(MsgId id, Cycle t);

  topo::KAryNCube topo_;
  SimulatorConfig cfg_;
  Network net_;
  std::unique_ptr<routing::RoutingFunction> routing_;
  routing::Selector selector_;
  std::unique_ptr<core::InjectionLimiter> limiter_;
  /// Computed route words (active core; null in the dense core —
  /// route_at then falls back to the virtual function). Always built,
  /// in either core, when a fault schedule is present: reconfiguration
  /// tabulates its fault-aware routes, and both cores must route from
  /// the same ones to stay bit-identical.
  std::unique_ptr<routing::RoutingLut> lut_;
  std::unique_ptr<traffic::Workload> workload_;
  /// Null when cfg.faults is empty — the provably-no-op fast path, like
  /// the branch-on-null tracer.
  std::unique_ptr<fault::FaultManager> faults_;
  deadlock::RecoveryManager recovery_;
  metrics::Collector collector_;
  std::unique_ptr<metrics::TimeSeries> timeseries_;
  obs::Tracer* tracer_ = nullptr;            // non-owning; null = off
  metrics::SpatialMetrics* spatial_ = nullptr;  // non-owning; null = off
  metrics::OnlineStats* online_ = nullptr;      // non-owning; null = off

  MessagePool pool_;
  /// Cycle any flit of message `id` last moved (injected, forwarded or
  /// ejected), indexed by MsgId and grown with the pool — drives
  /// FC3D-style inactivity detection. Kept out of Message so the
  /// per-flit write touches 8 dense bytes, not a 64-byte record.
  std::vector<Cycle> last_progress_;
  std::vector<MsgId> active_;

  std::vector<std::deque<PendingMessage>> queues_;
  std::vector<Cycle> head_since_;     // cycle the current queue head became head
  std::vector<std::uint32_t> alloc_rr_;  // per-node selector rotation

  /// Route-pending work item. `msg` and `slot` are enrollment-time
  /// snapshots: `slot` saves the flat-index recompute each visit, and
  /// `msg` lets the scan prove an entry unchanged-and-still-blocked
  /// from the route memo alone, without loading its VcState. A stale
  /// snapshot (the tenancy ended) simply fails the memo key comparison
  /// and takes the full path, which detects and drops the entry.
  struct PendingRoute {
    MsgId msg = kNoMsg;
    VcSlot slot = 0;
  };
  std::vector<PendingRoute> pending_route_;
  routing::RouteResult route_buf_;
  util::SmallVector<traffic::GeneratedMessage, 8> gen_buf_;

  // --- Saturated-regime fast path (active core only) -------------------
  /// Per-VC-slot route memo for blocked headers: 32 bytes, all the
  /// parked check reads (most route visits under saturation end
  /// there). A route is a pure function of (node, dst) — node is fixed
  /// per slot — so an entry stays valid across tenancies with `dst` as
  /// the key; the route itself is never stored, only its candidate
  /// mask, and is re-expanded from its computed word when a visit
  /// needs it. `epoch_sum` snapshots candidate_epoch_sum at the last
  /// failed selection: while it is unchanged the header is still
  /// blocked and both the route and the selection are skipped.
  static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};
  struct RouteMemo {
    /// Tenancy key: set when this slot's header blocks, cleared when
    /// the tenancy ends (successful allocation or absorption). While it
    /// matches the slot's VcState::msg, the header is a known
    /// blocked-in-transit retry and the Message record and eject check
    /// are skipped entirely.
    MsgId msg = kNoMsg;
    /// Route key: cand_mask is valid for any tenancy with this
    /// destination (routing is a pure function of (node, dst)).
    NodeId dst = topo::kInvalidNode;
    /// Union of the route's candidate channels, the epoch-sum footprint.
    std::uint32_t cand_mask = 0;
    /// candidate_epoch_sum at the last failed selection; equal sum ⇒
    /// no candidate mask changed ⇒ provably still blocked.
    std::uint64_t epoch_sum = kNoEpoch;
    /// Earliest cycle FC3D detection could fire for this tenancy: the
    /// last failed guard (message progress or witness-VC activity plus
    /// threshold). Both sources are monotone, so skipping evaluation
    /// until then is exact, not heuristic. Reset on tenancy change.
    Cycle no_detect_before = 0;
  };
  static_assert(sizeof(RouteMemo) <= 32, "route-memo key outgrew 32 B");
  std::vector<RouteMemo> route_memo_;  // empty in the dense core
  /// Router node owning each VC slot's output side (the link's dst),
  /// indexed like route_memo_ — replaces a Link load in phase_route.
  std::vector<NodeId> vc_node_;

  bool memo_on_ = false;              // active core
  bool limiter_reads_route_ = true;   // limiter_->reads_route(), resolved
                                      // per installed limiter

  // --- Flow control (resolved once at construction) --------------------
  std::unique_ptr<FlowControlScheme> flow_;
  bool fc_tracks_ = false;  // scheme consumes the per-flit event stream
  bool fc_vetoes_ = true;   // scheme's may_send can veto past occupancy
  bool fc_admits_ = true;   // scheme's admit can reject a VC claim
  /// Non-null iff the scheme is Credit: the status register limiters
  /// and the probe read then masks out VCs with outstanding credits.
  std::unique_ptr<CreditChannelStatus> credit_status_;
  /// What limiters read: *credit_status_ under Credit, else net_.
  const core::ChannelStatus* limiter_status_ = nullptr;

  // --- Active-set state (maintained in both cores where the cost is
  // O(1) per transition; consumed only by the active core) -------------
  util::ActiveSet eject_nodes_;   // nodes with >= 1 busy ejection port
  util::ActiveSet inject_nodes_;  // occupied inj VC, queued msg or
                                  // pending recovery (lazily pruned)

  // Generation scheduling (active core): a node is subscribed in
  // exactly one place — gen_dense_ (poll every cycle), its owner
  // shard's timed heap (poll at the hinted cycle) or nowhere (rate-0
  // source). gen_where_ tracks which, for O(1) transitions and
  // coherence checks. The heap is partitioned by node ownership — one
  // heap per shard, gen_heaps_[0] being the whole heap when sequential
  // — so each shard pops its own due nodes with no shared state; the
  // due set is identical to a single heap's because "due" is a
  // per-node property (top <= t per heap).
  enum class GenSub : std::uint8_t { None, EveryCycle, Timed };
  using GenHeap =
      std::priority_queue<std::pair<Cycle, NodeId>,
                          std::vector<std::pair<Cycle, NodeId>>,
                          std::greater<>>;
  util::ActiveSet gen_dense_;
  std::vector<GenHeap> gen_heaps_;  // one per shard; [0] when sequential
  std::vector<GenSub> gen_where_;
  std::uint64_t gen_epoch_ = ~std::uint64_t{0};  // forces initial refill

  // --- Sharded core (see DESIGN.md "Sharded simulation core") ----------
  // Ownership: shard s owns the contiguous 64-bit-word ranges
  // node_words [node_word_lo_[s], node_word_lo_[s+1]) and net-link
  // words [link_word_lo_[s], link_word_lo_[s+1]) of every bitmap. A
  // word is only ever mutated by its owner inside a parallel phase, so
  // bitmap RMW is race-free; the sets' shared size counters are
  // reconciled from per-lane deltas at the barrier.
  /// One deferred eject event per ejected flit: credits, metrics and
  /// (for tail flits) tenancy release + delivery, replayed in shard
  /// order — which equals the sequential core's ascending-node order.
  struct EjectEvent {
    VcSlot src = kNoSlot;
    MsgId msg = kNoMsg;
    bool credit = false;      // non-injection source: fc_on_drained
    bool completed = false;   // tail ejected: release + deliver
  };
  /// One deferred generated message (enqueue_source replayed in shard
  /// order; per-node FIFO order is preserved because each node is
  /// polled once per cycle by exactly one shard).
  struct GenEvent {
    NodeId node = 0;
    NodeId dst = 0;
    std::uint32_t length = 0;
  };

  // --- Route/transmit evaluate-commit decisions ------------------------
  /// How a pending_route_ entry resolved in the evaluate pass. The
  /// commit replay applies the recorded outcome verbatim unless a
  /// stamp shows an earlier commit touched the entry's inputs.
  enum class RouteDecKind : std::uint8_t {
    Park,        // parked check failed: count a memo hit, keep entry
    Stale,       // tenancy ended elsewhere: drop entry
    Wait,        // routing delay not elapsed: keep entry
    AtDestWait,  // at destination, no free ejection port: keep entry
    AtDestBind,  // at destination: bind ejection port, drop entry
    Blocked,     // no VC claimable: memo/probe updates, keep entry
    Absorb,      // FC3D deadlock detection fired: absorb, drop entry
    Alloc,       // claimed an output VC: allocate, drop entry
  };
  /// One speculative per-entry decision, index-aligned with
  /// pending_route_. Memo side effects are carried as explicit
  /// write-intent flags so the commit performs exactly the sequential
  /// path's stores, in its order.
  struct RouteDecision {
    RouteDecKind kind = RouteDecKind::Wait;
    std::uint8_t evals = 0;        // scan_.route_evals delta
    std::uint8_t hits = 0;         // scan_.route_memo_hits delta
    std::uint8_t vc = 0;           // Alloc: picked VC
    bool fresh_route = false;      // memo: store dst/cand_mask
    bool write_epoch = false;      // memo: store epoch_sum
    bool tenancy_reset = false;    // memo: store msg, clear ndb
    bool write_ndb = false;        // memo: store ndb
    bool probe = false;            // Figure-2 probe fired this entry
    bool probe_a = false;
    bool probe_b = false;
    int port = -1;                 // AtDestBind: ejection port
    ChannelId channel = 0;         // Alloc: picked channel
    MsgId msg = kNoMsg;
    NodeId dst = topo::kInvalidNode;   // fresh_route: route key
    std::uint32_t cand_mask = 0;       // fresh_route: epoch footprint
    std::uint64_t epoch_sum = 0;       // write_epoch payload
    Cycle ndb = 0;                     // write_ndb payload
  };
  /// One per-link transmit decision: the VC whose flit advances across
  /// `link` this cycle (vcn == -1: arbitration found nothing to send —
  /// still recorded, because an earlier commit can free budget that
  /// flips no-send into send, which the stamp check catches).
  struct TransmitDecision {
    LinkId link = 0;
    std::int16_t vcn = -1;
  };
  /// Per-shard mailbox. Written by exactly one shard between barriers,
  /// drained by the sequential commit that follows. Padded to a cache
  /// line so neighboring lanes don't false-share.
  struct alignas(64) ShardLane {
    std::vector<GenEvent> gen_events;
    std::vector<PendingRoute> enrolls;
    std::vector<EjectEvent> ejects;
    std::vector<TransmitDecision> xmits;   // transmit_evaluate output
    util::SmallVector<traffic::GeneratedMessage, 8> gen_buf;
    routing::RouteResult route_scratch;    // route_evaluate_entry scratch
    std::vector<std::uint8_t> fc_row;      // fc_status_row_into scratch
    std::uint64_t visited = 0;             // scan_visited delta
    std::uint64_t ejected_flits = 0;       // batched per-cycle flit count
    std::uint64_t free_vcs = 0;            // online_sample partial sum
    std::ptrdiff_t gen_dense_delta = 0;    // unsized insert/erase balance
    std::ptrdiff_t arrival_delta = 0;
    std::ptrdiff_t eject_delta = 0;
  };
  std::vector<ShardLane> lanes_;
  std::unique_ptr<util::ShardCrew> crew_;  // null when shards_eff_ == 1
  unsigned shards_eff_ = 1;
  std::vector<std::size_t> node_word_lo_;  // size shards_eff_+1
  std::vector<std::size_t> link_word_lo_;  // size shards_eff_+1
  std::vector<std::uint32_t> word_shard_;  // node word -> owning shard

  unsigned shard_of_node(NodeId node) const noexcept {
    return shards_eff_ == 1 ? 0u : word_shard_[node >> 6];
  }

  // --- Evaluate/commit conflict detection (multi-shard only) -----------
  // Write-stamps at the granularity of a decision's input footprint: a
  // commit that mutates a VC slot stamps it, one that changes a node's
  // arbitration state (free masks, epochs, alloc_rr_, ejection ports,
  // out-VC activity) stamps the node, and a flit send stamps the
  // upstream link. A decision whose own stamps carry the current cycle
  // was computed against pre-commit state and re-runs inline. Stamps
  // init to kStampNever, NOT 0 — cycle 0 is a real simulated cycle.
  static constexpr Cycle kStampNever = ~Cycle{0};
  std::vector<RouteDecision> route_dec_;     // index-aligned w/ pending_route_
  std::vector<Cycle> route_slot_stamp_;      // per VC slot (flat index)
  std::vector<Cycle> route_node_stamp_;      // per node
  std::vector<Cycle> transmit_link_stamp_;   // per link (incl. injection)

  void stamp_route_slot(std::size_t slot, Cycle t) noexcept {
    if (!route_slot_stamp_.empty()) route_slot_stamp_[slot] = t;
  }
  void stamp_route_node(NodeId node, Cycle t) noexcept {
    if (!route_node_stamp_.empty()) route_node_stamp_[node] = t;
  }
  /// Stamp the link of VC `slot` (the division of vc_ref runs only in
  /// the sharded core, the one that keeps these stamps).
  void stamp_transmit_slot(VcSlot slot, Cycle t) noexcept {
    if (!transmit_link_stamp_.empty()) {
      transmit_link_stamp_[net_.vc_ref(slot).link] = t;
    }
  }

  CoreScanStats scan_;
  std::size_t queue_total_ = 0;         // sum of queues_[*].size()
  std::uint64_t generated_total_ = 0;   // every source-queue push ever

  Cycle cycle_ = 0;
  std::uint64_t deadlock_events_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_total_ = 0;    // dropped by fault reconfiguration
  std::uint64_t fault_events_ = 0;  // schedule events applied
  std::uint64_t lut_rebuilds_ = 0;  // fault-triggered route rebuilds
  std::vector<fault::FaultEvent> fault_buf_;
  std::vector<std::pair<deadlock::NodeId, deadlock::MsgId>> purge_buf_;
  bool probe_enabled_ = true;
};

}  // namespace wormsim::sim
