//! The simulation world: event dispatch across nodes and the medium.
//!
//! The [`World`] owns the simulator, the medium, and every station. Each
//! popped event is routed to the owning station's PHY/MAC/transport; the
//! actions they emit (transmissions, timers, deliveries) are executed
//! immediately, possibly recursing (a delivered TCP segment produces an
//! ACK, which enqueues at the MAC, which may arm a DIFS timer…).
//!
//! Determinism: all state mutation happens in event order; all randomness
//! flows from per-component substreams of the scenario seed. Two runs of
//! the same scenario are bit-identical.

use desim::{EventHandle, NoProbe, Probe, SimDuration, SimRng, SimTime, Simulator};
use dot11_mac::{DcfMac, FrameKind, MacAction, MacFrame, MacSdu, TimerKind};
use dot11_net::{FlowId, Packet, Segment, StaticRoutes, TcpOutput};
use dot11_phy::{
    CullPolicy, Medium, MediumConfig, NodeId, PhyState, RxOutcomeKind, Shadowing, TxId, TxSignal,
    CULL_MARGIN_DB,
};
use dot11_trace::{FrameClass, NullSink, RxErrorCause, TraceRecord, TraceSink};

use crate::mobility::MobilityEngine;
use crate::node::{Endpoints, Flow, Node};
use crate::scenario::{Scenario, Traffic};
use crate::stats::{EngineStats, EventKindCounts, MobilityStats, NodeReport, RunReport};

fn frame_class(kind: FrameKind) -> FrameClass {
    match kind {
        FrameKind::Data => FrameClass::Data,
        FrameKind::Rts => FrameClass::Rts,
        FrameKind::Cts => FrameClass::Cts,
        FrameKind::Ack => FrameClass::Ack,
    }
}

/// Events flowing through the simulator.
#[derive(Debug)]
pub enum Event {
    /// A traffic source starts.
    FlowStart {
        /// Which flow.
        flow: FlowId,
    },
    /// A transmitted signal reaches every receiver's antenna. One event
    /// per transmission: propagation delay is uniform, so all receivers
    /// share the arrival instant and the handler fans out over the
    /// in-flight delivery list in station order — the same order the
    /// per-receiver events of the unbatched scheme popped in.
    SignalStart {
        /// The transmission.
        tx_id: TxId,
    },
    /// The signal leaves every receiver's antenna (one event per
    /// transmission; see [`Event::SignalStart`]).
    SignalEnd {
        /// The transmission.
        tx_id: TxId,
    },
    /// The transmitter finishes keying the frame out.
    TxAirEnd {
        /// The transmitter.
        node: NodeId,
    },
    /// A MAC timer fires.
    MacTimer {
        /// The station.
        node: NodeId,
        /// Which timer.
        kind: TimerKind,
    },
    /// A TCP retransmission timer fires at the flow's sender.
    RtoTimer {
        /// The flow.
        flow: FlowId,
    },
    /// A TCP delayed-ACK timer fires at the flow's receiver.
    DelackTimer {
        /// The flow.
        flow: FlowId,
    },
    /// A paced CBR source is due to emit.
    CbrTick {
        /// The flow.
        flow: FlowId,
    },
    /// Warm-up over: snapshot delivered-byte counters.
    MeasureStart,
    /// A mobility epoch boundary: advance the movement model and commit
    /// the moved stations to the medium (incremental link maintenance).
    /// Scheduled in the trailing event class so an epoch's topology
    /// change lands after every ordinary event of the same instant.
    TopologyUpdate,
}

/// Number of event kinds: one per [`Event`] variant, with MAC timers
/// broken out per [`TimerKind`].
pub const EVENT_KINDS: usize = 17;

/// The profiler's scope table: one scope per event kind (indices
/// `0..EVENT_KINDS`, the kind index both the probe and the
/// [`EventKindCounts`] histogram are keyed by, so
/// [`EventKindCounts::iter_named`] takes its names from here), then the
/// hot-path phase scopes.
///
/// Kind scopes partition the dispatch loop: each popped event's handling
/// is charged to exactly one. Phase scopes are *inclusive sub-regions*
/// nested inside kind scopes and may overlap each other (a MAC action
/// that transmits charges its scatter to both `phase_mac_actions` and
/// `phase_scatter`), so they explain where kind time goes but do not sum
/// with it.
pub const PROBE_SCOPES: [&str; EVENT_KINDS + 5] = [
    "flow_start",
    "signal_start",
    "signal_end",
    "tx_air_end",
    "mac_difs",
    "mac_backoff_bulk",
    "mac_backoff_slot",
    "mac_cts_timeout",
    "mac_ack_timeout",
    "mac_sifs_response",
    "mac_sifs_data",
    "mac_nav_end",
    "rto_timer",
    "delack_timer",
    "cbr_tick",
    "measure_start",
    "topology_update",
    "phase_scatter",
    "phase_arrival_scan",
    "phase_ber_eval",
    "phase_mac_actions",
    "phase_response_build",
];

/// Phase-scope indices into [`PROBE_SCOPES`] (the kind scopes occupy
/// `0..EVENT_KINDS`).
const SCOPE_SCATTER: usize = EVENT_KINDS;
const SCOPE_ARRIVAL_SCAN: usize = EVENT_KINDS + 1;
const SCOPE_BER_EVAL: usize = EVENT_KINDS + 2;
const SCOPE_MAC_ACTIONS: usize = EVENT_KINDS + 3;
const SCOPE_RESPONSE_BUILD: usize = EVENT_KINDS + 4;

/// Kind index of the first MAC timer; the others follow in
/// [`timer_slot`] order.
const KIND_MAC_TIMER: usize = 4;

/// Dense per-station timer-slot count: one slot per [`TimerKind`].
const MAC_TIMER_SLOTS: usize = 8;

/// The dense timer-table slot of a [`TimerKind`]; offset by
/// [`KIND_MAC_TIMER`], also the timer's kind index.
fn timer_slot(kind: TimerKind) -> usize {
    match kind {
        TimerKind::Difs => 0,
        TimerKind::BackoffBulk => 1,
        TimerKind::BackoffSlot => 2,
        TimerKind::CtsTimeout => 3,
        TimerKind::AckTimeout => 4,
        TimerKind::SifsResponse => 5,
        TimerKind::SifsData => 6,
        TimerKind::NavEnd => 7,
    }
}

struct InFlight {
    frame: MacFrame<Packet>,
    /// Per-receiver signals, in station order. Walked by the batched
    /// signal-start/end handlers; the buffer is recycled through
    /// `delivery_pool` when the transmission ends.
    deliveries: Vec<(NodeId, TxSignal)>,
}

/// A stack of recycled `Vec`s for the per-event action/output buffers.
///
/// The event handlers recurse (a delivered segment produces an ACK, which
/// enqueues at the MAC, …), so one scratch buffer is not enough: each
/// recursion depth checks a buffer out and returns it cleared when done.
/// The pool grows to the maximum recursion depth within the first few
/// events and allocates nothing after that.
struct BufPool<T> {
    free: Vec<Vec<T>>,
}

impl<T> BufPool<T> {
    fn new() -> BufPool<T> {
        BufPool { free: Vec::new() }
    }

    fn get(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    fn put(&mut self, mut buf: Vec<T>) {
        buf.clear();
        self.free.push(buf);
    }
}

/// The assembled simulation (see module docs).
///
/// Generic over a [`TraceSink`]; the default [`NullSink`] compiles every
/// emission site away, and a real sink (usually a
/// [`dot11_trace::SharedSink`], which is `Clone`) observes the run.
/// Likewise generic over a [`Probe`]; the default [`NoProbe`] compiles
/// the timing scopes away, and an armed [`desim::WallProbe`] over
/// [`PROBE_SCOPES`] measures where the engine's wall time goes. Both are
/// chosen once, in [`World::new`].
pub struct World<S: TraceSink + Clone = NullSink, P: Probe = NoProbe> {
    sim: Simulator<Event>,
    medium: Medium,
    nodes: Vec<Node<S>>,
    sink: S,
    probe: P,
    /// Recursion depth of `apply_mac_actions`: only the outermost call
    /// records the `phase_mac_actions` scope, so nested action cascades
    /// are not double-counted.
    mac_actions_depth: u32,
    /// The flow table: one row per flow, indexed by [`FlowId`] (the
    /// builder assigns ids densely from 0).
    flows: Vec<Flow<S>>,
    /// Transmissions on the air, sorted by [`TxId`]. Ids are handed out
    /// monotonically by the medium, so insertion is a push-back and
    /// lookup a binary search over a handful of concurrent entries — no
    /// hashing on the signal-start/end hot path.
    in_flight: Vec<(TxId, InFlight)>,
    /// Dense per-station timer table: slot `node * MAC_TIMER_SLOTS +
    /// timer_slot(kind)`, indexed rather than hashed because MAC timers
    /// are armed and cancelled several times per frame exchange, making
    /// this one of the hottest state tables in the world.
    mac_timers: Vec<Option<EventHandle>>,
    next_tag: u64,
    routes: StaticRoutes,
    duration: SimDuration,
    warmup: SimDuration,
    /// Recycled buffers for the hot-path handlers (see [`BufPool`]).
    mac_action_pool: BufPool<MacAction<Packet>>,
    tcp_out_pool: BufPool<TcpOutput>,
    /// Recycled scatter buffers for [`Medium::transmit_into`]; each lives
    /// inside an [`InFlight`] entry while its transmission is on the air.
    delivery_pool: BufPool<(NodeId, TxSignal)>,
    /// Reused output buffer for saturated-source refills.
    packet_scratch: Vec<Packet>,
    /// Dispatched events broken down by kind.
    kind_counts: EventKindCounts,
    /// The movement model plus its epoch period and commit mode
    /// (`Some` only on mobile scenarios).
    mobility: Option<(MobilityEngine, SimDuration, bool)>,
    /// Link churn accumulated over the run's mobility epochs.
    mobility_stats: MobilityStats,
    /// Recycled per-epoch move buffer.
    move_scratch: Vec<(NodeId, dot11_phy::Position)>,
}

impl<S: TraceSink + Clone, P: Probe> World<S, P> {
    /// Assembles a world from a scenario, wiring `sink` through every
    /// layer (PHY, MAC, TCP, and the world's own frame/flow events) and
    /// timing the dispatch loop with `probe` ([`NullSink`] and
    /// [`NoProbe`] compile both away).
    pub fn new(scenario: Scenario, sink: S, probe: P) -> World<S, P> {
        let Scenario {
            positions,
            radio,
            mac,
            day,
            path_loss,
            flows,
            routes,
            seed,
            duration,
            warmup,
            full_fanout,
            mobility,
        } = scenario;
        let master = SimRng::from_seed(seed);
        let shadowing = Shadowing::new(day.clone(), master.substream(b"shadowing"));
        // Audible-set culling: the world knows every station transmits at
        // the radio's (single) TX power, so it can bound each link's
        // best-case received power at construction and skip receivers
        // that can never rise above noise_floor − CULL_MARGIN_DB. On the
        // paper-scale scenarios no link is culled (regression-tested), so
        // reports are bit-identical with or without the policy.
        let cull = if full_fanout {
            CullPolicy::Full
        } else {
            CullPolicy::Audible {
                tx_power: radio.tx_power,
                noise_floor: radio.noise_floor,
                margin: dot11_phy::Db(CULL_MARGIN_DB),
            }
        };
        let medium = Medium::new(
            positions.clone(),
            shadowing,
            MediumConfig {
                path_loss,
                day,
                propagation_delay: desim::SimDuration::from_micros(1),
                cull,
            },
        );
        let mut radio = radio;
        radio.preamble = mac.preamble;
        let mut nodes = Vec::with_capacity(positions.len());
        for i in 0..positions.len() {
            let id = NodeId(i as u32);
            let phy = PhyState::with_sink(
                radio,
                master.substream(format!("phy/{i}").as_bytes()),
                id,
                sink.clone(),
            );
            let dcf: DcfMac<Packet, S> = DcfMac::with_sink(
                id,
                mac,
                master.substream(format!("mac/{i}").as_bytes()),
                sink.clone(),
            );
            nodes.push(Node::new(phy, dcf));
        }
        let flows: Vec<Flow<S>> = flows
            .into_iter()
            .map(|f| {
                if let Traffic::SaturatedUdp { .. } = f.traffic {
                    nodes[f.src.index()].saturated_flows.push(f.id);
                }
                Flow::new(f, &sink)
            })
            .collect();
        let mut sim = Simulator::new();
        // Pending events are bounded by a few timers per station plus a
        // few per transmission and flow; pre-size the queue so a late
        // population peak never reallocates mid-run.
        sim.reserve(16 * (nodes.len() + flows.len()).max(4));
        for f in &flows {
            sim.schedule_at(
                SimTime::ZERO + f.spec.start,
                Event::FlowStart { flow: f.spec.id },
            );
        }
        sim.schedule_at(SimTime::ZERO + warmup, Event::MeasureStart);
        // Mobile scenario: build the movement engine over its dedicated
        // substream and arm the first epoch. Trailing class: an epoch's
        // topology change follows every ordinary event of its instant.
        let mobility = mobility.map(|m| {
            let engine = MobilityEngine::new(&m, &positions, &master.substream(b"mobility"));
            sim.schedule_in_trailing(m.epoch, Event::TopologyUpdate);
            (engine, m.epoch, m.rebuild_epochs)
        });
        let n_stations = nodes.len();
        World {
            sim,
            medium,
            nodes,
            sink,
            probe,
            mac_actions_depth: 0,
            flows,
            in_flight: Vec::new(),
            mac_timers: vec![None; n_stations * MAC_TIMER_SLOTS],
            next_tag: 1,
            routes,
            duration,
            warmup,
            mac_action_pool: BufPool::new(),
            tcp_out_pool: BufPool::new(),
            delivery_pool: BufPool::new(),
            packet_scratch: Vec::new(),
            kind_counts: EventKindCounts::default(),
            mobility,
            mobility_stats: MobilityStats::default(),
            move_scratch: Vec::new(),
        }
    }

    /// Runs the scenario to its configured duration and reports.
    pub fn run(mut self) -> RunReport {
        let wall_start = std::time::Instant::now();
        let end = SimTime::ZERO + self.duration;
        self.step_until(end);
        if S::ENABLED {
            // Close at the configured end so the final metrics window
            // spans to the run boundary, not the last event.
            self.sink.finish(end);
        }
        self.report(wall_start.elapsed())
    }

    /// The assembled medium — lets tests and benchmarks inspect the
    /// audible sets (e.g. assert that a paper scenario culled nothing, or
    /// report the fan-out a topology actually produces).
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// Dispatches events until the next one would land after `end`.
    ///
    /// [`World::run`] drives the whole scenario through this; it is public
    /// so instrumentation (e.g. the allocation-profiling tests) can advance
    /// a world in segments and observe it between them.
    pub fn step_until(&mut self, end: SimTime) {
        while let Some(t) = self.sim.peek_time() {
            if t > end {
                break;
            }
            let tick = self.probe.tick();
            let (now, ev) = self.sim.pop().expect("peeked event");
            let kind = Self::kind_scope(&ev);
            self.kind_counts.counts[kind] += 1;
            self.handle(now, ev);
            self.probe.record(kind, tick);
        }
    }

    /// Maps an event to its kind index: the slot it counts in
    /// [`EventKindCounts`] and the profiler scope it is timed under (the
    /// head of [`PROBE_SCOPES`]).
    fn kind_scope(ev: &Event) -> usize {
        match ev {
            Event::FlowStart { .. } => 0,
            Event::SignalStart { .. } => 1,
            Event::SignalEnd { .. } => 2,
            Event::TxAirEnd { .. } => 3,
            Event::MacTimer { kind, .. } => KIND_MAC_TIMER + timer_slot(*kind),
            Event::RtoTimer { .. } => 12,
            Event::DelackTimer { .. } => 13,
            Event::CbrTick { .. } => 14,
            Event::MeasureStart => 15,
            Event::TopologyUpdate => 16,
        }
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::FlowStart { flow } => self.start_flow(flow, now),
            Event::SignalStart { tx_id } => self.on_signal_start(tx_id, now),
            Event::SignalEnd { tx_id } => self.on_signal_end(tx_id, now),
            Event::TxAirEnd { node } => self.on_tx_air_end(node, now),
            Event::MacTimer { node, kind } => {
                self.mac_timers[node.index() * MAC_TIMER_SLOTS + timer_slot(kind)] = None;
                let mut actions = self.mac_action_pool.get();
                if kind == TimerKind::SifsResponse {
                    // The SIFS-response build (precomputed CTS/ACK frame
                    // handed to the transmit path) gets its own phase
                    // scope so `engine.profile` keeps it visible.
                    let tick = self.probe.tick();
                    self.nodes[node.index()]
                        .mac
                        .on_timer(kind, now, &mut actions);
                    self.probe.record(SCOPE_RESPONSE_BUILD, tick);
                } else {
                    self.nodes[node.index()]
                        .mac
                        .on_timer(kind, now, &mut actions);
                }
                self.apply_mac_actions(node.index(), actions, now);
            }
            Event::RtoTimer { flow } => {
                let row = &mut self.flows[flow.0 as usize];
                row.rto = None;
                let src = row.spec.src.index();
                let mut outs = self.tcp_out_pool.get();
                if let Endpoints::Tcp { sender, .. } = &mut row.endpoints {
                    sender.on_rto(now, &mut outs);
                }
                self.apply_tcp_outputs(src, flow, outs, now);
            }
            Event::DelackTimer { flow } => {
                let row = &mut self.flows[flow.0 as usize];
                row.delack = None;
                let dst = row.spec.dst.index();
                let mut outs = self.tcp_out_pool.get();
                if let Endpoints::Tcp { receiver, .. } = &mut row.endpoints {
                    receiver.on_delack_timer(now, &mut outs);
                }
                self.apply_tcp_outputs(dst, flow, outs, now);
            }
            Event::CbrTick { flow } => self.on_cbr_tick(flow, now),
            Event::MeasureStart => {
                for row in &mut self.flows {
                    row.snapshot = row.delivered_bytes();
                }
            }
            Event::TopologyUpdate => self.on_topology_update(now),
        }
    }

    /// One mobility epoch: advance the movement model to `now`, commit
    /// the moved stations to the medium (incrementally, or by full
    /// rebuild when the scenario asked for the reference mode), and arm
    /// the next epoch.
    ///
    /// Carrier-locked receivers are unaffected on purpose: an in-flight
    /// transmission sampled its per-receiver powers at launch (the
    /// block-fading assumption every signal already follows), so a move
    /// mid-flight changes only *future* transmissions — which is exactly
    /// what the epoch commit invalidates.
    fn on_topology_update(&mut self, now: SimTime) {
        let (mut engine, epoch, rebuild) = self.mobility.take().expect("mobile scenario");
        let mut moves = std::mem::take(&mut self.move_scratch);
        moves.clear();
        engine.advance(
            now.saturating_duration_since(SimTime::ZERO),
            self.medium.positions(),
            &mut moves,
        );
        let churn = if rebuild {
            self.medium.commit_epoch_rebuild(&moves)
        } else {
            self.medium.commit_epoch(&moves)
        };
        self.mobility_stats.accumulate(churn);
        self.move_scratch = moves;
        self.mobility = Some((engine, epoch, rebuild));
        self.sim.schedule_in_trailing(epoch, Event::TopologyUpdate);
    }

    // --- traffic ---------------------------------------------------------

    fn start_flow(&mut self, flow: FlowId, now: SimTime) {
        let row = &mut self.flows[flow.0 as usize];
        let src = row.spec.src.index();
        match &mut row.endpoints {
            Endpoints::Saturated { .. } => self.refill_saturated(src, now),
            Endpoints::Cbr { .. } => self.on_cbr_tick(flow, now),
            Endpoints::Tcp { sender, .. } => {
                let mut outs = self.tcp_out_pool.get();
                sender.start(now, &mut outs);
                self.apply_tcp_outputs(src, flow, outs, now);
            }
        }
    }

    fn on_cbr_tick(&mut self, flow: FlowId, now: SimTime) {
        let row = &mut self.flows[flow.0 as usize];
        let Endpoints::Cbr { source, .. } = &mut row.endpoints else {
            return;
        };
        if let Some((packet, next)) = source.tick(now) {
            let src = row.spec.src.index();
            if let Some(next) = next {
                self.sim.schedule_at(next, Event::CbrTick { flow });
            }
            self.enqueue_packet(src, packet, now);
        }
    }

    fn refill_saturated(&mut self, idx: usize, now: SimTime) {
        for fi in 0..self.nodes[idx].saturated_flows.len() {
            let flow = self.nodes[idx].saturated_flows[fi];
            // One top-up per invocation: the source emits enough datagrams
            // to restore its backlog given the current queue depth. (A
            // loop would never terminate if the backlog exceeded the MAC
            // queue capacity — drops would be "re-filled" forever.)
            let queued = self.nodes[idx].mac.queue_len();
            let mut packets = std::mem::take(&mut self.packet_scratch);
            let Endpoints::Saturated { source, .. } = &mut self.flows[flow.0 as usize].endpoints
            else {
                unreachable!("saturated_flows lists saturated rows only");
            };
            source.refill(queued, now, &mut packets);
            for p in packets.drain(..) {
                self.enqueue_packet(idx, p, now);
            }
            self.packet_scratch = packets;
        }
        // Every source measures its backlog against the one shared queue,
        // so whoever tops up first takes the free slots: rotate the order
        // so flows sharing a source take turns.
        let flows = &mut self.nodes[idx].saturated_flows;
        if flows.len() > 1 {
            flows.rotate_left(1);
        }
    }

    // --- packet plumbing ---------------------------------------------------

    fn enqueue_packet(&mut self, idx: usize, packet: Packet, now: SimTime) {
        let tag = self.next_tag;
        self.next_tag += 1;
        let at = NodeId(idx as u32);
        // Multi-hop: the MAC-level receiver is the configured next hop
        // toward the packet's final destination (or the destination
        // itself when no route is installed).
        let hop = self.routes.next_hop(at, packet.dst).unwrap_or(packet.dst);
        let sdu = MacSdu {
            dst: hop,
            bytes: packet.wire_bytes(),
            tag,
            payload: packet,
        };
        let mut actions = self.mac_action_pool.get();
        self.nodes[idx].mac.enqueue(sdu, now, &mut actions);
        self.apply_mac_actions(idx, actions, now);
    }

    fn deliver_packet(&mut self, idx: usize, packet: Packet, now: SimTime) {
        if packet.dst.index() != idx {
            // We are an intermediate hop: forward toward the destination.
            self.enqueue_packet(idx, packet, now);
            return;
        }
        match packet.seg {
            Segment::Udp { seq } => {
                if let Endpoints::Saturated { sink, .. } | Endpoints::Cbr { sink, .. } =
                    &mut self.flows[packet.flow.0 as usize].endpoints
                {
                    sink.datagrams += 1;
                    sink.payload_bytes += packet.payload_bytes as u64;
                    sink.max_seq = sink.max_seq.max(seq);
                    let delay = now.saturating_duration_since(packet.sent_at).as_nanos();
                    sink.delay_sum_ns += delay;
                    sink.delay_max_ns = sink.delay_max_ns.max(delay);
                    if S::ENABLED {
                        self.sink.record(
                            now,
                            &TraceRecord::FlowDeliver {
                                flow: packet.flow.0,
                                dst: packet.dst.0,
                                bytes: packet.payload_bytes,
                            },
                        );
                    }
                }
            }
            Segment::Tcp { seq, ack } => {
                let flow = packet.flow;
                let mut outs = self.tcp_out_pool.get();
                if let Endpoints::Tcp {
                    sender, receiver, ..
                } = &mut self.flows[flow.0 as usize].endpoints
                {
                    // Data segments travel to the receiver, pure ACKs
                    // back to the sender.
                    if packet.payload_bytes > 0 {
                        let before = receiver.delivered_bytes();
                        receiver.on_segment(seq, packet.payload_bytes, now, &mut outs);
                        // In-order delivery progress, not raw segment
                        // arrival: out-of-order segments count only once
                        // the hole closes.
                        let delta = receiver.delivered_bytes() - before;
                        if S::ENABLED && delta > 0 {
                            self.sink.record(
                                now,
                                &TraceRecord::FlowDeliver {
                                    flow: flow.0,
                                    dst: packet.dst.0,
                                    bytes: delta as u32,
                                },
                            );
                        }
                    } else {
                        sender.on_ack(ack, now, &mut outs);
                    }
                }
                self.apply_tcp_outputs(idx, flow, outs, now);
            }
        }
    }

    fn apply_tcp_outputs(
        &mut self,
        idx: usize,
        flow: FlowId,
        mut outs: Vec<TcpOutput>,
        now: SimTime,
    ) {
        let f = flow.0 as usize;
        for out in outs.drain(..) {
            let (slot, armed) = match out {
                TcpOutput::Send(packet) => {
                    self.enqueue_packet(idx, packet, now);
                    continue;
                }
                TcpOutput::ArmRto(delay) => (
                    &mut self.flows[f].rto,
                    Some(self.sim.schedule_in(delay, Event::RtoTimer { flow })),
                ),
                TcpOutput::CancelRto => (&mut self.flows[f].rto, None),
                TcpOutput::ArmDelack(delay) => (
                    &mut self.flows[f].delack,
                    Some(self.sim.schedule_in(delay, Event::DelackTimer { flow })),
                ),
                TcpOutput::CancelDelack => (&mut self.flows[f].delack, None),
            };
            // Arming replaces (and cancelling clears) the flow's pending
            // timer of that kind.
            if let Some(old) = std::mem::replace(slot, armed) {
                self.sim.cancel(old);
            }
        }
        self.tcp_out_pool.put(outs);
    }

    // --- MAC/PHY plumbing ----------------------------------------------------

    fn apply_mac_actions(&mut self, idx: usize, mut actions: Vec<MacAction<Packet>>, now: SimTime) {
        let tick = self.probe.tick();
        let outermost = self.mac_actions_depth == 0;
        self.mac_actions_depth += 1;
        for action in actions.drain(..) {
            match action {
                MacAction::Transmit { frame, rate } => {
                    self.start_transmission(idx, frame, rate, now)
                }
                MacAction::StartTimer { kind, delay } => {
                    let ev = Event::MacTimer {
                        node: NodeId(idx as u32),
                        kind,
                    };
                    // The bulk-backoff timer stands in for the *last* tick
                    // of a per-slot chain, which would have been the oldest
                    // pending event at its instant — so it goes in the
                    // trailing class (fires after every ordinary event at
                    // that instant; see `Simulator::schedule_in_trailing`).
                    let h = if kind == TimerKind::BackoffBulk {
                        self.sim.schedule_in_trailing(delay, ev)
                    } else {
                        self.sim.schedule_in(delay, ev)
                    };
                    let slot = idx * MAC_TIMER_SLOTS + timer_slot(kind);
                    if let Some(old) = self.mac_timers[slot].replace(h) {
                        self.sim.cancel(old);
                    }
                }
                MacAction::CancelTimer { kind } => {
                    let slot = idx * MAC_TIMER_SLOTS + timer_slot(kind);
                    if let Some(h) = self.mac_timers[slot].take() {
                        self.sim.cancel(h);
                    }
                }
                MacAction::Deliver { src: _, payload } => self.deliver_packet(idx, payload, now),
                MacAction::TxStatus { .. } => self.refill_saturated(idx, now),
            }
        }
        self.mac_action_pool.put(actions);
        self.mac_actions_depth -= 1;
        if outermost {
            self.probe.record(SCOPE_MAC_ACTIONS, tick);
        }
    }

    fn start_transmission(
        &mut self,
        idx: usize,
        frame: MacFrame<Packet>,
        rate: dot11_phy::PhyRate,
        now: SimTime,
    ) {
        let source = NodeId(idx as u32);
        let radio = *self.nodes[idx].phy.config();
        // Scatter into a pooled buffer; it rides inside the `InFlight`
        // entry until the transmission's SignalEnd returns it.
        let mut deliveries = self.delivery_pool.get();
        let tick = self.probe.tick();
        let (tx_id, airtime) = self.medium.transmit_into(
            source,
            radio.tx_power,
            rate,
            frame.mpdu_bytes,
            radio.preamble,
            now,
            &mut deliveries,
        );
        self.probe.record(SCOPE_SCATTER, tick);
        let until = now + airtime.total();
        if S::ENABLED {
            self.sink.record(
                now,
                &TraceRecord::FrameTxStart {
                    node: source.0,
                    kind: frame_class(frame.kind),
                    dst: frame.dst.0,
                    bytes: frame.mpdu_bytes,
                    rate_kbps: (rate.bits_per_sec() / 1000.0) as u32,
                    air_ns: airtime.total().as_nanos(),
                },
            );
        }
        self.nodes[idx].phy.begin_tx(until, now);
        self.sync_cs(idx, now);
        self.sim
            .schedule_at(until, Event::TxAirEnd { node: source });
        if deliveries.is_empty() {
            // Nobody in range: no signal events, no in-flight entry.
            self.delivery_pool.put(deliveries);
            return;
        }
        // Uniform propagation delay: every receiver shares the arrival and
        // departure instants, so one event each covers the whole fan-out.
        let (starts_at, ends_at) = (deliveries[0].1.starts_at, deliveries[0].1.ends_at);
        debug_assert!(deliveries
            .iter()
            .all(|(_, s)| s.starts_at == starts_at && s.ends_at == ends_at));
        self.sim
            .schedule_at(starts_at, Event::SignalStart { tx_id });
        self.sim.schedule_at(ends_at, Event::SignalEnd { tx_id });
        debug_assert!(
            self.in_flight.last().is_none_or(|(last, _)| *last < tx_id),
            "medium tx ids must be monotonic for sorted push-back"
        );
        self.in_flight.push((tx_id, InFlight { frame, deliveries }));
    }

    /// Index of a live transmission in the sorted `in_flight` table.
    fn in_flight_idx(&self, tx_id: TxId) -> usize {
        self.in_flight
            .binary_search_by_key(&tx_id, |e| e.0)
            .expect("in-flight entry lives until its own signal end")
    }

    fn on_signal_start(&mut self, tx_id: TxId, now: SimTime) {
        // Take the delivery list out of its entry for the walk: `sync_cs`
        // can recurse into `apply_mac_actions` and push new in-flight
        // entries, so no borrow of the table may be held across receivers
        // — but nothing in that recursion can touch *this* transmission's
        // deliveries, so an owned take is safe and replaces the two map
        // lookups per receiver of the old scheme with none. The buffer
        // goes back afterwards; `on_signal_end` walks the same one.
        let i = self.in_flight_idx(tx_id);
        let deliveries = std::mem::take(&mut self.in_flight[i].1.deliveries);
        for &(rx, ref sig) in &deliveries {
            // Scope only the PHY arrival bookkeeping: `sync_cs` may
            // cascade into MAC actions, which time themselves.
            let tick = self.probe.tick();
            self.nodes[rx.index()].phy.signal_start(sig, now);
            self.probe.record(SCOPE_ARRIVAL_SCAN, tick);
            self.sync_cs(rx.index(), now);
        }
        let i = self.in_flight_idx(tx_id);
        self.in_flight[i].1.deliveries = deliveries;
    }

    fn on_signal_end(&mut self, tx_id: TxId, now: SimTime) {
        let i = self.in_flight_idx(tx_id);
        let deliveries = std::mem::take(&mut self.in_flight[i].1.deliveries);
        for &(rx, _) in &deliveries {
            self.signal_end_at(rx, tx_id, now);
        }
        let i = self.in_flight_idx(tx_id);
        self.in_flight.remove(i);
        self.delivery_pool.put(deliveries);
    }

    /// One receiver's share of a transmission's end: resolve the PHY
    /// outcome, feed the MAC, re-sync carrier sense. Runs in station
    /// order from [`World::on_signal_end`], exactly like the unbatched
    /// per-receiver events did.
    fn signal_end_at(&mut self, rx: NodeId, tx_id: TxId, now: SimTime) {
        let idx = rx.index();
        // `signal_end` is where interference integration and BER
        // evaluation happen — the per-receiver decode cost.
        let tick = self.probe.tick();
        let outcome = self.nodes[idx].phy.signal_end(tx_id, now);
        self.probe.record(SCOPE_BER_EVAL, tick);
        // Only the (rare) locked receiver can produce MAC input: skip the
        // action-buffer round-trip entirely for the other members of the
        // fan-out.
        if let Some(out) = outcome {
            let mut actions = self.mac_action_pool.get();
            match out.kind {
                RxOutcomeKind::Decoded => {
                    let i = self.in_flight_idx(tx_id);
                    let frame = self.in_flight[i].1.frame.clone();
                    if S::ENABLED {
                        self.sink.record(
                            now,
                            &TraceRecord::FrameRxOk {
                                node: rx.0,
                                src: frame.src.0,
                                kind: frame_class(frame.kind),
                                bytes: frame.mpdu_bytes,
                            },
                        );
                    }
                    self.nodes[idx].mac.on_rx_frame(frame, now, &mut actions);
                }
                RxOutcomeKind::BodyError | RxOutcomeKind::HeaderError => {
                    if S::ENABLED {
                        let cause = if matches!(out.kind, RxOutcomeKind::BodyError) {
                            RxErrorCause::Body
                        } else {
                            RxErrorCause::Header
                        };
                        self.sink
                            .record(now, &TraceRecord::FrameRxErr { node: rx.0, cause });
                    }
                    self.nodes[idx].mac.on_rx_error(now, &mut actions);
                }
            }
            self.apply_mac_actions(idx, actions, now);
        }
        self.sync_cs(idx, now);
    }

    fn on_tx_air_end(&mut self, node: NodeId, now: SimTime) {
        let idx = node.index();
        if S::ENABLED {
            self.sink
                .record(now, &TraceRecord::FrameTxEnd { node: node.0 });
        }
        self.nodes[idx].phy.end_tx(now);
        let mut actions = self.mac_action_pool.get();
        self.nodes[idx].mac.on_tx_end(now, &mut actions);
        self.apply_mac_actions(idx, actions, now);
        self.sync_cs(idx, now);
    }

    /// Reports carrier-sense edges to the MAC.
    fn sync_cs(&mut self, idx: usize, now: SimTime) {
        let busy = self.nodes[idx].phy.carrier_busy();
        if busy != self.nodes[idx].cs_reported {
            self.nodes[idx].cs_reported = busy;
            let mut actions = self.mac_action_pool.get();
            if busy {
                self.nodes[idx].mac.on_channel_busy(now, &mut actions);
            } else {
                self.nodes[idx].mac.on_channel_idle(now, &mut actions);
            }
            self.apply_mac_actions(idx, actions, now);
        }
    }

    // --- reporting -------------------------------------------------------------

    fn report(&mut self, wall: std::time::Duration) -> RunReport {
        // Fold the tail span into each station's airtime ledgers (the
        // PHY's radio-state split and the MAC's defer refinement).
        let end = (SimTime::ZERO + self.duration).max(self.sim.now());
        for n in &mut self.nodes {
            n.phy.account_airtime(end);
            n.mac.account_airtime(end);
        }
        let window = (self.duration - self.warmup).as_secs_f64();
        let flows = self.flows.iter().map(|f| f.report(window)).collect();
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                // Merge the MAC's defer ledger into the PHY's airtime
                // split: the five refinement categories partition the
                // PHY's idle share (bit-exactly — asserted by the
                // airtime conservation tests), giving the exhaustive
                // channel-state accounting in one struct.
                let mut airtime = n.phy.airtime();
                let ledger = n.mac.airtime_ledger();
                airtime.nav_ns = ledger.nav_ns;
                airtime.difs_ns = ledger.difs_ns;
                airtime.backoff_ns = ledger.backoff_ns;
                airtime.frozen_ns = ledger.frozen_ns;
                airtime.quiet_ns = ledger.quiet_ns;
                NodeReport {
                    node: NodeId(i as u32),
                    mac: n.mac.counters(),
                    phy: n.phy.counters(),
                    arf: n.mac.arf_counters(),
                    final_data_rate: n.mac.current_data_rate(),
                    airtime,
                }
            })
            .collect();
        RunReport {
            duration: self.duration,
            warmup: self.warmup,
            flows,
            nodes,
            events: self.sim.events_dispatched(),
            engine: EngineStats {
                kinds: self.kind_counts,
                mobility: self.mobility_stats,
                queue_high_water: self.sim.queue_high_water(),
                // The accounted horizon (same `end` the airtime ledgers
                // fold to), not the last event's timestamp: how far the
                // run simulated must not depend on whether the final
                // pending events happened to land before the boundary.
                sim_elapsed: end.saturating_duration_since(SimTime::ZERO),
                wall,
                profile: self.probe.report(),
            },
        }
    }
}

impl<S: TraceSink + Clone, P: Probe> std::fmt::Debug for World<S, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("stations", &self.nodes.len())
            .field("flows", &self.flows.len())
            .field("now", &self.sim.now())
            .field("pending", &self.sim.pending())
            .finish()
    }
}
