//! The DCF station state machine.
//!
//! The machine is event-driven and externally clocked: the simulation
//! driver reports carrier-sense edges, decoded frames, reception errors,
//! end-of-transmission and timer expiries, and the MAC responds by
//! appending [`MacAction`]s. Two planes run side by side:
//!
//! * the **contention plane** moves the head-of-line MSDU through
//!   defer → backoff → (RTS/CTS) → DATA → ACK, with the retry/CW ladder;
//! * the **response plane** answers received RTS/DATA with CTS/ACK after
//!   SIFS — responses ignore carrier sense, as the standard requires,
//!   which is exactly how a station's ACKs puncture a neighbour's ongoing
//!   reception in the paper's four-station experiments.

use std::collections::{HashMap, VecDeque};

use desim::{SimDuration, SimRng, SimTime};
use dot11_phy::{FrameAirtime, NodeId, PhyRate};
use dot11_trace::{NullSink, TraceRecord, TraceSink};

use crate::arf::{ArfCounters, ArfState};
use crate::config::MacConfig;
use crate::counters::MacCounters;
use crate::frame::{
    FrameKind, MacFrame, MacSdu, ACK_BYTES, CTS_BYTES, DATA_HEADER_BYTES, RTS_BYTES,
};
use crate::ledger::{DeferCat, DeferLedger};
use crate::policy::AnyPolicy;

/// Timers the MAC asks the driver to run on its behalf.
///
/// Arming a timer that is already armed **replaces** it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// DIFS/EIFS deferral after the medium goes idle.
    Difs,
    /// All but the final slot of the current backoff, coalesced into one
    /// timer. The driver must schedule this in the simulator's *trailing*
    /// class so it fires after every ordinary event at its instant —
    /// exactly where the last tick of a per-slot chain would have sat.
    /// Its expiry arms the final [`TimerKind::BackoffSlot`].
    BackoffBulk,
    /// The final backoff slot; its expiry transmits.
    BackoffSlot,
    /// Waiting for a CTS after sending an RTS.
    CtsTimeout,
    /// Waiting for an ACK after sending data.
    AckTimeout,
    /// SIFS before transmitting a CTS/ACK response.
    SifsResponse,
    /// SIFS between a received CTS and our data frame.
    SifsData,
    /// The NAV reservation runs out.
    NavEnd,
}

/// What the MAC wants the driver to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MacAction<P> {
    /// Put a frame on the air at the given rate.
    Transmit {
        /// The frame to transmit.
        frame: MacFrame<P>,
        /// PHY rate for the MPDU body.
        rate: PhyRate,
    },
    /// Arm (or re-arm) a timer.
    StartTimer {
        /// Which timer.
        kind: TimerKind,
        /// Expiry delay from now.
        delay: SimDuration,
    },
    /// Cancel a timer if armed.
    CancelTimer {
        /// Which timer.
        kind: TimerKind,
    },
    /// Hand a received MSDU to the network layer.
    Deliver {
        /// Originating station.
        src: NodeId,
        /// The payload.
        payload: P,
    },
    /// Report the fate of a locally queued MSDU.
    TxStatus {
        /// The tag from [`MacSdu::tag`].
        tag: u64,
        /// Destination it was addressed to.
        dst: NodeId,
        /// True if acknowledged (or broadcast completed).
        success: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Contention {
    /// No head-of-line frame.
    Idle,
    /// Frame pending, medium busy.
    WaitIdle,
    /// DIFS/EIFS timer running.
    Defer,
    /// Backoff slot timer running.
    Counting,
    /// Our RTS is on the air.
    TxRts,
    /// CTS timeout armed.
    WaitCts,
    /// SIFS between CTS and our data.
    SifsData,
    /// Our data frame is on the air.
    TxData,
    /// ACK timeout armed.
    WaitAck,
}

#[derive(Debug)]
struct Pending<P> {
    sdu: MacSdu<P>,
    failures: u32,
}

/// One station's DCF MAC. See the [crate docs](crate) for the driving
/// protocol.
///
/// Generic over a [`TraceSink`]; with the default [`NullSink`] every
/// emission site compiles away.
#[derive(Debug)]
pub struct DcfMac<P, S: TraceSink = NullSink> {
    id: NodeId,
    cfg: MacConfig,
    rng: SimRng,
    sink: S,
    queue: VecDeque<MacSdu<P>>,
    current: Option<Pending<P>>,
    contention: Contention,
    cw: u32,
    /// Contention-window policy (instantiated from `cfg.backoff`). Sets
    /// `cw` at the two re-draw points; never draws randomness itself.
    policy: AnyPolicy,
    backoff_slots: Option<u32>,
    /// When the current `Counting` phase started (backoff slots elapse on
    /// a 20 µs grid anchored here — the lazy countdown's freeze arithmetic
    /// divides against it instead of decrementing per slot).
    counting_since: SimTime,
    /// Slots the current `Counting` phase set out to count.
    counting_total: u32,
    response: Option<(MacFrame<P>, PhyRate)>,
    response_txing: bool,
    nav_until: SimTime,
    phys_busy: bool,
    eifs_pending: bool,
    last_tag: HashMap<NodeId, u64>,
    arf: ArfState,
    counters: MacCounters,
    ledger: DeferLedger,
}

impl<P: Clone> DcfMac<P> {
    /// Creates the MAC for station `id`. `rng` should be a per-station
    /// substream of the run seed (backoff draws consume it).
    pub fn new(id: NodeId, cfg: MacConfig, rng: SimRng) -> DcfMac<P> {
        DcfMac::with_sink(id, cfg, rng, NullSink)
    }
}

impl<P: Clone, S: TraceSink> DcfMac<P, S> {
    /// Like [`DcfMac::new`], but every MAC-layer event is also emitted
    /// into `sink`.
    pub fn with_sink(id: NodeId, cfg: MacConfig, rng: SimRng, sink: S) -> DcfMac<P, S> {
        DcfMac {
            id,
            cw: cfg.timing.cw_min,
            policy: cfg.backoff.instantiate(),
            arf: ArfState::new(cfg.arf, cfg.data_rate),
            cfg,
            rng,
            sink,
            queue: VecDeque::new(),
            current: None,
            contention: Contention::Idle,
            backoff_slots: None,
            counting_since: SimTime::ZERO,
            counting_total: 0,
            response: None,
            response_txing: false,
            nav_until: SimTime::ZERO,
            phys_busy: false,
            eifs_pending: false,
            last_tag: HashMap::new(),
            counters: MacCounters::default(),
            ledger: DeferLedger::default(),
        }
    }

    /// This station's address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The configuration.
    pub fn config(&self) -> &MacConfig {
        &self.cfg
    }

    /// Cumulative counters.
    pub fn counters(&self) -> MacCounters {
        self.counters
    }

    /// The defer ledger accumulated so far (see [`DeferLedger`]); call
    /// [`DcfMac::account_airtime`] first to fold in the span since the
    /// last event.
    pub fn airtime_ledger(&self) -> DeferLedger {
        self.ledger
    }

    /// Charges the span since the last event to the standing category —
    /// the run-end fold that makes the ledger cover the full horizon.
    pub fn account_airtime(&mut self, now: SimTime) {
        self.ledger.charge(now);
    }

    /// Re-derives the ledger category from the post-event state (see
    /// [`DeferCat`] for the precedence). Runs after every public entry
    /// point's body, paired with the `charge` that ran before it.
    fn ledger_reclass(&mut self, now: SimTime) {
        self.ledger.set_cat(if self.phys_busy {
            DeferCat::Off
        } else if self.contention == Contention::WaitIdle && self.backoff_slots.is_some() {
            DeferCat::Frozen
        } else if self.contention == Contention::Defer {
            DeferCat::Difs
        } else if self.contention == Contention::Counting {
            DeferCat::Backoff
        } else if self.nav_until > now {
            DeferCat::Nav(self.nav_until)
        } else {
            DeferCat::Quiet
        });
    }

    /// MSDUs waiting behind the head-of-line frame.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Free interface-queue slots (not counting the head-of-line frame).
    pub fn queue_space(&self) -> usize {
        self.cfg.queue_capacity - self.queue.len()
    }

    /// True if the MAC has nothing to send.
    pub fn is_drained(&self) -> bool {
        self.current.is_none() && self.queue.is_empty()
    }

    /// The current contention-window size, slots (test/diagnostic hook).
    pub fn contention_window(&self) -> u32 {
        self.cw
    }

    /// The data rate the next frame will use (moves only under ARF).
    pub fn current_data_rate(&self) -> PhyRate {
        if self.cfg.arf.enabled {
            self.arf.rate()
        } else {
            self.cfg.data_rate
        }
    }

    /// The rate for RTS/CTS/ACK: the configured control rate, tracking
    /// the ARF ladder when dynamic switching is on.
    pub fn current_control_rate(&self) -> PhyRate {
        if self.cfg.arf.enabled {
            self.arf.rate().control_rate()
        } else {
            self.cfg.control_rate
        }
    }

    /// ARF statistics (all zero when ARF is disabled).
    pub fn arf_counters(&self) -> ArfCounters {
        self.arf.counters()
    }

    // --- tracing -----------------------------------------------------------

    /// Runs an ARF-touching closure and emits a [`TraceRecord::RateSwitch`]
    /// if the data rate moved.
    fn with_rate_watch(&mut self, now: SimTime, f: impl FnOnce(&mut ArfState)) {
        let before = self.arf.rate();
        f(&mut self.arf);
        if S::ENABLED && self.cfg.arf.enabled {
            let after = self.arf.rate();
            if after != before {
                self.sink.record(
                    now,
                    &TraceRecord::RateSwitch {
                        node: self.id.0,
                        from_kbps: rate_kbps(before),
                        to_kbps: rate_kbps(after),
                    },
                );
            }
        }
    }

    // --- airtime helpers -------------------------------------------------

    fn data_air(&self, msdu_bytes: u32) -> SimDuration {
        FrameAirtime::new(
            DATA_HEADER_BYTES + msdu_bytes,
            self.current_data_rate(),
            self.cfg.preamble,
        )
        .total()
    }

    fn control_air(&self, bytes: u32) -> SimDuration {
        FrameAirtime::new(bytes, self.current_control_rate(), self.cfg.preamble).total()
    }

    // --- upper-layer interface --------------------------------------------

    /// Accepts an MSDU for transmission. Returns `false` (and counts a
    /// queue drop) if the interface queue is full.
    pub fn enqueue(&mut self, sdu: MacSdu<P>, now: SimTime, out: &mut Vec<MacAction<P>>) -> bool {
        self.ledger.charge(now);
        let accepted = self.enqueue_inner(sdu, now, out);
        self.ledger_reclass(now);
        accepted
    }

    fn enqueue_inner(&mut self, sdu: MacSdu<P>, now: SimTime, out: &mut Vec<MacAction<P>>) -> bool {
        if self.current.is_none() {
            self.current = Some(Pending { sdu, failures: 0 });
            if self.contention == Contention::Idle {
                self.try_start(now, out);
            }
            true
        } else if self.queue.len() < self.cfg.queue_capacity {
            self.queue.push_back(sdu);
            true
        } else {
            self.counters.queue_drops += 1;
            if S::ENABLED {
                self.sink
                    .record(now, &TraceRecord::QueueDrop { node: self.id.0 });
            }
            false
        }
    }

    // --- carrier sense ----------------------------------------------------

    /// Physical carrier sense went busy.
    pub fn on_channel_busy(&mut self, now: SimTime, out: &mut Vec<MacAction<P>>) {
        self.ledger.charge(now);
        self.on_channel_busy_inner(now, out);
        self.ledger_reclass(now);
    }

    fn on_channel_busy_inner(&mut self, now: SimTime, out: &mut Vec<MacAction<P>>) {
        self.phys_busy = true;
        match self.contention {
            Contention::Defer => {
                out.push(MacAction::CancelTimer {
                    kind: TimerKind::Difs,
                });
                self.contention = Contention::WaitIdle;
            }
            Contention::Counting => {
                // Lazy countdown freeze: slots elapse on the 20 µs grid
                // anchored at `counting_since`; whole elapsed slots are
                // recovered by integer division. A busy edge exactly on a
                // grid tick lands *after* that tick's (virtual) decrement
                // — a per-slot timer armed one slot earlier would have
                // popped before any signal event inserted later — so the
                // truncating division charges the boundary slot, matching
                // the per-slot schedule's decrement-then-freeze order.
                let slot = self.cfg.timing.slot.as_nanos();
                let elapsed = now
                    .saturating_duration_since(self.counting_since)
                    .as_nanos()
                    / slot;
                let remaining = self.counting_total - elapsed as u32;
                debug_assert!(
                    remaining >= 1 && remaining <= self.counting_total,
                    "freeze outside the counting window"
                );
                self.backoff_slots = Some(remaining);
                out.push(MacAction::CancelTimer {
                    kind: TimerKind::BackoffBulk,
                });
                out.push(MacAction::CancelTimer {
                    kind: TimerKind::BackoffSlot,
                });
                self.contention = Contention::WaitIdle;
            }
            _ => {}
        }
    }

    /// Physical carrier sense went idle.
    pub fn on_channel_idle(&mut self, now: SimTime, out: &mut Vec<MacAction<P>>) {
        self.ledger.charge(now);
        self.phys_busy = false;
        self.maybe_resume(now, out);
        self.ledger_reclass(now);
    }

    fn medium_busy(&self, now: SimTime) -> bool {
        self.phys_busy || self.nav_until > now
    }

    fn maybe_resume(&mut self, now: SimTime, out: &mut Vec<MacAction<P>>) {
        if self.phys_busy {
            return;
        }
        if self.nav_until > now {
            // Only a station waiting to resume contention has anything to
            // do when the NAV runs out; every path that later moves into
            // `WaitIdle` under a standing NAV re-arms this wake-up itself
            // (`try_start`, or the next idle edge through here).
            if self.contention == Contention::WaitIdle {
                out.push(MacAction::StartTimer {
                    kind: TimerKind::NavEnd,
                    delay: self.nav_until - now,
                });
            }
            return;
        }
        if self.contention == Contention::WaitIdle {
            self.arm_defer(now, out);
        }
    }

    fn arm_defer(&mut self, now: SimTime, out: &mut Vec<MacAction<P>>) {
        let delay = if self.eifs_pending && self.cfg.eifs_enabled {
            self.counters.eifs_defers += 1;
            if S::ENABLED {
                self.sink
                    .record(now, &TraceRecord::EifsDefer { node: self.id.0 });
            }
            self.cfg.timing.eifs(self.cfg.preamble)
        } else {
            self.cfg.timing.difs
        };
        self.eifs_pending = false;
        self.contention = Contention::Defer;
        out.push(MacAction::StartTimer {
            kind: TimerKind::Difs,
            delay,
        });
    }

    fn try_start(&mut self, now: SimTime, out: &mut Vec<MacAction<P>>) {
        debug_assert_eq!(self.contention, Contention::Idle);
        debug_assert!(self.current.is_some());
        if self.medium_busy(now) {
            self.contention = Contention::WaitIdle;
            if !self.phys_busy && self.nav_until > now {
                out.push(MacAction::StartTimer {
                    kind: TimerKind::NavEnd,
                    delay: self.nav_until - now,
                });
            }
        } else {
            self.arm_defer(now, out);
        }
    }

    // --- timers -------------------------------------------------------------

    /// A previously armed timer fired.
    pub fn on_timer(&mut self, kind: TimerKind, now: SimTime, out: &mut Vec<MacAction<P>>) {
        self.ledger.charge(now);
        self.on_timer_inner(kind, now, out);
        self.ledger_reclass(now);
    }

    fn on_timer_inner(&mut self, kind: TimerKind, now: SimTime, out: &mut Vec<MacAction<P>>) {
        match kind {
            TimerKind::Difs => self.on_difs_expired(now, out),
            TimerKind::BackoffBulk => self.on_bulk_expired(out),
            TimerKind::BackoffSlot => self.on_slot_expired(now, out),
            TimerKind::CtsTimeout => self.on_response_timeout(Contention::WaitCts, now, out),
            TimerKind::AckTimeout => self.on_response_timeout(Contention::WaitAck, now, out),
            TimerKind::SifsResponse => self.on_sifs_response(out),
            TimerKind::SifsData => self.on_sifs_data(out),
            TimerKind::NavEnd => {
                if self.nav_until > now {
                    // The NAV was extended after this timer was armed.
                    // Re-arm only if the wake-up can still matter (idle
                    // medium, contention waiting); any path that later
                    // makes it matter re-arms it itself.
                    if !self.phys_busy && self.contention == Contention::WaitIdle {
                        out.push(MacAction::StartTimer {
                            kind: TimerKind::NavEnd,
                            delay: self.nav_until - now,
                        });
                    }
                } else {
                    self.maybe_resume(now, out);
                }
            }
        }
    }

    fn on_difs_expired(&mut self, now: SimTime, out: &mut Vec<MacAction<P>>) {
        debug_assert_eq!(self.contention, Contention::Defer);
        match self.backoff_slots {
            None | Some(0) => {
                self.backoff_slots = None;
                self.transmit_current(out);
            }
            Some(n) => {
                // Lazy countdown: instead of one timer per 20 µs slot,
                // count the first n−1 slots with a single coalesced
                // trailing timer and keep only the final, transmission-
                // triggering slot as an ordinary timer (armed by the bulk
                // expiry one slot ahead, so its queue position matches
                // the position a per-slot chain's last re-arm would get).
                self.contention = Contention::Counting;
                self.counting_since = now;
                self.counting_total = n;
                if n == 1 {
                    out.push(MacAction::StartTimer {
                        kind: TimerKind::BackoffSlot,
                        delay: self.cfg.timing.slot,
                    });
                } else {
                    out.push(MacAction::StartTimer {
                        kind: TimerKind::BackoffBulk,
                        delay: self.cfg.timing.slot * (n - 1) as u64,
                    });
                }
            }
        }
    }

    fn on_bulk_expired(&mut self, out: &mut Vec<MacAction<P>>) {
        debug_assert_eq!(self.contention, Contention::Counting);
        out.push(MacAction::StartTimer {
            kind: TimerKind::BackoffSlot,
            delay: self.cfg.timing.slot,
        });
    }

    fn on_slot_expired(&mut self, _now: SimTime, out: &mut Vec<MacAction<P>>) {
        debug_assert_eq!(self.contention, Contention::Counting);
        debug_assert!(self.backoff_slots.is_some(), "counting without slots");
        self.backoff_slots = None;
        self.transmit_current(out);
    }

    fn on_response_timeout(
        &mut self,
        expected: Contention,
        now: SimTime,
        out: &mut Vec<MacAction<P>>,
    ) {
        debug_assert_eq!(self.contention, expected);
        self.counters.retries += 1;
        // ARF observes every failed attempt — including RTS/collision
        // failures, which is the scheme's documented weakness (collisions
        // drag the rate down although slowing down cannot help them).
        self.with_rate_watch(now, |arf| arf.on_failure());
        let cur = self.current.as_mut().expect("timeout without a frame");
        cur.failures += 1;
        let failures = cur.failures;
        if S::ENABLED {
            self.sink.record(
                now,
                &TraceRecord::FrameRetry {
                    node: self.id.0,
                    retry: failures,
                },
            );
        }
        let limit = if self.cfg.rts_enabled && expected == Contention::WaitAck {
            self.cfg.long_retry_limit
        } else {
            self.cfg.short_retry_limit
        };
        if failures >= limit {
            self.complete_current(false, now, out);
        } else {
            self.cw = self.policy.on_failure(self.cw, &self.cfg.timing);
            let slots = self.rng.gen_range_u32(0, self.cw);
            self.backoff_slots = Some(slots);
            if S::ENABLED {
                self.sink.record(
                    now,
                    &TraceRecord::BackoffChosen {
                        node: self.id.0,
                        slots,
                        cw: self.cw,
                    },
                );
            }
            self.contention = Contention::Idle;
            self.try_start(now, out);
        }
    }

    fn on_sifs_response(&mut self, out: &mut Vec<MacAction<P>>) {
        let (frame, rate) = self.response.take().expect("SIFS response without frame");
        match frame.kind {
            FrameKind::Cts => self.counters.cts_tx += 1,
            FrameKind::Ack => self.counters.ack_tx += 1,
            _ => debug_assert!(false, "unexpected response kind {:?}", frame.kind),
        }
        self.response_txing = true;
        out.push(MacAction::Transmit { frame, rate });
    }

    fn on_sifs_data(&mut self, out: &mut Vec<MacAction<P>>) {
        debug_assert_eq!(self.contention, Contention::SifsData);
        self.send_data(out);
    }

    // --- transmissions -----------------------------------------------------

    fn transmit_current(&mut self, out: &mut Vec<MacAction<P>>) {
        let cur = self.current.as_ref().expect("transmit without a frame");
        let broadcast = cur.sdu.dst == crate::frame::BROADCAST;
        if self.cfg.rts_enabled && !broadcast {
            let t = &self.cfg.timing;
            let duration = t.sifs * 3
                + self.control_air(CTS_BYTES)
                + self.data_air(cur.sdu.bytes)
                + self.control_air(ACK_BYTES);
            let frame = MacFrame {
                kind: FrameKind::Rts,
                src: self.id,
                dst: cur.sdu.dst,
                duration,
                mpdu_bytes: RTS_BYTES,
                tag: cur.sdu.tag,
                payload: None,
            };
            self.counters.rts_tx += 1;
            self.contention = Contention::TxRts;
            let rate = self.current_control_rate();
            out.push(MacAction::Transmit { frame, rate });
        } else {
            self.send_data(out);
        }
    }

    fn send_data(&mut self, out: &mut Vec<MacAction<P>>) {
        let cur = self.current.as_ref().expect("send_data without a frame");
        let broadcast = cur.sdu.dst == crate::frame::BROADCAST;
        let duration = if broadcast {
            SimDuration::ZERO
        } else {
            self.cfg.timing.sifs + self.control_air(ACK_BYTES)
        };
        let frame = MacFrame {
            kind: FrameKind::Data,
            src: self.id,
            dst: cur.sdu.dst,
            duration,
            mpdu_bytes: DATA_HEADER_BYTES + cur.sdu.bytes,
            tag: cur.sdu.tag,
            payload: Some(cur.sdu.payload.clone()),
        };
        self.counters.data_tx += 1;
        self.contention = Contention::TxData;
        let rate = self.current_data_rate();
        out.push(MacAction::Transmit { frame, rate });
    }

    /// Our PHY finished putting the current frame on the air.
    pub fn on_tx_end(&mut self, now: SimTime, out: &mut Vec<MacAction<P>>) {
        self.ledger.charge(now);
        self.on_tx_end_inner(now, out);
        self.ledger_reclass(now);
    }

    fn on_tx_end_inner(&mut self, now: SimTime, out: &mut Vec<MacAction<P>>) {
        if self.response_txing {
            self.response_txing = false;
            return;
        }
        match self.contention {
            Contention::TxRts => {
                self.contention = Contention::WaitCts;
                out.push(MacAction::StartTimer {
                    kind: TimerKind::CtsTimeout,
                    delay: self
                        .cfg
                        .timing
                        .response_timeout(self.control_air(CTS_BYTES)),
                });
            }
            Contention::TxData => {
                let broadcast = self
                    .current
                    .as_ref()
                    .map(|c| c.sdu.dst == crate::frame::BROADCAST)
                    .unwrap_or(false);
                if broadcast {
                    self.complete_current(true, now, out);
                } else {
                    self.contention = Contention::WaitAck;
                    out.push(MacAction::StartTimer {
                        kind: TimerKind::AckTimeout,
                        delay: self
                            .cfg
                            .timing
                            .response_timeout(self.control_air(ACK_BYTES)),
                    });
                }
            }
            other => debug_assert!(false, "tx_end in state {other:?}"),
        }
    }

    fn complete_current(&mut self, success: bool, now: SimTime, out: &mut Vec<MacAction<P>>) {
        let cur = self.current.take().expect("complete without a frame");
        if success {
            self.counters.tx_success += 1;
        } else {
            self.counters.tx_dropped += 1;
        }
        out.push(MacAction::TxStatus {
            tag: cur.sdu.tag,
            dst: cur.sdu.dst,
            success,
        });
        // Post-transmission backoff: the CW is re-set by the policy (BEB
        // resets to CWmin) and a fresh backoff is drawn whether the frame
        // succeeded or was dropped. This is what charges the paper's
        // Eq. (1) its CWmin/2 slots per packet even with a single
        // saturated sender.
        self.cw = self.policy.on_complete(self.cw, success, &self.cfg.timing);
        let slots = self.rng.gen_range_u32(0, self.cw);
        self.backoff_slots = Some(slots);
        if S::ENABLED {
            self.sink.record(
                now,
                &TraceRecord::BackoffChosen {
                    node: self.id.0,
                    slots,
                    cw: self.cw,
                },
            );
        }
        self.contention = Contention::Idle;
        self.current = self
            .queue
            .pop_front()
            .map(|sdu| Pending { sdu, failures: 0 });
        if self.current.is_some() {
            self.try_start(now, out);
        }
    }

    // --- receptions ---------------------------------------------------------

    /// A frame was decoded by our PHY (whoever it was addressed to).
    pub fn on_rx_frame(&mut self, frame: MacFrame<P>, now: SimTime, out: &mut Vec<MacAction<P>>) {
        self.ledger.charge(now);
        self.on_rx_frame_inner(frame, now, out);
        self.ledger_reclass(now);
    }

    fn on_rx_frame_inner(&mut self, frame: MacFrame<P>, now: SimTime, out: &mut Vec<MacAction<P>>) {
        // A correctly received frame clears any pending EIFS penalty.
        self.eifs_pending = false;
        if !frame.addressed_to(self.id) && !frame.is_broadcast() {
            // Third-party frame: virtual carrier sense.
            let until = now + frame.duration;
            if until > self.nav_until {
                self.nav_until = until;
                self.counters.nav_updates += 1;
                if S::ENABLED {
                    self.sink.record(
                        now,
                        &TraceRecord::NavUpdate {
                            node: self.id.0,
                            until_ns: until.as_nanos(),
                        },
                    );
                }
                if self.phys_busy {
                    // Decoding implies the carrier was just busy: the
                    // NavEnd wake-up is (re-)armed at the idle edge via
                    // `maybe_resume` with the fresh expiry. Arming one
                    // here would be immediate churn — drop any armed
                    // (now short) timer instead of replacing it.
                    out.push(MacAction::CancelTimer {
                        kind: TimerKind::NavEnd,
                    });
                } else {
                    out.push(MacAction::StartTimer {
                        kind: TimerKind::NavEnd,
                        delay: frame.duration,
                    });
                }
            }
            return;
        }
        match frame.kind {
            FrameKind::Data => {
                if !frame.is_broadcast() {
                    let t = &self.cfg.timing;
                    debug_assert!(self.response.is_none(), "overlapping SIFS responses");
                    let ack = MacFrame {
                        kind: FrameKind::Ack,
                        src: self.id,
                        dst: frame.src,
                        duration: SimDuration::ZERO,
                        mpdu_bytes: ACK_BYTES,
                        tag: 0,
                        payload: None,
                    };
                    let rate = self.current_control_rate();
                    self.response = Some((ack, rate));
                    out.push(MacAction::StartTimer {
                        kind: TimerKind::SifsResponse,
                        delay: t.sifs,
                    });
                }
                if self.last_tag.get(&frame.src) == Some(&frame.tag) {
                    self.counters.duplicates += 1;
                } else {
                    self.last_tag.insert(frame.src, frame.tag);
                    self.counters.delivered += 1;
                    if let Some(payload) = frame.payload {
                        out.push(MacAction::Deliver {
                            src: frame.src,
                            payload,
                        });
                    } else {
                        debug_assert!(false, "data frame without payload");
                    }
                }
            }
            FrameKind::Rts => {
                if frame.is_broadcast() {
                    return;
                }
                if self.nav_until > now {
                    // Virtual carrier sense says the medium is reserved:
                    // the standard forbids answering the RTS. This is the
                    // mechanism that silences S2 in the paper's four-
                    // station RTS/CTS experiments.
                    self.counters.cts_suppressed += 1;
                    return;
                }
                let cts_air = self.control_air(CTS_BYTES);
                let duration = frame
                    .duration
                    .saturating_sub(self.cfg.timing.sifs)
                    .saturating_sub(cts_air);
                let cts = MacFrame {
                    kind: FrameKind::Cts,
                    src: self.id,
                    dst: frame.src,
                    duration,
                    mpdu_bytes: CTS_BYTES,
                    tag: 0,
                    payload: None,
                };
                debug_assert!(self.response.is_none(), "overlapping SIFS responses");
                let rate = self.current_control_rate();
                self.response = Some((cts, rate));
                out.push(MacAction::StartTimer {
                    kind: TimerKind::SifsResponse,
                    delay: self.cfg.timing.sifs,
                });
            }
            FrameKind::Cts => {
                if self.contention == Contention::WaitCts {
                    out.push(MacAction::CancelTimer {
                        kind: TimerKind::CtsTimeout,
                    });
                    self.contention = Contention::SifsData;
                    out.push(MacAction::StartTimer {
                        kind: TimerKind::SifsData,
                        delay: self.cfg.timing.sifs,
                    });
                }
            }
            FrameKind::Ack => {
                if self.contention == Contention::WaitAck {
                    out.push(MacAction::CancelTimer {
                        kind: TimerKind::AckTimeout,
                    });
                    self.with_rate_watch(now, |arf| arf.on_success());
                    self.complete_current(true, now, out);
                }
            }
        }
    }

    /// Our PHY sensed a frame it could not decode (header or FCS error).
    ///
    /// The standard responds with EIFS instead of DIFS for the next
    /// deferral — ablation D3 turns this off via
    /// [`MacConfig::eifs_enabled`].
    pub fn on_rx_error(&mut self, now: SimTime, _out: &mut Vec<MacAction<P>>) {
        self.ledger.charge(now);
        self.eifs_pending = true;
        self.ledger_reclass(now);
    }
}

/// PHY rate in kb/s, the unit trace records use.
fn rate_kbps(rate: PhyRate) -> u32 {
    (rate.bits_per_sec() / 1000.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimRng;

    const T0: SimTime = SimTime::ZERO;

    fn mac(rts: bool) -> DcfMac<u32> {
        let cfg = MacConfig::new(PhyRate::R11);
        let cfg = if rts { cfg.with_rts() } else { cfg };
        DcfMac::new(NodeId(0), cfg, SimRng::from_seed(3))
    }

    fn sdu(tag: u64) -> MacSdu<u32> {
        MacSdu {
            dst: NodeId(1),
            bytes: 512,
            tag,
            payload: tag as u32,
        }
    }

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn timer_delay(out: &[MacAction<u32>], kind: TimerKind) -> Option<SimDuration> {
        out.iter().find_map(|a| match a {
            MacAction::StartTimer { kind: k, delay } if *k == kind => Some(*delay),
            _ => None,
        })
    }

    fn transmitted(out: &[MacAction<u32>]) -> Option<&MacFrame<u32>> {
        out.iter().find_map(|a| match a {
            MacAction::Transmit { frame, .. } => Some(frame),
            _ => None,
        })
    }

    #[test]
    fn first_frame_on_idle_medium_goes_after_difs_only() {
        let mut m = mac(false);
        let mut out = Vec::new();
        m.enqueue(sdu(1), T0, &mut out);
        assert_eq!(
            timer_delay(&out, TimerKind::Difs),
            Some(SimDuration::from_micros(50))
        );
        out.clear();
        m.on_timer(TimerKind::Difs, at(50), &mut out);
        let f = transmitted(&out).expect("data frame");
        assert_eq!(f.kind, FrameKind::Data);
        assert_eq!(f.mpdu_bytes, 512 + 34);
        assert_eq!(f.dst, NodeId(1));
        // Unicast data reserves SIFS + ACK time.
        assert_eq!(f.duration.as_micros(), 10 + 248);
    }

    #[test]
    fn ack_completes_and_next_frame_backs_off() {
        let mut m = mac(false);
        let mut out = Vec::new();
        m.enqueue(sdu(1), T0, &mut out);
        m.enqueue(sdu(2), T0, &mut out);
        out.clear();
        m.on_timer(TimerKind::Difs, at(50), &mut out);
        out.clear();
        m.on_tx_end(at(700), &mut out);
        assert!(timer_delay(&out, TimerKind::AckTimeout).is_some());
        out.clear();
        let ack: MacFrame<u32> = MacFrame {
            kind: FrameKind::Ack,
            src: NodeId(1),
            dst: NodeId(0),
            duration: SimDuration::ZERO,
            mpdu_bytes: ACK_BYTES,
            tag: 0,
            payload: None,
        };
        m.on_rx_frame(ack, at(960), &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            MacAction::TxStatus {
                tag: 1,
                success: true,
                ..
            }
        )));
        assert_eq!(m.counters().tx_success, 1);
        // Frame 2 starts its own deferral; after DIFS it must count
        // post-backoff slots rather than firing immediately.
        assert!(timer_delay(&out, TimerKind::Difs).is_some());
        out.clear();
        m.on_timer(TimerKind::Difs, at(1010), &mut out);
        // Either an immediate transmit (drew 0) or slot counting; with
        // seed 3 the draw is nonzero, so expect a countdown timer (the
        // single bulk timer for n > 1 draws, the final slot for n == 1).
        assert!(
            timer_delay(&out, TimerKind::BackoffBulk).is_some()
                || timer_delay(&out, TimerKind::BackoffSlot).is_some(),
            "post-backoff expected, got {out:?}"
        );
    }

    /// Drives a mac that just entered `Counting` through the coalesced
    /// countdown (optional bulk timer, then the final slot timer) until it
    /// transmits. `out` must hold the actions of the event that entered
    /// counting; `t` is that event's time. Returns the transmit time.
    fn pump_countdown(m: &mut DcfMac<u32>, out: &mut Vec<MacAction<u32>>, mut t: u64) -> u64 {
        if transmitted(out).is_some() {
            return t; // drew zero slots
        }
        if let Some(d) = timer_delay(out, TimerKind::BackoffBulk) {
            assert_eq!(d.as_micros() % 20, 0, "bulk covers whole slots");
            t += d.as_micros();
            out.clear();
            m.on_timer(TimerKind::BackoffBulk, at(t), out);
        }
        let d = timer_delay(out, TimerKind::BackoffSlot).expect("final slot timer");
        assert_eq!(d.as_micros(), 20, "final timer is exactly one slot");
        t += 20;
        out.clear();
        m.on_timer(TimerKind::BackoffSlot, at(t), out);
        assert!(transmitted(out).is_some(), "countdown ends in a transmit");
        t
    }

    #[test]
    fn slots_count_down_to_transmission() {
        let mut m = mac(false);
        let mut out = Vec::new();
        m.enqueue(sdu(1), T0, &mut out);
        m.enqueue(sdu(2), T0, &mut out);
        out.clear();
        m.on_timer(TimerKind::Difs, at(50), &mut out);
        out.clear();
        m.on_tx_end(at(700), &mut out);
        let ack: MacFrame<u32> = MacFrame {
            kind: FrameKind::Ack,
            src: NodeId(1),
            dst: NodeId(0),
            duration: SimDuration::ZERO,
            mpdu_bytes: ACK_BYTES,
            tag: 0,
            payload: None,
        };
        out.clear();
        m.on_rx_frame(ack, at(960), &mut out);
        out.clear();
        m.on_timer(TimerKind::Difs, at(1010), &mut out);
        // The drawn count is visible in the armed timer: n − 1 slots of
        // bulk countdown (absent for n == 1) plus the final slot.
        let n = match timer_delay(&out, TimerKind::BackoffBulk) {
            Some(d) => d.as_micros() / 20 + 1,
            None => 1,
        };
        assert!(n < 32, "backoff should finish within CWmin slots");
        let t = pump_countdown(&mut m, &mut out, 1010);
        assert_eq!(t, 1010 + 20 * n, "transmit lands on the drawn slot grid");
        assert_eq!(transmitted(&out).expect("frame").tag, 2);
    }

    #[test]
    fn busy_medium_freezes_backoff_and_resumes() {
        let mut m = mac(false);
        let mut out = Vec::new();
        m.enqueue(sdu(1), T0, &mut out);
        out.clear();
        // Channel goes busy during DIFS: defer cancelled.
        m.on_channel_busy(at(20), &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            MacAction::CancelTimer {
                kind: TimerKind::Difs
            }
        )));
        out.clear();
        // Idle again: fresh DIFS.
        m.on_channel_idle(at(500), &mut out);
        assert_eq!(
            timer_delay(&out, TimerKind::Difs),
            Some(SimDuration::from_micros(50))
        );
        out.clear();
        m.on_timer(TimerKind::Difs, at(550), &mut out);
        assert!(
            transmitted(&out).is_some(),
            "no backoff pending: immediate access"
        );
    }

    /// Reads the drawn slot count out of the countdown timer armed by the
    /// event whose actions are in `out` (bulk covers n − 1 slots; a lone
    /// final slot timer means n == 1).
    fn drawn_slots(out: &[MacAction<u32>]) -> u64 {
        match timer_delay(out, TimerKind::BackoffBulk) {
            Some(d) => d.as_micros() / 20 + 1,
            None => {
                assert!(
                    timer_delay(out, TimerKind::BackoffSlot).is_some(),
                    "not counting: {out:?}"
                );
                1
            }
        }
    }

    /// Builds a mac that has just entered `Counting` at t = 1010 µs with a
    /// multi-slot draw (frame 1 sent and ACKed, frame 2 contending).
    fn counting_mac() -> (DcfMac<u32>, Vec<MacAction<u32>>, u64) {
        let mut m = mac(false);
        let mut out = Vec::new();
        m.enqueue(sdu(1), T0, &mut out);
        m.enqueue(sdu(2), T0, &mut out);
        out.clear();
        m.on_timer(TimerKind::Difs, at(50), &mut out);
        out.clear();
        m.on_tx_end(at(700), &mut out);
        let ack: MacFrame<u32> = MacFrame {
            kind: FrameKind::Ack,
            src: NodeId(1),
            dst: NodeId(0),
            duration: SimDuration::ZERO,
            mpdu_bytes: ACK_BYTES,
            tag: 0,
            payload: None,
        };
        out.clear();
        m.on_rx_frame(ack, at(960), &mut out);
        out.clear();
        m.on_timer(TimerKind::Difs, at(1010), &mut out);
        let n = drawn_slots(&out);
        assert!(
            n >= 2,
            "seed 3 must draw a multi-slot backoff here, got {n}"
        );
        (m, out, n)
    }

    #[test]
    fn mid_slot_busy_charges_elapsed_whole_slots() {
        let (mut m, mut out, n) = counting_mac();
        // Busy 30 µs into the countdown: exactly one whole slot elapsed;
        // the fraction of the second slot is not charged.
        out.clear();
        m.on_channel_busy(at(1040), &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            MacAction::CancelTimer {
                kind: TimerKind::BackoffBulk
            }
        )));
        out.clear();
        m.on_channel_idle(at(5000), &mut out);
        out.clear();
        m.on_timer(TimerKind::Difs, at(5050), &mut out);
        assert_eq!(drawn_slots(&out), n - 1, "one elapsed slot charged");
        let t = pump_countdown(&mut m, &mut out, 5050);
        assert_eq!(t, 5050 + 20 * (n - 1));
        assert_eq!(transmitted(&out).expect("frame").tag, 2);
    }

    #[test]
    fn sub_slot_busy_charges_nothing() {
        let (mut m, mut out, n) = counting_mac();
        // Busy 10 µs in: no whole slot has elapsed, the full draw remains.
        out.clear();
        m.on_channel_busy(at(1020), &mut out);
        out.clear();
        m.on_channel_idle(at(5000), &mut out);
        out.clear();
        m.on_timer(TimerKind::Difs, at(5050), &mut out);
        assert_eq!(drawn_slots(&out), n, "no slot charged before one elapses");
    }

    #[test]
    fn busy_on_the_slot_grid_charges_the_boundary_slot() {
        let (mut m, mut out, n) = counting_mac();
        // In the eager schedule a slot timer armed one slot earlier pops
        // before any same-instant busy edge (lower insertion seq), so a
        // freeze landing exactly on the grid sees the boundary slot already
        // counted. Truncating division agrees: 20 / 20 = 1.
        out.clear();
        m.on_channel_busy(at(1030), &mut out);
        out.clear();
        m.on_channel_idle(at(5000), &mut out);
        out.clear();
        m.on_timer(TimerKind::Difs, at(5050), &mut out);
        assert_eq!(drawn_slots(&out), n - 1, "boundary slot charged");
    }

    #[test]
    fn ack_timeout_retries_with_doubled_cw_then_drops() {
        let mut m = mac(false);
        let mut out = Vec::new();
        m.enqueue(sdu(1), T0, &mut out);
        let mut now = 50;
        let mut attempts = 0;
        loop {
            out.clear();
            m.on_timer(TimerKind::Difs, at(now), &mut out);
            // Count down any backoff via the coalesced timers.
            now = pump_countdown(&mut m, &mut out, now);
            attempts += 1;
            now += 700;
            out.clear();
            m.on_tx_end(at(now), &mut out);
            now += 300;
            out.clear();
            m.on_timer(TimerKind::AckTimeout, at(now), &mut out);
            if out
                .iter()
                .any(|a| matches!(a, MacAction::TxStatus { success: false, .. }))
            {
                break;
            }
            // CW doubles, capped at 1024.
            let expected = (32u32 << attempts).min(1024);
            assert_eq!(m.contention_window(), expected, "after {attempts} failures");
            now += 50;
        }
        assert_eq!(attempts, 7, "short retry limit");
        assert_eq!(m.counters().tx_dropped, 1);
        assert_eq!(m.counters().data_tx, 7);
        // CW resets after the drop.
        assert_eq!(m.contention_window(), 32);
    }

    #[test]
    fn rts_cts_exchange_precedes_data() {
        let mut m = mac(true);
        let mut out = Vec::new();
        m.enqueue(sdu(1), T0, &mut out);
        out.clear();
        m.on_timer(TimerKind::Difs, at(50), &mut out);
        let rts = transmitted(&out).expect("rts").clone();
        assert_eq!(rts.kind, FrameKind::Rts);
        assert_eq!(rts.mpdu_bytes, RTS_BYTES);
        // RTS duration covers CTS + DATA + ACK + 3 SIFS.
        let expected = 3 * 10 + 248 + (192_000 + 546 * 8 * 1000 / 11) / 1000 + 248;
        assert!((rts.duration.as_micros() as i64 - expected as i64).abs() <= 1);
        out.clear();
        m.on_tx_end(at(330), &mut out);
        assert!(timer_delay(&out, TimerKind::CtsTimeout).is_some());
        out.clear();
        let cts: MacFrame<u32> = MacFrame {
            kind: FrameKind::Cts,
            src: NodeId(1),
            dst: NodeId(0),
            duration: SimDuration::from_micros(800),
            mpdu_bytes: CTS_BYTES,
            tag: 0,
            payload: None,
        };
        m.on_rx_frame(cts, at(590), &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            MacAction::CancelTimer {
                kind: TimerKind::CtsTimeout
            }
        )));
        assert_eq!(
            timer_delay(&out, TimerKind::SifsData),
            Some(SimDuration::from_micros(10))
        );
        out.clear();
        m.on_timer(TimerKind::SifsData, at(600), &mut out);
        assert_eq!(transmitted(&out).expect("data").kind, FrameKind::Data);
    }

    #[test]
    fn receiver_acks_and_delivers_then_filters_duplicate() {
        let mut m = mac(false);
        let mut out = Vec::new();
        let data: MacFrame<u32> = MacFrame {
            kind: FrameKind::Data,
            src: NodeId(2),
            dst: NodeId(0),
            duration: SimDuration::from_micros(258),
            mpdu_bytes: 546,
            tag: 77,
            payload: Some(123),
        };
        m.on_rx_frame(data.clone(), at(1000), &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            MacAction::Deliver {
                src: NodeId(2),
                payload: 123
            }
        )));
        assert_eq!(
            timer_delay(&out, TimerKind::SifsResponse),
            Some(SimDuration::from_micros(10))
        );
        out.clear();
        m.on_timer(TimerKind::SifsResponse, at(1010), &mut out);
        let ack = transmitted(&out).expect("ack");
        assert_eq!(ack.kind, FrameKind::Ack);
        assert_eq!(ack.dst, NodeId(2));
        out.clear();
        m.on_tx_end(at(1260), &mut out);
        assert!(out.is_empty(), "response tx end needs no follow-up");
        // The retransmission of the same tag is ACKed but not re-delivered.
        out.clear();
        m.on_rx_frame(data, at(2000), &mut out);
        assert!(!out.iter().any(|a| matches!(a, MacAction::Deliver { .. })));
        assert!(timer_delay(&out, TimerKind::SifsResponse).is_some());
        assert_eq!(m.counters().duplicates, 1);
        assert_eq!(m.counters().delivered, 1);
    }

    #[test]
    fn overheard_frames_set_nav_and_block_cts() {
        let mut m = mac(false);
        let mut out = Vec::new();
        // Overhear an RTS between two other stations.
        let rts: MacFrame<u32> = MacFrame {
            kind: FrameKind::Rts,
            src: NodeId(2),
            dst: NodeId(3),
            duration: SimDuration::from_micros(1500),
            mpdu_bytes: RTS_BYTES,
            tag: 0,
            payload: None,
        };
        m.on_rx_frame(rts, at(1000), &mut out);
        assert_eq!(m.counters().nav_updates, 1);
        assert_eq!(
            timer_delay(&out, TimerKind::NavEnd),
            Some(SimDuration::from_micros(1500))
        );
        // Now an RTS addressed to us arrives while NAV is set: no CTS.
        out.clear();
        let rts_to_me: MacFrame<u32> = MacFrame {
            kind: FrameKind::Rts,
            src: NodeId(4),
            dst: NodeId(0),
            duration: SimDuration::from_micros(900),
            mpdu_bytes: RTS_BYTES,
            tag: 0,
            payload: None,
        };
        m.on_rx_frame(rts_to_me.clone(), at(1200), &mut out);
        assert!(
            out.is_empty(),
            "CTS must be suppressed under NAV, got {out:?}"
        );
        assert_eq!(m.counters().cts_suppressed, 1);
        // After the NAV expires the same RTS gets its CTS.
        out.clear();
        m.on_rx_frame(rts_to_me, at(3000), &mut out);
        assert!(timer_delay(&out, TimerKind::SifsResponse).is_some());
        out.clear();
        m.on_timer(TimerKind::SifsResponse, at(3010), &mut out);
        let cts = transmitted(&out).expect("cts");
        assert_eq!(cts.kind, FrameKind::Cts);
        // CTS duration = RTS duration − SIFS − CTS airtime.
        assert_eq!(cts.duration.as_micros(), 900 - 10 - 248);
    }

    #[test]
    fn nav_defers_own_transmission() {
        let mut m = mac(false);
        let mut out = Vec::new();
        let cts: MacFrame<u32> = MacFrame {
            kind: FrameKind::Cts,
            src: NodeId(2),
            dst: NodeId(3),
            duration: SimDuration::from_micros(2000),
            mpdu_bytes: CTS_BYTES,
            tag: 0,
            payload: None,
        };
        m.on_rx_frame(cts, at(100), &mut out);
        out.clear();
        // Enqueue under NAV: no DIFS starts; a NavEnd timer is requested.
        m.enqueue(sdu(1), at(200), &mut out);
        assert!(timer_delay(&out, TimerKind::Difs).is_none());
        assert!(timer_delay(&out, TimerKind::NavEnd).is_some());
        out.clear();
        m.on_timer(TimerKind::NavEnd, at(2100), &mut out);
        assert!(
            timer_delay(&out, TimerKind::Difs).is_some(),
            "deferral resumes after NAV"
        );
    }

    #[test]
    fn eifs_follows_reception_error_once() {
        let mut m = mac(false);
        let mut out = Vec::new();
        m.on_rx_error(at(100), &mut out);
        m.enqueue(sdu(1), at(100), &mut out);
        // EIFS = 10 + 50 + 304 = 364 µs replaces DIFS.
        assert_eq!(
            timer_delay(&out, TimerKind::Difs),
            Some(SimDuration::from_micros(364))
        );
        assert_eq!(m.counters().eifs_defers, 1);
        out.clear();
        m.on_timer(TimerKind::Difs, at(464), &mut out);
        assert!(transmitted(&out).is_some());
    }

    #[test]
    fn eifs_can_be_disabled() {
        let cfg = MacConfig {
            eifs_enabled: false,
            ..MacConfig::new(PhyRate::R11)
        };
        let mut m: DcfMac<u32> = DcfMac::new(NodeId(0), cfg, SimRng::from_seed(3));
        let mut out = Vec::new();
        m.on_rx_error(at(100), &mut out);
        m.enqueue(sdu(1), at(100), &mut out);
        assert_eq!(
            timer_delay(&out, TimerKind::Difs),
            Some(SimDuration::from_micros(50))
        );
    }

    #[test]
    fn good_reception_clears_pending_eifs() {
        let mut m = mac(false);
        let mut out = Vec::new();
        m.on_rx_error(at(100), &mut out);
        let ack: MacFrame<u32> = MacFrame {
            kind: FrameKind::Ack,
            src: NodeId(5),
            dst: NodeId(6),
            duration: SimDuration::ZERO,
            mpdu_bytes: ACK_BYTES,
            tag: 0,
            payload: None,
        };
        m.on_rx_frame(ack, at(200), &mut out);
        out.clear();
        m.enqueue(sdu(1), at(300), &mut out);
        assert_eq!(
            timer_delay(&out, TimerKind::Difs),
            Some(SimDuration::from_micros(50))
        );
    }

    #[test]
    fn queue_overflow_drops_and_counts() {
        let cfg = MacConfig {
            queue_capacity: 2,
            ..MacConfig::new(PhyRate::R11)
        };
        let mut m: DcfMac<u32> = DcfMac::new(NodeId(0), cfg, SimRng::from_seed(3));
        let mut out = Vec::new();
        assert!(m.enqueue(sdu(1), T0, &mut out)); // head of line
        assert!(m.enqueue(sdu(2), T0, &mut out));
        assert!(m.enqueue(sdu(3), T0, &mut out));
        assert!(!m.enqueue(sdu(4), T0, &mut out), "queue full");
        assert_eq!(m.counters().queue_drops, 1);
        assert_eq!(m.queue_len(), 2);
        assert_eq!(m.queue_space(), 0);
        assert!(!m.is_drained());
    }

    #[test]
    fn broadcast_data_completes_without_ack() {
        let mut m = mac(false);
        let mut out = Vec::new();
        m.enqueue(
            MacSdu {
                dst: crate::frame::BROADCAST,
                bytes: 100,
                tag: 9,
                payload: 9,
            },
            T0,
            &mut out,
        );
        out.clear();
        m.on_timer(TimerKind::Difs, at(50), &mut out);
        let f = transmitted(&out).expect("frame");
        assert_eq!(f.duration, SimDuration::ZERO);
        out.clear();
        m.on_tx_end(at(400), &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            MacAction::TxStatus {
                tag: 9,
                success: true,
                ..
            }
        )));
    }

    #[test]
    fn rts_is_never_used_for_broadcast() {
        let mut m = mac(true);
        let mut out = Vec::new();
        m.enqueue(
            MacSdu {
                dst: crate::frame::BROADCAST,
                bytes: 100,
                tag: 9,
                payload: 9,
            },
            T0,
            &mut out,
        );
        out.clear();
        m.on_timer(TimerKind::Difs, at(50), &mut out);
        assert_eq!(transmitted(&out).expect("frame").kind, FrameKind::Data);
    }
}
