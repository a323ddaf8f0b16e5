//! The TCP Reno sending endpoint (bulk transfer: data never runs out).

use desim::SimTime;
use dot11_phy::NodeId;
use dot11_trace::{NullSink, TraceRecord, TraceSink};

use crate::packet::{FlowId, Packet, Segment};
use crate::tcp::rto::RtoEstimator;
use crate::tcp::{TcpConfig, TcpOutput};

/// Cumulative sender-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpSenderStats {
    /// Data segments emitted (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// Triple-dupack fast retransmits.
    pub fast_retransmits: u64,
}

/// A Reno bulk-data sender.
///
/// The application always has data (the paper's asymptotic ftp), so the
/// sender is driven purely by ACKs and timer events:
/// [`TcpSender::start`] opens the flow, [`TcpSender::on_ack`] processes a
/// cumulative acknowledgement, [`TcpSender::on_rto`] handles a timeout.
/// All three append [`TcpOutput`]s for the host to execute.
#[derive(Debug)]
pub struct TcpSender<S: TraceSink = NullSink> {
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    cfg: TcpConfig,
    sink: S,
    snd_una: u64,
    snd_nxt: u64,
    cwnd: f64,
    ssthresh: f64,
    /// Last (cwnd, ssthresh) emitted as a trace record, for deduplication.
    traced_window: (u64, u64),
    dup_acks: u32,
    in_recovery: bool,
    recover: u64,
    rto: RtoEstimator,
    /// Karn timing: (ack number that validates the sample, send time).
    timed: Option<(u64, SimTime)>,
    stats: TcpSenderStats,
}

impl TcpSender {
    /// Creates an established connection ready to send `src → dst`.
    pub fn new(flow: FlowId, src: NodeId, dst: NodeId, cfg: TcpConfig) -> TcpSender {
        TcpSender::with_sink(flow, src, dst, cfg, NullSink)
    }
}

impl<S: TraceSink> TcpSender<S> {
    /// Like [`TcpSender::new`], but transport-layer events are also
    /// emitted into `sink`.
    pub fn with_sink(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        cfg: TcpConfig,
        sink: S,
    ) -> TcpSender<S> {
        TcpSender {
            flow,
            src,
            dst,
            sink,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: cfg.initial_cwnd as f64,
            ssthresh: cfg.initial_ssthresh as f64,
            traced_window: (cfg.initial_cwnd as u64, cfg.initial_ssthresh as u64),
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            rto: RtoEstimator::new(cfg.initial_rto, cfg.min_rto, cfg.max_rto),
            timed: None,
            stats: TcpSenderStats::default(),
            cfg,
        }
    }

    /// Emits a [`TraceRecord::TcpCwndChange`] if the window moved since
    /// the last emission.
    fn trace_window(&mut self, now: SimTime) {
        if S::ENABLED {
            let window = (self.cwnd as u64, self.ssthresh as u64);
            if window != self.traced_window {
                self.traced_window = window;
                self.sink.record(
                    now,
                    &TraceRecord::TcpCwndChange {
                        node: self.src.0,
                        flow: self.flow.0,
                        cwnd: window.0,
                        ssthresh: window.1,
                    },
                );
            }
        }
    }

    /// Sender statistics.
    pub fn stats(&self) -> TcpSenderStats {
        self.stats
    }

    /// Current congestion window, bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current slow-start threshold, bytes.
    pub fn ssthresh(&self) -> u64 {
        self.ssthresh as u64
    }

    /// Bytes in flight.
    pub fn flight_size(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// True while loss recovery is in progress.
    pub fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// Opens the flow: emits the initial window and arms the RTO.
    pub fn start(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        self.pump(now, out);
        out.push(TcpOutput::ArmRto(self.rto.rto()));
    }

    /// Processes a cumulative acknowledgement.
    pub fn on_ack(&mut self, ack: u64, now: SimTime, out: &mut Vec<TcpOutput>) {
        if ack > self.snd_nxt {
            debug_assert!(false, "ack {ack} beyond snd_nxt {}", self.snd_nxt);
            return;
        }
        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            self.snd_una = ack;
            if let Some((expected, sent_at)) = self.timed {
                if ack >= expected {
                    self.rto.on_sample(now - sent_at);
                    self.timed = None;
                }
            }
            let mss = self.cfg.mss as f64;
            if self.in_recovery {
                if ack >= self.recover {
                    // Full recovery: deflate to ssthresh.
                    self.in_recovery = false;
                    self.dup_acks = 0;
                    self.cwnd = self.ssthresh;
                } else {
                    // NewReno partial ACK: the next hole is already lost —
                    // retransmit it and stay in recovery.
                    self.retransmit_head(now, out);
                    self.cwnd = (self.cwnd - newly as f64 + mss).max(mss);
                }
            } else {
                self.dup_acks = 0;
                if self.cwnd < self.ssthresh {
                    self.cwnd += (newly as f64).min(mss); // slow start
                } else {
                    self.cwnd += mss * mss / self.cwnd; // congestion avoidance
                }
            }
            self.cwnd = self.cwnd.min(self.cfg.recv_window as f64);
            if self.snd_una == self.snd_nxt {
                out.push(TcpOutput::CancelRto);
            } else {
                out.push(TcpOutput::ArmRto(self.rto.rto()));
            }
            self.trace_window(now);
            self.pump(now, out);
        } else if ack == self.snd_una && self.flight_size() > 0 {
            self.dup_acks += 1;
            let mss = self.cfg.mss as f64;
            if self.in_recovery {
                // Window inflation keeps the pipe full during recovery.
                self.cwnd = (self.cwnd + mss).min(self.cfg.recv_window as f64 + 3.0 * mss);
                self.pump(now, out);
            } else if self.dup_acks == self.cfg.dupack_threshold {
                self.stats.fast_retransmits += 1;
                self.ssthresh = (self.flight_size() as f64 / 2.0).max(2.0 * mss);
                self.cwnd = self.ssthresh + self.cfg.dupack_threshold as f64 * mss;
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.retransmit_head(now, out);
                out.push(TcpOutput::ArmRto(self.rto.rto()));
            }
            self.trace_window(now);
        }
    }

    /// The retransmission timer expired.
    pub fn on_rto(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        if self.flight_size() == 0 {
            return; // stale timer
        }
        self.stats.timeouts += 1;
        if S::ENABLED {
            self.sink.record(
                now,
                &TraceRecord::TcpRto {
                    node: self.src.0,
                    flow: self.flow.0,
                },
            );
        }
        let mss = self.cfg.mss as f64;
        self.ssthresh = (self.flight_size() as f64 / 2.0).max(2.0 * mss);
        self.cwnd = mss;
        self.in_recovery = false;
        self.dup_acks = 0;
        self.rto.on_timeout();
        self.trace_window(now);
        self.retransmit_head(now, out);
        out.push(TcpOutput::ArmRto(self.rto.rto()));
    }

    fn retransmit_head(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        self.stats.retransmits += 1;
        // Karn: a retransmitted range can no longer time the RTT.
        self.timed = None;
        let seg = self.make_segment(self.snd_una, now, true);
        out.push(TcpOutput::Send(seg));
    }

    /// Emits as many new segments as the window allows.
    fn pump(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        let wnd = (self.cwnd as u64).min(self.cfg.recv_window as u64);
        while self.snd_nxt + self.cfg.mss as u64 <= self.snd_una + wnd {
            let seq = self.snd_nxt;
            self.snd_nxt += self.cfg.mss as u64;
            if self.timed.is_none() {
                self.timed = Some((self.snd_nxt, now));
            }
            let seg = self.make_segment(seq, now, false);
            out.push(TcpOutput::Send(seg));
        }
    }

    fn make_segment(&mut self, seq: u64, now: SimTime, retransmit: bool) -> Packet {
        self.stats.segments_sent += 1;
        if S::ENABLED {
            self.sink.record(
                now,
                &TraceRecord::TcpSend {
                    node: self.src.0,
                    flow: self.flow.0,
                    seq,
                    bytes: self.cfg.mss,
                    retransmit,
                },
            );
        }
        Packet {
            flow: self.flow,
            src: self.src,
            dst: self.dst,
            seg: Segment::Tcp { seq, ack: 0 },
            payload_bytes: self.cfg.mss,
            sent_at: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;

    fn sender() -> TcpSender {
        TcpSender::new(FlowId(0), NodeId(0), NodeId(1), TcpConfig::new(512))
    }

    fn sent(out: &[TcpOutput]) -> Vec<u64> {
        out.iter()
            .filter_map(|o| match o {
                TcpOutput::Send(p) => match p.seg {
                    Segment::Tcp { seq, .. } => Some(seq),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn start_emits_initial_window() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start(at(0), &mut out);
        assert_eq!(sent(&out), vec![0, 512], "initial cwnd = 2 MSS");
        assert!(out.iter().any(|o| matches!(o, TcpOutput::ArmRto(_))));
        assert_eq!(s.flight_size(), 1024);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start(at(0), &mut out);
        out.clear();
        s.on_ack(512, at(10), &mut out);
        // cwnd 2→3 MSS: one ACKed segment frees one slot, growth adds one.
        assert_eq!(sent(&out), vec![1024, 1536]);
        out.clear();
        s.on_ack(1024, at(12), &mut out);
        assert_eq!(sent(&out), vec![2048, 2560]);
        assert_eq!(s.cwnd(), 4 * 512);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start(at(0), &mut out);
        // Force CA: set ssthresh below cwnd via a fast retransmit episode…
        // simpler: drive cwnd past initial_ssthresh artificially by acks.
        // initial_ssthresh is 64 KiB, so emulate CA by checking the growth
        // formula directly after many RTTs of slow start is impractical;
        // instead verify the increment arithmetic.
        let before = s.cwnd;
        s.ssthresh = 512.0; // now in CA
        out.clear();
        s.on_ack(512, at(5), &mut out);
        let expect = before + 512.0 * 512.0 / before;
        assert!((s.cwnd - expect).abs() < 1e-9);
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit_and_recovery() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start(at(0), &mut out);
        // Grow the window a little.
        s.on_ack(512, at(5), &mut out);
        s.on_ack(1024, at(6), &mut out);
        let flight_before = s.flight_size();
        out.clear();
        for _ in 0..3 {
            s.on_ack(1024, at(7), &mut out);
        }
        assert_eq!(s.stats().fast_retransmits, 1);
        assert!(s.in_recovery());
        assert_eq!(sent(&out), vec![1024], "head of window retransmitted");
        assert_eq!(s.ssthresh(), (flight_before / 2).max(1024));
        // Recovery exits and deflates on a full ACK.
        out.clear();
        let recover_point = s.recover;
        s.on_ack(recover_point, at(20), &mut out);
        assert!(!s.in_recovery());
        assert_eq!(s.cwnd(), s.ssthresh());
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start(at(0), &mut out);
        for k in 1..=6 {
            s.on_ack(512 * k, at(4 + k), &mut out);
        }
        out.clear();
        for _ in 0..3 {
            s.on_ack(512 * 6, at(11), &mut out);
        }
        assert!(s.in_recovery());
        out.clear();
        // Partial ACK: one segment past the loss, still below recover.
        s.on_ack(512 * 7, at(15), &mut out);
        assert!(s.in_recovery(), "partial ack keeps recovery");
        assert_eq!(sent(&out), vec![512 * 7], "next hole retransmitted");
    }

    #[test]
    fn rto_collapses_window_and_backs_off() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start(at(0), &mut out);
        s.on_ack(512, at(5), &mut out);
        out.clear();
        s.on_rto(at(1200), &mut out);
        assert_eq!(s.cwnd(), 512, "cwnd collapses to 1 MSS");
        assert_eq!(s.stats().timeouts, 1);
        assert_eq!(sent(&out), vec![512], "head retransmitted");
        // The re-armed RTO is backed off (doubled).
        let armed = out.iter().find_map(|o| match o {
            TcpOutput::ArmRto(d) => Some(*d),
            _ => None,
        });
        let d = armed.expect("rto armed");
        assert!(
            d >= SimDuration::from_millis(400),
            "backoff expected, got {d}"
        );
    }

    #[test]
    fn stale_rto_with_nothing_in_flight_is_ignored() {
        // A bulk sender only has an empty flight before `start`; a timer
        // that fires then (cancellation raced the expiry) must be a no-op.
        let mut s = sender();
        let mut out = Vec::new();
        s.on_rto(at(2000), &mut out);
        assert!(out.is_empty());
        assert_eq!(s.stats().timeouts, 0);
    }

    #[test]
    fn window_never_exceeds_recv_window() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start(at(0), &mut out);
        // Ack everything in big strides for a while.
        for k in 1..200u64 {
            let target = (k * 2048).min(s.snd_nxt);
            s.on_ack(target, at(k), &mut out);
        }
        assert!(s.cwnd() <= 32 * 1024);
        assert!(s.flight_size() <= 32 * 1024);
    }

    #[test]
    fn rtt_sample_updates_estimator_only_for_clean_segments() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start(at(0), &mut out);
        s.on_ack(512, at(50), &mut out); // 50 ms sample
                                         // RTO = srtt + 4*rttvar = 50 + 100 = 150 → clamped to 200 ms.
        let armed = out.iter().rev().find_map(|o| match o {
            TcpOutput::ArmRto(d) => Some(*d),
            _ => None,
        });
        assert_eq!(armed, Some(SimDuration::from_millis(200)));
    }
}
