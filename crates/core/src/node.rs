//! Per-station and per-flow state driven by the [`crate::world::World`]
//! event loop: a station's PHY and MAC, and each flow's endpoints.

use desim::EventHandle;
use dot11_mac::DcfMac;
use dot11_net::{CbrSource, FlowId, Packet, SaturatedSource, TcpConfig, TcpReceiver, TcpSender};
use dot11_phy::PhyState;
use dot11_trace::TraceSink;

use crate::scenario::{FlowSpec, Traffic};
use crate::stats::FlowReport;

/// Receiver-side accounting for a UDP flow.
#[derive(Debug, Clone, Copy, Default)]
pub struct UdpSink {
    /// Datagrams delivered.
    pub datagrams: u64,
    /// Application payload bytes delivered.
    pub payload_bytes: u64,
    /// Highest datagram sequence number seen (for reordering diagnostics).
    pub max_seq: u64,
    /// Sum of end-to-end delays (source emission → delivery), ns.
    pub delay_sum_ns: u64,
    /// Largest end-to-end delay observed, ns.
    pub delay_max_ns: u64,
}

impl UdpSink {
    /// Mean end-to-end datagram delay, milliseconds.
    pub fn mean_delay_ms(&self) -> f64 {
        if self.datagrams == 0 {
            0.0
        } else {
            self.delay_sum_ns as f64 / self.datagrams as f64 / 1e6
        }
    }
}

/// One station's radio and MAC. Its address is its index in the world's
/// station table; transport endpoints live in the flow table.
#[derive(Debug)]
pub(crate) struct Node<S: TraceSink> {
    pub(crate) phy: PhyState<S>,
    pub(crate) mac: DcfMac<Packet, S>,
    /// Last carrier-sense state reported to the MAC (edge detection).
    pub(crate) cs_reported: bool,
    /// Saturated flows this station sources, walked by the refill path
    /// after every MAC transmit status. Install order at first; each
    /// refill rotates it by one.
    pub(crate) saturated_flows: Vec<FlowId>,
}

impl<S: TraceSink> Node<S> {
    pub(crate) fn new(phy: PhyState<S>, mac: DcfMac<Packet, S>) -> Node<S> {
        Node {
            phy,
            mac,
            cs_reported: false,
            saturated_flows: Vec::new(),
        }
    }
}

/// A flow's two transport endpoints.
#[derive(Debug)]
pub(crate) enum Endpoints<S: TraceSink> {
    /// Saturated UDP source and its sink.
    Saturated {
        source: SaturatedSource,
        sink: UdpSink,
    },
    /// Paced CBR source and its sink.
    Cbr { source: CbrSource, sink: UdpSink },
    /// Bulk TCP sender and receiver.
    Tcp {
        sender: Box<TcpSender<S>>,
        receiver: TcpReceiver,
        mss: u32,
    },
}

/// One row of the world's flow table, indexed by [`FlowId`].
#[derive(Debug)]
pub(crate) struct Flow<S: TraceSink> {
    pub(crate) spec: FlowSpec,
    pub(crate) endpoints: Endpoints<S>,
    /// Pending TCP retransmission timer (sender side).
    pub(crate) rto: Option<EventHandle>,
    /// Pending TCP delayed-ACK timer (receiver side).
    pub(crate) delack: Option<EventHandle>,
    /// Delivered bytes when the warm-up ended.
    pub(crate) snapshot: u64,
}

impl<S: TraceSink> Flow<S> {
    /// Builds the endpoints `spec.traffic` asks for; a TCP sender traces
    /// into a clone of `sink`.
    pub(crate) fn new(spec: FlowSpec, sink: &S) -> Flow<S>
    where
        S: Clone,
    {
        let FlowSpec { id, src, dst, .. } = spec;
        let endpoints = match spec.traffic {
            Traffic::SaturatedUdp {
                payload_bytes,
                backlog,
            } => Endpoints::Saturated {
                source: SaturatedSource::new(id, src, dst, payload_bytes, backlog),
                sink: UdpSink::default(),
            },
            Traffic::CbrUdp {
                payload_bytes,
                interval,
                limit,
            } => Endpoints::Cbr {
                source: CbrSource::new(id, src, dst, payload_bytes, interval, limit),
                sink: UdpSink::default(),
            },
            Traffic::BulkTcp { mss } => {
                let cfg = TcpConfig::new(mss);
                Endpoints::Tcp {
                    sender: Box::new(TcpSender::with_sink(id, src, dst, cfg, sink.clone())),
                    receiver: TcpReceiver::new(id, dst, src, cfg),
                    mss,
                }
            }
        };
        Flow {
            spec,
            endpoints,
            rto: None,
            delack: None,
            snapshot: 0,
        }
    }

    /// Application payload bytes delivered in order so far.
    pub(crate) fn delivered_bytes(&self) -> u64 {
        match &self.endpoints {
            Endpoints::Saturated { sink, .. } | Endpoints::Cbr { sink, .. } => sink.payload_bytes,
            Endpoints::Tcp { receiver, .. } => receiver.delivered_bytes(),
        }
    }

    /// This flow's results over a measurement window of `window_s` seconds.
    pub(crate) fn report(&self, window_s: f64) -> FlowReport {
        let delivered_bytes = self.delivered_bytes();
        let measured = delivered_bytes.saturating_sub(self.snapshot);
        let (offered, delivered_packets, sink) = match &self.endpoints {
            Endpoints::Saturated { source, sink } => (source.emitted(), sink.datagrams, Some(sink)),
            Endpoints::Cbr { source, sink } => (source.emitted(), sink.datagrams, Some(sink)),
            Endpoints::Tcp { sender, mss, .. } => (
                sender.stats().segments_sent,
                delivered_bytes / *mss as u64,
                None,
            ),
        };
        // End-to-end datagram loss; TCP retransmits, so it reports none.
        let loss = match sink {
            Some(_) if offered > 0 => 1.0 - delivered_packets as f64 / offered as f64,
            _ => 0.0,
        };
        let (mean_delay_ms, max_delay_ms) = sink.map_or((0.0, 0.0), |s| {
            (s.mean_delay_ms(), s.delay_max_ns as f64 / 1e6)
        });
        FlowReport {
            flow: self.spec.id,
            src: self.spec.src,
            dst: self.spec.dst,
            offered_packets: offered,
            delivered_bytes,
            delivered_packets,
            measured_bytes: measured,
            throughput_kbps: measured as f64 * 8.0 / window_s / 1000.0,
            loss_rate: loss.clamp(0.0, 1.0),
            mean_delay_ms,
            max_delay_ms,
        }
    }
}
