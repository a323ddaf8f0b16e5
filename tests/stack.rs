//! Integration: stack-level behaviours beyond the paper's scenarios —
//! short preamble, bidirectional TCP, mixed traffic on one station.

use desim::SimDuration;
use dot11_testbed::adhoc::analytic::{max_throughput_eq_with, AccessScheme};
use dot11_testbed::adhoc::{ScenarioBuilder, Traffic};
use dot11_testbed::mac::MacConfig;
use dot11_testbed::net::FlowId;
use dot11_testbed::phy::{DayProfile, PhyRate, Preamble};

fn two_node(rate: PhyRate, preamble: Preamble, traffic: Traffic, seed: u64) -> f64 {
    let mut mac = MacConfig::new(rate);
    mac.preamble = preamble;
    ScenarioBuilder::new(rate)
        .line(&[0.0, 5.0])
        .day(DayProfile::still())
        .mac_config(mac)
        .seed(seed)
        .duration(SimDuration::from_secs(5))
        .warmup(SimDuration::from_secs(1))
        .flow(0, 1, traffic)
        .run()
        .flow(FlowId(0))
        .throughput_kbps
        / 1000.0
}

/// The short PLCP preamble buys the throughput the analytic model says
/// it does — in simulation, end to end.
#[test]
fn short_preamble_gain_matches_the_model() {
    let sat = Traffic::SaturatedUdp {
        payload_bytes: 512,
        backlog: 10,
    };
    let long = two_node(PhyRate::R11, Preamble::Long, sat, 5);
    let short = two_node(PhyRate::R11, Preamble::Short, sat, 5);
    let model_gain =
        max_throughput_eq_with(512, PhyRate::R11, AccessScheme::Basic, Preamble::Short)
            / max_throughput_eq_with(512, PhyRate::R11, AccessScheme::Basic, Preamble::Long);
    let sim_gain = short / long;
    assert!(
        (sim_gain - model_gain).abs() < 0.05,
        "sim gain {sim_gain:.3} vs model gain {model_gain:.3}"
    );
    assert!(
        sim_gain > 1.12,
        "short preamble should gain ≥12% at 11 Mb/s, got {sim_gain:.3}"
    );
}

/// Two TCP flows in opposite directions between the same pair: both make
/// progress, roughly fairly — each station is simultaneously TCP sender,
/// TCP receiver, MAC transmitter and MAC responder.
#[test]
fn bidirectional_tcp_shares_the_link() {
    let report = ScenarioBuilder::new(PhyRate::R11)
        .line(&[0.0, 10.0])
        .day(DayProfile::still())
        .seed(8)
        .duration(SimDuration::from_secs(6))
        .warmup(SimDuration::from_secs(1))
        .flow(0, 1, Traffic::BulkTcp { mss: 512 })
        .flow(1, 0, Traffic::BulkTcp { mss: 512 })
        .run();
    let a = report.flow(FlowId(0)).throughput_kbps;
    let b = report.flow(FlowId(1)).throughput_kbps;
    assert!(
        a > 400.0 && b > 400.0,
        "both directions flow: {a:.0} / {b:.0}"
    );
    let ratio = a.max(b) / a.min(b);
    assert!(ratio < 2.0, "directions roughly fair: {a:.0} vs {b:.0}");
    // Combined they approach (but cannot beat) the unidirectional rate.
    let solo = two_node(
        PhyRate::R11,
        Preamble::Long,
        Traffic::BulkTcp { mss: 512 },
        8,
    );
    assert!(
        a + b < solo * 1000.0 * 1.15,
        "no free capacity: {:.0} vs solo {:.0}",
        a + b,
        solo * 1000.0
    );
}

/// A station can source a TCP flow while sinking an unrelated UDP flow.
#[test]
fn mixed_roles_on_one_station() {
    let report = ScenarioBuilder::new(PhyRate::R2)
        .line(&[0.0, 20.0, 40.0])
        .day(DayProfile::still())
        .seed(6)
        .duration(SimDuration::from_secs(5))
        .warmup(SimDuration::from_secs(1))
        // Station 1 sends TCP to 2 while receiving UDP from 0.
        .flow(1, 2, Traffic::BulkTcp { mss: 512 })
        .flow(
            0,
            1,
            Traffic::CbrUdp {
                payload_bytes: 256,
                interval: SimDuration::from_millis(20),
                limit: None,
            },
        )
        .run();
    let tcp = report.flow(FlowId(0));
    let udp = report.flow(FlowId(1));
    assert!(
        tcp.throughput_kbps > 200.0,
        "TCP starved: {:.0}",
        tcp.throughput_kbps
    );
    assert!(
        udp.loss_rate < 0.05,
        "paced UDP should survive: loss {:.2}",
        udp.loss_rate
    );
}

/// Delayed flow starts: a second flow joining mid-run takes its share
/// without wedging the first.
#[test]
fn late_joiner_takes_a_share() {
    let sat = Traffic::SaturatedUdp {
        payload_bytes: 512,
        backlog: 10,
    };
    let report = ScenarioBuilder::new(PhyRate::R11)
        .line(&[0.0, 10.0, 20.0])
        .day(DayProfile::still())
        .seed(2)
        .duration(SimDuration::from_secs(6))
        .warmup(SimDuration::from_secs(1))
        .flow(0, 1, sat)
        .flow_at(2, 1, sat, SimDuration::from_secs(3))
        .run();
    let first = report.flow(FlowId(0));
    let second = report.flow(FlowId(1));
    assert!(second.delivered_packets > 500, "late joiner moved data");
    // The first flow keeps more bytes (it had the channel alone for
    // half the measured window).
    assert!(first.measured_bytes > second.measured_bytes);
}

/// End-to-end delay statistics behave: paced traffic on an idle link
/// sees near-constant millisecond delays; saturating the interface queue
/// inflates them by orders of magnitude (queueing delay).
#[test]
fn saturation_inflates_delay() {
    let paced = ScenarioBuilder::new(PhyRate::R11)
        .line(&[0.0, 10.0])
        .day(DayProfile::still())
        .seed(9)
        .duration(SimDuration::from_secs(4))
        .warmup(SimDuration::from_millis(500))
        .flow(
            0,
            1,
            Traffic::CbrUdp {
                payload_bytes: 512,
                interval: SimDuration::from_millis(10),
                limit: None,
            },
        )
        .run();
    let p = paced.flow(FlowId(0));
    assert!(
        p.mean_delay_ms > 0.0 && p.mean_delay_ms < 5.0,
        "paced delay {:.2} ms",
        p.mean_delay_ms
    );
    assert!(
        p.max_delay_ms < 20.0,
        "paced max delay {:.2} ms",
        p.max_delay_ms
    );

    let saturated = ScenarioBuilder::new(PhyRate::R11)
        .line(&[0.0, 10.0])
        .day(DayProfile::still())
        .seed(9)
        .duration(SimDuration::from_secs(4))
        .warmup(SimDuration::from_millis(500))
        .flow(
            0,
            1,
            Traffic::SaturatedUdp {
                payload_bytes: 512,
                backlog: 10,
            },
        )
        .run();
    let s = saturated.flow(FlowId(0));
    assert!(
        s.mean_delay_ms > p.mean_delay_ms * 3.0,
        "queueing should inflate delay: {:.2} vs {:.2} ms",
        s.mean_delay_ms,
        p.mean_delay_ms
    );
}

/// The flow table keys endpoints by flow, not by station: station 0
/// sources two saturated UDP flows while terminating a TCP flow from
/// station 2, and every flow is refilled, delivered and reported
/// consistently.
#[test]
fn one_station_sources_two_flows_and_sinks_tcp() {
    let backlog = 10;
    let sat = Traffic::SaturatedUdp {
        payload_bytes: 512,
        backlog,
    };
    let mss = 512;
    let report = ScenarioBuilder::new(PhyRate::R11)
        .line(&[0.0, 10.0, 20.0])
        .day(DayProfile::still())
        .seed(4)
        .duration(SimDuration::from_secs(3))
        .warmup(SimDuration::from_millis(500))
        .flow(0, 1, sat)
        .flow(0, 2, sat)
        .flow(2, 0, Traffic::BulkTcp { mss })
        .run();
    for f in &report.flows {
        assert!(f.delivered_packets > 0, "{} delivered nothing", f.flow);
    }
    let udp = &report.flows[..2];
    for f in udp {
        // More than the initial fill: the shared source kept refilling
        // both flows, not just the one installed first.
        assert!(
            f.offered_packets > backlog as u64,
            "{} was never refilled: offered {}",
            f.flow,
            f.offered_packets
        );
        let loss = 1.0 - f.delivered_packets as f64 / f.offered_packets as f64;
        assert_eq!(f.loss_rate, loss, "{} loss", f.flow);
    }
    let (a, b) = (udp[0].delivered_packets, udp[1].delivered_packets);
    assert!(
        a.min(b) * 2 > a.max(b),
        "flows sharing a source should share its queue: {a} vs {b}"
    );
    let tcp = report.flow(FlowId(2));
    assert_eq!(tcp.delivered_packets, tcp.delivered_bytes / mss as u64);
}
