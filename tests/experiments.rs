//! Integration: the paper's experiments hold their qualitative shape.
//!
//! These are the claims EXPERIMENTS.md records; each test pins one of
//! them at quick settings (the `repro` binary runs the full versions).

use desim::SimDuration;
use dot11_testbed::adhoc::analytic::AccessScheme;
use dot11_testbed::adhoc::experiments::four_station::{cell, figure, SessionTransport};
use dot11_testbed::adhoc::experiments::ExpConfig;

fn cfg() -> ExpConfig {
    ExpConfig {
        duration: SimDuration::from_secs(8),
        warmup: SimDuration::from_secs(1),
        ..ExpConfig::quick()
    }
}

/// Figure 7: at 11 Mb/s the two sessions interact strongly and session 2
/// wins, under both access schemes — even though S1 and S3 are far
/// outside each other's transmission range.
#[test]
fn figure7_session2_wins_at_11mbps() {
    let cells = figure(7).run(cfg());
    for scheme in [AccessScheme::Basic, AccessScheme::RtsCts] {
        let udp = cell(&cells, SessionTransport::Udp, scheme);
        assert!(
            udp.imbalance() > 1.4,
            "{scheme}: UDP session 2 should win, got {:.0}/{:.0}",
            udp.session1_kbps,
            udp.session2_kbps
        );
        assert!(
            udp.session1_kbps > 50.0,
            "{scheme}: session 1 should not be silent"
        );
    }
}

/// Figure 7 (TCP): the unfairness persists under TCP but the *relative*
/// difference shrinks versus UDP (the paper: "still exist but are
/// reduced").
#[test]
fn figure7_tcp_reduces_the_difference() {
    let cells = figure(7).run(cfg());
    let udp = cell(&cells, SessionTransport::Udp, AccessScheme::Basic);
    let tcp = cell(&cells, SessionTransport::Tcp, AccessScheme::Basic);
    assert!(
        tcp.imbalance() > 1.2,
        "TCP imbalance should persist: {:.2}",
        tcp.imbalance()
    );
    assert!(
        tcp.imbalance() < udp.imbalance() * 1.15,
        "TCP should not be more unfair than UDP: {:.2} vs {:.2}",
        tcp.imbalance(),
        udp.imbalance()
    );
    assert!(
        tcp.session1_kbps > 100.0,
        "TCP session 1 moves data: {:.0}",
        tcp.session1_kbps
    );
}

/// Figure 9: at 2 Mb/s every station shares a more uniform channel view
/// and the system is visibly more balanced than at 11 Mb/s.
#[test]
fn figure9_balances_at_2mbps() {
    let c = cfg();
    let at11 = figure(7).run(c);
    let at2 = figure(9).run(c);
    for transport in [SessionTransport::Udp, SessionTransport::Tcp] {
        let fast = cell(&at11, transport, AccessScheme::Basic).imbalance();
        let slow = cell(&at2, transport, AccessScheme::Basic).imbalance();
        assert!(
            slow < fast,
            "{transport}: 2 Mb/s should be more balanced: {slow:.2} vs {fast:.2} at 11 Mb/s"
        );
    }
    let udp2 = cell(&at2, SessionTransport::Udp, AccessScheme::Basic);
    assert!(
        udp2.imbalance() < 2.6,
        "2 Mb/s UDP imbalance {:.2}",
        udp2.imbalance()
    );
    assert!(udp2.session1_kbps > 200.0 && udp2.session2_kbps > 200.0);
}

/// Figure 12: the symmetric scenario at 2 Mb/s is near-fair for both
/// transports and both schemes.
#[test]
fn figure12_symmetric_2mbps_is_fair() {
    let cells = figure(12).run(cfg());
    for c in &cells {
        let imb = c.imbalance();
        assert!(
            (0.6..1.7).contains(&imb),
            "{} {} should be near-fair, got {:.2} ({:.0}/{:.0} kb/s)",
            c.transport,
            c.scheme,
            imb,
            c.session1_kbps,
            c.session2_kbps
        );
    }
}

/// Both sessions always lose versus an uncontended link: the sessions
/// share capacity even when out of transmission range (the paper's
/// "interdependencies extend beyond the transmission range").
#[test]
fn sessions_share_capacity_beyond_tx_range() {
    use dot11_testbed::adhoc::{ScenarioBuilder, Traffic};
    use dot11_testbed::net::FlowId;
    use dot11_testbed::phy::PhyRate;

    let c = cfg();
    // Uncontended session-1-like link (same 25 m geometry, no session 2).
    let alone = ScenarioBuilder::new(PhyRate::R11)
        .line(&[0.0, 25.0])
        .seed(c.seed)
        .duration(c.duration)
        .warmup(c.warmup)
        .flow(
            0,
            1,
            Traffic::SaturatedUdp {
                payload_bytes: 512,
                backlog: 10,
            },
        )
        .run()
        .flow(FlowId(0))
        .throughput_kbps;
    let cells = figure(7).run(c);
    let udp = cell(&cells, SessionTransport::Udp, AccessScheme::Basic);
    // Session 1 pays heavily for session 2's presence even though S1 and
    // S3 cannot decode each other at all; the combined goodput also stays
    // below twice the single-link capacity (no free spatial reuse here).
    assert!(
        udp.session1_kbps < alone * 0.6,
        "session 1 should pay for session 2's presence: {:.0} vs alone {alone:.0}",
        udp.session1_kbps
    );
    assert!(
        udp.session1_kbps + udp.session2_kbps < alone * 1.6,
        "capacity is shared: {:.0}+{:.0} vs alone {alone:.0}",
        udp.session1_kbps,
        udp.session2_kbps
    );
}
