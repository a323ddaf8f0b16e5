//! Integration: airtime accounting across full scenarios.

use desim::SimDuration;
use dot11_testbed::adhoc::{RunReport, ScenarioBuilder, Traffic};
use dot11_testbed::phy::{DayProfile, PhyRate};

/// The ledger conservation property, asserted bit-exactly:
///
/// 1. the four coarse states partition the horizon
///    (`tx + rx + busy + idle == horizon`);
/// 2. the MAC's idle refinement partitions the idle share
///    (`nav + difs + backoff + frozen + quiet == idle`).
///
/// Together they mean every nanosecond of every station's run is in
/// exactly one of the nine channel states.
fn assert_ledger_conserves(report: &RunReport, horizon_ns: u64, what: &str) {
    for n in &report.nodes {
        let a = &n.airtime;
        assert_eq!(
            a.total_ns(),
            horizon_ns,
            "{what}/{}: coarse states miss the horizon",
            n.node
        );
        assert_eq!(
            a.nav_ns + a.difs_ns + a.backoff_ns + a.frozen_ns + a.quiet_ns,
            a.idle_ns,
            "{what}/{}: idle refinement does not partition idle time \
             (nav {} + difs {} + backoff {} + frozen {} + quiet {} != idle {})",
            n.node,
            a.nav_ns,
            a.difs_ns,
            a.backoff_ns,
            a.frozen_ns,
            a.quiet_ns,
            a.idle_ns
        );
        assert_eq!(a.idle_refined_ns(), a.idle_ns, "{what}/{}", n.node);
    }
}

/// The ledger is conservative: every station accounts the full run, and
/// the categories partition it.
#[test]
fn airtime_partitions_the_run() {
    let report = ScenarioBuilder::new(PhyRate::R11)
        .line(&[0.0, 10.0])
        .day(DayProfile::still())
        .seed(1)
        .duration(SimDuration::from_secs(3))
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
    for n in &report.nodes {
        let total = n.airtime.total_ns();
        assert_eq!(total, 3_000_000_000, "{}: accounted {total} ns", n.node);
    }
}

/// On a saturated two-station link the airtime roles are sharp: the
/// sender transmits ~half the air (data frames), the receiver receives
/// them; ACKs are the minor mirror share.
#[test]
fn saturated_link_airtime_roles() {
    let report = ScenarioBuilder::new(PhyRate::R11)
        .line(&[0.0, 10.0])
        .day(DayProfile::still())
        .seed(1)
        .duration(SimDuration::from_secs(3))
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
    let tx = &report.nodes[0].airtime;
    let rx = &report.nodes[1].airtime;
    // Data frame 609 µs vs cycle ~1230 µs: sender transmits ~49%.
    assert!(
        (0.40..0.60).contains(&tx.tx_fraction()),
        "sender tx fraction {:.2}",
        tx.tx_fraction()
    );
    // The receiver spends the mirror share receiving, plus ACK tx ~20%.
    assert!(
        (0.40..0.60).contains(&rx.rx_fraction()),
        "receiver rx fraction {:.2}",
        rx.rx_fraction()
    );
    assert!(
        rx.tx_fraction() > 0.10,
        "ACKs cost air: {:.2}",
        rx.tx_fraction()
    );
    // Sender's rx share ≈ receiver's ACK share.
    assert!((tx.rx_fraction() - rx.tx_fraction()).abs() < 0.05);
}

/// Conservation on every Figure 7 and Figure 12 cell (UDP/TCP ×
/// basic/RTS): the nine-state ledger accounts the horizon bit-exactly
/// for every station, and the contended cells actually exercise the
/// deferral states (nonzero DIFS + backoff time).
#[test]
fn ledger_conserves_on_figure7_and_figure12_cells() {
    use dot11_sweep::{RunParams, SweepScenario};
    let params = RunParams {
        duration: SimDuration::from_millis(700),
        warmup: SimDuration::from_millis(100),
    };
    for fig in [7, 12] {
        for cell in SweepScenario::figure(fig) {
            let report = cell.build(params, 5).run();
            let label = cell.name();
            assert_ledger_conserves(&report, 700_000_000, &label);
            let defer: u64 = report
                .nodes
                .iter()
                .map(|n| n.airtime.difs_ns + n.airtime.backoff_ns)
                .sum();
            assert!(defer > 0, "{label}: no station ever deferred");
        }
    }
}

/// Conservation on an irregular topology: 20 stations scattered on a
/// disk, where hidden/exposed relationships (and therefore NAV, frozen
/// and EIFS paths) occur in combinations the line layouts never hit.
#[test]
fn ledger_conserves_on_a_random_disk() {
    use dot11_sweep::{RunParams, SweepScenario};
    let cell = SweepScenario::RandomDisk {
        n: 20,
        radius_m: 120.0,
        topo_seed: 7,
        rate: PhyRate::R2,
    };
    let params = RunParams {
        duration: SimDuration::from_millis(500),
        warmup: SimDuration::from_millis(100),
    };
    for seed in [1, 2, 3] {
        let report = cell.build(params, seed).run();
        assert_ledger_conserves(&report, 500_000_000, &format!("disk20 seed {seed}"));
    }
}

/// The paper's exposed-station effect as a number: in the Figure 7
/// geometry, the session-1 receiver spends most of its air locked on
/// session 2's frames — time during which it is deaf to its own sender.
#[test]
fn figure7_receiver_is_mostly_deaf() {
    let report = ScenarioBuilder::new(PhyRate::R11)
        .line(&[0.0, 25.0, 107.5, 132.5])
        .day(DayProfile::still())
        .seed(3)
        .duration(SimDuration::from_secs(6))
        .warmup(SimDuration::from_secs(1))
        .flow(
            0,
            1,
            Traffic::SaturatedUdp {
                payload_bytes: 512,
                backlog: 10,
            },
        )
        .flow(
            2,
            3,
            Traffic::SaturatedUdp {
                payload_bytes: 512,
                backlog: 10,
            },
        )
        .run();
    let s1_rx = report.nodes[1].airtime.rx_fraction();
    // Locked more than half the time although its own session only
    // delivers a fraction of the channel.
    assert!(s1_rx > 0.5, "session-1 receiver rx fraction {s1_rx:.2}");
    // Its useful reception (delivered MSDUs × frame airtime) accounts for
    // well under half of that locked time.
    let delivered = report.nodes[1].mac.delivered as f64;
    let frame_ns = 609_000.0; // 574 B at 11 Mb/s + long PLCP
    let useful = delivered * frame_ns / report.nodes[1].airtime.total_ns() as f64;
    assert!(
        useful < s1_rx * 0.75,
        "useful rx {useful:.2} should be well below locked share {s1_rx:.2}"
    );
}
