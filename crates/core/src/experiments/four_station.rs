//! Figures 5–12: the four-station, two-session experiments.
//!
//! Four stations on a line (Figure 5): Session 1 flows S1→S2, Session 2
//! flows S3→S4, both saturated, with the middle distance d(2,3) chosen
//! per configuration:
//!
//! * **Figures 6–7** — 11 Mb/s, d = 25 / 80–85 / 25 m. S1–S3 are far
//!   outside the 11 Mb/s data range yet inside carrier-sense range, and
//!   S2 sits inside the interference range of S4's (2 Mb/s) ACKs: the
//!   sessions interact strongly and asymmetrically.
//! * **Figures 8–9** — 2 Mb/s, d = 25 / 90–95 / 25 m. All stations share
//!   a more uniform view of the channel; the system balances.
//! * **Figures 10–12** — the symmetric scenario, d = 25 / 60–65 / 25 m,
//!   at 11 Mb/s (Fig. 11) and 2 Mb/s (Fig. 12).
//!
//! The paper's figure legends flip between "3→4" and "4→3" for the second
//! session; the reference scenario (Figure 5) has data flowing S3→S4 and
//! that is what we simulate throughout.

use dot11_net::FlowId;
use dot11_phy::PhyRate;

use crate::analytic::AccessScheme;
use crate::scenario::{Scenario, ScenarioBuilder, Traffic};
use crate::stats::RunReport;

use super::ExpConfig;

/// Transport used by both sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionTransport {
    /// Saturated CBR over UDP.
    Udp,
    /// Asymptotic ftp over TCP.
    Tcp,
}

impl std::fmt::Display for SessionTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionTransport::Udp => write!(f, "UDP"),
            SessionTransport::Tcp => write!(f, "TCP"),
        }
    }
}

/// The four-station topologies of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FourStationLayout {
    /// Figure 6: 25 / 82.5 / 25 m at 11 Mb/s.
    AsymmetricAt11,
    /// Figure 8: 25 / 92.5 / 25 m at 2 Mb/s.
    AsymmetricAt2,
    /// Figure 10: 25 / 62.5 / 25 m (run at either rate).
    Symmetric,
}

impl FourStationLayout {
    /// Station x-coordinates, meters.
    pub fn positions(self) -> [f64; 4] {
        let gap = match self {
            FourStationLayout::AsymmetricAt11 => 82.5,
            FourStationLayout::AsymmetricAt2 => 92.5,
            FourStationLayout::Symmetric => 62.5,
        };
        [0.0, 25.0, 25.0 + gap, 50.0 + gap]
    }
}

/// One bar pair of a four-station figure.
#[derive(Debug, Clone, Copy)]
pub struct FourStationCell {
    /// Transport used by both sessions.
    pub transport: SessionTransport,
    /// Access scheme.
    pub scheme: AccessScheme,
    /// Session 1 (S1→S2) application throughput, kb/s.
    pub session1_kbps: f64,
    /// Session 2 (S3→S4) application throughput, kb/s.
    pub session2_kbps: f64,
}

impl FourStationCell {
    /// The cell a finished run reports: session 1 is flow 0, session 2
    /// flow 1.
    pub fn from_report(
        transport: SessionTransport,
        scheme: AccessScheme,
        report: &RunReport,
    ) -> FourStationCell {
        FourStationCell {
            transport,
            scheme,
            session1_kbps: report.flow(FlowId(0)).throughput_kbps,
            session2_kbps: report.flow(FlowId(1)).throughput_kbps,
        }
    }

    /// Session-2-over-session-1 throughput ratio (∞-safe: returns
    /// `f64::INFINITY` when session 1 starved completely).
    pub fn imbalance(&self) -> f64 {
        if self.session1_kbps <= 0.0 {
            f64::INFINITY
        } else {
            self.session2_kbps / self.session1_kbps
        }
    }
}

/// One four-station figure of the paper: the NIC rate and the station
/// geometry its four cells run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Figure {
    /// The figure's number in the paper.
    pub number: u32,
    /// NIC data rate.
    pub rate: PhyRate,
    /// Station geometry.
    pub layout: FourStationLayout,
    /// The section heading the `repro` report prints above the figure.
    pub title: &'static str,
}

/// The paper's four-station figures, in report order. Every consumer —
/// the `repro` report, its JSON and trace outputs, and the sweep layer's
/// figure recipes — reads the figure → rate/layout mapping from here.
pub const FIGURES: [Figure; 4] = [
    Figure {
        number: 7,
        rate: PhyRate::R11,
        layout: FourStationLayout::AsymmetricAt11,
        title: "FIGURE 7 — asymmetric scenario, 11 Mb/s (d = 25/82.5/25 m)",
    },
    Figure {
        number: 9,
        rate: PhyRate::R2,
        layout: FourStationLayout::AsymmetricAt2,
        title: "FIGURE 9 — asymmetric scenario, 2 Mb/s (d = 25/92.5/25 m)",
    },
    Figure {
        number: 11,
        rate: PhyRate::R11,
        layout: FourStationLayout::Symmetric,
        title: "FIGURE 11 — symmetric scenario, 11 Mb/s (d = 25/62.5/25 m)",
    },
    Figure {
        number: 12,
        rate: PhyRate::R2,
        layout: FourStationLayout::Symmetric,
        title: "FIGURE 12 — symmetric scenario, 2 Mb/s (d = 25/62.5/25 m)",
    },
];

/// The four cells of every figure, in report order: both transports ×
/// both access schemes.
pub const CELLS: [(SessionTransport, AccessScheme); 4] = [
    (SessionTransport::Udp, AccessScheme::Basic),
    (SessionTransport::Udp, AccessScheme::RtsCts),
    (SessionTransport::Tcp, AccessScheme::Basic),
    (SessionTransport::Tcp, AccessScheme::RtsCts),
];

/// Looks a figure up in [`FIGURES`] by its number.
///
/// # Panics
///
/// Panics on a number the paper has no four-station figure for.
pub fn figure(number: u32) -> Figure {
    FIGURES
        .into_iter()
        .find(|f| f.number == number)
        .unwrap_or_else(|| panic!("no four-station figure {number} in the paper (7, 9, 11, 12)"))
}

impl Figure {
    /// Builds the scenario of one cell of this figure.
    pub fn scenario(
        self,
        cfg: ExpConfig,
        transport: SessionTransport,
        scheme: AccessScheme,
    ) -> Scenario {
        scenario(cfg, self.rate, self.layout, transport, scheme)
    }

    /// Runs the figure's four cells, in [`CELLS`] order.
    pub fn run(self, cfg: ExpConfig) -> Vec<FourStationCell> {
        CELLS
            .into_iter()
            .map(|(transport, scheme)| {
                let report = self.scenario(cfg, transport, scheme).run();
                FourStationCell::from_report(transport, scheme, &report)
            })
            .collect()
    }
}

/// Builds the scenario for one four-station cell without running it —
/// callers that want a trace, a time series or a profile attach a sink
/// or probe via [`Scenario::run_with`] or [`Scenario::run_probed`].
pub fn scenario(
    cfg: ExpConfig,
    rate: PhyRate,
    layout: FourStationLayout,
    transport: SessionTransport,
    scheme: AccessScheme,
) -> Scenario {
    let traffic = match transport {
        SessionTransport::Udp => Traffic::SaturatedUdp {
            payload_bytes: 512,
            backlog: 10,
        },
        SessionTransport::Tcp => Traffic::BulkTcp { mss: 512 },
    };
    ScenarioBuilder::new(rate)
        .line(&layout.positions())
        .rts(scheme == AccessScheme::RtsCts)
        .seed(cfg.seed)
        .duration(cfg.duration)
        .warmup(cfg.warmup)
        .flow(0, 1, traffic)
        .flow(2, 3, traffic)
        .build()
}

/// Convenience: the cell for a given transport and scheme.
pub fn cell(
    cells: &[FourStationCell],
    transport: SessionTransport,
    scheme: AccessScheme,
) -> &FourStationCell {
    cells
        .iter()
        .find(|c| c.transport == transport && c.scheme == scheme)
        .expect("all four cells present")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_match_the_papers_geometry() {
        assert_eq!(
            FourStationLayout::AsymmetricAt11.positions(),
            [0.0, 25.0, 107.5, 132.5]
        );
        assert_eq!(
            FourStationLayout::AsymmetricAt2.positions(),
            [0.0, 25.0, 117.5, 142.5]
        );
        assert_eq!(
            FourStationLayout::Symmetric.positions(),
            [0.0, 25.0, 87.5, 112.5]
        );
    }

    #[test]
    fn imbalance_handles_starvation() {
        let c = FourStationCell {
            transport: SessionTransport::Udp,
            scheme: AccessScheme::Basic,
            session1_kbps: 0.0,
            session2_kbps: 100.0,
        };
        assert!(c.imbalance().is_infinite());
    }
}
