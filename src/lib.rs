//! Umbrella crate for the 802.11b ad hoc measurement testbed.
//!
//! Reproduction of *"IEEE 802.11 Ad Hoc Networks: Performance
//! Measurements"* (Anastasi, Borgia, Conti, Gregori — ICDCS Workshops
//! 2003) as a deterministic discrete-event simulation. This crate simply
//! re-exports the workspace members so applications can depend on one
//! name:
//!
//! * [`desim`] — the discrete-event engine;
//! * `phy` — the 802.11b DSSS PHY and radio-propagation models;
//! * `mac` — the DCF MAC;
//! * `net` — IP/UDP/TCP-Reno stack and traffic sources;
//! * `trace` — structured tracing sinks and interval metrics;
//! * `adhoc` — scenarios, the simulation world, the analytic model, and
//!   the per-table/figure experiments.
//!
//! # Example
//!
//! ```
//! use dot11_testbed::adhoc::{ScenarioBuilder, Traffic};
//! use dot11_testbed::phy::PhyRate;
//! use desim::SimDuration;
//!
//! let report = ScenarioBuilder::new(PhyRate::R2)
//!     .line(&[0.0, 40.0])
//!     .duration(SimDuration::from_secs(2))
//!     .flow(0, 1, Traffic::SaturatedUdp { payload_bytes: 512, backlog: 5 })
//!     .run();
//! assert!(report.flow(dot11_testbed::net::FlowId(0)).throughput_kbps > 500.0);
//! ```

#![forbid(unsafe_code)]

pub use desim;
pub use dot11_adhoc as adhoc;
pub use dot11_mac as mac;
pub use dot11_net as net;
pub use dot11_phy as phy;
pub use dot11_trace as trace;
