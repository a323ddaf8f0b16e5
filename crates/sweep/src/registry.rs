//! The named scenario groups `repro sweep --scenarios` accepts.
//!
//! One table maps each name to the recipes it expands to; the CLI
//! parses names through [`scenario_group`] and prints its usage line and
//! its unknown-name error from [`SCENARIO_GROUPS`].

use dot11_phy::PhyRate;

use crate::spec::SweepScenario;

/// Expands a named group into its recipes.
type GroupRecipes = fn() -> Vec<SweepScenario>;

/// Every named group, in usage order, with the recipes it expands to.
pub const SCENARIO_GROUPS: [(&str, GroupRecipes); 13] = [
    ("fig7", || SweepScenario::figure(7)),
    ("fig9", || SweepScenario::figure(9)),
    ("fig11", || SweepScenario::figure(11)),
    ("fig12", || SweepScenario::figure(12)),
    // Multi-hop chains and grids at 80 m pitch (a reliable 2 Mb/s hop
    // per the calibrated Table 3 ranges) and a 20-station random field.
    ("chain16", || {
        vec![SweepScenario::Chain {
            n: 16,
            spacing_m: 80.0,
            rate: PhyRate::R2,
        }]
    }),
    ("chain64", || {
        vec![SweepScenario::Chain {
            n: 64,
            spacing_m: 80.0,
            rate: PhyRate::R2,
        }]
    }),
    ("grid16", || {
        vec![SweepScenario::Grid {
            rows: 4,
            cols: 4,
            spacing_m: 80.0,
            rate: PhyRate::R2,
        }]
    }),
    ("disk20", || {
        vec![SweepScenario::RandomDisk {
            n: 20,
            radius_m: 120.0,
            topo_seed: 7,
            rate: PhyRate::R2,
        }]
    }),
    // Production-scale disk: 4096 stations on a 12 km disk. Audible-set
    // culling keeps a sweep over it tractable; CI smoke-runs it.
    ("disk4096", || {
        vec![SweepScenario::RandomDisk {
            n: 4096,
            radius_m: 12_000.0,
            topo_seed: 7,
            rate: PhyRate::R2,
        }]
    }),
    // The hidden-terminal triple: basic access collapses, RTS/CTS
    // recovers.
    ("hidden3", SweepScenario::hidden3),
    // 64 stations random-waypoint walking on a 120 m disk (the
    // calibrated 2 Mb/s data range); the speed ladder makes
    // throughput-vs-node-speed a one-flag sweep.
    ("mobile-disk64", || vec![SweepScenario::mobile_disk64(20.0)]),
    ("mobile-disk64-slow", || {
        vec![SweepScenario::mobile_disk64(5.0)]
    }),
    ("mobile-disk64-fast", || {
        vec![SweepScenario::mobile_disk64(50.0)]
    }),
];

/// The recipes of the group called `name`, or `None` for a name
/// [`SCENARIO_GROUPS`] does not list.
pub fn scenario_group(name: &str) -> Option<Vec<SweepScenario>> {
    SCENARIO_GROUPS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, recipes)| recipes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CellSpec, MacAxis, RunParams};

    #[test]
    fn every_listed_group_resolves_and_its_cells_build() {
        for (name, _) in SCENARIO_GROUPS {
            let group = scenario_group(name).expect("listed names resolve");
            assert!(!group.is_empty(), "{name} expands to no recipe");
            for scenario in group {
                let cell = CellSpec {
                    scenario,
                    mac: MacAxis::table1(),
                    seed: 1,
                    params: RunParams::quick(),
                };
                let _ = cell.build();
            }
        }
        assert!(scenario_group("fig8").is_none());
    }
}
