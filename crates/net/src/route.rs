//! Static routing for multi-hop ad hoc topologies.
//!
//! The paper's introduction motivates multi-hop ad hoc networking —
//! "the addition of routing mechanisms at stations so that they can
//! forward packets towards the intended destination" — and measures only
//! the single-hop building block. This module provides the static
//! routing substrate the multi-hop extension experiments use: the
//! test-bed equivalent of manually configured routes over a static
//! topology (no route discovery — the paper's scenarios are static by
//! design, precisely to exclude route recomputation effects).

use std::collections::HashMap;

use dot11_phy::NodeId;

/// A static next-hop table: `(at, final destination) → next hop`.
///
/// Chain routes are stored in closed form rather than as `n·(n−1)`
/// individual entries: on a chain the next hop toward any destination is
/// just the adjacent station in that direction, so [`StaticRoutes::chain`]
/// records only `n` and [`StaticRoutes::next_hop`] computes the hop in
/// O(1). That keeps building an `n = 4096` chain scenario O(1) instead of
/// ~16.8 million hash inserts. Manual [`StaticRoutes::add`] entries take
/// precedence over the closed form.
///
/// # Example
///
/// ```
/// use dot11_net::StaticRoutes;
/// use dot11_phy::NodeId;
///
/// // A 4-station chain: 0 - 1 - 2 - 3.
/// let routes = StaticRoutes::chain(4);
/// assert_eq!(routes.next_hop(NodeId(0), NodeId(3)), Some(NodeId(1)));
/// assert_eq!(routes.next_hop(NodeId(2), NodeId(3)), Some(NodeId(3)));
/// assert_eq!(routes.next_hop(NodeId(3), NodeId(0)), Some(NodeId(2)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StaticRoutes {
    hops: HashMap<(NodeId, NodeId), NodeId>,
    /// Closed-form chain overlay: stations `0..chain_n` route one hop at
    /// a time toward the destination (0 = no chain).
    chain_n: u32,
}

impl StaticRoutes {
    /// An empty table (every destination is assumed directly reachable).
    pub fn new() -> StaticRoutes {
        StaticRoutes::default()
    }

    /// Routes for a linear chain of `n` stations (ids `0..n`): packets
    /// step one station at a time toward the destination, both ways.
    /// Stored in closed form — construction is O(1) in `n`.
    pub fn chain(n: u32) -> StaticRoutes {
        StaticRoutes {
            hops: HashMap::new(),
            chain_n: n,
        }
    }

    /// The chain overlay's hop for `at → dst`, if the overlay covers the
    /// pair: identical to what the per-pair table built by the pre-
    /// closed-form `chain()` held (see the equivalence test).
    fn chain_hop(&self, at: NodeId, dst: NodeId) -> Option<NodeId> {
        if at != dst && at.0 < self.chain_n && dst.0 < self.chain_n {
            Some(NodeId(if dst.0 > at.0 { at.0 + 1 } else { at.0 - 1 }))
        } else {
            None
        }
    }

    /// Adds (or replaces) the route `at → dst via next`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate routes (`at == dst`, `next == at`).
    pub fn add(&mut self, at: NodeId, dst: NodeId, next: NodeId) -> &mut StaticRoutes {
        assert_ne!(at, dst, "route to self");
        assert_ne!(next, at, "route via self");
        self.hops.insert((at, dst), next);
        self
    }

    /// The configured next hop from `at` toward `dst`, if any. `None`
    /// means "deliver directly" (single-hop assumption). Manual entries
    /// take precedence over the chain overlay.
    pub fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<NodeId> {
        if !self.hops.is_empty() {
            if let Some(next) = self.hops.get(&(at, dst)) {
                return Some(*next);
            }
        }
        self.chain_hop(at, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_routes_step_one_hop_at_a_time() {
        let r = StaticRoutes::chain(5);
        // Forward direction.
        assert_eq!(r.next_hop(NodeId(0), NodeId(4)), Some(NodeId(1)));
        assert_eq!(r.next_hop(NodeId(1), NodeId(4)), Some(NodeId(2)));
        assert_eq!(r.next_hop(NodeId(3), NodeId(4)), Some(NodeId(4)));
        // Reverse direction (TCP ACKs travel it).
        assert_eq!(r.next_hop(NodeId(4), NodeId(0)), Some(NodeId(3)));
        assert_eq!(r.next_hop(NodeId(1), NodeId(0)), Some(NodeId(0)));
        // Adjacent stations deliver directly: chain() covers the direct
        // hop explicitly.
        assert_eq!(r.next_hop(NodeId(2), NodeId(3)), Some(NodeId(3)));
    }

    /// The closed-form chain must be indistinguishable from the per-pair
    /// table the old `chain()` built with n·(n−1) `add` calls — same
    /// hops, same misses outside the chain.
    #[test]
    fn chain_closed_form_matches_per_pair_table() {
        let n = 7u32;
        let closed = StaticRoutes::chain(n);
        let mut table = StaticRoutes::new();
        for at in 0..n {
            for dst in 0..n {
                if at == dst {
                    continue;
                }
                let via = if dst > at { at + 1 } else { at - 1 };
                table.add(NodeId(at), NodeId(dst), NodeId(via));
            }
        }
        for at in 0..n + 2 {
            for dst in 0..n + 2 {
                assert_eq!(
                    closed.next_hop(NodeId(at), NodeId(dst)),
                    table.next_hop(NodeId(at), NodeId(dst)),
                    "{at} -> {dst}"
                );
            }
        }
    }

    #[test]
    fn unknown_pairs_mean_direct_delivery() {
        let r = StaticRoutes::new();
        assert_eq!(r.next_hop(NodeId(0), NodeId(9)), None);
        // Off-chain ids fall back to direct delivery too.
        let c = StaticRoutes::chain(3);
        assert_eq!(c.next_hop(NodeId(3), NodeId(0)), None);
        assert_eq!(c.next_hop(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn manual_routes_override() {
        let mut r = StaticRoutes::chain(3);
        // A different next hop replaces the chain's.
        r.add(NodeId(0), NodeId(2), NodeId(2));
        assert_eq!(r.next_hop(NodeId(0), NodeId(2)), Some(NodeId(2)));
        // Pairs outside the chain extend the table.
        r.add(NodeId(0), NodeId(7), NodeId(1));
        assert_eq!(r.next_hop(NodeId(0), NodeId(7)), Some(NodeId(1)));
        // The last add wins.
        r.add(NodeId(0), NodeId(2), NodeId(1));
        assert_eq!(r.next_hop(NodeId(0), NodeId(2)), Some(NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "route to self")]
    fn self_route_panics() {
        StaticRoutes::new().add(NodeId(1), NodeId(1), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "route via self")]
    fn via_self_panics() {
        StaticRoutes::new().add(NodeId(1), NodeId(2), NodeId(1));
    }
}
