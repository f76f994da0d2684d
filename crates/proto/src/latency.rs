//! The latency model of §5.1.
//!
//! "The round-trip latencies to the on-chip primary cache, secondary cache,
//! memory in the local node, memory in a remote node with 2 hops, and memory
//! in a remote node with 3 hops are 1, 12, 60, 208 and 291 cycles on average
//! respectively. These figures correspond to an unloaded machine; they
//! increase with resource contention."

use specrt_cache::HitLevel;
use specrt_engine::Cycles;
use specrt_mem::NodeId;

/// Unloaded latencies and contention service times, in 200-MHz cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Round trip to the primary cache (hit).
    pub l1_hit: u64,
    /// Round trip to the secondary cache (hit).
    pub l2_hit: u64,
    /// Round trip to memory in the local node (miss served at home == local).
    pub local_mem: u64,
    /// Round trip to memory in a remote home, data at home (2 hops).
    pub remote_2hop: u64,
    /// Round trip when the line is dirty in a third node (3 hops).
    pub remote_3hop: u64,
    /// Extra latency when the data must be fetched from a dirty owner
    /// (applied on top of the 2-hop/local base; `remote_3hop` =
    /// `remote_2hop` + this).
    pub owner_fetch_extra: u64,
    /// Extra latency when sharers on other nodes must be invalidated
    /// (invalidations travel in parallel; one network round trip).
    pub invalidate_extra: u64,
    /// One-way network traversal for fire-and-forget protocol messages.
    pub net_oneway: u64,
    /// Directory + memory occupancy per data transaction (contention).
    pub mem_service: u64,
    /// Directory occupancy per access-bit update message (contention).
    pub update_service: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            l1_hit: 1,
            l2_hit: 12,
            local_mem: 60,
            remote_2hop: 208,
            remote_3hop: 291,
            owner_fetch_extra: 0,
            invalidate_extra: 40,
            net_oneway: 0,
            mem_service: 40,
            update_service: 10,
        }
        .derive()
    }
}

impl LatencyConfig {
    /// Recomputes the internal parameters from the paper's observable
    /// round-trip latencies, so that the structural invariants
    ///
    /// * `remote_2hop = local_mem + 2 · net_oneway` (a remote 2-hop miss
    ///   is a local miss plus a network round trip), and
    /// * `remote_3hop = remote_2hop + owner_fetch_extra`
    ///
    /// hold by construction. Call this after overriding any of the
    /// round-trip fields instead of hand-computing `net_oneway` /
    /// `owner_fetch_extra`.
    ///
    /// # Panics
    ///
    /// Panics if the round trips are not monotone
    /// (`local_mem <= remote_2hop <= remote_3hop`).
    pub fn derive(mut self) -> Self {
        assert!(
            self.local_mem <= self.remote_2hop && self.remote_2hop <= self.remote_3hop,
            "round-trip latencies must be monotone: local {} <= 2-hop {} <= 3-hop {}",
            self.local_mem,
            self.remote_2hop,
            self.remote_3hop
        );
        self.net_oneway = (self.remote_2hop - self.local_mem) / 2;
        self.owner_fetch_extra = self.remote_3hop - self.remote_2hop;
        self
    }

    /// Round trip of a cache hit at `level`.
    ///
    /// # Panics
    ///
    /// Panics on [`HitLevel::Miss`], which has no hit latency.
    pub fn hit(&self, level: HitLevel) -> Cycles {
        match level {
            HitLevel::L1 => Cycles(self.l1_hit),
            HitLevel::L2 => Cycles(self.l2_hit),
            HitLevel::Miss => panic!("a cache miss has no hit latency"),
        }
    }

    /// One-way travel time between two nodes (0 within a node; the global
    /// network is a constant-latency abstraction).
    pub fn travel(&self, from: NodeId, to: NodeId) -> Cycles {
        if from == to {
            Cycles::ZERO
        } else {
            Cycles(self.net_oneway)
        }
    }

    /// Unloaded round-trip base for a miss from `requester` to `home`, with
    /// the data clean at home.
    pub fn miss_base(&self, requester: NodeId, home: NodeId) -> Cycles {
        if requester == home {
            Cycles(self.local_mem)
        } else {
            Cycles(self.remote_2hop)
        }
    }

    /// Unloaded round trip for a miss that must also fetch from a dirty
    /// owner on `owner`.
    pub fn miss_with_owner(&self, requester: NodeId, home: NodeId, owner: NodeId) -> Cycles {
        let base = self.miss_base(requester, home);
        if owner == requester || owner == home {
            // Owner co-located with an endpoint: the fetch is folded into an
            // existing hop; charge only half the extra.
            base + Cycles(self.owner_fetch_extra / 2)
        } else {
            base + Cycles(self.owner_fetch_extra)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const N2: NodeId = NodeId(2);

    #[test]
    fn defaults_match_paper_table() {
        let c = LatencyConfig::default();
        assert_eq!(c.l1_hit, 1);
        assert_eq!(c.l2_hit, 12);
        assert_eq!(c.local_mem, 60);
        assert_eq!(c.remote_2hop, 208);
        assert_eq!(c.remote_3hop, 291);
    }

    #[test]
    fn hit_latency_follows_level() {
        let c = LatencyConfig::default();
        assert_eq!(c.hit(HitLevel::L1), Cycles(1));
        assert_eq!(c.hit(HitLevel::L2), Cycles(12));
    }

    #[test]
    fn derive_enforces_structural_invariants() {
        let c = LatencyConfig::default();
        // The defaults derive 74 and 83 — the values that used to be
        // hand-computed magic numbers.
        assert_eq!(c.net_oneway, 74);
        assert_eq!(c.owner_fetch_extra, 83);
        assert_eq!(c.remote_2hop, c.local_mem + 2 * c.net_oneway);
        assert_eq!(c.remote_3hop, c.remote_2hop + c.owner_fetch_extra);
        // Overriding a round trip and re-deriving keeps the invariants.
        let fast = LatencyConfig {
            local_mem: 40,
            remote_2hop: 140,
            remote_3hop: 200,
            ..c
        }
        .derive();
        assert_eq!(fast.net_oneway, 50);
        assert_eq!(fast.owner_fetch_extra, 60);
        assert_eq!(fast.remote_2hop, fast.local_mem + 2 * fast.net_oneway);
        assert_eq!(fast.remote_3hop, fast.remote_2hop + fast.owner_fetch_extra);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn derive_rejects_non_monotone_round_trips() {
        let _ = LatencyConfig {
            remote_2hop: 40,
            ..LatencyConfig::default()
        }
        .derive();
    }

    #[test]
    fn three_hop_is_two_hop_plus_owner_fetch() {
        let c = LatencyConfig::default();
        assert_eq!(
            c.miss_with_owner(N0, N1, N2),
            Cycles(c.remote_3hop),
            "remote home, third-party owner is the paper's 3-hop case"
        );
    }

    #[test]
    fn local_travel_is_free() {
        let c = LatencyConfig::default();
        assert_eq!(c.travel(N0, N0), Cycles::ZERO);
        assert_eq!(c.travel(N0, N1), Cycles(c.net_oneway));
    }

    #[test]
    fn miss_base_selects_local_vs_remote() {
        let c = LatencyConfig::default();
        assert_eq!(c.miss_base(N0, N0), Cycles(60));
        assert_eq!(c.miss_base(N0, N1), Cycles(208));
    }

    #[test]
    fn colocated_owner_cheaper_than_third_party() {
        let c = LatencyConfig::default();
        let colocated = c.miss_with_owner(N0, N1, N1);
        let third = c.miss_with_owner(N0, N1, N2);
        assert!(colocated < third);
        assert!(colocated > c.miss_base(N0, N1));
    }
}
