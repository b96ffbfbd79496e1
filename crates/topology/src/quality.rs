//! Per-link delivery probabilities: the [`LinkQuality`] layer.
//!
//! The paper's network model treats every link as lossless; §VI concedes
//! real deployments are not. This layer attaches a delivery probability to
//! every UDG edge — the probability that a single transmission over the
//! link is received — without touching the adjacency structure itself.
//! Everything loss-aware downstream (the ε-reliability objective in
//! `mlbs-core`, the per-link lossy replay and fault harness in `wsn-sim`,
//! the repeat-slot planner in `wsn-anytime`) reads link quality through
//! this one type.
//!
//! Storage is a probability array parallel to the topology's CSR neighbor
//! array, so `delivery(u, v)` is a binary search in `u`'s sorted neighbor
//! row and iteration is cache-friendly in the same order every replay
//! already walks. Quality is kept symmetric (`p(u,v) == p(v,u)`): the
//! synthetic generator draws once per undirected edge, and the setter
//! writes both directions.
//!
//! The synthetic generator is deterministic in `(topology, params, seed)`
//! and *order-free*: each edge's draws are a SplitMix64 hash of
//! `(seed, min(u,v), max(u,v))`, so the same edge gets the same quality no
//! matter how the topology was constructed or which thread asks first.

use crate::{NodeId, Topology};

/// SplitMix64 finalizer over a mixed word — the same order-free hashing
/// trick the sweep harness uses for seed derivation.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A draw in `[0, 1)` from a mixed word.
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// Parameters of the synthetic link-quality generator.
///
/// Per-attempt *loss* grows with normalized link distance:
/// `loss = loss_near + (loss_far − loss_near) · (d / radius)^gamma`, so
/// short links are nearly clean and edge-of-range links are marginal — the
/// standard empirical shape of the LQI-vs-distance transition region. On
/// top of the distance law, a `flaky_fraction` of edges (drawn per edge,
/// deterministically) carries `flaky_extra_loss` additional loss: these are
/// the burst/flap-prone links the fault harness targets.
#[derive(Clone, Copy, Debug)]
pub struct LinkQualityParams {
    /// Loss probability of a zero-length link.
    pub loss_near: f64,
    /// Loss probability at exactly the communication radius.
    pub loss_far: f64,
    /// Exponent of the distance law (higher = sharper transition region).
    pub gamma: f64,
    /// Fraction of edges that are flap-prone.
    pub flaky_fraction: f64,
    /// Additional loss carried by flap-prone edges.
    pub flaky_extra_loss: f64,
}

impl Default for LinkQualityParams {
    fn default() -> Self {
        LinkQualityParams {
            loss_near: 0.02,
            loss_far: 0.25,
            gamma: 2.0,
            flaky_fraction: 0.05,
            flaky_extra_loss: 0.35,
        }
    }
}

/// Per-link delivery probabilities over one topology's edges (see the
/// module docs). Constructed against a specific [`Topology`] and validated
/// against it by length; the topology itself is not retained.
#[derive(Clone, Debug)]
pub struct LinkQuality {
    /// Delivery probability per directed CSR slot (`u`'s k-th neighbor).
    deliver: Vec<f64>,
    /// CSR row offsets, copied so lookups need no topology reference.
    offsets: Vec<u32>,
    /// Flap-prone edges (synthetic generator only; empty = none marked).
    flaky: Vec<bool>,
}

impl LinkQuality {
    fn with_filler(topo: &Topology, mut fill: impl FnMut(NodeId, NodeId) -> (f64, bool)) -> Self {
        let n = topo.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut deliver = Vec::new();
        let mut flaky = Vec::new();
        for u in topo.nodes() {
            for &v in topo.neighbors(u) {
                let (p, f) = fill(u, v);
                assert!((0.0..=1.0).contains(&p), "delivery must be a probability");
                deliver.push(p);
                flaky.push(f);
            }
            offsets.push(deliver.len() as u32);
        }
        LinkQuality {
            deliver,
            offsets,
            flaky,
        }
    }

    /// Every link delivers with probability `p` — the uniform quality the
    /// legacy global-loss replay corresponds to.
    pub fn uniform(topo: &Topology, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "delivery must be a probability");
        LinkQuality::with_filler(topo, |_, _| (p, false))
    }

    /// Deterministic synthetic quality: distance-correlated loss plus a
    /// flap-prone edge subset (see [`LinkQualityParams`]). Order-free in
    /// construction and symmetric per undirected edge.
    pub fn synthetic(topo: &Topology, params: &LinkQualityParams, seed: u64) -> Self {
        let radius = topo.radius().max(f64::MIN_POSITIVE);
        let positions = topo.positions();
        LinkQuality::with_filler(topo, |u, v| {
            let (a, b) = (u.0.min(v.0), u.0.max(v.0));
            let d = positions[u.idx()].dist(&positions[v.idx()]);
            let frac = (d / radius).clamp(0.0, 1.0);
            let mut loss =
                params.loss_near + (params.loss_far - params.loss_near) * frac.powf(params.gamma);
            let flaky = unit(mix(seed, u64::from(a), u64::from(b))) < params.flaky_fraction;
            if flaky {
                loss += params.flaky_extra_loss;
            }
            ((1.0 - loss).clamp(0.0, 1.0), flaky)
        })
    }

    /// Delivery probability of the `k`-th neighbor link of `u` — the
    /// direct-indexed accessor replay loops use while walking
    /// `topo.neighbors(u)` in order.
    #[inline]
    pub fn delivery_at(&self, u: NodeId, k: usize) -> f64 {
        self.deliver[self.offsets[u.idx()] as usize + k]
    }

    /// Delivery probability of link `(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics when `u` and `v` are not adjacent in the topology this
    /// quality was built for.
    #[inline]
    pub fn delivery(&self, topo: &Topology, u: NodeId, v: NodeId) -> f64 {
        let k = topo
            .neighbors(u)
            .binary_search(&v)
            .expect("delivery() requires an existing link");
        self.delivery_at(u, k)
    }

    /// `true` when the synthetic generator marked `(u, v)` flap-prone.
    #[inline]
    pub fn is_flaky(&self, topo: &Topology, u: NodeId, v: NodeId) -> bool {
        let k = topo
            .neighbors(u)
            .binary_search(&v)
            .expect("is_flaky() requires an existing link");
        self.flaky[self.offsets[u.idx()] as usize + k]
    }

    /// Sets the delivery probability of `(u, v)` symmetrically (both
    /// directions) — how the online estimator writes back re-estimated
    /// probabilities.
    ///
    /// # Panics
    ///
    /// Panics when the link does not exist or `p` is not a probability.
    pub fn set_delivery(&mut self, topo: &Topology, u: NodeId, v: NodeId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "delivery must be a probability");
        for (a, b) in [(u, v), (v, u)] {
            let k = topo
                .neighbors(a)
                .binary_search(&b)
                .expect("set_delivery() requires an existing link");
            self.deliver[self.offsets[a.idx()] as usize + k] = p;
        }
    }

    /// Number of directed link slots (2 × undirected edges).
    #[inline]
    pub fn len(&self) -> usize {
        self.deliver.len()
    }

    /// `true` on an edgeless topology.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.deliver.is_empty()
    }

    /// Mean delivery probability across directed links (1.0 when edgeless).
    pub fn mean_delivery(&self) -> f64 {
        if self.deliver.is_empty() {
            return 1.0;
        }
        self.deliver.iter().sum::<f64>() / self.deliver.len() as f64
    }

    /// Worst link's delivery probability (1.0 when edgeless).
    pub fn min_delivery(&self) -> f64 {
        self.deliver.iter().copied().fold(1.0, f64::min)
    }

    /// `true` when every link has delivery probability exactly `p` — the
    /// test the uniform-quality convenience wrappers rely on.
    pub fn is_uniform(&self, p: f64) -> bool {
        self.deliver.iter().all(|&q| q == p)
    }

    /// The links whose delivery moved by at least `threshold` from `self`
    /// to `other`, one `(u, v, p)` per undirected edge (`u < v`) with `p`
    /// taken from `other`, in CSR order — the payload of a drift-triggered
    /// quality repair.
    pub fn moved_links(
        &self,
        topo: &Topology,
        other: &LinkQuality,
        threshold: f64,
    ) -> Vec<(NodeId, NodeId, f64)> {
        let mut moved = Vec::new();
        for u in topo.nodes() {
            for (k, &v) in topo.neighbors(u).iter().enumerate() {
                let p = other.delivery_at(u, k);
                if u < v && (p - self.delivery_at(u, k)).abs() >= threshold {
                    moved.push((u, v, p));
                }
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::SyntheticDeployment;

    fn topo() -> Topology {
        SyntheticDeployment::paper(120).sample(7).0
    }

    #[test]
    fn uniform_is_uniform_and_symmetric() {
        let t = topo();
        let q = LinkQuality::uniform(&t, 0.9);
        assert!(q.is_uniform(0.9));
        assert_eq!(q.len(), t.csr().edge_count() * 2);
        for u in t.nodes().take(20) {
            for &v in t.neighbors(u) {
                assert_eq!(q.delivery(&t, u, v), q.delivery(&t, v, u));
            }
        }
    }

    #[test]
    fn synthetic_is_deterministic_symmetric_and_distance_correlated() {
        let t = topo();
        let params = LinkQualityParams::default();
        let a = LinkQuality::synthetic(&t, &params, 42);
        let b = LinkQuality::synthetic(&t, &params, 42);
        let c = LinkQuality::synthetic(&t, &params, 43);
        let mut any_differs = false;
        let mut short_sum = (0.0, 0usize);
        let mut long_sum = (0.0, 0usize);
        for u in t.nodes() {
            for (k, &v) in t.neighbors(u).iter().enumerate() {
                let p = a.delivery_at(u, k);
                assert_eq!(p, b.delivery_at(u, k), "same seed must reproduce");
                assert_eq!(p, a.delivery(&t, v, u), "quality must be symmetric");
                any_differs |= p != c.delivery_at(u, k);
                let d = t.position(u).dist(&t.position(v)) / t.radius();
                if d < 0.4 {
                    short_sum = (short_sum.0 + p, short_sum.1 + 1);
                } else if d > 0.8 {
                    long_sum = (long_sum.0 + p, long_sum.1 + 1);
                }
            }
        }
        assert!(any_differs, "different seeds must differ somewhere");
        let (short_mean, long_mean) = (
            short_sum.0 / short_sum.1 as f64,
            long_sum.0 / long_sum.1 as f64,
        );
        assert!(
            short_mean > long_mean,
            "short links ({short_mean:.3}) must out-deliver long links ({long_mean:.3})"
        );
        assert!(a.min_delivery() >= 0.0 && a.mean_delivery() <= 1.0);
    }

    #[test]
    fn flaky_edges_exist_and_carry_extra_loss() {
        let t = topo();
        let params = LinkQualityParams {
            flaky_fraction: 0.2,
            ..LinkQualityParams::default()
        };
        let q = LinkQuality::synthetic(&t, &params, 9);
        let mut flaky = 0usize;
        let mut total = 0usize;
        for u in t.nodes() {
            for &v in t.neighbors(u) {
                total += 1;
                if q.is_flaky(&t, u, v) {
                    flaky += 1;
                    assert!(q.delivery(&t, u, v) <= 1.0 - params.flaky_extra_loss + 1e-12);
                }
            }
        }
        let frac = flaky as f64 / total as f64;
        assert!(
            (0.05..0.5).contains(&frac),
            "flaky fraction {frac:.3} far from requested 0.2"
        );
    }

    #[test]
    fn set_delivery_writes_both_directions() {
        let t = topo();
        let mut q = LinkQuality::uniform(&t, 1.0);
        let u = t.nodes().find(|&u| t.degree(u) > 0).unwrap();
        let v = t.neighbors(u)[0];
        q.set_delivery(&t, u, v, 0.5);
        assert_eq!(q.delivery(&t, u, v), 0.5);
        assert_eq!(q.delivery(&t, v, u), 0.5);
        assert!(!q.is_uniform(1.0));
    }

    #[test]
    fn moved_links_lists_each_undirected_edge_past_the_threshold_once() {
        let t = topo();
        let before = LinkQuality::uniform(&t, 1.0);
        let mut after = before.clone();
        let u = t.nodes().find(|&u| t.degree(u) > 1).unwrap();
        let (v, w) = (t.neighbors(u)[0], t.neighbors(u)[1]);
        after.set_delivery(&t, u, v, 0.9);
        after.set_delivery(&t, u, w, 0.97);
        let (a, b) = (u.min(v), u.max(v));
        assert_eq!(before.moved_links(&t, &after, 0.05), vec![(a, b, 0.9)]);
        assert_eq!(before.moved_links(&t, &after, 0.03).len(), 2);
        assert_eq!(
            before.moved_links(&t, &before, 0.0).len(),
            t.csr().edge_count()
        );
        assert!(after.moved_links(&t, &after, 1e-9).is_empty());
    }
}
