//! Incremental conflict-graph maintenance.
//!
//! The searches of `mlbs-core` build a conflict graph at *every* state, and
//! consecutive states are near-identical: an advance shrinks the uninformed
//! set by one coverage step and churns the candidate list by a few nodes.
//! Rebuilding from scratch repeats `O(k²)` pairwise tests that almost all
//! produce the answer they produced one state earlier.
//!
//! [`ConflictGraphBuilder`] exploits the witness-set factorization every
//! [`ConflictModel`] guarantees — `conflict(u, v, W̄) ⇔ wit(u, v) ∩ W̄ ≠ ∅`
//! for a fixed, `W̄`-independent witness set `wit(u, v)` (see the DESIGN
//! note in `wsn-phy`):
//!
//! * a node `d` *entering* `W̄` can only create edges on pairs whose
//!   witness set may contain `d` — for the protocol model
//!   ([`WitnessLocality::CommonNeighbors`]) every pair of candidates
//!   inside `N(d)` gains an edge directly, no test needed; for
//!   witness-checked models ([`WitnessLocality::EitherNeighborhood`],
//!   e.g. SINR) the affected pairs have ≥ 1 endpoint in `N(d)` and `d`'s
//!   membership in the cached witness set decides;
//! * a node `d` *leaving* `W̄` can only break edges on the same affected
//!   pairs — only those few pairs are retested;
//! * pairs untouched by the delta keep their edge state verbatim, and
//!   candidates present on both sides of a churn keep their rows (carried
//!   over under the new indexing).
//!
//! For models whose predicate costs more than a witness scan
//! ([`ConflictModel::prefers_witness_cache`], e.g. SINR's gain
//! arithmetic), a pair's witness set is computed once and cached for the
//! lifetime of an instance, so a retest scans a handful of witness nodes
//! instead of re-evaluating the predicate. The protocol model's fused
//! word-parallel triple intersection is cheaper than that scan, so its
//! pair tests always call the predicate. The witness lists live in one
//! grow-only arena (`Vec<u32>`) with the map holding `(offset, len)`
//! handles — cold population appends to a single allocation instead of
//! boxing a slice per pair. Row storage, index maps, the witness map and
//! arena are scratch owned by the builder; steady-state updates allocate
//! next to nothing.
//!
//! Caches are keyed on both [`wsn_topology::Topology::token`] and
//! [`ConflictModel::fingerprint`]: handing the builder a different
//! topology *or* a different conflict regime resets it instead of mixing
//! graphs across semantics.

use crate::ConflictGraph;
use std::collections::HashMap;
use wsn_bitset::NodeSet;
use wsn_geom::CellGrid;
use wsn_phy::{ConflictModel, ProtocolModel, WitnessLocality};
use wsn_topology::{NodeId, Topology};

/// Work accounting for incremental conflict-graph maintenance.
///
/// `rows_built + rows_reused` is exactly the number of rows a
/// rebuild-per-update strategy would have computed, so the reduction the
/// builder achieves is `(rows_built + rows_reused) / rows_built`
/// (consumers that previously built *several* graphs per state, like the
/// OPT search, multiply that by their sharing factor).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConflictStats {
    /// Updates served by a from-scratch build.
    pub full_builds: usize,
    /// Updates served by the delta path.
    pub delta_updates: usize,
    /// Rows computed from scratch (fresh pairwise tests).
    pub rows_built: usize,
    /// Rows carried across an update and patched by delta.
    pub rows_reused: usize,
    /// Pairwise conflict evaluations performed (fused predicate calls for
    /// fresh pairs, witness scans for retests and membership checks).
    pub pair_tests: usize,
}

impl ConflictStats {
    /// Component-wise `self − earlier`, for windowed accounting.
    pub fn since(&self, earlier: &ConflictStats) -> ConflictStats {
        ConflictStats {
            full_builds: self.full_builds - earlier.full_builds,
            delta_updates: self.delta_updates - earlier.delta_updates,
            rows_built: self.rows_built - earlier.rows_built,
            rows_reused: self.rows_reused - earlier.rows_reused,
            pair_tests: self.pair_tests - earlier.pair_tests,
        }
    }
}

/// Sentinel for "node is not a candidate" in the slot maps.
const NO_SLOT: u32 = u32::MAX;

/// Candidate count above which a from-scratch build enumerates pairs
/// through a spatial grid (when the model certifies a
/// [`ConflictModel::witness_range`]) instead of testing all `O(k²)` pairs.
/// Below this the grid's construction overhead dwarfs the saved tests.
const SPATIAL_BUILD_MIN_CANDIDATES: usize = 64;

/// Reusable, incrementally-updated [`ConflictGraph`] factory.
///
/// One builder serves one `(topology, model)` pair between
/// [`ConflictGraphBuilder::reset`] calls; [`ConflictGraphBuilder::update`]
/// (protocol model) and [`ConflictGraphBuilder::update_with`] (any model)
/// produce graphs bit-identical to from-scratch builds on the same inputs
/// (the workspace proptests assert this under random delta sequences).
#[derive(Clone, Debug)]
pub struct ConflictGraphBuilder {
    graph: ConflictGraph,
    /// `true` once `graph` reflects a previous `update` for this universe.
    valid: bool,
    /// Uninformed set of the previous update.
    uninformed: NodeSet,
    /// node → slot in the *current* candidate list.
    slot_of: Vec<u32>,
    /// Back buffer for `slot_of` during re-indexing.
    slot_next: Vec<u32>,
    /// Back buffer for rows during re-indexing.
    prev_rows: Vec<NodeSet>,
    /// Back buffer for the candidate list during re-indexing.
    prev_candidates: Vec<NodeId>,
    /// Cached witness sets, keyed by packed node-id pair; values are
    /// `(offset, len)` handles into the arena.
    witness: HashMap<u64, (u32, u32)>,
    /// Arena backing every cached witness list — one grow-only allocation
    /// instead of a boxed slice per pair.
    warena: Vec<u32>,
    /// Scratch: witness collection buffer.
    wbuf: Vec<u32>,
    /// Scratch: candidate slots adjacent to one changed node.
    adj_slots: Vec<u32>,
    /// Scratch marker over candidate slots (pair dedup in the
    /// either-neighborhood delta paths).
    adj_mark: NodeSet,
    /// Scratch: new-indexing slots of kept candidates (either-neighborhood
    /// reindex).
    kept_slots: Vec<u32>,
    /// Scratch: nodes that left W̄ since the previous update.
    removed_buf: Vec<u32>,
    /// Scratch: nodes that entered W̄ since the previous update.
    added_buf: Vec<u32>,
    /// [`Topology::token`] of the topology the cached state belongs to
    /// (0 = none). A different token forces a reset even at equal size.
    topo_token: u64,
    /// [`ConflictModel::fingerprint`] of the model the cached state
    /// belongs to (0 = none). A different model forces a reset, so graphs
    /// and witness caches never mix conflict regimes.
    model_fp: u64,
    universe: usize,
    stats: ConflictStats,
}

impl Default for ConflictGraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ConflictGraphBuilder {
    /// Creates an empty builder; it sizes itself on first use.
    pub fn new() -> Self {
        ConflictGraphBuilder {
            graph: ConflictGraph {
                candidates: Vec::new(),
                rows: Vec::new(),
                by_id: Vec::new(),
            },
            valid: false,
            uninformed: NodeSet::new(0),
            slot_of: Vec::new(),
            slot_next: Vec::new(),
            prev_rows: Vec::new(),
            prev_candidates: Vec::new(),
            witness: HashMap::new(),
            warena: Vec::new(),
            wbuf: Vec::new(),
            adj_slots: Vec::new(),
            adj_mark: NodeSet::new(0),
            kept_slots: Vec::new(),
            removed_buf: Vec::new(),
            added_buf: Vec::new(),
            topo_token: 0,
            model_fp: 0,
            universe: 0,
            stats: ConflictStats::default(),
        }
    }

    /// Invalidates all cached state and re-sizes for a universe of `n`
    /// nodes, keeping allocations. [`ConflictGraphBuilder::update_with`]
    /// calls this automatically whenever it sees a different
    /// [`Topology::token`] or model fingerprint, so switching topologies or
    /// regimes is safe without manual resets; call it yourself to drop
    /// caches early.
    pub fn reset(&mut self, n: usize) {
        self.valid = false;
        self.topo_token = 0;
        self.model_fp = 0;
        self.universe = n;
        self.uninformed.reset(n);
        self.slot_of.clear();
        self.slot_of.resize(n, NO_SLOT);
        self.slot_next.clear();
        self.slot_next.resize(n, NO_SLOT);
        self.witness.clear();
        self.warena.clear();
        self.graph.candidates.clear();
        self.graph.rows.clear();
        self.graph.by_id.clear();
        self.stats = ConflictStats::default();
    }

    /// Work accounting since the last [`ConflictGraphBuilder::reset`].
    #[inline]
    pub fn stats(&self) -> &ConflictStats {
        &self.stats
    }

    /// The most recently produced graph.
    #[inline]
    pub fn graph(&self) -> &ConflictGraph {
        &self.graph
    }

    /// The pair's witness set (sorted ascending), computed on first touch
    /// and cached in the builder's arena for the lifetime of the
    /// `(topology, model)` binding — the same cache retests read, exposed
    /// so schedulers layered on the builder (e.g. the anytime local-search
    /// tier) can derive per-pair conflict deadlines without recollecting.
    ///
    /// Must be called under the same `(topology, model)` the last update
    /// ran with; a mismatch would silently mix witness semantics, so it
    /// panics instead.
    pub fn witnesses<M: ConflictModel>(
        &mut self,
        model: &M,
        topo: &Topology,
        u: NodeId,
        v: NodeId,
    ) -> &[u32] {
        assert_eq!(
            (topo.token(), model.fingerprint()),
            (self.topo_token, self.model_fp),
            "witnesses() requires the (topology, model) pair of the last update"
        );
        let (off, len) = self.witness_range(model, topo, u, v);
        &self.warena[off..off + len]
    }

    /// Produces the protocol-model conflict graph of `candidates` against
    /// `uninformed`, reusing as much of the previous graph as the delta
    /// allows. Row indices match `candidates` order exactly, as with
    /// [`ConflictGraph::build`].
    pub fn update(
        &mut self,
        topo: &Topology,
        candidates: &[NodeId],
        uninformed: &NodeSet,
    ) -> &ConflictGraph {
        self.update_with(&ProtocolModel, topo, candidates, uninformed)
    }

    /// As [`ConflictGraphBuilder::update`], under an arbitrary
    /// [`ConflictModel`]. The default protocol model takes exactly the
    /// pre-model code paths (pinned by the substrate regression tests).
    pub fn update_with<M: ConflictModel>(
        &mut self,
        model: &M,
        topo: &Topology,
        candidates: &[NodeId],
        uninformed: &NodeSet,
    ) -> &ConflictGraph {
        let n = topo.len();
        debug_assert_eq!(uninformed.universe(), n);
        let fp = model.fingerprint();
        if n != self.universe || topo.token() != self.topo_token || fp != self.model_fp {
            self.reset(n);
            self.topo_token = topo.token();
            self.model_fp = fp;
        }
        // Cost model: patching visits the candidate-neighborhood of every
        // changed node (`avg_deg` slot lookups each) and then retests the
        // affected pairs — for common-neighbor witnesses that is quadratic
        // in the expected number of candidates adjacent to a changed node
        // (`deg · k/n` under uniform density); for either-neighborhood
        // witnesses each adjacent candidate pairs with the whole list. A
        // full build runs `k(k−1)/2` pair tests. Prefer the delta exactly
        // when it is the cheaper side: sibling states and late-broadcast
        // advances (small `changed`, large `k`) patch; early wide advances
        // rebuild. This is the fallback-to-full-re-sum rule of the
        // `wsn-phy` DESIGN note.
        let k = candidates.len();
        let n_f = n.max(1) as f64;
        let changed = self.changed_count(uninformed) as f64;
        let avg_deg = topo.average_degree();
        let est_c = avg_deg * (k as f64 / n_f).min(1.0);
        let per_changed = match model.locality() {
            WitnessLocality::CommonNeighbors => 1.0 + avg_deg + est_c * est_c / 2.0,
            WitnessLocality::EitherNeighborhood => 1.0 + avg_deg + est_c * k as f64,
        };
        let delta_cost = changed * per_changed;
        let full_cost = (k + k * k.saturating_sub(1) / 2) as f64;
        if !self.valid || delta_cost > full_cost {
            self.full_build(model, topo, candidates, uninformed);
        } else if candidates == self.graph.candidates.as_slice() {
            self.patch_in_place(model, topo, uninformed);
        } else {
            self.reindex(model, topo, candidates, uninformed);
        }
        self.uninformed.copy_from(uninformed);
        self.valid = true;
        &self.graph
    }

    /// `|old W̄ △ new W̄|`, cheap popcount guard for the delta heuristics.
    fn changed_count(&self, uninformed: &NodeSet) -> usize {
        self.uninformed
            .words()
            .iter()
            .zip(uninformed.words())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Evaluates the conflict predicate for one pair: a fresh pair (full
    /// builds, newcomer rows) or a retest of a pair whose edge state may
    /// have changed. Models that prefer the witness cache evaluate through
    /// it: the expensive predicate arithmetic runs once per pair per
    /// instance, and retests scan a handful of cached witness nodes as they
    /// drain out of `W̄`. Everyone else calls the fused predicate directly.
    /// Graphs do not depend on the path; `pair_tests` counts one either way.
    fn pair_conflicts<M: ConflictModel>(
        &mut self,
        model: &M,
        topo: &Topology,
        u: NodeId,
        v: NodeId,
        unf: &NodeSet,
    ) -> bool {
        self.stats.pair_tests += 1;
        if model.prefers_witness_cache() {
            let (off, len) = self.witness_range(model, topo, u, v);
            self.warena[off..off + len]
                .iter()
                .any(|&x| unf.contains(x as usize))
        } else {
            model.conflicts(topo, u, v, unf)
        }
    }

    /// The arena span of the pair's cached witness set, computing and
    /// appending it on first touch.
    fn witness_range<M: ConflictModel>(
        &mut self,
        model: &M,
        topo: &Topology,
        u: NodeId,
        v: NodeId,
    ) -> (usize, usize) {
        let key = pack_pair(u, v);
        if let Some(&(off, len)) = self.witness.get(&key) {
            return (off as usize, len as usize);
        }
        let mut wbuf = std::mem::take(&mut self.wbuf);
        model.collect_witnesses(topo, u, v, &mut wbuf);
        let off = self.warena.len();
        let len = wbuf.len();
        self.warena.extend_from_slice(&wbuf);
        self.witness.insert(key, (off as u32, len as u32));
        self.wbuf = wbuf;
        (off, len)
    }

    /// `true` when node `d` belongs to the pair's witness set (witness
    /// lists are sorted ascending by contract).
    fn witness_contains<M: ConflictModel>(
        &mut self,
        model: &M,
        topo: &Topology,
        u: NodeId,
        v: NodeId,
        d: u32,
    ) -> bool {
        self.stats.pair_tests += 1;
        let (off, len) = self.witness_range(model, topo, u, v);
        self.warena[off..off + len].binary_search(&d).is_ok()
    }

    /// From-scratch build into the reused row arena.
    ///
    /// When the model certifies a geometric witness bound
    /// ([`ConflictModel::witness_range`]) and the candidate list is large,
    /// candidate pairs are enumerated through a [`CellGrid`] instead of
    /// all-pairs: pairs farther apart than the bound provably have empty
    /// witness sets, so skipping them leaves the graph bit-identical while
    /// the pair-test count drops from `O(k²)` to the geometric pair count —
    /// the difference that makes 10k–100k-candidate builds near-linear.
    fn full_build<M: ConflictModel>(
        &mut self,
        model: &M,
        topo: &Topology,
        candidates: &[NodeId],
        unf: &NodeSet,
    ) {
        let k = candidates.len();
        self.clear_slots();
        self.graph.candidates.clear();
        self.graph.candidates.extend_from_slice(candidates);
        for (i, &u) in candidates.iter().enumerate() {
            self.slot_of[u.idx()] = i as u32;
        }
        prepare_rows(&mut self.graph.rows, k);
        let spatial = if k >= SPATIAL_BUILD_MIN_CANDIDATES {
            model.witness_range(topo)
        } else {
            None
        };
        if let Some(range) = spatial {
            let ids: Vec<u32> = candidates.iter().map(|c| c.0).collect();
            let grid = CellGrid::build_subset(topo.positions(), &ids, range);
            grid.for_each_pair_within(topo.positions(), range, |a, b| {
                let i = self.slot_of[a as usize] as usize;
                let j = self.slot_of[b as usize] as usize;
                if self.pair_conflicts(model, topo, NodeId(a), NodeId(b), unf) {
                    self.graph.rows[i].insert(j);
                    self.graph.rows[j].insert(i);
                }
            });
        } else {
            for i in 0..k {
                for j in (i + 1)..k {
                    if self.pair_conflicts(model, topo, candidates[i], candidates[j], unf) {
                        self.graph.rows[i].insert(j);
                        self.graph.rows[j].insert(i);
                    }
                }
            }
        }
        self.graph.rebuild_index();
        self.stats.full_builds += 1;
        self.stats.rows_built += k;
    }

    /// Splits `old W̄ △ new W̄` into the removed / added scratch buffers.
    fn split_delta(&mut self, unf: &NodeSet) {
        self.removed_buf.clear();
        self.added_buf.clear();
        for (wi, (&old, &new)) in self.uninformed.words().iter().zip(unf.words()).enumerate() {
            let mut gone = old & !new;
            while gone != 0 {
                self.removed_buf
                    .push((wi * 64) as u32 + gone.trailing_zeros());
                gone &= gone - 1;
            }
            let mut fresh = new & !old;
            while fresh != 0 {
                self.added_buf
                    .push((wi * 64) as u32 + fresh.trailing_zeros());
                fresh &= fresh - 1;
            }
        }
    }

    /// Same candidates, different uninformed set: patch rows in place.
    fn patch_in_place<M: ConflictModel>(&mut self, model: &M, topo: &Topology, unf: &NodeSet) {
        let k = self.graph.candidates.len();
        self.split_delta(unf);
        match model.locality() {
            WitnessLocality::CommonNeighbors => {
                // Nodes that left W̄ can only break edges among their
                // neighbors.
                for di in 0..self.removed_buf.len() {
                    let d = self.removed_buf[di] as usize;
                    self.collect_adjacent_slots(topo, d);
                    for a_pos in 0..self.adj_slots.len() {
                        let a = self.adj_slots[a_pos] as usize;
                        for b_pos in (a_pos + 1)..self.adj_slots.len() {
                            let b = self.adj_slots[b_pos] as usize;
                            if self.graph.rows[a].contains(b) {
                                let (u, v) = (self.graph.candidates[a], self.graph.candidates[b]);
                                if !self.pair_conflicts(model, topo, u, v, unf) {
                                    self.graph.rows[a].remove(b);
                                    self.graph.rows[b].remove(a);
                                }
                            }
                        }
                    }
                }
                // Nodes that entered W̄ are themselves fresh witnesses:
                // every candidate pair hearing them now conflicts, no test
                // needed.
                for di in 0..self.added_buf.len() {
                    let d = self.added_buf[di] as usize;
                    self.collect_adjacent_slots(topo, d);
                    for a_pos in 0..self.adj_slots.len() {
                        let a = self.adj_slots[a_pos] as usize;
                        for b_pos in (a_pos + 1)..self.adj_slots.len() {
                            let b = self.adj_slots[b_pos] as usize;
                            self.graph.rows[a].insert(b);
                            self.graph.rows[b].insert(a);
                        }
                    }
                }
            }
            WitnessLocality::EitherNeighborhood => {
                // Affected pairs have ≥ 1 endpoint adjacent to the changed
                // node; a changed node's witness-ness is decided per pair
                // from the cached witness set.
                for di in 0..self.removed_buf.len() {
                    let d = self.removed_buf[di];
                    self.collect_adjacent_slots(topo, d as usize);
                    self.patch_either_pairs(model, topo, unf, k, d, false, false);
                }
                for di in 0..self.added_buf.len() {
                    let d = self.added_buf[di];
                    self.collect_adjacent_slots(topo, d as usize);
                    self.patch_either_pairs(model, topo, unf, k, d, true, false);
                }
            }
        }
        self.stats.delta_updates += 1;
        self.stats.rows_reused += k;
    }

    /// Either-neighborhood delta step for one changed node `d`: walk every
    /// pair with ≥ 1 endpoint in `adj_slots` (deduplicated when both
    /// endpoints are adjacent). The inner endpoint ranges over all `k`
    /// current slots, or — mid-reindex, with `kept_only` — over
    /// `kept_slots` (newcomer pairs are tested fresh separately). `adding`
    /// decides the direction: an entering witness can only create edges
    /// (cached membership check), a leaving one can only break them
    /// (retest against the new `W̄`).
    #[allow(clippy::too_many_arguments)]
    fn patch_either_pairs<M: ConflictModel>(
        &mut self,
        model: &M,
        topo: &Topology,
        unf: &NodeSet,
        k: usize,
        d: u32,
        adding: bool,
        kept_only: bool,
    ) {
        self.adj_mark.reset(k);
        for pos in 0..self.adj_slots.len() {
            self.adj_mark.insert(self.adj_slots[pos] as usize);
        }
        let inner_len = if kept_only { self.kept_slots.len() } else { k };
        for pos in 0..self.adj_slots.len() {
            let a = self.adj_slots[pos] as usize;
            for bi in 0..inner_len {
                let b = if kept_only {
                    self.kept_slots[bi] as usize
                } else {
                    bi
                };
                if b == a || (self.adj_mark.contains(b) && b < a) {
                    continue;
                }
                let has_edge = self.graph.rows[a].contains(b);
                let (u, v) = (self.graph.candidates[a], self.graph.candidates[b]);
                if adding {
                    if !has_edge && self.witness_contains(model, topo, u, v, d) {
                        self.graph.rows[a].insert(b);
                        self.graph.rows[b].insert(a);
                    }
                } else if has_edge && !self.pair_conflicts(model, topo, u, v, unf) {
                    self.graph.rows[a].remove(b);
                    self.graph.rows[b].remove(a);
                }
            }
        }
    }

    /// Candidate list changed: carry rows of kept candidates into the new
    /// indexing, patch them for the uninformed delta, and build fresh rows
    /// only for newcomers.
    fn reindex<M: ConflictModel>(
        &mut self,
        model: &M,
        topo: &Topology,
        candidates: &[NodeId],
        unf: &NodeSet,
    ) {
        let k = candidates.len();
        for (i, &u) in candidates.iter().enumerate() {
            self.slot_next[u.idx()] = i as u32;
        }
        let kept = candidates
            .iter()
            .filter(|u| self.slot_of[u.idx()] != NO_SLOT)
            .count();
        if kept * 2 < k {
            // Too much churn for the carry to pay off.
            for &u in candidates {
                self.slot_next[u.idx()] = NO_SLOT;
            }
            self.full_build(model, topo, candidates, unf);
            return;
        }

        std::mem::swap(&mut self.graph.rows, &mut self.prev_rows);
        std::mem::swap(&mut self.graph.candidates, &mut self.prev_candidates);
        self.graph.candidates.clear();
        self.graph.candidates.extend_from_slice(candidates);
        prepare_rows(&mut self.graph.rows, k);

        // Carry: every old edge whose endpoints both survived.
        for (i_old, &u) in self.prev_candidates.iter().enumerate() {
            let ni = self.slot_next[u.idx()];
            if ni == NO_SLOT {
                continue;
            }
            for j_old in self.prev_rows[i_old].iter() {
                if j_old <= i_old {
                    continue;
                }
                let nj = self.slot_next[self.prev_candidates[j_old].idx()];
                if nj != NO_SLOT {
                    self.graph.rows[ni as usize].insert(nj as usize);
                    self.graph.rows[nj as usize].insert(ni as usize);
                }
            }
        }

        // Patch kept-kept pairs for the uninformed delta (newcomer pairs
        // are tested fresh below, against the new set directly).
        self.split_delta(unf);
        match model.locality() {
            WitnessLocality::CommonNeighbors => {
                for di in 0..self.removed_buf.len() {
                    let d = self.removed_buf[di] as usize;
                    self.collect_adjacent_kept_slots(topo, d);
                    for a_pos in 0..self.adj_slots.len() {
                        let a = self.adj_slots[a_pos] as usize;
                        for b_pos in (a_pos + 1)..self.adj_slots.len() {
                            let b = self.adj_slots[b_pos] as usize;
                            if self.graph.rows[a].contains(b) {
                                let (u, v) = (self.graph.candidates[a], self.graph.candidates[b]);
                                if !self.pair_conflicts(model, topo, u, v, unf) {
                                    self.graph.rows[a].remove(b);
                                    self.graph.rows[b].remove(a);
                                }
                            }
                        }
                    }
                }
                for di in 0..self.added_buf.len() {
                    let d = self.added_buf[di] as usize;
                    self.collect_adjacent_kept_slots(topo, d);
                    for a_pos in 0..self.adj_slots.len() {
                        let a = self.adj_slots[a_pos] as usize;
                        for b_pos in (a_pos + 1)..self.adj_slots.len() {
                            let b = self.adj_slots[b_pos] as usize;
                            self.graph.rows[a].insert(b);
                            self.graph.rows[b].insert(a);
                        }
                    }
                }
            }
            WitnessLocality::EitherNeighborhood => {
                self.kept_slots.clear();
                for (i, &u) in candidates.iter().enumerate() {
                    if self.slot_of[u.idx()] != NO_SLOT {
                        self.kept_slots.push(i as u32);
                    }
                }
                for di in 0..self.removed_buf.len() {
                    let d = self.removed_buf[di];
                    self.collect_adjacent_kept_slots(topo, d as usize);
                    self.patch_either_pairs(model, topo, unf, k, d, false, true);
                }
                for di in 0..self.added_buf.len() {
                    let d = self.added_buf[di];
                    self.collect_adjacent_kept_slots(topo, d as usize);
                    self.patch_either_pairs(model, topo, unf, k, d, true, true);
                }
            }
        }

        // Fresh rows for newcomers, against everyone.
        for a in 0..k {
            let u = candidates[a];
            if self.slot_of[u.idx()] != NO_SLOT {
                continue; // kept, handled above
            }
            for (b, &v) in candidates.iter().enumerate() {
                if b == a || (self.slot_of[v.idx()] == NO_SLOT && b < a) {
                    continue; // self, or newcomer pair already tested
                }
                if self.pair_conflicts(model, topo, u, v, unf) {
                    self.graph.rows[a].insert(b);
                    self.graph.rows[b].insert(a);
                }
            }
        }

        // Promote the new slot map and clean the old one for reuse.
        std::mem::swap(&mut self.slot_of, &mut self.slot_next);
        for &u in &self.prev_candidates {
            self.slot_next[u.idx()] = NO_SLOT;
        }
        self.graph.rebuild_index();
        self.stats.delta_updates += 1;
        self.stats.rows_reused += kept;
        self.stats.rows_built += k - kept;
    }

    /// Clears `slot_of` entries of the current candidate list.
    fn clear_slots(&mut self) {
        for i in 0..self.graph.candidates.len() {
            let u = self.graph.candidates[i];
            self.slot_of[u.idx()] = NO_SLOT;
        }
    }

    /// Fills `adj_slots` with current-graph slots of candidates adjacent
    /// to node `d`.
    fn collect_adjacent_slots(&mut self, topo: &Topology, d: usize) {
        self.adj_slots.clear();
        for &v in topo.neighbors(NodeId(d as u32)) {
            let s = self.slot_of[v.idx()];
            if s != NO_SLOT {
                self.adj_slots.push(s);
            }
        }
    }

    /// As [`Self::collect_adjacent_slots`], mid-reindex: resolves through
    /// the *next* slot map but keeps only candidates that also held a slot
    /// in the previous graph (kept candidates).
    fn collect_adjacent_kept_slots(&mut self, topo: &Topology, d: usize) {
        self.adj_slots.clear();
        for &v in topo.neighbors(NodeId(d as u32)) {
            let s = self.slot_next[v.idx()];
            if s != NO_SLOT && self.slot_of[v.idx()] != NO_SLOT {
                self.adj_slots.push(s);
            }
        }
    }
}

/// Packs an unordered node pair into a symmetric cache key.
#[inline]
fn pack_pair(u: NodeId, v: NodeId) -> u64 {
    let (lo, hi) = if u.0 <= v.0 { (u.0, v.0) } else { (v.0, u.0) };
    (u64::from(hi) << 32) | u64::from(lo)
}

/// Re-sizes the row arena to `k` empty rows over a `k`-slot universe,
/// reusing every allocation it can.
fn prepare_rows(rows: &mut Vec<NodeSet>, k: usize) {
    rows.truncate(k);
    for r in rows.iter_mut() {
        r.reset(k);
    }
    while rows.len() < k {
        rows.push(NodeSet::new(k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geom::Point;
    use wsn_phy::{SinrModel, SinrParams};
    use wsn_topology::Topology;

    fn line(n: usize) -> Topology {
        Topology::unit_disk(
            (0..n).map(|i| Point::new(i as f64 * 0.8, 0.0)).collect(),
            1.0,
        )
    }

    fn assert_graphs_equal(a: &ConflictGraph, b: &ConflictGraph) {
        assert_eq!(a.candidates(), b.candidates());
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.row(i), b.row(i), "row {i} differs");
        }
    }

    #[test]
    fn matches_scratch_build_on_shrinking_uninformed() {
        let t = line(12);
        let cands: Vec<NodeId> = (0..6).map(|i| NodeId(i as u32 * 2)).collect();
        let mut b = ConflictGraphBuilder::new();
        let mut unf = NodeSet::full(12);
        for informed in 0..12usize {
            unf.remove(informed);
            let scratch = ConflictGraph::build(&t, &cands, &unf);
            assert_graphs_equal(b.update(&t, &cands, &unf), &scratch);
        }
        assert!(b.stats().delta_updates > 0, "delta path exercised");
    }

    #[test]
    fn matches_scratch_build_on_candidate_churn() {
        let t = line(16);
        let mut b = ConflictGraphBuilder::new();
        let mut unf = NodeSet::full(16);
        unf.remove(0);
        unf.remove(1);
        let lists: Vec<Vec<NodeId>> = vec![
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(0), NodeId(2), NodeId(3), NodeId(4)], // drop 1, add 4
            vec![NodeId(2), NodeId(3), NodeId(4), NodeId(5), NodeId(6)],
            vec![NodeId(9), NodeId(11), NodeId(13)], // total churn → full build
        ];
        for (step, cands) in lists.iter().enumerate() {
            unf.remove(step + 2); // shrink alongside the churn
            let scratch = ConflictGraph::build(&t, cands, &unf);
            assert_graphs_equal(b.update(&t, cands, &unf), &scratch);
        }
    }

    #[test]
    fn matches_scratch_build_when_uninformed_grows_back() {
        // DFS backtracking makes W̄ grow between consecutive updates.
        let t = line(10);
        let cands: Vec<NodeId> = (0..5).map(|i| NodeId(i as u32)).collect();
        let mut b = ConflictGraphBuilder::new();
        let mut unf = NodeSet::full(10);
        for i in 0..6 {
            unf.remove(i);
        }
        b.update(&t, &cands, &unf);
        for i in 3..6 {
            unf.insert(i); // backtrack: three nodes return to W̄
        }
        let scratch = ConflictGraph::build(&t, &cands, &unf);
        assert_graphs_equal(b.update(&t, &cands, &unf), &scratch);
    }

    #[test]
    fn reset_isolates_topologies() {
        let t1 = line(8);
        let t2 = Topology::unit_disk(
            (0..8).map(|i| Point::new(0.0, i as f64 * 0.5)).collect(),
            2.0,
        );
        let cands: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut b = ConflictGraphBuilder::new();
        let unf = NodeSet::full(8);
        b.update(&t1, &cands, &unf);
        b.reset(t2.len());
        assert_graphs_equal(
            b.update(&t2, &cands, &unf),
            &ConflictGraph::build(&t2, &cands, &unf),
        );
    }

    #[test]
    fn same_size_topology_swap_auto_resets() {
        // Two different 8-node topologies: the size check alone cannot
        // tell them apart, the identity token must. No manual reset.
        let t1 = line(8);
        let t2 = Topology::unit_disk(
            (0..8).map(|i| Point::new(0.0, i as f64 * 0.5)).collect(),
            2.0,
        );
        let cands: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut b = ConflictGraphBuilder::new();
        let unf = NodeSet::full(8);
        b.update(&t1, &cands, &unf);
        assert_graphs_equal(
            b.update(&t2, &cands, &unf),
            &ConflictGraph::build(&t2, &cands, &unf),
        );
        // And back again — the cache never leaks across swaps.
        assert_graphs_equal(
            b.update(&t1, &cands, &unf),
            &ConflictGraph::build(&t1, &cands, &unf),
        );
    }

    #[test]
    fn model_swap_auto_resets() {
        // Same topology, different conflict regime: the model fingerprint
        // must invalidate the cached graph and witness sets.
        let t = line(10);
        let cands: Vec<NodeId> = (2..8).map(|i| NodeId(i as u32)).collect();
        let sinr = SinrModel::new(SinrParams::calibrated(t.radius(), 3.0, 1.5), &t);
        let mut b = ConflictGraphBuilder::new();
        let mut unf = NodeSet::full(10);
        unf.remove(3);
        b.update(&t, &cands, &unf);
        assert_graphs_equal(
            b.update_with(&sinr, &t, &cands, &unf),
            &ConflictGraph::build_with_model(&sinr, &t, &cands, &unf),
        );
        // And back to the protocol model.
        assert_graphs_equal(
            b.update(&t, &cands, &unf),
            &ConflictGraph::build(&t, &cands, &unf),
        );
    }

    #[test]
    fn sinr_delta_matches_scratch_on_shrink_and_growback() {
        let t = line(14);
        let cands: Vec<NodeId> = (0..7).map(|i| NodeId(i as u32 * 2)).collect();
        let m = SinrModel::new(SinrParams::calibrated(t.radius(), 3.0, 1.5), &t);
        let mut b = ConflictGraphBuilder::new();
        let mut unf = NodeSet::full(14);
        for informed in 0..10usize {
            unf.remove(informed);
            let scratch = ConflictGraph::build_with_model(&m, &t, &cands, &unf);
            assert_graphs_equal(b.update_with(&m, &t, &cands, &unf), &scratch);
        }
        for i in 5..10usize {
            unf.insert(i); // backtrack
        }
        let scratch = ConflictGraph::build_with_model(&m, &t, &cands, &unf);
        assert_graphs_equal(b.update_with(&m, &t, &cands, &unf), &scratch);
        assert!(b.stats().delta_updates > 0, "SINR delta path exercised");
        assert!(
            !b.witness.is_empty(),
            "SINR retests ran through the witness cache"
        );
    }

    #[test]
    fn sinr_delta_matches_scratch_on_candidate_churn() {
        let t = line(16);
        let m = SinrModel::new(SinrParams::calibrated(t.radius(), 3.0, 1.5), &t);
        let mut b = ConflictGraphBuilder::new();
        let mut unf = NodeSet::full(16);
        unf.remove(0);
        unf.remove(1);
        let lists: Vec<Vec<NodeId>> = vec![
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(0), NodeId(2), NodeId(3), NodeId(4)],
            vec![NodeId(2), NodeId(3), NodeId(4), NodeId(5), NodeId(6)],
        ];
        for (step, cands) in lists.iter().enumerate() {
            unf.remove(step + 2);
            let scratch = ConflictGraph::build_with_model(&m, &t, cands, &unf);
            assert_graphs_equal(b.update_with(&m, &t, cands, &unf), &scratch);
        }
    }

    #[test]
    fn row_accounting_adds_up() {
        let t = line(12);
        let cands: Vec<NodeId> = (0..6).map(|i| NodeId(i as u32)).collect();
        let mut b = ConflictGraphBuilder::new();
        let mut unf = NodeSet::full(12);
        b.update(&t, &cands, &unf);
        unf.remove(7);
        b.update(&t, &cands, &unf);
        let s = *b.stats();
        assert_eq!(s.full_builds, 1);
        assert_eq!(s.delta_updates, 1);
        assert_eq!(s.rows_built, 6);
        assert_eq!(s.rows_reused, 6);
    }

    #[test]
    fn witness_arena_grows_once_per_pair() {
        // The arena-backed cache (SINR prefers it): retesting the same
        // pairs over and over must not grow the arena after first touch.
        let t = line(40);
        let m = SinrModel::new(SinrParams::calibrated(t.radius(), 3.0, 1.5), &t);
        let cands: Vec<NodeId> = (10..30).map(|i| NodeId(i as u32)).collect();
        let mut b = ConflictGraphBuilder::new();
        let mut unf = NodeSet::full(40);
        b.update_with(&m, &t, &cands, &unf);
        unf.remove(15);
        b.update_with(&m, &t, &cands, &unf);
        let (pairs, arena) = (b.witness.len(), b.warena.len());
        assert!(pairs > 0, "cache populated");
        for step in 0..6usize {
            unf.remove(16 + step);
            unf.insert(15 + step); // churn back and forth over the same pairs
            b.update_with(&m, &t, &cands, &unf);
        }
        assert!(b.witness.len() >= pairs);
        // Every arena entry is owned by exactly one map handle.
        let spanned: usize = b.witness.values().map(|&(_, l)| l as usize).sum();
        assert_eq!(spanned, b.warena.len());
        assert!(b.warena.len() >= arena);
    }

    #[test]
    fn spatial_full_build_matches_all_pairs() {
        // Enough candidates to trigger the CellGrid pair enumeration for
        // models that certify a witness range; graphs must be bit-identical
        // to the all-pairs scratch build (skipped pairs provably have empty
        // witness sets). Inputs: every other node of a 1-D chain, and every
        // node of a dense 50×50 lattice where each grid cell holds many
        // candidates.
        let lattice = Topology::unit_disk(
            (0..2500)
                .map(|i| Point::new((i % 50) as f64, (i / 50) as f64))
                .collect(),
            2.0,
        );
        let unf_of = |n: usize| {
            let mut unf = NodeSet::full(n);
            for informed in [0usize, 17, 33, 120] {
                unf.remove(informed);
            }
            unf
        };
        let chain_cands: Vec<NodeId> = (0..150).map(|i| NodeId(i * 2)).collect();
        let chain = line(300);
        for (t, cands) in [
            (&chain, chain_cands.clone()),
            (&lattice, (0..2500).map(NodeId).collect()),
        ] {
            assert!(cands.len() >= SPATIAL_BUILD_MIN_CANDIDATES);
            let unf = unf_of(t.len());
            let mut b = ConflictGraphBuilder::new();
            assert_graphs_equal(
                b.update(t, &cands, &unf),
                &ConflictGraph::build(t, &cands, &unf),
            );
        }
        // SINR's all-pairs reference is slow on the lattice; the chain
        // covers its spatial path.
        let unf = unf_of(chain.len());
        let sinr = SinrModel::new(SinrParams::calibrated(chain.radius(), 3.0, 1.5), &chain);
        let mut bs = ConflictGraphBuilder::new();
        assert_graphs_equal(
            bs.update_with(&sinr, &chain, &chain_cands, &unf),
            &ConflictGraph::build_with_model(&sinr, &chain, &chain_cands, &unf),
        );
    }

    #[test]
    fn public_witness_accessor_matches_model() {
        let t = line(20);
        let cands: Vec<NodeId> = (0..10).map(|i| NodeId(i as u32)).collect();
        let unf = NodeSet::full(20);
        let mut b = ConflictGraphBuilder::new();
        b.update(&t, &cands, &unf);
        let mut expect = Vec::new();
        for (i, &u) in cands.iter().enumerate() {
            for &v in &cands[i + 1..] {
                ProtocolModel.collect_witnesses(&t, u, v, &mut expect);
                assert_eq!(b.witnesses(&ProtocolModel, &t, u, v), expect.as_slice());
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires the (topology, model)")]
    fn public_witness_accessor_rejects_stale_binding() {
        let t = line(20);
        let other = line(20);
        let cands: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut b = ConflictGraphBuilder::new();
        b.update(&t, &cands, &NodeSet::full(20));
        b.witnesses(&ProtocolModel, &other, NodeId(0), NodeId(1));
    }
}
