//! Enumeration of maximal conflict-free sender sets.
//!
//! The OPT target (Eq. 5/6) quantifies over "any possible color" satisfying
//! Eq. (1): every inclusion-maximal conflict-free subset of the candidate
//! senders can be the launched color of an advance. A conflict-free set is
//! an independent set in the conflict graph, i.e. a clique in its
//! complement, so we run Bron–Kerbosch with pivoting over the complement
//! adjacency (bitset rows over candidate indices keep each recursion step
//! word-parallel).
//!
//! The number of maximal sets can grow exponentially; [`maximal_conflict_free_sets`]
//! accepts a cap and reports whether it truncated, which is how the OPT
//! solver distinguishes "exact" from "beam" mode. An optional covering
//! constraint ([`HitMasks`]) restricts it to the sets whose members'
//! masks cover a target, cutting every subtree that cannot.

use wsn_bitset::NodeSet;
use wsn_interference::ConflictGraph;
use wsn_topology::NodeId;

/// Result of an enumeration: the sets (as candidate-index lists, each
/// sorted ascending) and whether the cap cut the enumeration short.
#[derive(Debug, Clone)]
pub struct EnumerationOutcome {
    /// Maximal conflict-free candidate-index sets, in discovery order.
    pub sets: Vec<Vec<usize>>,
    /// `true` when the cap stopped enumeration before exhausting all sets.
    pub truncated: bool,
}

/// A covering constraint on the enumerated sets: a set qualifies when the
/// masks of its members cover `target`. The OPT search uses it at a state
/// whose budget equals its hop bound, with one bit per far node (see
/// `mlbs_core::bounds::HopBound::hit_masks`).
#[derive(Clone, Copy, Debug)]
pub struct HitMasks<'a> {
    /// One mask per candidate index.
    pub masks: &'a [u64],
    /// The bits a qualifying set must cover.
    pub target: u64,
}

/// Enumerates maximal conflict-free subsets of the candidates in `cg`,
/// stopping after `cap` visits. With `hit`, only the sets that cover
/// `hit.target` are enumerated.
///
/// A visit is an enumerated set or, with `hit`, a subtree cut because its
/// chosen and still-possible members cannot cover the target. Without
/// `hit` the cap therefore counts sets. With it, the cap also bounds the
/// work spent on sets that do not qualify, and running out of visits
/// reports `truncated` like running out of sets. The qualifying sets come
/// out in the order the unconstrained enumeration finds them.
///
/// Candidates with no conflicts at all end up together in every maximal
/// set that can host them (standard Bron–Kerbosch behaviour on the
/// complement graph).
pub fn maximal_conflict_free_sets(
    cg: &ConflictGraph,
    cap: usize,
    hit: Option<HitMasks<'_>>,
) -> EnumerationOutcome {
    let k = cg.len();
    let mut bk = BronKerbosch {
        // Complement adjacency: candidate i is "compatible" with j when
        // they do NOT conflict (and i ≠ j).
        compat: (0..k)
            .map(|i| {
                let mut row = cg.row(i).complement();
                row.remove(i);
                row
            })
            .collect(),
        cap,
        hit,
        visits: 0,
        out: EnumerationOutcome {
            sets: Vec::new(),
            truncated: false,
        },
    };
    if k > 0 {
        let mut r = NodeSet::new(k);
        let mut p = NodeSet::full(k);
        let mut x = NodeSet::new(k);
        bk.expand(&mut r, &mut p, &mut x, 0);
    }
    bk.out
}

/// Greedily extends a conflict-free sender set to an inclusion-maximal one
/// (candidate order = conflict-graph order, which is deterministic).
///
/// Membership is tracked as a candidate-index bitset, so each admission
/// test is one word-parallel `row ∩ members` intersection and base lookup
/// goes through the graph's candidate→index map — no linear `contains` /
/// `position` scans.
///
/// # Panics
///
/// Panics if a member of `base` is not a candidate of `cg`.
pub fn extend_to_maximal(cg: &ConflictGraph, base: &[NodeId]) -> Vec<NodeId> {
    let mut members = NodeSet::new(cg.len());
    for &u in base {
        members.insert(cg.index_of(u).expect("base member is a candidate"));
    }
    for i in 0..cg.len() {
        if !members.contains(i) && !cg.conflicts_with_set(i, &members) {
            members.insert(i);
        }
    }
    let mut out: Vec<NodeId> = members.iter().map(|i| cg.node(i)).collect();
    out.sort_unstable();
    out
}

/// Classic Bron–Kerbosch with pivoting over the complement adjacency,
/// with an optional covering cut and a visit budget.
struct BronKerbosch<'a> {
    compat: Vec<NodeSet>,
    cap: usize,
    hit: Option<HitMasks<'a>>,
    /// Sets enumerated plus subtrees cut by the covering test.
    visits: usize,
    out: EnumerationOutcome,
}

impl BronKerbosch<'_> {
    /// Expands `r` = current clique, `p` = candidates, `x` = excluded;
    /// `r_mask` is the union of the members' hit masks.
    fn expand(&mut self, r: &mut NodeSet, p: &mut NodeSet, x: &mut NodeSet, r_mask: u64) {
        if self.visits >= self.cap {
            self.out.truncated = true;
            return;
        }
        if let Some(hit) = self.hit {
            // Every set found below is `r` plus members of `p`.
            let mut reach = r_mask;
            for i in p.iter() {
                if reach & hit.target == hit.target {
                    break;
                }
                reach |= hit.masks[i];
            }
            if reach & hit.target != hit.target {
                self.visits += 1;
                return;
            }
        }
        if p.is_empty() && x.is_empty() {
            self.out.sets.push(r.to_vec());
            self.visits += 1;
            return;
        }

        // Pivot: the member of P ∪ X with the most compatibilities inside
        // P, minimizing the branching |P ∖ compat(pivot)|.
        let compat = &self.compat;
        let pivot = p
            .iter()
            .chain(x.iter())
            .max_by_key(|&u| compat[u].intersection_len(p))
            .expect("P ∪ X non-empty here");

        let branch: Vec<usize> = p.difference(&compat[pivot]).to_vec();
        for v in branch {
            if self.visits >= self.cap {
                self.out.truncated = true;
                return;
            }
            // Recurse with R ∪ {v}, P ∩ compat(v), X ∩ compat(v).
            r.insert(v);
            let mut p2 = p.intersection(&self.compat[v]);
            let mut x2 = x.intersection(&self.compat[v]);
            let v_mask = self.hit.map_or(0, |hit| hit.masks[v]);
            self.expand(r, &mut p2, &mut x2, r_mask | v_mask);
            r.remove(v);
            p.remove(v);
            x.insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_bitset::NodeSet;
    use wsn_topology::{fixtures, NodeId};

    fn build_cg(
        f: &wsn_topology::fixtures::Fixture,
        informed: &[usize],
        candidates: &[&str],
    ) -> (ConflictGraph, Vec<NodeId>) {
        let w = NodeSet::from_indices(f.topo.len(), informed.iter().copied());
        let cands: Vec<NodeId> = candidates.iter().map(|l| f.id(l)).collect();
        let cg = ConflictGraph::build(&f.topo, &cands, &w.complement());
        (cg, cands)
    }

    #[test]
    fn pairwise_conflicting_candidates_yield_singletons() {
        // Fig 2(a), W = {1,2,3}: candidates 2 and 3 conflict at 4 → the
        // maximal sets are {2} and {3}.
        let f = fixtures::fig2a();
        let (cg, _) = build_cg(&f, &[0, 1, 2], &["2", "3"]);
        let out = maximal_conflict_free_sets(&cg, 100, None);
        assert!(!out.truncated);
        let mut sets = out.sets.clone();
        sets.sort();
        assert_eq!(sets, vec![vec![0], vec![1]]);
    }

    #[test]
    fn fig1_recolored_state_has_expected_maximal_sets() {
        // W = {s,0,1,2,3,4,10}: candidates {0,3,4,10}; conflicts:
        // 0–3 (at 6), 3–4 (at 8,9), 3–10 (at 8), 4–10 (at 8).
        // Maximal conflict-free sets: {0,4}, {0,10}, {3}.
        let f = fixtures::fig1();
        let (cg, cands) = build_cg(&f, &[11, 0, 1, 2, 3, 4, 10], &["0", "3", "4", "10"]);
        let out = maximal_conflict_free_sets(&cg, 100, None);
        assert!(!out.truncated);
        let mut as_labels: Vec<Vec<&str>> = out
            .sets
            .iter()
            .map(|s| {
                let mut v: Vec<&str> = s.iter().map(|&i| f.label(cands[i])).collect();
                v.sort_by_key(|l| l.parse::<i32>().unwrap());
                v
            })
            .collect();
        as_labels.sort();
        assert_eq!(as_labels, vec![vec!["0", "10"], vec!["0", "4"], vec!["3"]]);
    }

    #[test]
    fn no_conflicts_means_single_maximal_set() {
        let f = fixtures::fig1();
        // W = everything but {5,7}: candidates 0 and 6 conflict (common
        // uninformed 5 and 7)... so instead take W = all but {8}:
        // candidates 4, 9, 10 all conflict pairwise at 8 → three singletons.
        let informed: Vec<usize> = (0..12).filter(|&i| i != 8).collect();
        let (cg, _) = build_cg(&f, &informed, &["4", "9", "10"]);
        let out = maximal_conflict_free_sets(&cg, 100, None);
        let mut sets = out.sets.clone();
        sets.sort();
        assert_eq!(sets, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn cap_truncates_and_reports() {
        let f = fixtures::fig1();
        let (cg, _) = build_cg(&f, &[11, 0, 1, 2, 3, 4, 10], &["0", "3", "4", "10"]);
        let out = maximal_conflict_free_sets(&cg, 1, None);
        assert!(out.truncated);
        assert_eq!(out.sets.len(), 1);
    }

    #[test]
    fn hit_masks_cut_subtrees_and_spend_visits() {
        // The state above, where only {3} may cover the target: the first
        // subtree (under "0") cannot and is cut, then {3} is found.
        let f = fixtures::fig1();
        let (cg, cands) = build_cg(&f, &[11, 0, 1, 2, 3, 4, 10], &["0", "3", "4", "10"]);
        let masks: Vec<u64> = cands.iter().map(|&u| u64::from(u == f.id("3"))).collect();
        let hit = HitMasks {
            masks: &masks,
            target: 1,
        };
        let out = maximal_conflict_free_sets(&cg, 2, Some(hit));
        assert!(!out.truncated);
        assert_eq!(out.sets, vec![vec![1]]);
        // The cut spent the only visit of a cap of one.
        let out = maximal_conflict_free_sets(&cg, 1, Some(hit));
        assert!(out.truncated);
        assert!(out.sets.is_empty());
        // A target no candidate can reach is cut at the root.
        let none = HitMasks {
            masks: &masks,
            target: 2,
        };
        let out = maximal_conflict_free_sets(&cg, 1, Some(none));
        assert!(!out.truncated && out.sets.is_empty());
    }

    #[test]
    fn empty_candidates() {
        let f = fixtures::fig2a();
        let (cg, _) = build_cg(&f, &[0], &[]);
        let out = maximal_conflict_free_sets(&cg, 10, None);
        assert!(out.sets.is_empty());
        assert!(!out.truncated);
    }

    #[test]
    fn every_enumerated_set_is_conflict_free_and_maximal() {
        let f = fixtures::fig1();
        let informed = [11usize, 0, 1, 2, 3];
        let w = NodeSet::from_indices(12, informed.iter().copied());
        let cands = crate::eligible_senders(&f.topo, &w);
        let cg = ConflictGraph::build(&f.topo, &cands, &w.complement());
        let out = maximal_conflict_free_sets(&cg, 1000, None);
        assert!(!out.truncated);
        assert!(!out.sets.is_empty());
        for set in &out.sets {
            // Conflict-free inside.
            for (a, &i) in set.iter().enumerate() {
                for &j in &set[a + 1..] {
                    assert!(!cg.conflict(i, j));
                }
            }
            // Maximal: every outside candidate conflicts with something.
            for o in 0..cg.len() {
                if !set.contains(&o) {
                    assert!(
                        set.iter().any(|&i| cg.conflict(i, o)),
                        "candidate {o} could extend {set:?}"
                    );
                }
            }
        }
    }
}
