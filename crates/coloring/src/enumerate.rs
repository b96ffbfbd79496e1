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
//! solver distinguishes "exact" from "beam" mode.

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

/// Enumerates maximal conflict-free subsets of the candidates in `cg`,
/// stopping after `cap` sets.
///
/// Candidates with no conflicts at all end up together in every maximal
/// set that can host them (standard Bron–Kerbosch behaviour on the
/// complement graph).
pub fn maximal_conflict_free_sets(cg: &ConflictGraph, cap: usize) -> EnumerationOutcome {
    let k = cg.len();
    let mut out = EnumerationOutcome {
        sets: Vec::new(),
        truncated: false,
    };
    if k == 0 {
        return out;
    }

    // Complement adjacency: candidate i is "compatible" with j when they do
    // NOT conflict (and i ≠ j).
    let compat: Vec<NodeSet> = (0..k)
        .map(|i| {
            let mut row = cg.row(i).complement();
            row.remove(i);
            row
        })
        .collect();

    let mut r = NodeSet::new(k);
    let mut p = NodeSet::full(k);
    let mut x = NodeSet::new(k);
    bron_kerbosch(&compat, &mut r, &mut p, &mut x, cap, &mut out);
    out
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

/// Orders branch sets best-first: stable sort by `score`, descending.
/// Returns `true` when the sort actually permuted the list — the OPT
/// search counts that as a branch reorder.
///
/// This is the enumeration-side ordering hook: enumeration discovers
/// maximal sets in Bron–Kerbosch order, which is arbitrary with respect to
/// search quality; scoring lets a beam cap truncate the *worst* branches
/// instead of whatever the recursion happened to find last.
pub fn order_best_first<T, K: Ord, F: FnMut(&T) -> K>(sets: &mut [T], mut score: F) -> bool {
    // Score exactly once per element: the closure may be expensive, and a
    // stateful scorer must not make the reorder check and the sort
    // disagree. Sort an index permutation by (score desc, index asc) —
    // the index tiebreak is what makes this stable — then apply it with
    // in-place cycle swaps, no `T: Clone` needed.
    let scores: Vec<K> = sets.iter().map(&mut score).collect();
    if scores.windows(2).all(|w| w[0] >= w[1]) {
        return false;
    }
    let mut order: Vec<usize> = (0..sets.len()).collect();
    order.sort_by(|&a, &b| scores[b].cmp(&scores[a]).then(a.cmp(&b)));
    // `order` is source-convention (position → original index); invert it
    // to destinations, then each swap places one element where it belongs.
    let mut dest = vec![0usize; order.len()];
    for (pos, &src) in order.iter().enumerate() {
        dest[src] = pos;
    }
    for i in 0..dest.len() {
        while dest[i] != i {
            let j = dest[i];
            sets.swap(i, j);
            dest.swap(i, j);
        }
    }
    true
}

/// Truncates an ordered branch list to `cap` entries, except that entries
/// satisfying `keep` always survive (the OPT search uses this to keep the
/// maximal extensions of the greedy classes in the beam, preserving the
/// OPT ≤ G-OPT dominance guarantee under truncation).
pub fn truncate_keeping<T, F: FnMut(&T) -> bool>(sets: &mut Vec<T>, cap: usize, mut keep: F) {
    if sets.len() <= cap {
        return;
    }
    let mut kept = 0usize;
    sets.retain(|s| {
        if kept < cap || keep(s) {
            kept += 1;
            true
        } else {
            false
        }
    });
}

/// Classic Bron–Kerbosch with pivoting. `r` = current clique, `p` =
/// candidates, `x` = excluded. Stops expanding once `cap` sets are found.
fn bron_kerbosch(
    compat: &[NodeSet],
    r: &mut NodeSet,
    p: &mut NodeSet,
    x: &mut NodeSet,
    cap: usize,
    out: &mut EnumerationOutcome,
) {
    if out.sets.len() >= cap {
        out.truncated = true;
        return;
    }
    if p.is_empty() && x.is_empty() {
        out.sets.push(r.to_vec());
        return;
    }

    // Pivot: the member of P ∪ X with the most compatibilities inside P,
    // minimizing the branching |P ∖ compat(pivot)|.
    let pivot = p
        .iter()
        .chain(x.iter())
        .max_by_key(|&u| compat[u].intersection_len(p))
        .expect("P ∪ X non-empty here");

    let branch: Vec<usize> = p.difference(&compat[pivot]).to_vec();
    for v in branch {
        if out.sets.len() >= cap {
            out.truncated = true;
            return;
        }
        // Recurse with R ∪ {v}, P ∩ compat(v), X ∩ compat(v).
        r.insert(v);
        let mut p2 = p.intersection(&compat[v]);
        let mut x2 = x.intersection(&compat[v]);
        bron_kerbosch(compat, r, &mut p2, &mut x2, cap, out);
        r.remove(v);
        p.remove(v);
        x.insert(v);
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
        let out = maximal_conflict_free_sets(&cg, 100);
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
        let out = maximal_conflict_free_sets(&cg, 100);
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
        let out = maximal_conflict_free_sets(&cg, 100);
        let mut sets = out.sets.clone();
        sets.sort();
        assert_eq!(sets, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn cap_truncates_and_reports() {
        let f = fixtures::fig1();
        let (cg, _) = build_cg(&f, &[11, 0, 1, 2, 3, 4, 10], &["0", "3", "4", "10"]);
        let out = maximal_conflict_free_sets(&cg, 1);
        assert!(out.truncated);
        assert_eq!(out.sets.len(), 1);
    }

    #[test]
    fn order_best_first_is_stable_and_reports_reorders() {
        let mut sets = vec![vec![1usize], vec![2, 3], vec![4], vec![5, 6]];
        assert!(order_best_first(&mut sets, |s| s.len()));
        assert_eq!(sets, vec![vec![2, 3], vec![5, 6], vec![1], vec![4]]);
        // Already ordered: no reorder reported, list untouched.
        assert!(!order_best_first(&mut sets, |s| s.len()));
    }

    #[test]
    fn order_best_first_handles_cycles_and_scores_once() {
        // A 3-cycle permutation (scores 1,3,2 → order b,c,a) catches a
        // wrong-direction permutation application.
        let mut sets = vec!["a", "b", "c"];
        let scores = [1, 3, 2];
        let mut calls = 0usize;
        assert!(order_best_first(&mut sets, |s| {
            calls += 1;
            scores[match *s {
                "a" => 0,
                "b" => 1,
                _ => 2,
            }]
        }));
        assert_eq!(sets, vec!["b", "c", "a"]);
        assert_eq!(calls, 3, "score must run exactly once per element");
    }

    #[test]
    fn truncate_keeping_preserves_marked_entries() {
        let mut sets: Vec<Vec<usize>> = vec![vec![9], vec![1], vec![2], vec![8], vec![3]];
        truncate_keeping(&mut sets, 2, |s| s[0] >= 8);
        assert_eq!(sets, vec![vec![9], vec![1], vec![8]]);
        // Under the cap: untouched.
        let mut small = vec![vec![1usize]];
        truncate_keeping(&mut small, 4, |_| false);
        assert_eq!(small, vec![vec![1]]);
    }

    #[test]
    fn empty_candidates() {
        let f = fixtures::fig2a();
        let (cg, _) = build_cg(&f, &[0], &[]);
        let out = maximal_conflict_free_sets(&cg, 10);
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
        let out = maximal_conflict_free_sets(&cg, 1000);
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
