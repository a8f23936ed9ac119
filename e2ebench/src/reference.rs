//! The benchmark's own answer checker, written apart from the program.
//!
//! It reads a graph only as an edge list and keeps its own adjacency
//! bitmasks. Nothing here calls a k-plex predicate or solver of the
//! program: validity, maximality and the brute-force optimum are all
//! computed from the definition. A set `S` is a k-plex when every
//! `v ∈ S` is adjacent to at least `|S| − k` members of `S`.

/// Largest vertex count the brute-force optimum accepts: `2^20` subsets
/// take well under a second.
pub const BRUTE_FORCE_MAX_N: usize = 20;

/// An undirected graph on at most 128 vertices as adjacency bitmasks.
#[derive(Debug, Clone)]
pub struct RefGraph {
    adj: Vec<u128>,
}

impl RefGraph {
    /// Builds the graph from an edge list over vertices `0..n`.
    ///
    /// # Panics
    /// Panics on `n > 128`, a self-loop or an endpoint outside `0..n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        assert!(n <= 128, "at most 128 vertices");
        let mut adj = vec![0u128; n];
        for (u, v) in edges {
            assert!(
                u < n && v < n && u != v,
                "edge ({u}, {v}) invalid for n = {n}"
            );
            adj[u] |= 1 << v;
            adj[v] |= 1 << u;
        }
        RefGraph { adj }
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    fn all(&self) -> u128 {
        if self.n() == 128 {
            u128::MAX
        } else {
            (1u128 << self.n()) - 1
        }
    }

    /// Whether the vertex set `s` (a bitmask) is a k-plex of this graph.
    /// Bits outside `0..n` make the set invalid.
    pub fn is_kplex(&self, s: u128, k: usize) -> bool {
        if s & !self.all() != 0 {
            return false;
        }
        let size = s.count_ones() as usize;
        let mut rest = s;
        while rest != 0 {
            let v = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if (self.adj[v] & s).count_ones() as usize + k < size {
                return false;
            }
        }
        true
    }

    /// Whether `s` is a k-plex to which no further vertex can be added.
    pub fn is_maximal_kplex(&self, s: u128, k: usize) -> bool {
        if !self.is_kplex(s, k) {
            return false;
        }
        let mut outside = self.all() & !s;
        while outside != 0 {
            let v = outside.trailing_zeros();
            outside &= outside - 1;
            if self.is_kplex(s | 1 << v, k) {
                return false;
            }
        }
        true
    }

    /// The size of a maximum k-plex, by checking every vertex subset.
    ///
    /// # Panics
    /// Panics if the graph has more than [`BRUTE_FORCE_MAX_N`] vertices.
    pub fn max_kplex_size(&self, k: usize) -> usize {
        assert!(
            self.n() <= BRUTE_FORCE_MAX_N,
            "brute force is limited to n ≤ {BRUTE_FORCE_MAX_N}"
        );
        let mut best = 0;
        for s in 0..(1u128 << self.n()) {
            let size = s.count_ones() as usize;
            if size > best && self.is_kplex(s, k) {
                best = size;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1 of the paper, written out by hand: the complement of the
    /// eight complement edges (v1,v6) (v2,v6) (v3,v6) (v4,v6) (v2,v5)
    /// (v2,v3) (v3,v5) (v3,v4), 0-indexed.
    fn fig1() -> RefGraph {
        RefGraph::from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (3, 4), (4, 5)])
    }

    fn set(vs: &[usize]) -> u128 {
        vs.iter().fold(0, |s, &v| s | 1 << v)
    }

    #[test]
    fn fig1_maximum_two_plex_has_four_vertices() {
        let g = fig1();
        assert_eq!(g.max_kplex_size(2), 4);
        // {v1, v2, v4, v5}: only v2–v5 is missing, so every member
        // misses at most one other member plus itself.
        assert!(g.is_kplex(set(&[0, 1, 3, 4]), 2));
        assert!(g.is_maximal_kplex(set(&[0, 1, 3, 4]), 2));
    }

    #[test]
    fn fig1_cliques_and_three_plexes() {
        let g = fig1();
        // Triangles {0,1,3}, {0,3,4}; no 4-clique.
        assert_eq!(g.max_kplex_size(1), 3);
        // At k = 3 five vertices need each member to see two others.
        // v6 sees only v5, so it is out, and in {v1..v5} v3 sees only v1.
        assert_eq!(g.max_kplex_size(3), 4);
        assert!(!g.is_kplex(set(&[0, 1, 2, 3, 4]), 3));
        assert!(g.is_kplex(set(&[0, 1, 3, 4]), 3));
    }

    #[test]
    fn empty_graph_plexes_are_at_most_k_vertices() {
        let g = RefGraph::from_edges(5, []);
        for k in 1..=5 {
            assert_eq!(g.max_kplex_size(k), k);
        }
        assert!(g.is_maximal_kplex(set(&[0, 1]), 2));
        assert!(!g.is_maximal_kplex(set(&[0]), 2));
    }

    #[test]
    fn complete_graph_is_one_clique() {
        let edges = (0..7).flat_map(|u| ((u + 1)..7).map(move |v| (u, v)));
        let g = RefGraph::from_edges(7, edges);
        assert_eq!(g.max_kplex_size(1), 7);
        assert!(g.is_maximal_kplex(set(&[0, 1, 2, 3, 4, 5, 6]), 1));
        assert!(!g.is_maximal_kplex(set(&[0, 1, 2]), 1));
    }

    #[test]
    fn invalid_sets_are_rejected() {
        let g = fig1();
        // v6 (index 5) sees only v5 (index 4).
        assert!(!g.is_kplex(set(&[0, 1, 5]), 1));
        assert!(!g.is_maximal_kplex(set(&[0, 1, 5]), 1));
        // A vertex outside the graph.
        assert!(!g.is_kplex(set(&[0, 6]), 2));
        // The empty set is a k-plex but never maximal in a non-empty graph.
        assert!(g.is_kplex(0, 1));
        assert!(!g.is_maximal_kplex(0, 1));
    }

    #[test]
    fn path_two_plexes() {
        // Path 0-1-2-3-4: a 2-plex of size 3 is any three consecutive
        // vertices; size 4 would need each member to see two others.
        let g = RefGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(g.max_kplex_size(2), 3);
        assert!(g.is_maximal_kplex(set(&[1, 2, 3]), 2));
        assert!(!g.is_kplex(set(&[0, 1, 2, 3]), 2));
        assert!(!g.is_kplex(set(&[0, 2, 4]), 2));
    }
}
