//! Biconnected components (blocks) via Tarjan's lowpoint algorithm.
//!
//! The Demoucron oracle embeds each block separately and stitches
//! rotations at cut vertices.

use planartest_graph::{EdgeId, Graph, NodeId};

/// Partition of the edges of a graph into biconnected components (blocks).
#[derive(Debug, Clone)]
pub struct Blocks {
    /// `block_of_edge[e]` = dense block index of edge `e`.
    block_of_edge: Vec<u32>,
    /// Number of blocks.
    count: usize,
    /// Whether each node is a cut vertex.
    is_cut: Vec<bool>,
}

impl Blocks {
    /// Computes the block decomposition of `g` (iteratively, no recursion).
    pub fn build(g: &Graph) -> Self {
        let n = g.n();
        let mut block_of_edge = vec![u32::MAX; g.m()];
        let mut is_cut = vec![false; n];
        let mut count = 0usize;

        let mut disc = vec![u32::MAX; n]; // discovery times
        let mut low = vec![u32::MAX; n];
        let mut timer = 0u32;
        let mut edge_stack: Vec<EdgeId> = Vec::new();
        // DFS stack entries: (node, parent_edge, neighbour cursor, child count for roots).
        let mut stack: Vec<(NodeId, Option<EdgeId>, usize)> = Vec::new();

        for root in g.nodes() {
            if disc[root.index()] != u32::MAX {
                continue;
            }
            disc[root.index()] = timer;
            low[root.index()] = timer;
            timer += 1;
            let mut root_children = 0usize;
            stack.push((root, None, 0));
            while let Some(&mut (u, pe, ref mut i)) = stack.last_mut() {
                let nbrs = g.neighbors(u);
                if *i < nbrs.len() {
                    let (w, e) = nbrs[*i];
                    *i += 1;
                    if Some(e) == pe {
                        continue;
                    }
                    if disc[w.index()] == u32::MAX {
                        // Tree edge.
                        disc[w.index()] = timer;
                        low[w.index()] = timer;
                        timer += 1;
                        edge_stack.push(e);
                        if u == root {
                            root_children += 1;
                        }
                        stack.push((w, Some(e), 0));
                    } else if disc[w.index()] < disc[u.index()] {
                        // Back edge (to a proper ancestor or earlier node).
                        edge_stack.push(e);
                        low[u.index()] = low[u.index()].min(disc[w.index()]);
                    }
                } else {
                    stack.pop();
                    if let Some(&(p, _, _)) = stack.last() {
                        low[p.index()] = low[p.index()].min(low[u.index()]);
                        if low[u.index()] >= disc[p.index()] {
                            // p is a cut vertex (or the root): pop a block.
                            if p != root || root_children > 1 {
                                is_cut[p.index()] = true;
                            }
                            let tree_edge = pe.expect("non-root has a parent edge");
                            let b = count as u32;
                            count += 1;
                            while let Some(&top) = edge_stack.last() {
                                edge_stack.pop();
                                block_of_edge[top.index()] = b;
                                if top == tree_edge {
                                    break;
                                }
                            }
                        }
                    }
                }
            }
            // Correct root cut status (single child => not cut).
            if root_children <= 1 {
                is_cut[root.index()] = false;
            }
        }
        Blocks {
            block_of_edge,
            count,
            is_cut,
        }
    }

    /// Number of blocks.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Block index of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if the edge was never assigned (cannot happen for edges of
    /// the graph the decomposition was built from).
    pub fn block_of_edge(&self, e: EdgeId) -> usize {
        let b = self.block_of_edge[e.index()];
        assert_ne!(b, u32::MAX, "edge {e:?} not assigned to a block");
        b as usize
    }

    /// Whether `v` is a cut vertex.
    pub fn is_cut_vertex(&self, v: NodeId) -> bool {
        self.is_cut[v.index()]
    }

    /// Groups edge ids by block: `result[b]` lists the edges of block `b`.
    pub fn edges_by_block(&self, g: &Graph) -> Vec<Vec<EdgeId>> {
        let mut out = vec![Vec::new(); self.count];
        for e in g.edge_ids() {
            out[self.block_of_edge(e)].push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_block_cycle() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let b = Blocks::build(&g);
        assert_eq!(b.count(), 1);
        for v in g.nodes() {
            assert!(!b.is_cut_vertex(v));
        }
    }

    #[test]
    fn bridge_is_own_block() {
        // Two triangles joined by a bridge: 3 blocks, 2 cut vertices.
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]).unwrap();
        let b = Blocks::build(&g);
        assert_eq!(b.count(), 3);
        assert!(b.is_cut_vertex(NodeId::new(2)));
        assert!(b.is_cut_vertex(NodeId::new(3)));
        assert!(!b.is_cut_vertex(NodeId::new(0)));
        let bridge = g.edge_between(NodeId::new(2), NodeId::new(3)).unwrap();
        let groups = b.edges_by_block(&g);
        assert!(groups[b.block_of_edge(bridge)] == vec![bridge]);
    }

    #[test]
    fn two_triangles_sharing_vertex() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]).unwrap();
        let b = Blocks::build(&g);
        assert_eq!(b.count(), 2);
        assert!(b.is_cut_vertex(NodeId::new(0)));
        assert_eq!(
            (1..5).filter(|&v| b.is_cut_vertex(NodeId::new(v))).count(),
            0
        );
    }

    #[test]
    fn path_every_edge_a_block() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let b = Blocks::build(&g);
        assert_eq!(b.count(), 3);
        assert!(b.is_cut_vertex(NodeId::new(1)));
        assert!(b.is_cut_vertex(NodeId::new(2)));
        assert!(!b.is_cut_vertex(NodeId::new(0)));
        assert!(!b.is_cut_vertex(NodeId::new(3)));
    }

    #[test]
    fn edges_partitioned() {
        let g = Graph::from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
            ],
        )
        .unwrap();
        let b = Blocks::build(&g);
        let groups = b.edges_by_block(&g);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, g.m());
        for e in g.edge_ids() {
            assert!(b.block_of_edge(e) < b.count());
        }
    }

    #[test]
    fn disconnected_graph() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4)]).unwrap();
        let b = Blocks::build(&g);
        assert_eq!(b.count(), 2);
    }
}
