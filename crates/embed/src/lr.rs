//! The left-right planarity test and embedder.
//!
//! de Fraysseix and Rosenstiehl's left-right criterion in the form of
//! Brandes, "The Left-Right Planarity Test" (2009). A first DFS orients
//! every edge (tree edges down, back edges up) and computes lowpoints and
//! the nesting depth of each edge. A second DFS visits each vertex's
//! out-edges by nesting depth and sorts the back edges into a left and a
//! right class under the constraints kept on a stack of conflict pairs; the
//! graph is planar iff such a partition exists. The sides then fix every
//! vertex's circular edge order.
//!
//! Every DFS is iterative, so a part whose DFS path spans a million nodes
//! embeds without deep recursion. All state is indexed by node or edge id
//! and nothing iterates a hash map, so the rotation is a pure function of
//! the graph. Time is `O(n + m log Δ)`: linear apart from sorting each
//! vertex's out-edges by nesting depth.

use planartest_graph::{EdgeId, Graph, NodeId};

use crate::rotation::RotationSystem;

/// Result of a planarity check.
#[derive(Debug, Clone)]
pub enum PlanarityCheck {
    /// The graph is planar; a verified planar rotation system is attached.
    Planar(RotationSystem),
    /// The graph is not planar.
    NonPlanar,
}

impl PlanarityCheck {
    /// Whether the check found the graph planar.
    pub fn is_planar(&self) -> bool {
        matches!(self, PlanarityCheck::Planar(_))
    }

    /// Extracts the rotation system, if planar.
    pub fn into_rotation(self) -> Option<RotationSystem> {
        match self {
            PlanarityCheck::Planar(r) => Some(r),
            PlanarityCheck::NonPlanar => None,
        }
    }
}

/// Tests planarity and, when planar, produces a combinatorial embedding.
///
/// The returned rotation system always satisfies
/// [`RotationSystem::is_planar_embedding`].
pub fn check_planarity(g: &Graph) -> PlanarityCheck {
    if g.n() >= 3 && g.m() > 3 * g.n() - 6 {
        return PlanarityCheck::NonPlanar;
    }
    let mut lr = LeftRight::orient(g);
    if !lr.partition() {
        return PlanarityCheck::NonPlanar;
    }
    let rot = lr.embed();
    debug_assert!(
        rot.is_planar_embedding(g),
        "the left-right embedder produced a non-planar rotation"
    );
    PlanarityCheck::Planar(rot)
}

/// Convenience boolean planarity test.
pub fn is_planar(g: &Graph) -> bool {
    check_planarity(g).is_planar()
}

/// Absent node, edge or dart.
const NONE: u32 = u32::MAX;

/// A set of back edges that must all lie on one side, given by its
/// highest and lowest member (the members between are chained through
/// `LeftRight::reference`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    low: u32,
    high: u32,
}

impl Interval {
    const EMPTY: Interval = Interval {
        low: NONE,
        high: NONE,
    };

    fn is_empty(self) -> bool {
        self.low == NONE && self.high == NONE
    }
}

/// Two intervals whose back edges must lie on different sides.
#[derive(Debug, Clone, Copy)]
struct ConflictPair {
    left: Interval,
    right: Interval,
}

impl ConflictPair {
    fn swap(&mut self) {
        std::mem::swap(&mut self.left, &mut self.right);
    }
}

/// The state of one left-right run. Per-edge vectors are indexed by edge
/// id; each edge is oriented from `tail` to `head` by the first DFS.
struct LeftRight<'g> {
    g: &'g Graph,
    /// DFS roots, one per connected component, in node order.
    roots: Vec<u32>,
    /// DFS depth of each node.
    height: Vec<u32>,
    /// The tree edge into each node (`NONE` at roots).
    parent_edge: Vec<u32>,
    tail: Vec<u32>,
    head: Vec<u32>,
    /// Height of the lowest return point of each edge.
    lowpt: Vec<u32>,
    /// Height of the second-lowest return point of each edge.
    lowpt2: Vec<u32>,
    /// `2·lowpt`, plus one for chordal edges; signed by side before the
    /// embedding.
    nesting: Vec<i64>,
    /// Out-edges of node `v` are `out[out_start[v]..out_start[v + 1]]`.
    out_start: Vec<u32>,
    out: Vec<u32>,
    conflicts: Vec<ConflictPair>,
    /// Height of `conflicts` when each edge was first visited.
    stack_bottom: Vec<u32>,
    lowpt_edge: Vec<u32>,
    /// The edge whose side this edge's side is relative to.
    reference: Vec<u32>,
    /// `1` or `-1`, relative to `reference` until resolved.
    side: Vec<i8>,
}

impl<'g> LeftRight<'g> {
    /// Phase 1: DFS orientation, lowpoints and nesting depths.
    fn orient(g: &'g Graph) -> Self {
        let (n, m) = (g.n(), g.m());
        let mut height = vec![NONE; n];
        let mut parent_edge = vec![NONE; n];
        let mut tail = vec![NONE; m];
        let mut head = vec![NONE; m];
        let mut lowpt = vec![0u32; m];
        let mut lowpt2 = vec![0u32; m];
        let mut nesting = vec![0i64; m];
        let mut roots = Vec::new();
        let mut next = vec![0u32; n];
        // `resume[v]`: v returns from the child its current edge leads to.
        let mut resume = vec![false; n];
        let mut dfs: Vec<u32> = Vec::new();
        for r in 0..n {
            if height[r] != NONE {
                continue;
            }
            height[r] = 0;
            roots.push(r as u32);
            dfs.push(r as u32);
            while let Some(v) = dfs.pop() {
                let vi = v as usize;
                let adj = g.neighbors(NodeId::new(vi));
                let e = parent_edge[vi];
                while (next[vi] as usize) < adj.len() {
                    let (w, vw) = adj[next[vi] as usize];
                    let (w, vw) = (w.index(), vw.index());
                    if resume[vi] {
                        resume[vi] = false;
                    } else {
                        if tail[vw] != NONE {
                            // Already oriented from the other end.
                            next[vi] += 1;
                            continue;
                        }
                        tail[vw] = v;
                        head[vw] = w as u32;
                        lowpt[vw] = height[vi];
                        lowpt2[vw] = height[vi];
                        if height[w] == NONE {
                            // Tree edge: descend, finish vw on return.
                            parent_edge[w] = vw as u32;
                            height[w] = height[vi] + 1;
                            resume[vi] = true;
                            dfs.push(v);
                            dfs.push(w as u32);
                            break;
                        }
                        // Back edge.
                        lowpt[vw] = height[w];
                    }
                    nesting[vw] = 2 * i64::from(lowpt[vw]) + i64::from(lowpt2[vw] < height[vi]);
                    if e != NONE {
                        let e = e as usize;
                        if lowpt[vw] < lowpt[e] {
                            lowpt2[e] = lowpt[e].min(lowpt2[vw]);
                            lowpt[e] = lowpt[vw];
                        } else if lowpt[vw] > lowpt[e] {
                            lowpt2[e] = lowpt2[e].min(lowpt[vw]);
                        } else {
                            lowpt2[e] = lowpt2[e].min(lowpt2[vw]);
                        }
                    }
                    next[vi] += 1;
                }
            }
        }
        let mut out_start = vec![0u32; n + 1];
        for &t in &tail {
            out_start[t as usize + 1] += 1;
        }
        for v in 0..n {
            out_start[v + 1] += out_start[v];
        }
        let mut lr = LeftRight {
            g,
            roots,
            height,
            parent_edge,
            tail,
            head,
            lowpt,
            lowpt2,
            nesting,
            out_start,
            out: Vec::with_capacity(m),
            conflicts: Vec::new(),
            stack_bottom: vec![0; m],
            lowpt_edge: vec![NONE; m],
            reference: vec![NONE; m],
            side: vec![1; m],
        };
        lr.sort_out_edges();
        lr
    }

    /// Fills `out` with every node's out-edges sorted by `nesting`; ties
    /// keep adjacency order.
    fn sort_out_edges(&mut self) {
        self.out.clear();
        for v in self.g.nodes() {
            let start = self.out.len();
            self.out.extend(
                self.g
                    .neighbors(v)
                    .iter()
                    .map(|&(_, e)| e.raw())
                    .filter(|&e| self.tail[e as usize] == v.raw()),
            );
            let nesting = &self.nesting;
            self.out[start..].sort_by_key(|&e| nesting[e as usize]);
        }
    }

    fn out_edges(&self, v: usize) -> std::ops::Range<usize> {
        self.out_start[v] as usize..self.out_start[v + 1] as usize
    }

    /// Phase 2: the left-right partition of the back edges. Returns
    /// `false` iff the graph is not planar.
    fn partition(&mut self) -> bool {
        // Only the orientation reads `lowpt2`; free it for large parts.
        self.lowpt2 = Vec::new();
        let n = self.g.n();
        let mut next = vec![0usize; n];
        let mut resume = vec![false; n];
        let mut dfs: Vec<u32> = Vec::new();
        for ri in 0..self.roots.len() {
            dfs.push(self.roots[ri]);
            while let Some(v) = dfs.pop() {
                let vi = v as usize;
                let e = self.parent_edge[vi];
                let range = self.out_edges(vi);
                let mut descended = false;
                while range.start + next[vi] < range.end {
                    let ei = self.out[range.start + next[vi]] as usize;
                    if resume[vi] {
                        resume[vi] = false;
                    } else {
                        self.stack_bottom[ei] = self.conflicts.len() as u32;
                        let w = self.head[ei];
                        if self.parent_edge[w as usize] == ei as u32 {
                            resume[vi] = true;
                            descended = true;
                            dfs.push(v);
                            dfs.push(w);
                            break;
                        }
                        self.lowpt_edge[ei] = ei as u32;
                        self.conflicts.push(ConflictPair {
                            left: Interval::EMPTY,
                            right: Interval {
                                low: ei as u32,
                                high: ei as u32,
                            },
                        });
                    }
                    if self.lowpt[ei] < self.height[vi] {
                        // ei has a return edge below v (so v is no root).
                        let e = e as usize;
                        if next[vi] == 0 {
                            self.lowpt_edge[e] = self.lowpt_edge[ei];
                        } else if !self.add_constraints(ei, e) {
                            return false;
                        }
                    }
                    next[vi] += 1;
                }
                if !descended && e != NONE {
                    self.remove_back_edges(e as usize);
                }
            }
        }
        true
    }

    fn conflicting(&self, i: Interval, b: usize) -> bool {
        !i.is_empty() && self.lowpt[i.high as usize] > self.lowpt[b]
    }

    fn lowest(&self, p: ConflictPair) -> u32 {
        if p.left.is_empty() {
            self.lowpt[p.right.low as usize]
        } else if p.right.is_empty() {
            self.lowpt[p.left.low as usize]
        } else {
            self.lowpt[p.left.low as usize].min(self.lowpt[p.right.low as usize])
        }
    }

    /// Adds the constraints between `ei`, an out-edge of node `v` whose
    /// parent edge is `e`, and the out-edges of `v` visited before it.
    /// Returns `false` on a conflict.
    fn add_constraints(&mut self, ei: usize, e: usize) -> bool {
        let mut p = ConflictPair {
            left: Interval::EMPTY,
            right: Interval::EMPTY,
        };
        // Merge the return edges of ei into P.right.
        loop {
            let mut q = self.conflicts.pop().expect("ei left its return edges");
            if !q.left.is_empty() {
                q.swap();
            }
            if !q.left.is_empty() {
                return false;
            }
            if self.lowpt[q.right.low as usize] > self.lowpt[e] {
                if p.right.is_empty() {
                    p.right.high = q.right.high;
                } else {
                    self.reference[p.right.low as usize] = q.right.high;
                }
                p.right.low = q.right.low;
            } else {
                // Align with the lowpoint edge of e.
                self.reference[q.right.low as usize] = self.lowpt_edge[e];
            }
            if self.conflicts.len() as u32 == self.stack_bottom[ei] {
                break;
            }
        }
        // Merge the conflicting return edges of the earlier siblings into
        // P.left.
        while let Some(&top) = self.conflicts.last() {
            if !(self.conflicting(top.left, ei) || self.conflicting(top.right, ei)) {
                break;
            }
            let mut q = top;
            self.conflicts.pop();
            if self.conflicting(q.right, ei) {
                q.swap();
            }
            if self.conflicting(q.right, ei) {
                return false;
            }
            // Merge the interval below lowpt(ei) into P.right.
            if p.right.is_empty() {
                p.right.high = q.right.high;
            } else {
                self.reference[p.right.low as usize] = q.right.high;
            }
            if q.right.low != NONE {
                p.right.low = q.right.low;
            }
            if p.left.is_empty() {
                p.left.high = q.left.high;
            } else {
                self.reference[p.left.low as usize] = q.left.high;
            }
            p.left.low = q.left.low;
        }
        if !(p.left.is_empty() && p.right.is_empty()) {
            self.conflicts.push(p);
        }
        true
    }

    /// Trims the back edges ending at the tail of tree edge `e` once its
    /// subtree is done, and fixes the reference of `e` itself.
    fn remove_back_edges(&mut self, e: usize) {
        let u = self.tail[e];
        let hu = self.height[u as usize];
        while let Some(&top) = self.conflicts.last() {
            if self.lowest(top) != hu {
                break;
            }
            self.conflicts.pop();
            if top.left.low != NONE {
                self.side[top.left.low as usize] = -1;
            }
        }
        if let Some(mut p) = self.conflicts.pop() {
            while p.left.high != NONE && self.head[p.left.high as usize] == u {
                p.left.high = self.reference[p.left.high as usize];
            }
            if p.left.high == NONE && p.left.low != NONE {
                // Just emptied.
                self.reference[p.left.low as usize] = p.right.low;
                self.side[p.left.low as usize] = -1;
                p.left.low = NONE;
            }
            while p.right.high != NONE && self.head[p.right.high as usize] == u {
                p.right.high = self.reference[p.right.high as usize];
            }
            if p.right.high == NONE && p.right.low != NONE {
                self.reference[p.right.low as usize] = p.left.low;
                self.side[p.right.low as usize] = -1;
                p.right.low = NONE;
            }
            self.conflicts.push(p);
        }
        if self.lowpt[e] < hu {
            // e's side is that of a highest return edge.
            let top = *self.conflicts.last().expect("e has a return edge");
            let (hl, hr) = (top.left.high, top.right.high);
            self.reference[e] = if hl != NONE
                && (hr == NONE || self.lowpt[hl as usize] > self.lowpt[hr as usize])
            {
                hl
            } else {
                hr
            };
        }
    }

    /// Phase 3: resolves every side, orders out-edges by signed nesting
    /// depth and builds the rotation system.
    fn embed(mut self) -> RotationSystem {
        let (g, n, m) = (self.g, self.g.n(), self.g.m());
        let mut chain: Vec<u32> = Vec::new();
        for e in 0..m {
            let mut x = e as u32;
            while self.reference[x as usize] != NONE {
                chain.push(x);
                x = self.reference[x as usize];
            }
            while let Some(y) = chain.pop() {
                let r = self.reference[y as usize] as usize;
                self.side[y as usize] *= self.side[r];
                self.reference[y as usize] = NONE;
            }
            self.nesting[e] *= i64::from(self.side[e]);
        }
        self.sort_out_edges();

        // Circular doubly linked dart lists in clockwise order. Dart 2e
        // is edge e at its tail, dart 2e + 1 at its head.
        let mut cw = vec![NONE; 2 * m];
        let mut ccw = vec![NONE; 2 * m];
        let insert_after = |cw: &mut [u32], ccw: &mut [u32], at: u32, d: u32| {
            let after = cw[at as usize];
            cw[at as usize] = d;
            ccw[d as usize] = at;
            cw[d as usize] = after;
            ccw[after as usize] = d;
        };
        for v in 0..n {
            let darts = &self.out[self.out_edges(v)];
            for (i, &e) in darts.iter().enumerate() {
                let next = darts[(i + 1) % darts.len()];
                cw[2 * e as usize] = 2 * next;
                ccw[2 * next as usize] = 2 * e;
            }
        }
        let mut left_ref = vec![NONE; n];
        let mut right_ref = vec![NONE; n];
        let mut next = vec![0usize; n];
        let mut dfs: Vec<u32> = Vec::new();
        for &root in &self.roots {
            dfs.push(root);
            while let Some(v) = dfs.pop() {
                let vi = v as usize;
                let range = self.out_edges(vi);
                while range.start + next[vi] < range.end {
                    let ei = self.out[range.start + next[vi]];
                    next[vi] += 1;
                    let w = self.head[ei as usize] as usize;
                    let d = 2 * ei + 1;
                    if self.parent_edge[w] == ei {
                        // Tree edge: the dart back to v goes directly
                        // before w's first out-edge.
                        let first = self.out_edges(w).next().map(|i| 2 * self.out[i]);
                        match first {
                            Some(f) => {
                                let at = ccw[f as usize];
                                insert_after(&mut cw, &mut ccw, at, d);
                            }
                            None => {
                                cw[d as usize] = d;
                                ccw[d as usize] = d;
                            }
                        }
                        left_ref[vi] = 2 * ei;
                        right_ref[vi] = 2 * ei;
                        dfs.push(v);
                        dfs.push(w as u32);
                        break;
                    }
                    if self.side[ei as usize] == 1 {
                        insert_after(&mut cw, &mut ccw, right_ref[w], d);
                    } else {
                        let at = ccw[left_ref[w] as usize];
                        insert_after(&mut cw, &mut ccw, at, d);
                        left_ref[w] = d;
                    }
                }
            }
        }

        let orders = (0..n)
            .map(|v| {
                let start = match (self.parent_edge[v], self.out_edges(v).next()) {
                    (pe, _) if pe != NONE => 2 * pe + 1,
                    (_, Some(i)) => 2 * self.out[i],
                    _ => return Vec::new(),
                };
                let mut order = Vec::with_capacity(g.degree(NodeId::new(v)));
                let mut d = start;
                loop {
                    order.push(EdgeId::new(d as usize / 2));
                    d = cw[d as usize];
                    if d == start {
                        break;
                    }
                }
                order
            })
            .collect();
        RotationSystem::new(g, orders).expect("every dart is linked at its node exactly once")
    }
}
