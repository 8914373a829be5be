//! A compact hash-consed ROBDD manager.
//!
//! Reduced, ordered BDDs in the classic Bryant style: a unique table
//! guarantees canonicity (structural equality ⟺ functional equality for
//! a fixed variable order), and all Boolean operations are expressed
//! through a memoized if-then-else (`ite`).

use std::collections::HashMap;

/// Handle to a BDD node inside a [`Manager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The constant-false terminal.
    pub const FALSE: NodeId = NodeId(0);
    /// The constant-true terminal.
    pub const TRUE: NodeId = NodeId(1);

    fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Decision level (variables are tested in increasing level order).
    /// Terminals carry `u32::MAX`.
    level: u32,
    low: NodeId,
    high: NodeId,
}

/// Hash-consed ROBDD manager for a fixed number of variables.
#[derive(Debug, Clone)]
pub struct Manager {
    nodes: Vec<Node>,
    unique: HashMap<(u32, NodeId, NodeId), NodeId>,
    ite_cache: HashMap<(NodeId, NodeId, NodeId), NodeId>,
    num_vars: usize,
}

impl Manager {
    /// A manager over `num_vars` decision levels.
    pub fn new(num_vars: usize) -> Self {
        let terminal = Node {
            level: u32::MAX,
            low: NodeId::FALSE,
            high: NodeId::FALSE,
        };
        Manager {
            nodes: vec![terminal, terminal], // FALSE, TRUE
            unique: HashMap::new(),
            ite_cache: HashMap::new(),
            num_vars,
        }
    }

    /// Number of decision levels.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total nodes ever created (terminals included) — a capacity gauge.
    pub fn total_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The projection function of the variable at `level`.
    ///
    /// # Panics
    /// Panics if `level >= num_vars`.
    pub fn var(&mut self, level: usize) -> NodeId {
        assert!(level < self.num_vars, "level {level} out of range");
        self.mk(level as u32, NodeId::FALSE, NodeId::TRUE)
    }

    fn level_of(&self, f: NodeId) -> u32 {
        self.nodes[f.index()].level
    }

    /// `(level, low, high)` of an internal node.
    ///
    /// # Panics
    /// Panics if `f` is a terminal.
    pub fn node_triple(&self, f: NodeId) -> (u32, NodeId, NodeId) {
        assert!(
            f != NodeId::FALSE && f != NodeId::TRUE,
            "terminals have no children"
        );
        let node = self.nodes[f.index()];
        (node.level, node.low, node.high)
    }

    /// Reduced, hash-consed node constructor.
    fn mk(&mut self, level: u32, low: NodeId, high: NodeId) -> NodeId {
        if low == high {
            return low; // reduction rule
        }
        if let Some(&id) = self.unique.get(&(level, low, high)) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { level, low, high });
        self.unique.insert((level, low, high), id);
        id
    }

    /// Memoized if-then-else: `f ? g : h`.
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        // Terminal cases.
        if f == NodeId::TRUE {
            return g;
        }
        if f == NodeId::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == NodeId::TRUE && h == NodeId::FALSE {
            return f;
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return r;
        }
        let top = self.level_of(f).min(self.level_of(g)).min(self.level_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let low = self.ite(f0, g0, h0);
        let high = self.ite(f1, g1, h1);
        let r = self.mk(top, low, high);
        self.ite_cache.insert((f, g, h), r);
        r
    }

    fn cofactors(&self, f: NodeId, level: u32) -> (NodeId, NodeId) {
        let node = self.nodes[f.index()];
        if node.level == level {
            (node.low, node.high)
        } else {
            (f, f)
        }
    }

    /// Conjunction.
    pub fn and(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, g, NodeId::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, NodeId::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Negation.
    pub fn not(&mut self, f: NodeId) -> NodeId {
        self.ite(f, NodeId::FALSE, NodeId::TRUE)
    }

    /// Evaluates `f` under a variable assignment (`assignment[level]`).
    pub fn eval(&self, f: NodeId, assignment: &[bool]) -> bool {
        let mut cur = f;
        loop {
            match cur {
                NodeId::FALSE => return false,
                NodeId::TRUE => return true,
                _ => {
                    let node = self.nodes[cur.index()];
                    cur = if assignment[node.level as usize] {
                        node.high
                    } else {
                        node.low
                    };
                }
            }
        }
    }

    /// Number of nodes reachable from `f`, terminals excluded — the
    /// size metric the ordering experiments report.
    pub fn node_count(&self, f: NodeId) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(cur) = stack.pop() {
            if cur == NodeId::FALSE || cur == NodeId::TRUE || !seen.insert(cur) {
                continue;
            }
            let node = self.nodes[cur.index()];
            stack.push(node.low);
            stack.push(node.high);
        }
        seen.len()
    }

    /// Number of satisfying assignments over all `num_vars` variables.
    pub fn sat_count(&self, f: NodeId) -> u64 {
        let mut memo: HashMap<NodeId, u64> = HashMap::new();
        self.sat_count_rec(f, &mut memo, 0)
    }

    fn sat_count_rec(&self, f: NodeId, memo: &mut HashMap<NodeId, u64>, _depth: u32) -> u64 {
        // Count assignments of variables at levels >= level_of(f), then
        // scale by skipped levels at the call site. Implemented by
        // normalizing: count below a node covers levels (node.level, n).
        fn rec(mgr: &Manager, f: NodeId, memo: &mut HashMap<NodeId, u64>) -> u64 {
            // Returns count over variables strictly below f's level.
            if f == NodeId::FALSE {
                return 0;
            }
            if f == NodeId::TRUE {
                return 1;
            }
            if let Some(&c) = memo.get(&f) {
                return c;
            }
            let node = mgr.nodes[f.index()];
            let skip = |child: NodeId| {
                let child_level = if child == NodeId::FALSE || child == NodeId::TRUE {
                    mgr.num_vars as u32
                } else {
                    mgr.nodes[child.index()].level
                };
                child_level - node.level - 1
            };
            let lo = rec(mgr, node.low, memo) << skip(node.low);
            let hi = rec(mgr, node.high, memo) << skip(node.high);
            let c = lo + hi;
            memo.insert(f, c);
            c
        }
        let top = if f == NodeId::FALSE || f == NodeId::TRUE {
            self.num_vars as u32
        } else {
            self.level_of(f)
        };
        rec(self, f, memo) << top
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_and_vars() {
        let mut m = Manager::new(3);
        let x0 = m.var(0);
        assert_ne!(x0, NodeId::FALSE);
        assert!(m.eval(x0, &[true, false, false]));
        assert!(!m.eval(x0, &[false, true, true]));
    }

    #[test]
    fn hash_consing_gives_canonicity() {
        let mut m = Manager::new(2);
        let x0 = m.var(0);
        let x1 = m.var(1);
        let a = m.and(x0, x1);
        let b = m.and(x1, x0);
        assert_eq!(a, b, "AND is canonical regardless of operand order");
        // (x0 ∧ x1) ∨ x0 = x0 — absorption collapses structurally.
        let c = m.or(a, x0);
        assert_eq!(c, x0);
    }

    #[test]
    fn de_morgan() {
        let mut m = Manager::new(2);
        let x0 = m.var(0);
        let x1 = m.var(1);
        let lhs = {
            let a = m.and(x0, x1);
            m.not(a)
        };
        let rhs = {
            let n0 = m.not(x0);
            let n1 = m.not(x1);
            m.or(n0, n1)
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn xor_truth_table() {
        let mut m = Manager::new(2);
        let x0 = m.var(0);
        let x1 = m.var(1);
        let f = m.xor(x0, x1);
        assert!(!m.eval(f, &[false, false]));
        assert!(m.eval(f, &[true, false]));
        assert!(m.eval(f, &[false, true]));
        assert!(!m.eval(f, &[true, true]));
    }

    #[test]
    fn double_negation() {
        let mut m = Manager::new(3);
        let x1 = m.var(1);
        let n = m.not(x1);
        assert_eq!(m.not(n), x1);
    }

    #[test]
    fn node_count_of_var_is_one() {
        let mut m = Manager::new(4);
        let x2 = m.var(2);
        assert_eq!(m.node_count(x2), 1);
        assert_eq!(m.node_count(NodeId::TRUE), 0);
    }

    #[test]
    fn sat_count_basics() {
        let mut m = Manager::new(3);
        let x0 = m.var(0);
        let x1 = m.var(1);
        assert_eq!(m.sat_count(NodeId::TRUE), 8);
        assert_eq!(m.sat_count(NodeId::FALSE), 0);
        assert_eq!(m.sat_count(x0), 4);
        let f = m.and(x0, x1);
        assert_eq!(m.sat_count(f), 2);
        let g = m.or(x0, x1);
        assert_eq!(m.sat_count(g), 6);
    }

    #[test]
    fn eval_agrees_with_sat_count_exhaustively() {
        let mut m = Manager::new(4);
        let x: Vec<_> = (0..4).map(|i| m.var(i)).collect();
        // f = (x0 ∧ x1) ⊕ (x2 ∨ ¬x3)
        let a = m.and(x[0], x[1]);
        let n3 = m.not(x[3]);
        let b = m.or(x[2], n3);
        let f = m.xor(a, b);
        let mut count = 0u64;
        for bits in 0..16u32 {
            let assignment: Vec<bool> = (0..4).map(|i| (bits >> i) & 1 == 1).collect();
            if m.eval(f, &assignment) {
                count += 1;
            }
        }
        assert_eq!(count, m.sat_count(f));
    }
}
