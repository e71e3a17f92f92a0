//! Phylogenetic tree structure.
//!
//! Trees are stored as an arena of nodes with parent pointers. An
//! *unrooted* binary phylogeny over `n` taxa is represented in the
//! fastDNAml convention: a designated "root" node of degree 3 (the
//! basal trifurcation) whose placement does not affect the likelihood
//! of a reversible model, with every other internal node binary. Branch
//! lengths live on the child side of each edge, so an edge is
//! identified by its child node id.

/// One node of a [`Tree`].
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Parent node id (`None` for the root).
    pub parent: Option<usize>,
    /// Child node ids (empty for leaves, 2 for internals, 3 for the root).
    pub children: Vec<usize>,
    /// Length of the branch to the parent (unused on the root).
    pub blen: f64,
    /// Taxon index for leaves; `None` for internal nodes.
    pub taxon: Option<usize>,
}

impl Node {
    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// An unrooted binary phylogeny with a basal trifurcation.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    nodes: Vec<Node>,
    root: usize,
}

impl Tree {
    /// The smallest unrooted tree: three taxa joined at the root, each
    /// pendant branch of length `blen`. This is the (unique) starting
    /// topology of stepwise insertion.
    pub fn initial_triple(taxa: [usize; 3], blen: f64) -> Self {
        assert!(blen >= 0.0, "branch length must be non-negative");
        let mut nodes = Vec::with_capacity(4);
        nodes.push(Node {
            parent: None,
            children: vec![1, 2, 3],
            blen: 0.0,
            taxon: None,
        });
        for &t in &taxa {
            nodes.push(Node {
                parent: Some(0),
                children: vec![],
                blen,
                taxon: Some(t),
            });
        }
        Self { nodes, root: 0 }
    }

    /// Builds a tree from raw parts, validating all invariants.
    pub fn from_parts(nodes: Vec<Node>, root: usize) -> Result<Self, String> {
        let tree = Self { nodes, root };
        tree.validate()?;
        Ok(tree)
    }

    /// Root node id.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Read access to a node.
    pub fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }

    /// Number of nodes in the arena.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Ids of all leaf nodes.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_leaf())
            .collect()
    }

    /// Taxon indices present in the tree.
    pub fn taxa(&self) -> Vec<usize> {
        self.nodes.iter().filter_map(|n| n.taxon).collect()
    }

    /// All edges, identified by child node id (every node except the root).
    pub fn edges(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| i != self.root).collect()
    }

    /// Edges whose child endpoint is internal (candidates for NNI).
    pub fn internal_edges(&self) -> Vec<usize> {
        self.edges()
            .into_iter()
            .filter(|&c| !self.nodes[c].is_leaf())
            .collect()
    }

    /// Branch length of the edge above `child`.
    pub fn branch_length(&self, child: usize) -> f64 {
        assert_ne!(child, self.root, "root has no branch");
        self.nodes[child].blen
    }

    /// Sets the branch length of the edge above `child`.
    pub fn set_branch_length(&mut self, child: usize, blen: f64) {
        assert_ne!(child, self.root, "root has no branch");
        assert!(blen >= 0.0, "branch length must be non-negative");
        self.nodes[child].blen = blen;
    }

    /// Sum of all branch lengths.
    pub fn total_branch_length(&self) -> f64 {
        self.edges().iter().map(|&c| self.nodes[c].blen).sum()
    }

    /// Splits the edge above `edge_child` with a new internal node and
    /// hangs a new leaf for `taxon` off it.
    ///
    /// The existing branch length is divided evenly between the two
    /// halves of the split edge; the new pendant branch gets
    /// `leaf_blen`. Returns `(new_internal_id, new_leaf_id)`.
    pub fn insert_leaf(
        &mut self,
        edge_child: usize,
        taxon: usize,
        leaf_blen: f64,
    ) -> (usize, usize) {
        assert_ne!(edge_child, self.root, "cannot insert above the root");
        assert!(
            !self.taxa().contains(&taxon),
            "taxon {taxon} is already in the tree"
        );
        let parent = self.nodes[edge_child]
            .parent
            .expect("non-root has a parent");
        let old_len = self.nodes[edge_child].blen;
        let half = (old_len / 2.0).max(MIN_BRANCH);

        let mid = self.nodes.len();
        self.nodes.push(Node {
            parent: Some(parent),
            children: vec![edge_child],
            blen: half,
            taxon: None,
        });
        let leaf = self.nodes.len();
        self.nodes.push(Node {
            parent: Some(mid),
            children: vec![],
            blen: leaf_blen.max(MIN_BRANCH),
            taxon: Some(taxon),
        });
        self.nodes[mid].children.push(leaf);

        let slot = self.nodes[parent]
            .children
            .iter()
            .position(|&c| c == edge_child)
            .expect("edge_child is a child of its parent");
        self.nodes[parent].children[slot] = mid;
        self.nodes[edge_child].parent = Some(mid);
        self.nodes[edge_child].blen = half;
        (mid, leaf)
    }

    /// Performs a nearest-neighbour interchange across the edge above
    /// `edge_child`: detaches child `a` of `edge_child` and child `b` of
    /// its parent and swaps them. `a` must be a child of `edge_child`,
    /// `b` a child of the parent other than `edge_child`.
    ///
    /// Branch lengths travel with their subtrees. The operation is its
    /// own inverse (call again with the same ids to undo).
    pub fn nni_swap(&mut self, edge_child: usize, a: usize, b: usize) {
        let p = self.nodes[edge_child].parent.expect("edge has a parent");
        assert!(
            self.nodes[edge_child].children.contains(&a),
            "a must be a child of edge_child"
        );
        assert!(
            b != edge_child && self.nodes[p].children.contains(&b),
            "b must be a sibling"
        );
        let ia = self.nodes[edge_child]
            .children
            .iter()
            .position(|&c| c == a)
            .expect("checked above");
        let ib = self.nodes[p]
            .children
            .iter()
            .position(|&c| c == b)
            .expect("checked above");
        self.nodes[edge_child].children[ia] = b;
        self.nodes[p].children[ib] = a;
        self.nodes[a].parent = Some(p);
        self.nodes[b].parent = Some(edge_child);
    }

    /// Enumerates all NNI moves as `(edge_child, a, b)` triples.
    pub fn nni_moves(&self) -> Vec<(usize, usize, usize)> {
        let mut moves = Vec::new();
        for c in self.internal_edges() {
            let p = self.nodes[c].parent.expect("internal edge has a parent");
            for &a in &self.nodes[c].children {
                for &b in &self.nodes[p].children {
                    if b != c {
                        moves.push((c, a, b));
                    }
                }
            }
        }
        moves
    }

    /// Nodes in postorder (children before parents), ending at the root.
    pub fn postorder(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(self.root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                order.push(id);
            } else {
                stack.push((id, true));
                for &c in &self.nodes[id].children {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// Checks structural invariants; returns a description of the first
    /// violation, if any. Used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes[self.root].parent.is_some() {
            return Err("root has a parent".into());
        }
        if self.nodes[self.root].children.len() != 3 && self.leaf_count() > 2 {
            return Err(format!(
                "root must be trifurcating, has {} children",
                self.nodes[self.root].children.len()
            ));
        }
        let mut seen_taxa = std::collections::BTreeSet::new();
        for (id, node) in self.nodes.iter().enumerate() {
            for &c in &node.children {
                if self.nodes[c].parent != Some(id) {
                    return Err(format!("child {c} of {id} has wrong parent pointer"));
                }
            }
            if node.is_leaf() {
                let Some(t) = node.taxon else {
                    return Err(format!("leaf {id} has no taxon"));
                };
                if !seen_taxa.insert(t) {
                    return Err(format!("taxon {t} appears twice"));
                }
            } else {
                if node.taxon.is_some() {
                    return Err(format!("internal node {id} has a taxon"));
                }
                let expected = if id == self.root { 3 } else { 2 };
                if node.children.len() != expected {
                    return Err(format!(
                        "node {id} has {} children, expected {expected}",
                        node.children.len()
                    ));
                }
            }
            if id != self.root && !node.blen.is_finite() {
                return Err(format!("node {id} has non-finite branch length"));
            }
        }
        // Reachability: postorder must visit every node exactly once.
        let order = self.postorder();
        if order.len() != self.nodes.len() {
            return Err(format!(
                "{} of {} nodes reachable from root",
                order.len(),
                self.nodes.len()
            ));
        }
        Ok(())
    }

    /// The canonical split set of the tree: for every internal edge, the
    /// lexicographically smaller side's taxon set, sorted. Two trees are
    /// topologically identical iff their split sets are equal (the
    /// Robinson–Foulds criterion).
    pub fn splits(&self) -> Vec<Vec<usize>> {
        let all: std::collections::BTreeSet<usize> = self.taxa().into_iter().collect();
        let mut splits = Vec::new();
        for c in self.edges() {
            let mut below = Vec::new();
            self.collect_taxa(c, &mut below);
            below.sort_unstable();
            if below.len() < 2 || below.len() > all.len() - 2 {
                continue; // trivial split (pendant edge)
            }
            let other: Vec<usize> = all.iter().copied().filter(|t| !below.contains(t)).collect();
            splits.push(if below < other { below } else { other });
        }
        splits.sort();
        splits
    }

    /// Robinson–Foulds distance to another tree over the same taxa.
    pub fn rf_distance(&self, other: &Tree) -> usize {
        let a = self.splits();
        let b = other.splits();
        let shared = a.iter().filter(|s| b.contains(s)).count();
        (a.len() - shared) + (b.len() - shared)
    }

    fn collect_taxa(&self, id: usize, out: &mut Vec<usize>) {
        if let Some(t) = self.nodes[id].taxon {
            out.push(t);
        }
        for &c in &self.nodes[id].children {
            self.collect_taxa(c, out);
        }
    }
}

/// Smallest branch length the library ever stores; avoids degenerate
/// zero-length branches that make likelihood surfaces flat.
pub const MIN_BRANCH: f64 = 1e-6;

#[cfg(test)]
mod tests {
    use super::*;

    fn four_taxon_tree() -> Tree {
        let mut t = Tree::initial_triple([0, 1, 2], 0.1);
        // Insert taxon 3 into the edge above leaf node 1 (taxon 0).
        t.insert_leaf(1, 3, 0.1);
        t
    }

    #[test]
    fn initial_triple_is_valid() {
        let t = Tree::initial_triple([5, 9, 2], 0.1);
        t.validate().unwrap();
        assert_eq!(t.leaf_count(), 3);
        assert_eq!(t.edges().len(), 3);
        assert!(t.internal_edges().is_empty());
        let mut taxa = t.taxa();
        taxa.sort_unstable();
        assert_eq!(taxa, vec![2, 5, 9]);
    }

    #[test]
    fn insert_leaf_maintains_invariants_and_counts() {
        let t = four_taxon_tree();
        t.validate().unwrap();
        assert_eq!(t.leaf_count(), 4);
        // Unrooted 4-taxon tree: 2n-2 = 6 nodes, 2n-3 = 5 edges.
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.edges().len(), 5);
        assert_eq!(t.internal_edges().len(), 1);
    }

    #[test]
    fn insert_leaf_splits_branch_length() {
        let mut t = Tree::initial_triple([0, 1, 2], 0.4);
        let before = t.total_branch_length();
        let (mid, leaf) = t.insert_leaf(1, 3, 0.25);
        assert!((t.branch_length(mid) - 0.2).abs() < 1e-12);
        assert!((t.branch_length(1) - 0.2).abs() < 1e-12);
        assert!((t.branch_length(leaf) - 0.25).abs() < 1e-12);
        assert!((t.total_branch_length() - before - 0.25).abs() < 1e-12);
    }

    #[test]
    fn stepwise_edge_count_matches_paper_formula() {
        // Inserting taxon i (1-based) chooses among 2i-5 edges of the
        // (i-1)-taxon tree (paper §3.2 context; 2(i-1)-3 edges).
        let mut t = Tree::initial_triple([0, 1, 2], 0.1);
        for i in 4..=10 {
            let edges = t.edges();
            assert_eq!(edges.len(), 2 * (i - 1) - 3);
            t.insert_leaf(edges[0], i - 1, 0.1);
            t.validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "already in the tree")]
    fn duplicate_taxon_insertion_panics() {
        let mut t = Tree::initial_triple([0, 1, 2], 0.1);
        t.insert_leaf(1, 2, 0.1);
    }

    #[test]
    fn postorder_visits_children_first() {
        let t = four_taxon_tree();
        let order = t.postorder();
        assert_eq!(order.len(), t.node_count());
        let pos: std::collections::HashMap<usize, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for (id, node) in (0..t.node_count()).map(|i| (i, t.node(i))) {
            for &c in &node.children {
                assert!(pos[&c] < pos[&id], "child {c} after parent {id}");
            }
        }
        assert_eq!(*order.last().unwrap(), t.root());
    }

    #[test]
    fn nni_swap_is_involutive_and_changes_topology() {
        let t = four_taxon_tree();
        let moves = t.nni_moves();
        // One internal edge; 2 children × 2 siblings = 4 moves.
        assert_eq!(moves.len(), 4);
        let (c, a, b) = moves[0];
        let mut t2 = t.clone();
        t2.nni_swap(c, a, b);
        t2.validate().unwrap();
        assert_ne!(t.splits(), t2.splits(), "NNI must change the topology");
        t2.nni_swap(c, b, a);
        assert_eq!(t.splits(), t2.splits(), "NNI is its own inverse");
    }

    #[test]
    fn rf_distance_zero_for_identical_and_positive_for_nni() {
        let t = four_taxon_tree();
        assert_eq!(t.rf_distance(&t), 0);
        let (c, a, b) = t.nni_moves()[0];
        let mut t2 = t.clone();
        t2.nni_swap(c, a, b);
        assert!(t.rf_distance(&t2) > 0);
    }

    #[test]
    fn splits_ignore_pendant_edges() {
        let t = Tree::initial_triple([0, 1, 2], 0.1);
        assert!(t.splits().is_empty(), "3-taxon tree has no internal splits");
        assert_eq!(four_taxon_tree().splits().len(), 1);
    }

    #[test]
    fn validate_catches_corruption() {
        let mut t = four_taxon_tree();
        // Corrupt a parent pointer.
        let leaf = t.leaves()[0];
        t.nodes[leaf].parent = Some(leaf);
        assert!(t.validate().is_err());
    }

    #[test]
    fn set_branch_length_round_trips() {
        let mut t = four_taxon_tree();
        let e = t.edges()[0];
        t.set_branch_length(e, 0.77);
        assert_eq!(t.branch_length(e), 0.77);
    }
}
