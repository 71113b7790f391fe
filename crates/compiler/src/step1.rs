//! Step 1 — block decomposition (Algorithm 1, §IV-A).
//!
//! The binarized DAG is greedily cut into *blocks*: sets of tree-shaped
//! subgraphs that together fit the `T` PE trees of depth `D` and whose
//! predecessors are all mapped by earlier blocks (constraints A and B).
//! Subgraph candidates are *cones*: an unmapped node together with all of
//! its unmapped ancestors; a cone is schedulable on a depth-`d` subtree iff
//! its longest internal path (in nodes) is at most `d` — shared interior
//! nodes are replicated at mapping time (Fig. 9(c)).
//!
//! The paper enumerates depth combinations per block (Fig. 9(d)); this
//! implementation realizes the same packing with buddy-style *slot
//! splitting*: placing a depth-`k` subgraph into a free depth-`d` slot
//! leaves free sibling slots of depths `k, k+1, …, d−1`. Fitness follows
//! the paper's objectives: prefer larger cones (objective C, datapath
//! utilization) close in depth-first order to the block's existing nodes
//! (objective D, fewer inter-block dependencies).
//!
//! **Partitions in parallel.** §V-B decomposes each GRAPHOPT partition
//! "independently into blocks", and [`decompose_partitions`] does so
//! concurrently, with at most `min(partitions, available_parallelism())`
//! workers of O(nodes) memory each. Partition `k`'s blocks depend only on
//! the partition and on which nodes are mapped when it starts: inputs plus
//! every partition below `k`. A worker reproduces exactly that state before
//! each partition it claims, so the blocks, concatenated in partition
//! order, are identical to a sequential decomposition's.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use dpu_dag::partition::Partition;
use dpu_dag::{Dag, NodeId, Op};
use dpu_isa::ArchConfig;

use crate::ir::Subgraph;

/// Locality key per node: `(input-space anchor) << 32 | node id`, where a
/// node's anchor is the mean of its operands' anchors and an input's
/// anchor is its own ordinal. The anchor tracks the *center* of a node's
/// ancestor cone in input space, so sweeping by anchor visits producers
/// and consumers together regardless of depth (a min/DFS key would drift
/// toward 0 as cones widen).
///
/// The key serves objective D (few inter-block dependencies, short
/// register lifetimes): for vtree-structured circuits the sweep is the
/// vtree sweep; for triangular solves it degenerates to row order — in
/// both cases consumers sit close to producers, unlike a plain DFS order
/// whose fanout cross-edges span the whole traversal. The node id
/// disambiguates the BTreeMap key; distances compare anchors only.
fn locality_keys(dag: &Dag) -> Vec<u64> {
    let mut anchor = vec![0u32; dag.len()];
    for v in dag.nodes() {
        let a = if dag.op(v) == Op::Input {
            v.0
        } else {
            let preds = dag.preds(v);
            let sum: u64 = preds.iter().map(|p| u64::from(anchor[p.index()])).sum();
            (sum / preds.len().max(1) as u64) as u32
        };
        anchor[v.index()] = a;
    }
    dag.nodes()
        .map(|v| (u64::from(anchor[v.index()]) << 32) | u64::from(v.0))
        .collect()
}

/// How many candidates (per depth bucket, per direction around the DFS
/// cursor) the fitness search examines for each placement.
const SEARCH_NEIGHBORS: usize = 24;

/// A block before spatial mapping: the subgraphs chosen by Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawBlock {
    /// Subgraphs with their slot placements.
    pub subgraphs: Vec<Subgraph>,
}

/// Decomposes the whole binarized DAG into blocks, in execution order.
/// [`Op::Input`] nodes are treated as already mapped.
///
/// # Panics
///
/// Panics if `dag` is not binary (run [`Dag::binarize`] first).
pub fn decompose(dag: &Dag, cfg: &ArchConfig) -> Vec<RawBlock> {
    let keys = locality_keys(dag);
    let all: Vec<NodeId> = dag.nodes().collect();
    Decomposer::new(dag, cfg, &keys).decompose(&all)
}

/// Decomposes each GRAPHOPT partition into blocks (§V-B) and returns the
/// blocks of all partitions in partition order.
///
/// The partitions are decomposed concurrently by at most
/// `min(parts.len(), available_parallelism())` scoped workers. Each worker
/// claims partition indices in increasing order and owns one O(nodes)
/// decomposition state; before decomposing partition `k` it marks every
/// partition below `k` that it has not decomposed itself as mapped. So
/// partition `k` starts from exactly the state the sequential loop would
/// hand it — inputs plus partitions `< k` mapped — and since a
/// partition's blocks depend on nothing else, every partition yields the
/// same blocks as a sequential decomposition.
///
/// # Panics
///
/// Panics if `dag` is not binary, or if `parts` are not predecessor-closed
/// in index order (every edge into partition `k` must come from an input
/// or a partition `≤ k`), which [`dpu_dag::partition::partition`]
/// guarantees.
pub fn decompose_partitions(dag: &Dag, cfg: &ArchConfig, parts: &[Partition]) -> Vec<RawBlock> {
    let keys = locality_keys(dag);
    let workers = thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(parts.len());
    // The counter only hands out indices; results travel through `join`.
    let next = AtomicUsize::new(0);
    let mut per_part: Vec<Vec<RawBlock>> = vec![Vec::new(); parts.len()];
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut dec = Decomposer::new(dag, cfg, &keys);
                    let mut mapped_below = 0;
                    let mut done = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(part) = parts.get(k) else {
                            break done;
                        };
                        for skipped in &parts[mapped_below..k] {
                            dec.mark_mapped(&skipped.nodes);
                        }
                        done.push((k, dec.decompose(&part.nodes)));
                        mapped_below = k + 1;
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (k, blocks) in done {
                per_part[k] = blocks;
            }
        }
    });
    per_part.into_iter().flatten().collect()
}

/// Algorithm 1's state, sized once per DAG and reused across regions: the
/// per-node arrays are O(nodes), every per-block and per-candidate buffer
/// is cleared rather than reallocated, and a region's setup touches only
/// the region's nodes.
struct Decomposer<'a> {
    dag: &'a Dag,
    d_max: u32,
    trees: u32,
    /// Locality keys ([`locality_keys`]), shared by all workers.
    keys: &'a [u64],
    /// Nodes whose values are available before the block being assembled:
    /// inputs, nodes of earlier regions, and earlier blocks.
    mapped: Vec<bool>,
    /// Non-input nodes of the region being decomposed.
    workable: Vec<bool>,
    /// udepth[v]: longest path (in nodes) of v's unmapped ancestor cone,
    /// capped at d_max + 1 ("too deep"). 0 for mapped nodes.
    udepth: Vec<u8>,
    /// Candidate buckets: per depth 1..=d_max, candidates keyed by
    /// locality for range scans.
    buckets: Vec<BTreeMap<u64, NodeId>>,
    in_bucket: Vec<bool>,
    /// Nodes of the block under construction.
    in_block: Vec<bool>,
    /// Cone traversal: `visited[v] == epoch` marks v as in the cone being
    /// collected.
    visited: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
    cone: Vec<NodeId>,
    best_cone: Vec<NodeId>,
    /// Bucket entries around the cursor that one placement inspects.
    window: Vec<(u64, NodeId)>,
}

impl<'a> Decomposer<'a> {
    /// # Panics
    ///
    /// Panics if `dag` is not binary.
    fn new(dag: &'a Dag, cfg: &ArchConfig, keys: &'a [u64]) -> Self {
        assert!(dag.is_binary(), "step 1 requires a binarized DAG");
        let n = dag.len();
        Decomposer {
            dag,
            d_max: cfg.depth,
            trees: cfg.trees(),
            keys,
            mapped: dag.nodes().map(|v| dag.op(v) == Op::Input).collect(),
            workable: vec![false; n],
            udepth: vec![0; n],
            buckets: vec![BTreeMap::new(); cfg.depth as usize + 1],
            in_bucket: vec![false; n],
            in_block: vec![false; n],
            visited: vec![0; n],
            epoch: 0,
            stack: Vec::new(),
            cone: Vec::new(),
            best_cone: Vec::new(),
            window: Vec::new(),
        }
    }

    /// Marks `nodes` as mapped by an earlier region.
    fn mark_mapped(&mut self, nodes: &[NodeId]) {
        for &v in nodes {
            self.mapped[v.index()] = true;
        }
    }

    /// Collects v's unmapped ancestor cone into `self.cone` in topological
    /// order (sink last). Cones are small: at most 2^(d+1) − 1 distinct
    /// nodes for depth d.
    fn collect_cone(&mut self, v: NodeId) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        self.cone.clear();
        self.cone.push(v);
        self.visited[v.index()] = epoch;
        self.stack.clear();
        self.stack.push(v);
        while let Some(x) = self.stack.pop() {
            for &p in self.dag.preds(x) {
                if !self.mapped[p.index()] && self.visited[p.index()] != epoch {
                    self.visited[p.index()] = epoch;
                    self.cone.push(p);
                    self.stack.push(p);
                }
            }
        }
        self.cone.sort_unstable(); // ids are topological
    }

    /// udepth of an unmapped node from its predecessors' udepths.
    fn unmapped_depth(&self, v: NodeId) -> u8 {
        let cap = (self.d_max + 1) as u8;
        let mut m = 0u8;
        for &p in self.dag.preds(v) {
            if !self.mapped[p.index()] {
                m = m.max(self.udepth[p.index()]);
            }
        }
        (m + 1).min(cap)
    }

    /// Decomposes `region` into blocks, in execution order, and leaves
    /// every region node mapped.
    ///
    /// `region` must be in topological order, and every predecessor of a
    /// region node must be an input, mapped by an earlier region, or in
    /// the region itself (GRAPHOPT partitions in index order are).
    fn decompose(&mut self, region: &[NodeId]) -> Vec<RawBlock> {
        let dag = self.dag;
        let d_max = self.d_max;
        let keys = self.keys;

        let mut total_workable = 0usize;
        for &v in region {
            if dag.op(v) == Op::Input || self.mapped[v.index()] {
                continue;
            }
            self.workable[v.index()] = true;
            total_workable += 1;
            let ud = self.unmapped_depth(v);
            self.udepth[v.index()] = ud;
            if ud <= d_max as u8 {
                self.buckets[ud as usize].insert(keys[v.index()], v);
                self.in_bucket[v.index()] = true;
            }
        }

        let mut blocks = Vec::new();
        let mut done = 0usize;
        let mut cursor_dfs: u64 = 0;
        let mut block_nodes: Vec<NodeId> = Vec::new();
        let mut dirty: Vec<NodeId> = Vec::new();

        while done < total_workable {
            // Free subtree slots per tree: (depth, tree, leaf offset).
            let mut slots: Vec<(u32, u32, u32)> = (0..self.trees).map(|t| (d_max, t, 0)).collect();
            let mut subgraphs: Vec<Subgraph> = Vec::new();
            block_nodes.clear();

            while let Some(slot_idx) = slots
                .iter()
                .enumerate()
                .max_by_key(|(_, s)| s.0)
                .map(|(i, _)| i)
            {
                let (slot_d, tree, off) = slots[slot_idx];
                // Find the fittest candidate with udepth <= slot_d whose cone
                // is disjoint from the block so far; its cone ends up in
                // `best_cone`.
                let mut best: Option<(i64, NodeId)> = None;
                for d in (1..=slot_d as usize).rev() {
                    if self.buckets[d].is_empty() {
                        continue;
                    }
                    // Copied out first: collecting cones borrows `self`
                    // mutably.
                    let mut window = std::mem::take(&mut self.window);
                    window.clear();
                    let bucket = &self.buckets[d];
                    let fwd = bucket.range(cursor_dfs..).take(SEARCH_NEIGHBORS);
                    let bwd = bucket.range(..cursor_dfs).rev().take(SEARCH_NEIGHBORS);
                    window.extend(fwd.chain(bwd).map(|(&key, &cand)| (key, cand)));
                    for &(key, cand) in &window {
                        self.collect_cone(cand);
                        if self.cone.iter().any(|x| self.in_block[x.index()]) {
                            continue; // overlaps the block under construction
                        }
                        // Objective C: more nodes; objective D: proximity in
                        // the locality sweep. The distance term is uncapped:
                        // a far-away full cone must lose to nearby work,
                        // otherwise the schedule scatters across the DAG and
                        // register liveness (and with it spill traffic)
                        // explodes.
                        let dist = ((key >> 32) as i64 - (cursor_dfs >> 32) as i64).abs();
                        let fitness = self.cone.len() as i64 * 256 - dist * 8;
                        if best.is_none_or(|(bf, _)| fitness > bf) {
                            best = Some((fitness, cand));
                            std::mem::swap(&mut self.cone, &mut self.best_cone);
                        }
                    }
                    self.window = window;
                    // A full-depth match is as good as it gets for this slot.
                    if best.is_some() && d == slot_d as usize {
                        break;
                    }
                }

                let Some((_, sink)) = best else {
                    break; // no candidate fits the remaining slots
                };
                let cone = &self.best_cone;

                let k = self.udepth[sink.index()] as u32;
                debug_assert!(k >= 1 && k <= slot_d);
                // Buddy split: take the leftmost depth-k subslot, free
                // siblings.
                slots.swap_remove(slot_idx);
                for j in k..slot_d {
                    slots.push((j, tree, off + (1 << j)));
                }
                subgraphs.push(Subgraph {
                    sink,
                    nodes: cone.clone(),
                    depth: k,
                    tree,
                    leaf_offset: off,
                });
                for &x in cone {
                    self.in_block[x.index()] = true;
                    // Remove from candidate buckets; they are about to be
                    // mapped.
                    if self.in_bucket[x.index()] {
                        let ud = self.udepth[x.index()] as usize;
                        self.buckets[ud].remove(&keys[x.index()]);
                        self.in_bucket[x.index()] = false;
                    }
                }
                cursor_dfs = keys[sink.index()];
                block_nodes.extend_from_slice(cone);
            }

            if subgraphs.is_empty() {
                // No candidate at all: every unmapped node is deeper than
                // d_max relative to the mapped set — impossible, since a
                // ready node (all preds mapped) always has udepth 1.
                unreachable!("no schedulable subgraph but {done}/{total_workable} mapped");
            }

            // Commit the block: mark mapped and propagate udepth decreases.
            for &x in &block_nodes {
                self.in_block[x.index()] = false;
                self.mapped[x.index()] = true;
                self.udepth[x.index()] = 0;
                done += 1;
                for &s in dag.succs(x) {
                    if !self.mapped[s.index()] && self.workable[s.index()] {
                        dirty.push(s);
                    }
                }
            }
            while let Some(v) = dirty.pop() {
                if self.mapped[v.index()] || !self.workable[v.index()] {
                    continue;
                }
                let new = self.unmapped_depth(v);
                let old = self.udepth[v.index()];
                if new < old {
                    self.udepth[v.index()] = new;
                    if self.in_bucket[v.index()] {
                        self.buckets[old as usize].remove(&keys[v.index()]);
                        self.in_bucket[v.index()] = false;
                    }
                    if new >= 1 && new <= d_max as u8 {
                        self.buckets[new as usize].insert(keys[v.index()], v);
                        self.in_bucket[v.index()] = true;
                    }
                    for &s in dag.succs(v) {
                        if !self.mapped[s.index()] && self.workable[s.index()] {
                            dirty.push(s);
                        }
                    }
                } else if !self.in_bucket[v.index()] && new >= 1 && new <= d_max as u8 && new == old
                {
                    self.buckets[new as usize].insert(keys[v.index()], v);
                    self.in_bucket[v.index()] = true;
                }
            }

            blocks.push(RawBlock { subgraphs });
        }

        for &v in region {
            self.workable[v.index()] = false;
        }
        blocks
    }
}

/// Checks the defining invariants of a decomposition: every non-input node
/// in exactly one subgraph, subgraph depths within `D`, slots disjoint
/// within each block, and no block contains a node whose predecessor is
/// mapped by the *same* block in a different subgraph (constraint A:
/// blocks form a DAG executed in order).
pub fn validate_blocks(dag: &Dag, cfg: &ArchConfig, blocks: &[RawBlock]) -> Result<(), String> {
    let mut owner = vec![usize::MAX; dag.len()];
    for (bi, b) in blocks.iter().enumerate() {
        let mut slot_mask: Vec<u64> = vec![0; cfg.trees() as usize];
        for sg in &b.subgraphs {
            if sg.depth == 0 || sg.depth > cfg.depth {
                return Err(format!(
                    "block {bi}: subgraph depth {} out of range",
                    sg.depth
                ));
            }
            if sg.leaf_offset % (1 << sg.depth) != 0 {
                return Err(format!(
                    "block {bi}: misaligned slot offset {}",
                    sg.leaf_offset
                ));
            }
            let span = 1u64 << sg.depth;
            let mask = ((1u64 << span) - 1) << sg.leaf_offset;
            let tm = &mut slot_mask[sg.tree as usize];
            if *tm & mask != 0 {
                return Err(format!("block {bi}: overlapping slots in tree {}", sg.tree));
            }
            *tm |= mask;
            for &x in &sg.nodes {
                if dag.op(x) == Op::Input {
                    return Err(format!("block {bi}: input node {x} inside subgraph"));
                }
                if owner[x.index()] != usize::MAX {
                    return Err(format!("node {x} mapped twice"));
                }
                owner[x.index()] = bi;
            }
        }
    }
    for v in dag.nodes() {
        if dag.op(v) == Op::Input {
            continue;
        }
        if owner[v.index()] == usize::MAX {
            return Err(format!("node {v} unmapped"));
        }
        for &p in dag.preds(v) {
            if dag.op(p) == Op::Input {
                continue;
            }
            if owner[p.index()] > owner[v.index()] {
                return Err(format!(
                    "node {v} (block {}) depends on {p} (later block {})",
                    owner[v.index()],
                    owner[p.index()]
                ));
            }
            if owner[p.index()] == owner[v.index()] {
                // Must be within the same subgraph (cones are closed).
                let b = &blocks[owner[v.index()]];
                let same_sg = b
                    .subgraphs
                    .iter()
                    .any(|sg| sg.nodes.contains(&v) && sg.nodes.contains(&p));
                if !same_sg {
                    return Err(format!(
                        "intra-block dependency {p} -> {v} across subgraphs"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_dag::DagBuilder;

    fn chain_dag(len: usize) -> Dag {
        let mut b = DagBuilder::new();
        let x = b.input();
        let mut prev = b.node(Op::Add, &[x, x]).unwrap();
        for _ in 1..len {
            prev = b.node(Op::Mul, &[prev, x]).unwrap();
        }
        b.finish().unwrap()
    }

    fn random_dag(nodes: usize, seed: u64) -> Dag {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = DagBuilder::new();
        let mut ids: Vec<NodeId> = (0..8).map(|_| b.input()).collect();
        while ids.len() < nodes {
            let i = ids[rng.gen_range(0..ids.len())];
            let j = ids[rng.gen_range(0..ids.len())];
            let op = if rng.gen_bool(0.5) { Op::Add } else { Op::Mul };
            ids.push(b.node(op, &[i, j]).unwrap());
        }
        b.finish().unwrap()
    }

    #[test]
    fn chain_decomposes_validly() {
        let dag = chain_dag(50);
        let cfg = ArchConfig::new(3, 16, 32).unwrap();
        let blocks = decompose(&dag, &cfg);
        validate_blocks(&dag, &cfg, &blocks).unwrap();
        // A pure chain packs at most D nodes per subgraph.
        assert!(blocks.len() >= 50 / 3);
    }

    #[test]
    fn random_dag_decomposes_validly() {
        let dag = random_dag(400, 9);
        for (d, b) in [(1u32, 8u32), (2, 8), (3, 16)] {
            let cfg = ArchConfig::new(d, b, 32).unwrap();
            let blocks = decompose(&dag, &cfg);
            validate_blocks(&dag, &cfg, &blocks).unwrap();
        }
    }

    #[test]
    fn wide_dag_fills_trees() {
        // 64 independent 2-input adds: with T=2 trees of depth 3, blocks
        // should pack multiple subgraphs each.
        let mut b = DagBuilder::new();
        let ins: Vec<NodeId> = (0..64).map(|_| b.input()).collect();
        for c in ins.chunks(2) {
            b.node(Op::Add, &[c[0], c[1]]).unwrap();
        }
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(3, 16, 32).unwrap();
        let blocks = decompose(&dag, &cfg);
        validate_blocks(&dag, &cfg, &blocks).unwrap();
        // 32 adds; each block fits up to 2 trees × 4 depth-1 slots = 8.
        assert!(blocks.len() <= 8, "blocks = {}", blocks.len());
    }

    #[test]
    fn deep_cone_is_chunked() {
        // A perfect binary reduction tree of depth 6 on D=2 hardware.
        let mut b = DagBuilder::new();
        let mut level: Vec<NodeId> = (0..64).map(|_| b.input()).collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|c| b.node(Op::Add, &[c[0], c[1]]).unwrap())
                .collect();
        }
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(2, 8, 32).unwrap();
        let blocks = decompose(&dag, &cfg);
        validate_blocks(&dag, &cfg, &blocks).unwrap();
        for blk in &blocks {
            for sg in &blk.subgraphs {
                assert!(sg.depth <= 2);
            }
        }
    }

    #[test]
    fn region_restriction_respected() {
        let dag = random_dag(200, 4);
        let cfg = ArchConfig::new(2, 8, 32).unwrap();
        // Split nodes into two topological halves.
        let non_input: Vec<NodeId> = dag.nodes().filter(|&v| dag.op(v) != Op::Input).collect();
        let (lo, hi) = non_input.split_at(non_input.len() / 2);
        let keys = locality_keys(&dag);
        let mut dec = Decomposer::new(&dag, &cfg, &keys);
        let mut all = dec.decompose(lo);
        all.extend(dec.decompose(hi));
        validate_blocks(&dag, &cfg, &all).unwrap();
    }

    #[test]
    fn parallel_partitions_match_sequential_decomposition() {
        let dag = random_dag(3_000, 6);
        let cfg = ArchConfig::new(3, 16, 32).unwrap();
        let parts = dpu_dag::partition::partition(&dag, 150);
        assert!(parts.len() > 8, "{} partitions", parts.len());
        let keys = locality_keys(&dag);
        let mut dec = Decomposer::new(&dag, &cfg, &keys);
        let sequential: Vec<RawBlock> =
            parts.iter().flat_map(|p| dec.decompose(&p.nodes)).collect();
        let parallel = decompose_partitions(&dag, &cfg, &parts);
        assert_eq!(parallel, sequential);
        validate_blocks(&dag, &cfg, &parallel).unwrap();
    }
}
