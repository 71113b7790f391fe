//! Step 2 — PE mapping and conflict-aware register-bank allocation
//! (Algorithm 2, §IV-B).
//!
//! **PE mapping.** Each subgraph is unrolled onto the subtree slot chosen
//! in step 1: every node occurrence sits at tree layer = its height within
//! the cone, shared nodes are replicated (Fig. 9(c)), and height gaps are
//! padded with bypass-configured PEs so operands ripple up to their
//! consumers. The slot geometry fixes each occurrence's PE; this differs
//! from the paper's joint PE/bank search only in that the PE choice is
//! structural — the bank allocator below still sees the full set of
//! occurrences per value, which restores most of the freedom constraint H
//! is about (see DESIGN.md §4).
//!
//! **Bank allocation.** Block inputs/outputs ("io nodes") get home banks
//! from the paper's greedy allocator: values with the fewest compatible
//! banks first, random choice among compatible banks (objective J,
//! balance), compatibility shrunk by constraint F (inputs of one exec in
//! distinct banks) and G (outputs of one exec in distinct banks) as
//! neighbors are fixed, and a least-contended fallback when no compatible
//! bank remains (the residual conflicts are repaired with `copy`s at
//! emission). A [`BankPolicy::Random`] mode reproduces the paper's random
//! baseline (Fig. 10(b), 292× more conflicts).

use dpu_dag::{Dag, NodeId, Op};
use dpu_isa::{interconnect, ArchConfig, PeId, PeOpcode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::ir::{BankAssignment, Block};
use crate::step1::RawBlock;

/// Bank-allocation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BankPolicy {
    /// The paper's conflict-aware allocator (Algorithm 2).
    #[default]
    ConflictAware,
    /// Uniform-random allocation within each value's writable banks — the
    /// baseline of Fig. 10(b).
    Random,
}

/// Maps the opcode of a DAG node to the PE opcode evaluating it.
fn pe_opcode(op: Op) -> PeOpcode {
    match op {
        Op::Add => PeOpcode::Add,
        Op::Mul => PeOpcode::Mul,
        Op::Sub => PeOpcode::Sub,
        Op::Div => PeOpcode::Div,
        Op::Min => PeOpcode::Min,
        Op::Max => PeOpcode::Max,
        Op::Input => unreachable!("inputs are never placed on PEs"),
    }
}

/// Spatially places every block: fills `pe_config`, `port_reads`,
/// `outputs` and `inputs` of [`Block`].
///
/// `needs_store[v]` must be true for every value that must live in the
/// register file: values consumed by a different block than the one
/// computing them, and requested program outputs.
pub fn place_blocks(
    dag: &Dag,
    cfg: &ArchConfig,
    raw: Vec<RawBlock>,
    needs_store: &[bool],
) -> Vec<Block> {
    let n = dag.len();
    // Dense per-node scratch, cleared as each subgraph or block is done.
    // height[v]: v's height within the cone being placed (leaves, the
    // operands outside the cone, count 0, so height(sink) == sg.depth).
    let mut height = vec![0u32; n];
    // PE occurrences of each stored value, moved into its block's outputs.
    let mut occurrences: Vec<Vec<PeId>> = vec![Vec::new(); n];
    let mut is_block_input = vec![false; n];
    let mut stack: Vec<(NodeId, u32, u32)> = Vec::new();

    let mut blocks = Vec::with_capacity(raw.len());
    for rb in raw {
        let mut blk = Block {
            subgraphs: rb.subgraphs,
            ..Block::default()
        };

        for sg in &blk.subgraphs {
            for &x in &sg.nodes {
                let h = dag
                    .preds(x)
                    .iter()
                    .map(|p| height[p.index()])
                    .max()
                    .unwrap_or(0)
                    + 1;
                height[x.index()] = h;
            }
            debug_assert_eq!(height[sg.sink.index()], sg.depth);

            // Recursive top-down placement of the unrolled tree. `idx` is
            // the PE index at `layer` within the whole tree.
            let tree = sg.tree;
            let root_idx = sg.leaf_offset >> sg.depth;
            stack.push((sg.sink, sg.depth, root_idx));
            while let Some((node, layer, idx)) = stack.pop() {
                blk.pe_config
                    .push((PeId::new(tree, layer, idx), pe_opcode(dag.op(node))));
                if needs_store[node.index()] {
                    occurrences[node.index()].push(PeId::new(tree, layer, idx));
                }
                let preds = dag.preds(node);
                debug_assert_eq!(preds.len(), 2, "binarized compute nodes are 2-input");
                for (side, &child) in preds.iter().enumerate() {
                    let s = side as u32;
                    let child_h = height[child.index()];
                    let in_cone = child_h != 0;
                    // Bypass padding along the always-left descend path
                    // from (layer-1, 2·idx+s) down to the child's level.
                    for lv in (child_h.max(1)..layer).rev() {
                        if lv == layer {
                            continue;
                        }
                        let bp_idx = (2 * idx + s) << (layer - 1 - lv);
                        if in_cone && lv == child_h {
                            break; // the child occupies this position
                        }
                        blk.pe_config
                            .push((PeId::new(tree, lv, bp_idx), PeOpcode::BypassL));
                    }
                    if in_cone {
                        let c_idx = (2 * idx + s) << (layer - 1 - child_h);
                        stack.push((child, child_h, c_idx));
                    } else {
                        // Operand fetched from the register file at the
                        // leftmost leaf port under this side.
                        let port = (2 * idx + s) << (layer - 1);
                        blk.port_reads
                            .push((tree * cfg.ports_per_tree() + port, child));
                        if !is_block_input[child.index()] {
                            is_block_input[child.index()] = true;
                            blk.inputs.push(child);
                        }
                    }
                }
            }
            for &x in &sg.nodes {
                height[x.index()] = 0;
            }
        }

        // io outputs of this block.
        for sg in &blk.subgraphs {
            for &x in &sg.nodes {
                if needs_store[x.index()] {
                    let mut occ = std::mem::take(&mut occurrences[x.index()]);
                    // Prefer higher layers: more writable banks under the
                    // per-layer output interconnect.
                    occ.sort_by_key(|pe| std::cmp::Reverse(pe.layer));
                    blk.outputs.push((x, occ));
                }
            }
        }
        for &v in &blk.inputs {
            is_block_input[v.index()] = false;
        }
        blocks.push(blk);
    }
    blocks
}

/// Algorithm 2's unassigned io values ("Mnodes") with their compatible
/// banks ("Sb"), bucketed by how many compatible banks each has left.
struct Mnodes {
    /// `ceil(B/64)`: bitset words per value.
    words: usize,
    /// Compatible banks, `words` words per node: bank `b` is bit `b % 64`
    /// of word `b / 64`.
    compatible: Vec<u64>,
    /// Set bits per node.
    count: Vec<u32>,
    /// `buckets[k]` holds values that had `k` compatible banks when pushed.
    /// A value moves by being pushed again, so entries whose `count` no
    /// longer matches their bucket (or that are assigned) are stale and
    /// skipped when drawn.
    buckets: Vec<Vec<NodeId>>,
    /// No bucket below this one is non-empty.
    lowest: usize,
}

impl Mnodes {
    fn new(nodes: usize, banks: usize) -> Self {
        let words = banks.div_ceil(64);
        Mnodes {
            words,
            compatible: vec![0; nodes * words],
            count: vec![0; nodes],
            buckets: vec![Vec::new(); banks + 1],
            lowest: 0,
        }
    }

    fn bits_mut(&mut self, v: NodeId) -> &mut [u64] {
        let at = v.index() * self.words;
        &mut self.compatible[at..at + self.words]
    }

    fn insert(&mut self, v: NodeId, bank: u32) {
        let (w, bit) = (bank as usize / 64, 1u64 << (bank % 64));
        let word = &mut self.bits_mut(v)[w];
        if *word & bit == 0 {
            *word |= bit;
            self.count[v.index()] += 1;
        }
    }

    fn insert_all(&mut self, v: NodeId, banks: u32) {
        for b in 0..banks {
            self.insert(v, b);
        }
    }

    /// The `i`-th compatible bank of `v` in increasing bank order.
    fn nth(&self, v: NodeId, mut i: usize) -> u32 {
        let at = v.index() * self.words;
        for (w, &word) in self.compatible[at..at + self.words].iter().enumerate() {
            let ones = word.count_ones() as usize;
            if i < ones {
                let mut word = word;
                for _ in 0..i {
                    word &= word - 1; // clear the lowest set bit
                }
                return (w * 64) as u32 + word.trailing_zeros();
            }
            i -= ones;
        }
        unreachable!("fewer than i + 1 compatible banks")
    }

    fn push(&mut self, v: NodeId) {
        let k = self.count[v.index()] as usize;
        self.buckets[k].push(v);
        self.lowest = self.lowest.min(k);
    }

    /// Draws a random unassigned value from the lowest non-empty bucket
    /// (Algorithm 2 lines 9–18; objective J), skipping stale entries.
    fn draw(&mut self, rng: &mut SmallRng, assignment: &BankAssignment) -> NodeId {
        loop {
            while self.buckets[self.lowest].is_empty() {
                self.lowest += 1;
            }
            let k = self.lowest;
            let i = rng.gen_range(0..self.buckets[k].len());
            let v = self.buckets[k].swap_remove(i);
            if assignment.bank_of[v.index()].is_none() && self.count[v.index()] as usize == k {
                return v;
            }
        }
    }

    /// Removes `bank` from an unassigned `w`'s compatible banks
    /// (constraints F and G), rebucketing `w` if it had that bank.
    fn restrict(&mut self, w: NodeId, bank: u32, assignment: &BankAssignment) {
        if assignment.bank_of[w.index()].is_some() {
            return;
        }
        let (i, bit) = (bank as usize / 64, 1u64 << (bank % 64));
        let word = &mut self.bits_mut(w)[i];
        if *word & bit != 0 {
            *word &= !bit;
            self.count[w.index()] -= 1;
            self.push(w);
        }
    }
}

/// Assigns home banks to every io value (Algorithm 2).
///
/// `outputs_requested` marks program outputs (stored at the end); DAG
/// inputs are detected from the DAG itself. Returns the assignment for use
/// by [`crate::emit`].
pub fn assign_banks(
    dag: &Dag,
    cfg: &ArchConfig,
    blocks: &[Block],
    outputs: &[NodeId],
    policy: BankPolicy,
    seed: u64,
) -> BankAssignment {
    let n = dag.len();
    let banks = cfg.banks as usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xbad_c0de);

    // io universe: block inputs ∪ block outputs, each with its writable
    // banks (every io value has them from the moment it is marked io).
    let mut is_io = vec![false; n];
    let mut mnodes = Mnodes::new(n, banks);
    // simul_wr neighborhoods: the block writing each value (one at most)
    // and the blocks reading it.
    let mut out_block = vec![usize::MAX; n];
    let mut in_blocks: Vec<Vec<usize>> = vec![Vec::new(); n];

    for (bi, blk) in blocks.iter().enumerate() {
        for &(v, ref occ) in &blk.outputs {
            debug_assert_eq!(out_block[v.index()], usize::MAX, "one producer per value");
            out_block[v.index()] = bi;
            is_io[v.index()] = true;
            for pe in occ {
                for b in interconnect::writable_banks(cfg, *pe) {
                    mnodes.insert(v, b);
                }
            }
        }
        for &v in &blk.inputs {
            in_blocks[v.index()].push(bi);
            if !is_io[v.index()] {
                debug_assert_eq!(
                    dag.op(v),
                    Op::Input,
                    "non-input io value must be a block output"
                );
                is_io[v.index()] = true;
                mnodes.insert_all(v, cfg.banks);
            }
        }
    }
    // Program outputs that never pass through a block (degenerate case:
    // a DAG input with no consumers that is still a requested output)
    // also need a home bank for their load/store path.
    for &v in outputs {
        if !is_io[v.index()] {
            is_io[v.index()] = true;
            mnodes.insert_all(v, cfg.banks);
        }
    }

    let mut assignment = BankAssignment {
        bank_of: vec![None; n],
    };

    if policy == BankPolicy::Random {
        // The paper's baseline allocates uniformly at random over ALL
        // banks, ignoring interconnect compatibility — incompatible picks
        // surface as write conflicts repaired by copies at emission.
        for v in dag.nodes() {
            if is_io[v.index()] {
                assignment.bank_of[v.index()] = Some(rng.gen_range(0..cfg.banks));
            }
        }
        return assignment;
    }

    let mut unassigned = 0usize;
    for v in dag.nodes().filter(|v| is_io[v.index()]) {
        mnodes.push(v);
        unassigned += 1;
    }

    while unassigned > 0 {
        let v = mnodes.draw(&mut rng, &assignment);
        let readers = &in_blocks[v.index()];
        let writer = blocks.get(out_block[v.index()]);

        let compatible = mnodes.count[v.index()] as usize;
        let chosen = if compatible > 0 {
            mnodes.nth(v, rng.gen_range(0..compatible))
        } else {
            // No compatible bank: minimize conflicts by picking the bank
            // least used by simultaneously-read/written neighbors
            // (Algorithm 2 line 24). Conflicts will be repaired by copies.
            let mut contention = vec![0u32; banks];
            if let Some(blk) = writer {
                for &(w, _) in &blk.outputs {
                    if let Some(b) = assignment.bank_of[w.index()] {
                        contention[b as usize] += 1;
                    }
                }
            }
            for &bi in readers {
                for &r in &blocks[bi].inputs {
                    if let Some(b) = assignment.bank_of[r.index()] {
                        contention[b as usize] += 1;
                    }
                }
            }
            let min = *contention.iter().min().expect("banks > 0");
            let cands: Vec<u32> = (0..banks as u32)
                .filter(|&b| contention[b as usize] == min)
                .collect();
            cands[rng.gen_range(0..cands.len())]
        };
        assignment.bank_of[v.index()] = Some(chosen);
        unassigned -= 1;

        // Constraint G: same-block outputs must avoid this bank.
        // Constraint F: co-read inputs must avoid this bank.
        if let Some(blk) = writer {
            for &(w, _) in &blk.outputs {
                mnodes.restrict(w, chosen, &assignment);
            }
        }
        for &bi in readers {
            for &w in &blocks[bi].inputs {
                mnodes.restrict(w, chosen, &assignment);
            }
        }
    }

    assignment
}

/// Computes which values must be written back to the register file:
/// values consumed outside their producing block, plus `outputs`.
pub fn compute_needs_store(dag: &Dag, raw: &[RawBlock], outputs: &[NodeId]) -> Vec<bool> {
    let mut owner = vec![usize::MAX; dag.len()];
    for (bi, b) in raw.iter().enumerate() {
        for sg in &b.subgraphs {
            for &x in &sg.nodes {
                owner[x.index()] = bi;
            }
        }
    }
    let mut needs = vec![false; dag.len()];
    for v in dag.nodes() {
        for &p in dag.preds(v) {
            if dag.op(p) == Op::Input {
                continue;
            }
            if owner[p.index()] != owner[v.index()] {
                needs[p.index()] = true;
            }
        }
    }
    for &o in outputs {
        needs[o.index()] = true;
    }
    needs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step1::{decompose, validate_blocks};
    use dpu_dag::DagBuilder;

    fn pipeline(dag: &Dag, cfg: &ArchConfig) -> (Vec<Block>, BankAssignment) {
        let raw = decompose(dag, cfg);
        validate_blocks(dag, cfg, &raw).unwrap();
        let outputs: Vec<NodeId> = dag.sinks().collect();
        let needs = compute_needs_store(dag, &raw, &outputs);
        let blocks = place_blocks(dag, cfg, raw, &needs);
        let assign = assign_banks(dag, cfg, &blocks, &outputs, BankPolicy::ConflictAware, 7);
        (blocks, assign)
    }

    fn small_dag() -> Dag {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let s = b.node(Op::Add, &[x, y]).unwrap();
        let t = b.node(Op::Mul, &[s, z]).unwrap();
        let u = b.node(Op::Sub, &[t, x]).unwrap();
        b.node(Op::Div, &[u, y]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn placement_covers_all_nodes() {
        let dag = small_dag();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let (blocks, _) = pipeline(&dag, &cfg);
        let placed: usize = blocks
            .iter()
            .flat_map(|b| &b.pe_config)
            .filter(|(_, op)| !matches!(op, PeOpcode::BypassL | PeOpcode::BypassR))
            .count();
        // Each compute node occurs at least once (replication may add more).
        assert!(placed >= dag.op_count());
    }

    #[test]
    fn placement_pes_are_valid_and_unique_per_block() {
        let dag = small_dag();
        let cfg = ArchConfig::new(3, 8, 16).unwrap();
        let (blocks, _) = pipeline(&dag, &cfg);
        for blk in &blocks {
            let mut seen = std::collections::HashSet::new();
            for &(pe, _) in &blk.pe_config {
                assert!(pe.is_valid(&cfg), "{pe} invalid");
                assert!(seen.insert(pe.flat_index(&cfg)), "{pe} configured twice");
            }
        }
    }

    #[test]
    fn ports_within_subgraph_slots() {
        let dag = small_dag();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let (blocks, _) = pipeline(&dag, &cfg);
        for blk in &blocks {
            for &(port, _) in &blk.port_reads {
                assert!(port < cfg.banks);
                let tree = port / cfg.ports_per_tree();
                assert!(blk.subgraphs.iter().any(|sg| sg.tree == tree));
            }
        }
    }

    #[test]
    fn bank_assignment_respects_connectivity() {
        let dag = small_dag();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let (blocks, assign) = pipeline(&dag, &cfg);
        for blk in &blocks {
            for (v, occ) in &blk.outputs {
                let bank = assign.bank(*v);
                // Conflict-aware assignment on an uncontended DAG should
                // always find a compatible (occurrence, bank) pair.
                assert!(
                    occ.iter()
                        .any(|pe| interconnect::can_write(&cfg, *pe, bank)),
                    "value {v} bank {bank} unreachable from {occ:?}"
                );
            }
        }
    }

    #[test]
    fn block_inputs_get_distinct_banks() {
        let dag = small_dag();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let (blocks, assign) = pipeline(&dag, &cfg);
        for blk in &blocks {
            let mut used = std::collections::HashSet::new();
            for &v in &blk.inputs {
                assert!(
                    used.insert(assign.bank(v)),
                    "two inputs of one block share bank {}",
                    assign.bank(v)
                );
            }
        }
    }

    #[test]
    fn bank_bitsets_match_sorted_lists_across_words() {
        let mut rng = SmallRng::seed_from_u64(1);
        let banks = 150;
        let mut m = Mnodes::new(2, banks as usize);
        let v = NodeId(1);
        let mut list: Vec<u32> = Vec::new();
        for _ in 0..60 {
            let b = rng.gen_range(0..banks);
            m.insert(v, b);
            if !list.contains(&b) {
                list.push(b);
            }
        }
        list.sort_unstable();
        let assignment = BankAssignment {
            bank_of: vec![None; 2],
        };
        for &b in &[list[0], list[list.len() / 2], 149] {
            m.restrict(v, b, &assignment);
            list.retain(|&x| x != b);
        }
        assert_eq!(m.count[1] as usize, list.len());
        for (i, &b) in list.iter().enumerate() {
            assert_eq!(m.nth(v, i), b);
        }
    }

    #[test]
    fn random_policy_assigns_everything() {
        let dag = small_dag();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let raw = decompose(&dag, &cfg);
        let outputs: Vec<NodeId> = dag.sinks().collect();
        let needs = compute_needs_store(&dag, &raw, &outputs);
        let blocks = place_blocks(&dag, &cfg, raw, &needs);
        let assign = assign_banks(&dag, &cfg, &blocks, &outputs, BankPolicy::Random, 3);
        for blk in &blocks {
            for &v in &blk.inputs {
                assert!(assign.bank_of[v.index()].is_some());
            }
        }
    }
}
