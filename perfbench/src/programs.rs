//! The DAGs and inputs each workload serves. Every input is a pure
//! function of the workload seed; the program under test only ever sees
//! the generated DAGs and input vectors.

use dpu_core::prelude::*;
use dpu_core::workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_core::workloads::sparse::{generate_lower_triangular, LowerTriangularParams, SpmvDag};
use dpu_core::workloads::sptrsv::SptrsvDag;
use dpu_core::workloads::suite::{small_suite, WorkloadClass};

use crate::util::Rng;

/// One distinct program of a workload with a pool of seeded input sets.
pub struct Program {
    pub dag: Dag,
    pub inputs: Vec<Vec<f32>>,
}

/// The three serving families of the `async_serving` bench (pc 1.8k
/// nodes, sptrsv 1.1k nodes, sparse 1.8k nodes). Their structure is fixed
/// so the serving capacity is comparable across seeds; the seed drives the
/// input pool (`pool` sets per family) and the traffic.
pub fn serve_families(seed: u64, pool: usize) -> Vec<Program> {
    let mut rng = Rng::new(seed);
    let pc = generate_pc(&PcParams::with_targets(1_800, 13), 51);
    let pc_pool = (0..pool).map(|_| pc_inputs(&pc, rng.next_u64())).collect();

    let l = generate_lower_triangular(&LowerTriangularParams::for_target_path(120, 2.0, 20), 52);
    let trsv = SptrsvDag::build(&l);
    let trsv_pool = (0..pool)
        .map(|_| {
            let b: Vec<f32> = (0..l.dim).map(|_| rng.range_f32(0.5, 1.5)).collect();
            trsv.inputs(&l, &b)
        })
        .collect();

    let a = generate_lower_triangular(
        &LowerTriangularParams {
            dim: 150,
            avg_nnz_per_row: 4.0,
            band_fraction: 0.7,
            band: 10,
        },
        53,
    );
    let spmv = SpmvDag::build(&a);
    let spmv_pool = (0..pool)
        .map(|_| {
            let x: Vec<f32> = (0..a.dim).map(|_| rng.range_f32(0.2, 0.8)).collect();
            spmv.inputs(&a, &x)
        })
        .collect();

    vec![
        Program {
            dag: pc,
            inputs: pc_pool,
        },
        Program {
            dag: trsv.dag,
            inputs: trsv_pool,
        },
        Program {
            dag: spmv.dag,
            inputs: spmv_pool,
        },
    ]
}

/// The 12 Table I(a)+(b) DAGs at published size with `per_dag` seeded
/// input sets each. The structure is the suite's own: with generator seeds
/// offset by the workload seed, compile time alone moved cold start by
/// about 35% between seeds, more than any bound could absorb.
pub fn paper_suite(seed: u64, per_dag: usize) -> Vec<Program> {
    let mut rng = Rng::new(seed);
    small_suite()
        .into_iter()
        .map(|spec| {
            let dag = spec.generate();
            let inputs = (0..per_dag)
                .map(|_| match spec.class {
                    WorkloadClass::Pc | WorkloadClass::LargePc => pc_inputs(&dag, rng.next_u64()),
                    // b values then matrix values: a smooth positive
                    // pattern keeps the triangular solve well conditioned.
                    WorkloadClass::SpTrsv => {
                        let phase = rng.range_f32(0.0, 10.0);
                        (0..dag.input_count())
                            .map(|i| 0.6 + 0.8 * ((i as f32 * 0.7 + phase).sin().abs()))
                            .collect()
                    }
                })
                .collect();
            Program { dag, inputs }
        })
        .collect()
}
