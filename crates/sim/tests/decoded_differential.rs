//! Differential fuzz: the three execution paths — interpreted
//! ([`Machine::run_program`]), the packed image fetched and decoded back
//! ([`encode::decode_stream`], then interpreted) and pre-decoded
//! ([`Machine::run_decoded`]) — must be indistinguishable on every
//! program: bit-identical outputs, identical cycle counts and identical
//! activity counters, across random workloads × architecture configs
//! (including a tiny-register config that forces compiler spills).

use dpu_compiler::{compile, CompileOptions, Compiled};
use dpu_dag::{Dag, DagBuilder, NodeId, Op};
use dpu_isa::{encode, ArchConfig, Program};
use dpu_sim::{run_decoded_on, run_on, DecodedProgram, Machine, RunResult};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_dag(seed: u64) -> (Dag, Vec<f32>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = DagBuilder::new();
    let n_inputs = rng.gen_range(4..12);
    let mut ids: Vec<NodeId> = (0..n_inputs).map(|_| b.input()).collect();
    for _ in 0..rng.gen_range(40..160) {
        let i = ids[rng.gen_range(0..ids.len())];
        let j = ids[rng.gen_range(0..ids.len())];
        let op = match rng.gen_range(0..6) {
            0 => Op::Add,
            1 => Op::Mul,
            2 => Op::Sub,
            3 => Op::Div,
            4 => Op::Min,
            _ => Op::Max,
        };
        ids.push(b.node(op, &[i, j]).unwrap());
    }
    let dag = b.finish().unwrap();
    let inputs: Vec<f32> = (0..n_inputs).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    (dag, inputs)
}

/// Runs `compiled` from its packed image: decodes the image back into an
/// instruction stream and interprets that, returning the run result for
/// exact comparison.
fn run_packed_path(compiled: &Compiled, inputs: &[f32]) -> RunResult {
    let cfg = compiled.program.config;
    let image = compiled.program.pack();
    let unpacked = Compiled {
        program: Program {
            config: cfg,
            instrs: encode::decode_stream(&image, &cfg, compiled.program.len()).unwrap(),
        },
        ..compiled.clone()
    };
    run_on(&mut Machine::new(cfg), &unpacked, inputs).unwrap()
}

fn assert_same(tag: &str, point: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.cycles, b.cycles, "{point}: {tag} cycle count diverged");
    assert_eq!(a.activity, b.activity, "{point}: {tag} activity diverged");
    assert_eq!(a.outputs.len(), b.outputs.len(), "{point}: {tag} arity");
    for (i, (x, y)) in a.outputs.iter().zip(&b.outputs).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{point}: {tag} output {i} diverged ({x} vs {y})"
        );
    }
}

#[test]
fn interpreted_packed_and_decoded_paths_are_bit_identical() {
    let configs = [
        (1u32, 4u32, 16u32),
        (2, 8, 16),
        (2, 8, 32),
        (3, 16, 32),
        (2, 8, 6), // tiny R: forces spill stores/loads into the program
    ];
    let mut interp_machine = Machine::new(ArchConfig::new(1, 2, 2).unwrap());
    let mut decoded_machine = Machine::new(ArchConfig::new(1, 2, 2).unwrap());
    let mut points = 0;
    for seed in 0..10u64 {
        let (dag, inputs) = random_dag(1000 + seed);
        for (d, bk, r) in configs {
            let cfg = ArchConfig::new(d, bk, r).unwrap();
            let compiled = match compile(&dag, &cfg, &CompileOptions::default()) {
                Ok(c) => c,
                // A config too small for this DAG is not a differential
                // point; skip rather than weaken the config set.
                Err(_) => continue,
            };
            let point = format!("seed {seed} cfg {d}/{bk}/{r}");
            let interp = run_on(&mut interp_machine, &compiled, &inputs).unwrap();
            let packed = run_packed_path(&compiled, &inputs);
            let decoded_prog = DecodedProgram::decode(&compiled.program).unwrap();
            let decoded =
                run_decoded_on(&mut decoded_machine, &compiled, &decoded_prog, &inputs).unwrap();
            assert_same("packed", &point, &interp, &packed);
            assert_same("decoded", &point, &interp, &decoded);
            points += 1;
        }
    }
    assert!(points >= 45, "only {points} differential points ran");
}
