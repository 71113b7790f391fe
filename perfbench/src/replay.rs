//! Direct-call replay of the layers below the dispatcher: each public
//! entry point is called from here and timed as a span, which gives the
//! per-layer costs the served run cannot separate.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dpu_core::compiler::compile;
use dpu_core::dag::eval::evaluate;
use dpu_core::prelude::*;
use dpu_core::sim::{run_decoded_on, DecodedProgram, Machine};

use crate::fleet::{engine, Reference};
use crate::programs::Program;
use crate::trace::{Recorder, Span, REPLAY_TRACK};
use crate::util::{digest, Rng};

/// Per-layer numbers from one replay.
#[derive(Default)]
pub struct Replay {
    pub compile_ms: f64,
    pub compile_us_per_node: f64,
    pub verify_ms: f64,
    pub decode_ms: f64,
    pub exec_us_per_req: f64,
    pub mcycles_per_host_s: f64,
    pub eval_us_per_req: f64,
    pub round_us_per_req: f64,
    pub lookup_hit_us: f64,
    pub spill_load_ms: f64,
    pub stall_nops: f64,
    pub reorder_nops: f64,
    pub bank_conflicts: f64,
    pub spill_ops: f64,
    pub program_bits: f64,
    pub pe_utilization: f64,
    pub total_cycles: f64,
    /// Replayed results that differ from the serial reference.
    pub mismatches: u64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Replays every layer over `programs`. `spill_dir` must already hold the
/// programs' spill files (a served run wrote them); `round` is the
/// dispatcher's batch size, used for the direct `Engine::execute_round`
/// calls, which draw programs the way `mixed` says (uniformly mixed
/// rounds, or one program per round).
pub fn replay(
    dpu: &Dpu,
    programs: &[Program],
    reference: &Reference,
    spill_dir: &Path,
    round: usize,
    mixed: bool,
    rec: &Arc<Recorder>,
) -> Replay {
    let root_start = rec.ns(Instant::now());
    let root = rec.push(Span {
        name: "harness.replay",
        start_ns: root_start,
        end_ns: root_start,
        track: REPLAY_TRACK,
        parent: None,
        req: None,
        arg: 0,
    });
    let parent = Some(root);
    let mut out = Replay::default();
    let mut nodes = 0usize;
    let (mut exec_ns, mut exec_n, mut cycles) = (0f64, 0usize, 0u64);
    let (mut eval_ns, mut eval_n) = (0f64, 0usize);
    let mut utilization = Vec::new();
    for (pi, p) in programs.iter().enumerate() {
        let t = Instant::now();
        let compiled = rec
            .time("compiler.compile", parent, || {
                compile(&p.dag, &dpu.config, &dpu.options)
            })
            .expect("program compiles");
        out.compile_ms += ms(t);
        nodes += p.dag.len();
        let s = &compiled.stats;
        out.stall_nops += s.stall_nops as f64;
        out.reorder_nops += s.reorder_nops as f64;
        out.bank_conflicts += s.conflicts.total() as f64;
        out.spill_ops += (s.spill_stores + s.spill_reloads) as f64;
        out.program_bits += s.program_bits as f64;
        out.total_cycles += s.total_cycles as f64;
        utilization.push(s.pe_utilization);

        let t = Instant::now();
        rec.time("verify.verify", parent, || compiled.verify())
            .expect("compiled program verifies");
        out.verify_ms += ms(t);

        let t = Instant::now();
        let decoded = rec
            .time("sim.decode", parent, || {
                DecodedProgram::decode(&compiled.program)
            })
            .expect("program decodes");
        out.decode_ms += ms(t);

        let mut machine = Machine::new(dpu.config);
        for (ii, x) in p.inputs.iter().enumerate() {
            let t = Instant::now();
            let r = rec
                .time("sim.run_decoded_on", parent, || {
                    run_decoded_on(&mut machine, &compiled, &decoded, x)
                })
                .expect("program runs");
            exec_ns += t.elapsed().as_nanos() as f64;
            exec_n += 1;
            cycles += r.cycles;
            if digest(&r) != reference.digests[pi][ii] {
                out.mismatches += 1;
            }
        }
        for x in &p.inputs {
            let t = Instant::now();
            let v = rec.time("dag.evaluate", parent, || evaluate(&p.dag, x));
            eval_ns += t.elapsed().as_nanos() as f64;
            eval_n += 1;
            std::hint::black_box(v.expect("reference evaluation runs"));
        }
    }
    out.compile_us_per_node = out.compile_ms * 1e3 / nodes.max(1) as f64;
    out.exec_us_per_req = exec_ns / 1e3 / exec_n.max(1) as f64;
    out.mcycles_per_host_s = cycles as f64 / (exec_ns / 1e9) / 1e6;
    out.eval_us_per_req = eval_ns / 1e3 / eval_n.max(1) as f64;
    out.pe_utilization = crate::util::mean(&utilization);

    // The cache: a fresh engine over the populated spill directory loads
    // each program from disk (checksum + verifier), then hits in memory.
    let warm = engine(dpu, Some(spill_dir.to_path_buf()));
    let keys: Vec<DagKey> = programs
        .iter()
        .map(|p| warm.register(p.dag.clone()))
        .collect();
    let t = Instant::now();
    for &k in &keys {
        rec.time("cache.spill_load", parent, || warm.warm(k))
            .expect("spilled program loads");
    }
    out.spill_load_ms = ms(t) / keys.len() as f64;
    const HITS: usize = 200;
    let t = Instant::now();
    for _ in 0..HITS {
        for &k in &keys {
            rec.time("cache.warm_hit", parent, || warm.warm(k))
                .expect("cached program");
        }
    }
    out.lookup_hit_us = t.elapsed().as_secs_f64() * 1e6 / (HITS * keys.len()) as f64;

    // The engine: `Engine::execute_round` called directly on rounds shaped
    // like the dispatcher's, after one untimed round per program decodes.
    let mut machine = Machine::new(dpu.config);
    for (k, p) in keys.iter().zip(programs) {
        let r = Request::new(*k, p.inputs[0].clone());
        std::hint::black_box(warm.execute_round(&mut machine, &[&r]));
    }
    let mut rng = Rng::new(0x5eed);
    let rounds: Vec<Vec<Request>> = if mixed {
        (0..24)
            .map(|_| {
                (0..round)
                    .map(|_| {
                        let pi = rng.below(programs.len());
                        let ii = rng.below(programs[pi].inputs.len());
                        Request::new(keys[pi], programs[pi].inputs[ii].clone())
                    })
                    .collect()
            })
            .collect()
    } else {
        keys.iter()
            .zip(programs)
            .map(|(k, p)| {
                p.inputs
                    .iter()
                    .map(|x| Request::new(*k, x.clone()))
                    .collect()
            })
            .collect()
    };
    let (mut round_ns, mut round_n) = (0f64, 0usize);
    for r in &rounds {
        let refs: Vec<&Request> = r.iter().collect();
        let t = Instant::now();
        let outcomes = rec.time("engine.execute_round", parent, || {
            warm.execute_round(&mut machine, &refs)
        });
        round_ns += t.elapsed().as_nanos() as f64;
        round_n += refs.len();
        out.mismatches += outcomes.iter().filter(|o| o.is_err()).count() as u64;
    }
    out.round_us_per_req = round_ns / 1e3 / round_n.max(1) as f64;
    rec.set_end(root, rec.ns(Instant::now()));
    out
}
