//! The system under test as every workload builds it: a 2-shard
//! dispatcher over two `Engine`s of `Dpu::large()`, optionally wrapped
//! for tracing, plus the serial reference every result is checked
//! against.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use dpu_core::dag::eval::{evaluate, values_close};
use dpu_core::prelude::*;
use dpu_core::runtime::DPU_V2_L_CORES;
use dpu_core::sim::Machine;

use crate::programs::Program;
use crate::trace::{Recorder, RoundRecord, TracedEngine};
use crate::util::digest;

pub const SHARDS: usize = 2;

/// A running dispatcher with direct handles on its engines.
pub struct Fleet {
    engines: Vec<Arc<Engine>>,
    pub keys: Vec<DagKey>,
    pub dispatcher: Dispatcher,
    rounds: Arc<Mutex<Vec<RoundRecord>>>,
}

pub fn engine(dpu: &Dpu, spill_dir: Option<PathBuf>) -> Engine {
    Engine::new(
        dpu.config,
        dpu.options.clone(),
        EngineOptions {
            workers: 1,
            cores: DPU_V2_L_CORES,
            cache_capacity: None,
            spill_dir,
        },
    )
}

impl Fleet {
    /// Builds the engines, the dispatcher over them (through the tracing
    /// wrapper when `tracer` is set) and registers every program.
    pub fn new(
        dpu: &Dpu,
        programs: &[Program],
        options: DispatchOptions,
        spill_dir: Option<PathBuf>,
        tracer: Option<&Arc<Recorder>>,
    ) -> Fleet {
        let engines: Vec<Arc<Engine>> = (0..SHARDS)
            .map(|_| Arc::new(engine(dpu, spill_dir.clone())))
            .collect();
        let rounds = Arc::new(Mutex::new(Vec::new()));
        let backends: Vec<Arc<dyn Backend>> = engines
            .iter()
            .enumerate()
            .map(|(i, e)| match tracer {
                Some(rec) => Arc::new(TracedEngine::new(
                    Arc::clone(e),
                    Arc::clone(rec),
                    1 + i as u32,
                    Arc::clone(&rounds),
                )) as Arc<dyn Backend>,
                None => Arc::clone(e) as Arc<dyn Backend>,
            })
            .collect();
        let dispatcher = Dispatcher::with_backends(backends, Vec::new(), options);
        let keys = programs
            .iter()
            .map(|p| dispatcher.register(p.dag.clone()))
            .collect();
        Fleet {
            engines,
            keys,
            dispatcher,
            rounds,
        }
    }

    /// Compiles and decodes every program on every shard, so serving
    /// starts with a cache that only hits.
    pub fn warm(&self, programs: &[Program]) {
        for e in &self.engines {
            let mut machine = Machine::new(*e.config());
            for (key, p) in self.keys.iter().zip(programs) {
                e.warm(*key).expect("program compiles");
                let request = Request::new(*key, p.inputs[0].clone());
                let out = e.execute_round(&mut machine, &[&request]);
                out[0].as_ref().expect("warm-up request runs");
            }
        }
    }

    pub fn take_rounds(&self) -> Vec<RoundRecord> {
        std::mem::take(&mut *self.rounds.lock().expect("round buffer poisoned"))
    }
}

/// The serial reference: per program and input set, the digest of the
/// result `Engine::serve_serial` returns, after that result was checked
/// against the reference DAG evaluator (as `dpu_sim::run_and_verify`
/// does, on the compiled binarized DAG). Also keeps one result per program
/// for the modelled metrics.
pub struct Reference {
    pub digests: Vec<Vec<u64>>,
    first: Vec<RunResult>,
    /// Reference results that disagreed with the evaluator run on the
    /// compiled (binarized) DAG — the program's exact semantics.
    pub eval_mismatches: usize,
    /// Reference results outside the tolerance of the evaluator run on the
    /// original DAG, whose n-ary reductions binarization re-associates.
    /// Reported, not failed.
    pub reassociated: usize,
}

impl Reference {
    pub fn build(dpu: &Dpu, programs: &[Program]) -> Reference {
        let engine = engine(dpu, None);
        let mut digests = Vec::new();
        let mut first = Vec::new();
        let mut eval_mismatches = 0;
        let mut reassociated = 0;
        for p in programs {
            let key = engine.register(p.dag.clone());
            let stream: Vec<Request> = p
                .inputs
                .iter()
                .map(|x| Request::new(key, x.clone()))
                .collect();
            let results = engine
                .serve_serial(&stream)
                .expect("serial reference runs")
                .results;
            let compiled = engine.warm(key).expect("program compiles");
            for (r, x) in results.iter().zip(&p.inputs) {
                if !matches_evaluator(&compiled.bin_dag, &compiled.outputs, x, r) {
                    eval_mismatches += 1;
                }
                let mut seen = std::collections::HashSet::new();
                let sinks: Vec<NodeId> = p
                    .dag
                    .sinks()
                    .filter(|s| seen.insert(compiled.orig_to_bin[s.index()]))
                    .collect();
                if !matches_evaluator(&p.dag, &sinks, x, r) {
                    reassociated += 1;
                }
            }
            digests.push(results.iter().map(digest).collect());
            first.push(results[0].clone());
        }
        Reference {
            digests,
            first,
            eval_mismatches,
            reassociated,
        }
    }

    /// Modelled GOPS and EDP (pJ·ns per op), geometric means over the
    /// distinct programs.
    pub fn modelled(&self, dpu: &Dpu) -> (f64, f64) {
        let m: Vec<_> = self
            .first
            .iter()
            .map(|r| dpu_core::energy::metrics(&dpu.config, r))
            .collect();
        let gops: Vec<f64> = m.iter().map(|m| m.throughput_ops / 1e9).collect();
        let edp: Vec<f64> = m.iter().map(|m| m.edp).collect();
        (crate::util::geomean(&gops), crate::util::geomean(&edp))
    }
}

/// Whether a simulated result agrees with `dag::eval::evaluate` on `dag`
/// within `values_close`'s 1e-3 relative tolerance: output `i` is node
/// `outputs[i]`.
fn matches_evaluator(dag: &Dag, outputs: &[NodeId], inputs: &[f32], r: &RunResult) -> bool {
    let Ok(values) = evaluate(dag, inputs) else {
        return false;
    };
    let expected: Vec<f32> = outputs.iter().map(|n| values[n.index()]).collect();
    values_close(&r.outputs, &expected, 1e-3)
}

/// One finished request as the client saw it.
#[derive(Clone, Copy)]
pub struct Done {
    pub program: u32,
    pub input: u32,
    /// `Some(digest)` when completed, `None` when failed or shed.
    pub digest: Option<u64>,
    pub timeline: Timeline,
}

impl Done {
    pub fn from_outcome(
        program: usize,
        input: usize,
        outcome: Outcome,
        timeline: Timeline,
    ) -> Done {
        Done {
            program: program as u32,
            input: input as u32,
            digest: outcome.completed().map(|r| digest(&r)),
            timeline,
        }
    }
}

/// Correctness of a run: every request completed and is byte-identical
/// to the serial reference. Returns `(failed, mismatched)`.
pub fn check(done: &[Done], reference: &Reference) -> (u64, u64) {
    let mut failed = 0;
    let mut mismatched = 0;
    for d in done {
        match d.digest {
            None => failed += 1,
            Some(h) => {
                if reference.digests[d.program as usize][d.input as usize] != h {
                    mismatched += 1;
                }
            }
        }
    }
    (failed, mismatched)
}
