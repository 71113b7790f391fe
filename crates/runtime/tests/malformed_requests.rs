//! "Query of death" regression: a request with the wrong number of
//! inputs fails alone, typed, and never takes its round or its shard
//! down with it.

use dpu_compiler::CompileOptions;
use dpu_dag::{Dag, DagBuilder, Op};
use dpu_isa::ArchConfig;
use dpu_runtime::{DispatchOptions, Dispatcher, Outcome, Priority, Request, ServeError};
use dpu_sim::SimError;

fn small_dag() -> Dag {
    let mut b = DagBuilder::new();
    let x = b.input();
    let y = b.input();
    let s = b.node(Op::Add, &[x, y]).unwrap();
    b.node(Op::Mul, &[s, s]).unwrap();
    b.finish().unwrap()
}

/// 8 well-formed requests and 1 with a missing input, co-batched in one
/// round: the 8 complete, the malformed one fails with a typed
/// `InputCount`, nothing is recovered (no shard died), and the same
/// shards keep serving a second wave.
fn wrong_arity_fails_alone(shards: usize) {
    let d = Dispatcher::new(
        ArchConfig::new(2, 8, 32).unwrap(),
        CompileOptions::default(),
        DispatchOptions {
            shards,
            ..Default::default()
        },
    );
    let key = d.register(small_dag());
    let sub = d.submitter();

    let mut good = Vec::new();
    for i in 0..4 {
        good.push((
            i,
            sub.submit(Request::new(key, vec![i as f32, 1.0])).unwrap(),
        ));
    }
    let bad = sub.submit(Request::new(key, vec![1.0])).unwrap();
    for i in 4..8 {
        good.push((
            i,
            sub.submit(Request::new(key, vec![i as f32, 1.0])).unwrap(),
        ));
    }

    match bad.wait() {
        Outcome::Failed(ServeError::Sim {
            error:
                SimError::InputCount {
                    expected: 2,
                    got: 1,
                },
            ..
        }) => {}
        other => panic!("{shards} shards: expected a typed InputCount failure, got {other:?}"),
    }
    for (i, ticket) in good {
        let want = (i as f32 + 1.0) * (i as f32 + 1.0);
        assert_eq!(
            ticket.wait().unwrap().outputs,
            vec![want],
            "{shards} shards"
        );
    }

    // The shard that ran the malformed request is still alive.
    let again: Vec<_> = (0..4)
        .map(|i| sub.submit(Request::new(key, vec![i as f32, 2.0])).unwrap())
        .collect();
    for (i, ticket) in again.into_iter().enumerate() {
        let want = (i as f32 + 2.0) * (i as f32 + 2.0);
        assert_eq!(
            ticket.wait().unwrap().outputs,
            vec![want],
            "{shards} shards"
        );
    }

    let report = d.shutdown();
    assert_eq!(report.recovered, 0, "{shards} shards: a shard died");
    assert_eq!(report.served, 13);
    let c = report.class(Priority::Standard);
    assert_eq!((c.completed, c.failed), (12, 1), "{shards} shards");
    assert_eq!(c.offered, c.completed + c.failed + c.shed + c.rejected);
}

#[test]
fn wrong_arity_request_fails_alone() {
    for shards in [1, 2] {
        wrong_arity_fails_alone(shards);
    }
}
