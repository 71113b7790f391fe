//! The single client thread that drives load: a closed loop with a fixed
//! number of tickets outstanding, or an open loop paced by a Poisson
//! schedule with latency charged from each request's scheduled arrival.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpu_core::prelude::*;
use dpu_core::workloads::traffic::{Arrival, PriorityClass};

use crate::fleet::{Done, Fleet};
use crate::programs::Program;
use crate::trace::{ClientRecord, Recorder};
use crate::util::Rng;

struct Pending {
    ticket: Ticket,
    program: usize,
    input: usize,
    scheduled: Instant,
    submit_start: Instant,
    submit_end: Instant,
    ptr: usize,
    req: u64,
}

/// Everything one load run produced.
pub struct LoadRun {
    pub done: Vec<Done>,
    /// Generator lateness per request (open loop; empty for closed).
    pub late_ns: Vec<u64>,
    /// Tickets still unresolved when the load ended.
    pub backlog_end: usize,
    /// Submit-call durations (traced runs only).
    pub submit_ns: Vec<u64>,
    pub clients: Vec<ClientRecord>,
    /// Requests the submitter rejected.
    pub rejected: u64,
}

struct Client<'a> {
    fleet: &'a Fleet,
    programs: &'a [Program],
    submitter: Submitter,
    tracer: Option<&'a Arc<Recorder>>,
    run: LoadRun,
    next_req: u64,
}

impl<'a> Client<'a> {
    fn new(fleet: &'a Fleet, programs: &'a [Program], tracer: Option<&'a Arc<Recorder>>) -> Self {
        Client {
            fleet,
            programs,
            submitter: fleet.dispatcher.submitter(),
            tracer,
            run: LoadRun {
                done: Vec::new(),
                late_ns: Vec::new(),
                backlog_end: 0,
                submit_ns: Vec::new(),
                clients: Vec::new(),
                rejected: 0,
            },
            next_req: 0,
        }
    }

    fn submit(
        &mut self,
        program: usize,
        input: usize,
        scheduled: Instant,
        priority: Priority,
    ) -> Option<Pending> {
        let request = Request::new(
            self.fleet.keys[program],
            self.programs[program].inputs[input].clone(),
        );
        let ptr = request.inputs.as_ptr() as usize;
        let submit_start = Instant::now();
        let res = self
            .submitter
            .submit_with(request, SubmitOptions::at(scheduled).priority(priority));
        let submit_end = Instant::now();
        let req = self.next_req;
        self.next_req += 1;
        match res {
            Ok(ticket) => Some(Pending {
                ticket,
                program,
                input,
                scheduled,
                submit_start,
                submit_end,
                ptr,
                req,
            }),
            Err(_) => {
                self.run.rejected += 1;
                None
            }
        }
    }

    fn finish(&mut self, p: Pending) {
        let (outcome, tl) = p.ticket.wait_detailed();
        if let Some(rec) = self.tracer {
            // The dispatcher stamps its timeline from its own epoch; the
            // scheduled arrival is known on both clocks.
            let shift = rec.ns(p.scheduled) as i128 - i128::from(tl.arrival_ns);
            let on = |ns: u64| (i128::from(ns) + shift).max(0) as u64;
            self.run
                .submit_ns
                .push(p.submit_end.duration_since(p.submit_start).as_nanos() as u64);
            self.run.clients.push(ClientRecord {
                req: p.req,
                ptr: p.ptr,
                scheduled_ns: rec.ns(p.scheduled),
                submit_start_ns: rec.ns(p.submit_start),
                submit_end_ns: rec.ns(p.submit_end),
                accepted_ns: on(tl.accepted_ns),
                round_closed_ns: on(tl.round_closed_ns),
                execute_start_ns: on(tl.execute_start_ns),
                completed_ns: on(tl.completed_ns),
            });
        }
        self.run
            .done
            .push(Done::from_outcome(p.program, p.input, outcome, tl));
    }
}

/// Closed loop: keeps `outstanding` tickets in flight for `seconds`,
/// choosing program and input set uniformly from `rng`, then drains.
pub fn closed_loop(
    fleet: &Fleet,
    programs: &[Program],
    outstanding: usize,
    seconds: f64,
    rng: &mut Rng,
    tracer: Option<&Arc<Recorder>>,
) -> LoadRun {
    let mut client = Client::new(fleet, programs, tracer);
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(outstanding);
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        while inflight.len() < outstanding {
            let program = rng.below(programs.len());
            let input = rng.below(programs[program].inputs.len());
            if let Some(p) = client.submit(program, input, Instant::now(), Priority::Standard) {
                inflight.push_back(p);
            }
        }
        let p = inflight.pop_front().expect("tickets in flight");
        client.finish(p);
    }
    client.run.backlog_end = inflight.len();
    for p in inflight {
        client.finish(p);
    }
    client.run
}

/// Open loop: submits `arrivals` at their scheduled times (shifted back
/// by `offset`, so any slice of a schedule can be replayed) from one
/// thread, sleeping until each is due (never spinning: the shards need
/// the CPUs), and collects finished tickets while it waits. Latency is
/// charged from the scheduled arrival.
pub fn open_loop(
    fleet: &Fleet,
    programs: &[Program],
    arrivals: &[Arrival],
    offset: Duration,
    tracer: Option<&Arc<Recorder>>,
) -> LoadRun {
    let mut client = Client::new(fleet, programs, tracer);
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let start = Instant::now() + Duration::from_millis(2);
    for a in arrivals {
        let due = start + a.at.saturating_sub(offset);
        loop {
            while inflight.front().is_some_and(|p| p.ticket.is_done()) {
                let p = inflight.pop_front().expect("front exists");
                client.finish(p);
            }
            let now = Instant::now();
            if now >= due {
                client
                    .run
                    .late_ns
                    .push(now.duration_since(due).as_nanos() as u64);
                break;
            }
            std::thread::sleep(due - now);
        }
        let priority = match a.class {
            PriorityClass::Interactive => Priority::Interactive,
            PriorityClass::Standard => Priority::Standard,
            PriorityClass::Batch => Priority::Batch,
        };
        let input = a.seq % programs[a.family].inputs.len();
        if let Some(p) = client.submit(a.family, input, due, priority) {
            inflight.push_back(p);
        }
    }
    client.run.backlog_end = inflight.iter().filter(|p| !p.ticket.is_done()).count();
    for p in inflight {
        client.finish(p);
    }
    client.run
}

/// Serves `groups` one after another: each group's requests are submitted
/// together, its rounds closed at once, and all its tickets waited for
/// before the next group goes in.
pub fn in_groups(
    fleet: &Fleet,
    programs: &[Program],
    groups: &[Vec<(usize, usize)>],
    tracer: Option<&Arc<Recorder>>,
) -> LoadRun {
    let mut client = Client::new(fleet, programs, tracer);
    for group in groups {
        let pending: Vec<Pending> = group
            .iter()
            .filter_map(|&(program, input)| {
                client.submit(program, input, Instant::now(), Priority::Standard)
            })
            .collect();
        fleet.dispatcher.flush();
        for p in pending {
            client.finish(p);
        }
    }
    client.run
}
