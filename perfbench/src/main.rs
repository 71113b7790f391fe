//! DPU-v2 serving benchmark: end-to-end metrics with tracing off, and a
//! traced run that times each layer from outside.
//!
//! ```text
//! dpu-perfbench --workload <serve_closed|serve_open|paper_suite_cold>
//!               --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it
//! holds the run's metadata (seed, host CPUs, commit, build profile and
//! the sample count behind every percentile).

mod client;
mod fleet;
mod programs;
mod replay;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpu_core::prelude::*;
use dpu_core::workloads::traffic::{
    open_loop_schedule, Arrival, ArrivalPattern, PriorityMix, TrafficParams,
};

use client::LoadRun;
use fleet::{check, Done, Fleet, Reference};
use programs::Program;
use trace::Recorder;
use util::{mean, median, quantile, Rng};

/// Input sets per serving family.
const POOL: usize = 48;
/// Requests per DAG in `paper_suite_cold`.
const PER_DAG: usize = 4;
/// Tickets the closed-loop client keeps outstanding.
const OUTSTANDING: usize = 64;
/// Open-loop arrival rate, requests per second: about 40% of the
/// closed-loop capacity.
const OPEN_RATE: f64 = 10_000.0;
/// Latency budget of a served request (goodput), from scheduled arrival.
const SERVE_BUDGET_NS: u64 = 10_000_000;
/// Budget of a request in the cold-start workload, from submit.
const COLD_BUDGET_NS: u64 = 10_000_000_000;
/// An open-loop slice is invalid when its generator ran this late at p99 ...
const MAX_LATE_P99_MS: f64 = 10.0;
/// ... or when this many tickets were still unresolved at its end.
const MAX_BACKLOG: usize = 500;
/// The serving workloads measure in slices of this many seconds; each
/// slice is one latency window and is followed by start-up probes and one
/// more set-up, so every metric samples the whole run.
const SLICE: Duration = Duration::from_secs(1);
/// Cold/warm start probe pairs after each serving slice.
const PROBES_PER_SLICE: usize = 2;
/// Pause between building a dispatcher and timing its start-up.
const SETTLE: Duration = Duration::from_millis(5);

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    ServeClosed,
    ServeOpen,
    PaperSuiteCold,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_build/perfbench-out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "serve_closed" => Workload::ServeClosed,
                    "serve_open" => Workload::ServeOpen,
                    "paper_suite_cold" => Workload::PaperSuiteCold,
                    w => return Err(format!("unknown workload `{w}`")),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => trace = value == "1",
            "--out" => out = PathBuf::from(value),
            f => return Err(format!("unknown flag `{f}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

/// Metrics in print order, with their units.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Tally of a run: what was attempted and what went wrong.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatched: u64,
    reassociated: u64,
}

impl Tally {
    fn new(reference: &Reference) -> Tally {
        Tally {
            mismatched: reference.eval_mismatches as u64,
            reassociated: reference.reassociated as u64,
            ..Tally::default()
        }
    }

    fn add(&mut self, run: &LoadRun, reference: &Reference) {
        let (failed, mismatched) = check(&run.done, reference);
        self.attempted += run.done.len() as u64 + run.rejected;
        self.failed += failed + run.rejected;
        self.mismatched += mismatched;
    }
}

fn options(workload: Workload) -> DispatchOptions {
    match workload {
        Workload::ServeClosed => DispatchOptions {
            max_batch: 32,
            ..Default::default()
        },
        Workload::ServeOpen => DispatchOptions {
            max_batch: 32,
            max_wait: Duration::from_micros(500),
            work_stealing: true,
            ..Default::default()
        },
        Workload::PaperSuiteCold => DispatchOptions {
            max_batch: PER_DAG,
            max_wait: Duration::from_micros(500),
            work_stealing: true,
            ..Default::default()
        },
    }
}

fn generate(workload: Workload, seed: u64) -> Vec<Program> {
    match workload {
        Workload::PaperSuiteCold => programs::paper_suite(seed, PER_DAG),
        _ => programs::serve_families(seed, POOL),
    }
}

/// One set-up: generation, dispatcher construction, registration and
/// (for the serving workloads) warm-up. Returns the programs, the ready
/// fleet, the set-up seconds and the generation milliseconds.
fn setup(
    dpu: &Dpu,
    workload: Workload,
    seed: u64,
    tracer: Option<&Arc<Recorder>>,
) -> (Vec<Program>, Fleet, f64, f64) {
    let t = Instant::now();
    let programs = generate(workload, seed);
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let fleet = Fleet::new(dpu, &programs, options(workload), None, tracer);
    if workload != Workload::PaperSuiteCold {
        fleet.warm(&programs);
    }
    (programs, fleet, t.elapsed().as_secs_f64(), gen_ms)
}

/// One pass of a start-up probe: a dispatcher over `dir` serving
/// `groups` (one group per program, in order).
struct StartPass {
    run: LoadRun,
    /// From the first submit until every program has its first result.
    first_all_s: f64,
    /// From the first submit until the last result.
    wall_s: f64,
    report: DispatchReport,
}

fn start_pass(
    dpu: &Dpu,
    workload: Workload,
    programs: &[Program],
    groups: &[Vec<(usize, usize)>],
    dir: &Path,
    tracer: Option<&Arc<Recorder>>,
) -> (StartPass, Vec<trace::RoundRecord>) {
    let fleet = Fleet::new(
        dpu,
        programs,
        options(workload),
        Some(dir.to_path_buf()),
        tracer,
    );
    // Let the shard threads start (and allocate their machines) before
    // the clock starts: the metric is the serving path, not a race with
    // thread start-up.
    std::thread::sleep(SETTLE);
    let run = client::in_groups(&fleet, programs, groups, tracer);
    let rounds = fleet.take_rounds();
    let report = fleet.dispatcher.shutdown();
    let t0 = run
        .done
        .iter()
        .map(|d| d.timeline.arrival_ns)
        .min()
        .unwrap_or(0);
    let mut first = vec![u64::MAX; programs.len()];
    for d in &run.done {
        let f = &mut first[d.program as usize];
        *f = (*f).min(d.timeline.completed_ns);
    }
    let last = run
        .done
        .iter()
        .map(|d| d.timeline.completed_ns)
        .max()
        .unwrap_or(t0);
    let first_all = first
        .into_iter()
        .filter(|&f| f != u64::MAX)
        .max()
        .unwrap_or(t0);
    (
        StartPass {
            first_all_s: (first_all.saturating_sub(t0)) as f64 / 1e9,
            wall_s: (last.saturating_sub(t0)) as f64 / 1e9,
            run,
            report,
        },
        rounds,
    )
}

/// A cold pass over an empty spill directory, then a restarted
/// dispatcher over the same directory serving the same groups.
fn cold_then_warm(
    dpu: &Dpu,
    workload: Workload,
    programs: &[Program],
    groups: &[Vec<(usize, usize)>],
    dir: &Path,
) -> (StartPass, StartPass) {
    let _ = std::fs::remove_dir_all(dir);
    let (cold, _) = start_pass(dpu, workload, programs, groups, dir, None);
    let (warm, _) = start_pass(dpu, workload, programs, groups, dir, None);
    let _ = std::fs::remove_dir_all(dir);
    (cold, warm)
}

/// Temporary spill directory `n` of this process.
fn spill_dir(out: &Path, n: usize) -> PathBuf {
    out.join(format!("spill-{}-{n}", std::process::id()))
}

/// The request groups of a start-up pass. The cold-start workload's DAGs
/// arrive one after another, each with all its requests (one round); a
/// serving workload's probe sends one request per family at once.
fn start_groups(programs: &[Program], paper: bool) -> Vec<Vec<(usize, usize)>> {
    if paper {
        (0..programs.len())
            .map(|p| (0..PER_DAG).map(|i| (p, i)).collect())
            .collect()
    } else {
        vec![(0..programs.len()).map(|p| (p, 0)).collect()]
    }
}

/// Latency statistics of finished requests, from scheduled arrival to
/// completion: each quantile is taken per window (a slice of the run),
/// and the median over the windows is reported.
struct Latency {
    p50_ms: f64,
    p99_ms: f64,
    samples: usize,
    windows: usize,
}

fn latency(windows: &[&LoadRun]) -> Latency {
    let (mut p50, mut p99, mut samples) = (Vec::new(), Vec::new(), 0);
    for w in windows {
        let mut ms: Vec<f64> = w
            .done
            .iter()
            .filter(|d| d.digest.is_some())
            .map(|d| d.timeline.total_ns() as f64 / 1e6)
            .collect();
        if ms.is_empty() {
            continue;
        }
        samples += ms.len();
        p50.push(quantile(&mut ms, 0.5));
        p99.push(quantile(&mut ms, 0.99));
    }
    Latency {
        p50_ms: median(&p50),
        p99_ms: median(&p99),
        samples,
        windows: p50.len(),
    }
}

/// Requests that completed within `budget_ns` of their scheduled arrival
/// (failures count as misses), and requests offered.
fn within_budget(run: &LoadRun, budget_ns: u64) -> (usize, usize) {
    let good = run
        .done
        .iter()
        .filter(|d| d.digest.is_some() && d.timeline.total_ns() <= budget_ns)
        .count();
    (good, run.done.len() + run.rejected as usize)
}

/// Requests completed per second over a run's serving window.
fn throughput(done: &[Done]) -> f64 {
    let first = done
        .iter()
        .map(|d| d.timeline.arrival_ns)
        .min()
        .unwrap_or(0);
    let last = done
        .iter()
        .map(|d| d.timeline.completed_ns)
        .max()
        .unwrap_or(0);
    let completed = done.iter().filter(|d| d.digest.is_some()).count();
    completed as f64 / ((last.saturating_sub(first)) as f64 / 1e9).max(1e-9)
}

fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    open_loop_schedule(&TrafficParams {
        requests: (OPEN_RATE * seconds) as usize,
        rate_per_sec: OPEN_RATE,
        pattern: ArrivalPattern::Poisson,
        families: 3,
        skew: 0.5,
        seed,
        priorities: PriorityMix::new(0.3, 0.3),
    })
}

/// The serving load of one stretch of `length` starting `from` into the
/// run: the closed loop for that long, or the open-loop schedule's
/// arrivals in that stretch.
fn serve_load(
    fleet: &Fleet,
    programs: &[Program],
    load: &mut Load,
    from: Duration,
    length: Duration,
    tracer: Option<&Arc<Recorder>>,
) -> LoadRun {
    match load {
        Load::Closed(rng) => client::closed_loop(
            fleet,
            programs,
            OUTSTANDING,
            length.as_secs_f64(),
            rng,
            tracer,
        ),
        Load::Open(schedule) => {
            let lo = schedule.partition_point(|a| a.at < from);
            let hi = schedule.partition_point(|a| a.at < from + length);
            client::open_loop(fleet, programs, &schedule[lo..hi], from, tracer)
        }
    }
}

/// What drives a serving workload: the closed loop's choices or the open
/// loop's schedule, both from the seed.
enum Load {
    Closed(Rng),
    Open(Vec<Arrival>),
}

impl Load {
    fn new(workload: Workload, seed: u64, seconds: f64) -> Load {
        match workload {
            Workload::ServeOpen => Load::Open(schedule(seed, seconds)),
            _ => Load::Closed(Rng::new(seed.wrapping_mul(31).wrapping_add(7))),
        }
    }
}

/// Generator lateness p99 (ms) over `runs` and the largest backlog left
/// at the end of one of them.
fn lateness(runs: &[&LoadRun]) -> (f64, usize) {
    let mut late: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.late_ns.iter().map(|&n| n as f64 / 1e6))
        .collect();
    let backlog = runs.iter().map(|r| r.backlog_end).max().unwrap_or(0);
    (quantile(&mut late, 0.99), backlog)
}

/// Whether an open-loop stretch is valid: its generator kept the schedule
/// and its backlog did not grow. An invalid stretch's latency describes
/// the client (or a host that took the CPUs away), not the server.
fn kept_schedule(run: &LoadRun) -> bool {
    let (late_p99, backlog) = lateness(&[run]);
    late_p99 <= MAX_LATE_P99_MS && backlog <= MAX_BACKLOG
}

struct RunOutput {
    metrics: Metrics,
    tally: Tally,
    samples: Vec<(&'static str, usize)>,
}

/// What one slice of a serving run, or one cold pass + restart of the
/// cold-start workload, measured.
struct Sample {
    /// Share of this machine's busy CPU time the hypervisor took away
    /// meanwhile (steal).
    steal: f64,
    /// Whether the open-loop generator kept the schedule.
    valid: bool,
    rps: f64,
    /// The requests whose latency this sample reports.
    window: LoadRun,
    colds: Vec<f64>,
    warms: Vec<f64>,
    setup: f64,
    good: usize,
    offered: usize,
}

/// The calmest third of a serving run's slices (rounded up): valid ones
/// first, then those during which the host stole the least CPU time. On a shared
/// virtual machine, steal comes in episodes of tens of seconds that slow
/// every host-clock figure by up to a half; the metrics describe the
/// program on the calmest part of its run, and the metadata says how much
/// was set aside.
fn calmest_third(mut samples: Vec<Sample>) -> Vec<Sample> {
    samples.sort_by(|a, b| b.valid.cmp(&a.valid).then(a.steal.total_cmp(&b.steal)));
    samples.truncate(samples.len().div_ceil(3));
    samples
}

/// End-to-end run, tracing off. The serving workloads alternate one
/// slice of load with start-up probes and one more set-up; the cold-start
/// workload repeats cold pass, restart and set-up until its time is up.
fn end_to_end(dpu: &Dpu, args: &Args) -> RunOutput {
    let w = args.workload;
    let paper = w == Workload::PaperSuiteCold;
    let (programs, fleet, _, _) = setup(dpu, w, args.seed, None);
    let reference = Reference::build(dpu, &programs);
    let mut tally = Tally::new(&reference);
    let groups = start_groups(&programs, paper);
    let slices = ((args.seconds / SLICE.as_secs_f64()).ceil() as usize).max(1);
    let mut load = Load::new(w, args.seed, slices as f64 * SLICE.as_secs_f64());
    let end = Instant::now() + Duration::from_secs_f64(args.seconds);
    let fleet = if paper {
        fleet.dispatcher.shutdown();
        None
    } else {
        Some(fleet)
    };
    let mut samples = Vec::new();
    while if paper {
        samples.len() < 2 || Instant::now() < end
    } else {
        samples.len() < slices
    } {
        let n = samples.len();
        let ticks = util::cpu_ticks();
        let mut sample = match &fleet {
            Some(fleet) => {
                let run = serve_load(fleet, &programs, &mut load, SLICE * n as u32, SLICE, None);
                tally.add(&run, &reference);
                let (good, offered) = within_budget(&run, SERVE_BUDGET_NS);
                Sample {
                    steal: 0.0,
                    valid: w != Workload::ServeOpen || kept_schedule(&run),
                    rps: throughput(&run.done),
                    window: run,
                    colds: Vec::new(),
                    warms: Vec::new(),
                    setup: 0.0,
                    good,
                    offered,
                }
            }
            None => {
                let (cold, warm) =
                    cold_then_warm(dpu, w, &programs, &groups, &spill_dir(&args.out, n));
                let (mut good, mut offered) = (0, 0);
                for pass in [&cold, &warm] {
                    tally.add(&pass.run, &reference);
                    let (g, o) = within_budget(&pass.run, COLD_BUDGET_NS);
                    good += g;
                    offered += o;
                }
                let served = cold.run.done.len() + warm.run.done.len();
                Sample {
                    steal: 0.0,
                    valid: true,
                    rps: served as f64 / (cold.wall_s + warm.wall_s).max(1e-9),
                    colds: vec![cold.first_all_s],
                    warms: vec![warm.first_all_s],
                    window: warm.run,
                    setup: 0.0,
                    good,
                    offered,
                }
            }
        };
        if !paper {
            for p in 0..PROBES_PER_SLICE {
                let dir = spill_dir(&args.out, n * PROBES_PER_SLICE + p);
                let (cold, warm) = cold_then_warm(dpu, w, &programs, &groups, &dir);
                tally.add(&cold.run, &reference);
                tally.add(&warm.run, &reference);
                sample.colds.push(cold.first_all_s);
                sample.warms.push(warm.first_all_s);
            }
        }
        let (_, spare, setup_s, _) = setup(dpu, w, args.seed, None);
        spare.dispatcher.shutdown();
        sample.setup = setup_s;
        sample.steal = util::steal_share(ticks, util::cpu_ticks());
        samples.push(sample);
    }
    if let Some(fleet) = fleet {
        fleet.dispatcher.shutdown();
    }
    let total = samples.len();
    let invalid = samples.iter().filter(|s| !s.valid).count();
    // The cold-start workload has a handful of long samples; all count.
    let kept = if paper {
        samples
    } else {
        calmest_third(samples)
    };
    let windows: Vec<&LoadRun> = kept.iter().filter(|s| s.valid).map(|s| &s.window).collect();
    let lat = latency(&windows);
    let good: usize = kept.iter().map(|s| s.good).sum();
    let offered: usize = kept.iter().map(|s| s.offered).sum();
    let colds: Vec<f64> = kept.iter().flat_map(|s| s.colds.iter().copied()).collect();
    let warms: Vec<f64> = kept.iter().flat_map(|s| s.warms.iter().copied()).collect();
    let setups: Vec<f64> = kept.iter().map(|s| s.setup).collect();
    let rps: Vec<f64> = kept.iter().map(|s| s.rps).collect();
    let kept_steal = mean(&kept.iter().map(|s| s.steal).collect::<Vec<_>>());
    let (gops, edp) = reference.modelled(dpu);
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("req_per_s", median(&rps), "1/s");
    m.put("latency_p50_ms", lat.p50_ms, "ms");
    m.put("latency_p99_ms", lat.p99_ms, "ms");
    m.put(
        "goodput_ratio",
        good as f64 / offered.max(1) as f64,
        "ratio",
    );
    m.put("cold_start_s", util::midmean(&colds), "s");
    m.put("warm_restart_s", util::midmean(&warms), "s");
    m.put("modelled_gops", gops, "GOPS");
    m.put("modelled_edp_pj_ns", edp, "pJ.ns");
    m.put("peak_rss_mb", util::peak_rss_mb(), "MiB");
    let samples = vec![
        ("samples_total", total),
        ("samples_kept", kept.len()),
        ("samples_invalid", invalid),
        ("kept_steal_permille", (kept_steal * 1e3).round() as usize),
        ("setup_s", setups.len()),
        ("req_per_s", rps.len()),
        ("latency_p50_ms", lat.samples),
        ("latency_p99_ms", lat.samples),
        ("latency_windows", lat.windows),
        ("goodput_ratio", offered),
        ("cold_start_s", colds.len()),
        ("warm_restart_s", warms.len()),
    ];
    RunOutput {
        metrics: m,
        tally,
        samples,
    }
}

/// Traced run: half the time untraced, half traced, then a direct-call
/// replay of every layer. Prints self-time tables and writes a Chrome
/// trace.
fn traced(dpu: &Dpu, args: &Args, trace_path: &Path) -> RunOutput {
    let w = args.workload;
    let rec = Recorder::new();
    let (programs, plain_fleet, _, gen_ms) = setup(dpu, w, args.seed, None);
    let reference = Reference::build(dpu, &programs);
    let mut tally = Tally::new(&reference);
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let keep_dir = spill_dir(&args.out, 0);
    let _ = std::fs::remove_dir_all(&keep_dir);

    // An untraced and a traced stretch of the same load, then the cache
    // counters of a cold pass and a restart over `keep_dir`, which the
    // replay reuses.
    let (plain, traced_run, rounds, report, cold, warm);
    if w == Workload::PaperSuiteCold {
        plain_fleet.dispatcher.shutdown();
        let groups = start_groups(&programs, true);
        let p = cold_then_warm(dpu, w, &programs, &groups, &spill_dir(&args.out, 1));
        let (c, r) = start_pass(dpu, w, &programs, &groups, &keep_dir, Some(&rec));
        let (v, _) = start_pass(dpu, w, &programs, &groups, &keep_dir, None);
        for run in [&p.0.run, &p.1.run, &c.run, &v.run] {
            tally.add(run, &reference);
        }
        let overhead = c.first_all_s / p.0.first_all_s.max(1e-12);
        plain = (p.0.run, overhead);
        rounds = r;
        report = c.report;
        traced_run = c.run;
        cold = None;
        warm = v.report;
    } else {
        let mut load = Load::new(w, args.seed, args.seconds);
        let p = serve_load(
            &plain_fleet,
            &programs,
            &mut load,
            Duration::ZERO,
            half,
            None,
        );
        plain_fleet.dispatcher.shutdown();
        let (_, fleet, _, _) = setup(dpu, w, args.seed, Some(&rec));
        let t = serve_load(&fleet, &programs, &mut load, half, half, Some(&rec));
        rounds = fleet.take_rounds();
        report = fleet.dispatcher.shutdown();
        tally.add(&p, &reference);
        tally.add(&t, &reference);
        let median_total = |r: &LoadRun| {
            median(
                &r.done
                    .iter()
                    .map(|d| d.timeline.total_ns() as f64)
                    .collect::<Vec<_>>(),
            )
        };
        let overhead = median_total(&t) / median_total(&p).max(1e-12);
        traced_run = t;
        plain = (p, overhead);
        let groups = start_groups(&programs, false);
        let (c, _) = start_pass(dpu, w, &programs, &groups, &keep_dir, None);
        let (v, _) = start_pass(dpu, w, &programs, &groups, &keep_dir, None);
        tally.add(&c.run, &reference);
        tally.add(&v.run, &reference);
        cold = Some(c.report);
        warm = v.report;
    }
    let (late_p99, backlog_end) = lateness(&[&traced_run]);

    let mixed = w != Workload::PaperSuiteCold;
    let round = options(w).max_batch;
    let r = replay::replay(dpu, &programs, &reference, &keep_dir, round, mixed, &rec);
    let _ = std::fs::remove_dir_all(&keep_dir);
    tally.mismatched += r.mismatches;

    // Span trees and self time.
    trace::request_spans(&rec, &traced_run.clients, &rounds);
    let spans = rec.take();
    let (rows, total) = trace::self_times(&spans, "harness.request");
    print!(
        "{}",
        trace::self_time_table("served requests (self time per layer)", &rows, total)
    );
    let (replay_rows, replay_total) = trace::self_times(&spans, "harness.replay");
    print!(
        "{}",
        trace::self_time_table(
            "direct-call replay (self time per layer)",
            &replay_rows,
            replay_total
        )
    );
    // A request's own self time is the part no layer's span covers.
    let unattributed = rows.get("harness.request").copied().unwrap_or(0);
    if let Err(e) = trace::write_chrome(trace_path, &spans, 2_000) {
        eprintln!("could not write {}: {e}", trace_path.display());
    }

    let mut m = Metrics::default();
    let done = &traced_run.done;
    let stage = |f: &dyn Fn(&Timeline) -> u64| {
        mean(
            &done
                .iter()
                .map(|d| f(&d.timeline) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let mut submit: Vec<f64> = traced_run
        .submit_ns
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect();
    let round_members: usize = rounds.iter().map(|r| r.members.len()).sum();
    let round_groups: usize = rounds.iter().map(|r| r.groups).sum();
    let round_ns: u64 = rounds.iter().map(|r| r.end_ns - r.start_ns).sum();
    let closes =
        report.rounds_closed_full + report.rounds_closed_timer + report.rounds_closed_flush;
    let mut cache = report.cache_totals();
    for extra in cold.iter().chain(std::iter::once(&warm)) {
        let c = extra.cache_totals();
        cache.spill_writes += c.spill_writes;
        cache.spill_hits += c.spill_hits;
        cache.decode_count += c.decode_count;
    }
    let plain_us_per_req = 1e6 / throughput(&plain.0.done).max(1e-9);

    m.put("sim.exec_us_per_req", r.exec_us_per_req, "us");
    m.put("sim.mcycles_per_host_s", r.mcycles_per_host_s, "Mcycle/s");
    m.put("sim.decode_ms", r.decode_ms, "ms");
    m.put(
        "sim.vs_eval_ratio",
        r.exec_us_per_req / r.eval_us_per_req.max(1e-12),
        "ratio",
    );
    m.put("dag.eval_us_per_req", r.eval_us_per_req, "us");
    m.put("engine.round_us_per_req", r.round_us_per_req, "us");
    m.put(
        "engine.group_ratio",
        round_members as f64 / round_groups.max(1) as f64,
        "ratio",
    );
    m.put(
        "dispatch.overhead_ratio",
        plain_us_per_req / r.round_us_per_req.max(1e-12),
        "ratio",
    );
    m.put("ingest.submit_us_p50", quantile(&mut submit, 0.5), "us");
    m.put("ingest.submit_us_p99", quantile(&mut submit, 0.99), "us");
    m.put(
        "dispatch.admit_ms",
        stage(&|t| t.accepted_ns.saturating_sub(t.arrival_ns)),
        "ms",
    );
    m.put(
        "dispatch.batching_ms",
        stage(&|t| t.batching_delay_ns()),
        "ms",
    );
    m.put("dispatch.queue_ms", stage(&|t| t.queue_wait_ns()), "ms");
    m.put(
        "dispatch.service_us_per_req",
        round_ns as f64 / 1e3 / round_members.max(1) as f64,
        "us",
    );
    m.put(
        "dispatch.round_size",
        round_members as f64 / rounds.len().max(1) as f64,
        "count",
    );
    m.put(
        "dispatch.rounds_timer_share",
        report.rounds_closed_timer as f64 / closes.max(1) as f64,
        "ratio",
    );
    m.put("dispatch.steal_rate", report.steal_rate(), "ratio");
    m.put("dispatch.shard_balance", report.shard_balance(), "ratio");
    m.put("compiler.compile_ms", r.compile_ms, "ms");
    m.put("compiler.compile_us_per_node", r.compile_us_per_node, "us");
    m.put("compiler.stall_nops", r.stall_nops, "count");
    m.put("compiler.reorder_nops", r.reorder_nops, "count");
    m.put("compiler.bank_conflicts", r.bank_conflicts, "count");
    m.put("compiler.spill_ops", r.spill_ops, "count");
    m.put("compiler.program_bits", r.program_bits, "bit");
    m.put("compiler.pe_utilization", r.pe_utilization, "ratio");
    m.put("compiler.total_cycles", r.total_cycles, "cycle");
    m.put("verify.ms", r.verify_ms, "ms");
    m.put("cache.hit_rate", cache.hit_rate(), "ratio");
    m.put("cache.misses", cache.misses as f64, "count");
    m.put("cache.spill_writes", cache.spill_writes as f64, "count");
    m.put("cache.spill_hits", cache.spill_hits as f64, "count");
    m.put("cache.decode_count", cache.decode_count as f64, "count");
    m.put("cache.lookup_hit_us", r.lookup_hit_us, "us");
    m.put("cache.spill_load_ms", r.spill_load_ms, "ms");
    m.put("workloads.gen_ms", gen_ms, "ms");
    m.put("harness.gen_late_p99_ms", late_p99, "ms");
    m.put("harness.backlog_end", backlog_end as f64, "count");
    m.put("harness.trace_overhead", plain.1, "ratio");
    m.put(
        "harness.unattributed_share",
        unattributed as f64 / total.max(1) as f64,
        "ratio",
    );
    let samples = vec![
        ("ingest.submit_us_p50", submit.len()),
        ("ingest.submit_us_p99", submit.len()),
        ("harness.gen_late_p99_ms", traced_run.late_ns.len()),
        (
            "invalid_stretches",
            usize::from(w == Workload::ServeOpen && !kept_schedule(&traced_run)),
        ),
    ];
    RunOutput {
        metrics: m,
        tally,
        samples,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: dpu-perfbench --workload <serve_closed|serve_open|paper_suite_cold> \
                 --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let name = match args.workload {
        Workload::ServeClosed => "serve_closed",
        Workload::ServeOpen => "serve_open",
        Workload::PaperSuiteCold => "paper_suite_cold",
    };
    let dpu = Dpu::large();
    let ticks = util::cpu_ticks();
    let trace_path = args
        .out
        .join(format!("{name}-seed{}.trace.json", args.seed));
    let outcome = if args.trace {
        traced(&dpu, &args, &trace_path)
    } else {
        end_to_end(&dpu, &args)
    };
    let t = &outcome.tally;
    let steal_share = util::steal_share(ticks, util::cpu_ticks());
    let correct = t.mismatched == 0;
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(n, c)| format!("\"{n}\": {c}"))
        .collect();
    let meta = format!(
        "{{\"meta\": {{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"shards\": {}, \"commit\": \"{}\", \"profile\": \"{}\", \
         \"cpu_steal_share\": {:.4}, \"error_rate\": {:?}, \"mismatched\": {}, \"reassociated\": {}, \"samples\": {{{}}}{}}}}}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::nproc(),
        fleet::SHARDS,
        std::env::var("DPU_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        steal_share,
        t.failed as f64 / t.attempted.max(1) as f64,
        t.mismatched,
        t.reassociated,
        samples.join(", "),
        if args.trace {
            format!(", \"chrome_trace\": \"{}\"", trace_path.display())
        } else {
            String::new()
        },
    );
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.attempted.max(1),
        t.failed,
        outcome.metrics.json()
    );
    let record = args.out.join(format!(
        "{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&record, format!("{meta}\n{result}\n")) {
        eprintln!("could not write {}: {e}", record.display());
    }
    println!("{meta}");
    println!("{result}");
}
