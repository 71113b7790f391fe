//! In-memory span recording from the benchmark's own code, the `Backend`
//! wrapper that times each dispatcher round on its shard thread, self-time
//! accounting, and Chrome trace-event export.

use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dpu_core::prelude::*;
use dpu_core::runtime::Scratch;

/// One timed interval. The layer is the name's prefix before the first
/// `.`; `track` is the thread it ran on (0 = client, 1.. = shards,
/// [`REPLAY_TRACK`] = the direct-call replay).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub track: u32,
    pub parent: Option<usize>,
    pub req: Option<u64>,
    /// Free-form count (round size for rounds).
    pub arg: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub const REPLAY_TRACK: u32 = 100;

/// Span sink shared by every thread of a traced run.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Times `f` as a replay span named `name` under `parent`.
    pub fn time<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.push(Span {
            name,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
            track: REPLAY_TRACK,
            parent,
            req: None,
            arg: 0,
        });
        out
    }

    /// Closes a span pushed open (with its end still at its start).
    pub fn set_end(&self, span: usize, end_ns: u64) {
        self.spans.lock().expect("span buffer poisoned")[span].end_ns = end_ns;
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// One dispatcher round as the shard thread saw it: its interval and the
/// identities (input-buffer addresses) of the requests in it.
pub struct RoundRecord {
    pub start_ns: u64,
    pub end_ns: u64,
    pub track: u32,
    pub members: Vec<usize>,
    pub groups: usize,
}

/// A thin [`Backend`] wrapper around an [`Engine`]: delegates everything
/// and records one span per `execute_round` call. A request is identified
/// by the address of its input buffer, which stays put while the request
/// moves through the dispatcher.
pub struct TracedEngine {
    inner: Arc<Engine>,
    rec: Arc<Recorder>,
    track: u32,
    rounds: Arc<Mutex<Vec<RoundRecord>>>,
}

impl TracedEngine {
    pub fn new(
        inner: Arc<Engine>,
        rec: Arc<Recorder>,
        track: u32,
        rounds: Arc<Mutex<Vec<RoundRecord>>>,
    ) -> Self {
        TracedEngine {
            inner,
            rec,
            track,
            rounds,
        }
    }
}

impl Backend for TracedEngine {
    fn platform(&self) -> &'static str {
        Backend::platform(&*self.inner)
    }

    fn register(&self, dag: Dag) -> DagKey {
        Backend::register(&*self.inner, dag)
    }

    fn scratch(&self) -> Scratch {
        Backend::scratch(&*self.inner)
    }

    fn execute(&self, scratch: &mut Scratch, request: &Request) -> Result<RunResult, ServeError> {
        Backend::execute(&*self.inner, scratch, request)
    }

    fn execute_round(
        &self,
        scratch: &mut Scratch,
        requests: &[&Request],
    ) -> Vec<Result<RunResult, ServeError>> {
        let t0 = Instant::now();
        let out = Backend::execute_round(&*self.inner, scratch, requests);
        let t1 = Instant::now();
        let mut keys: Vec<DagKey> = requests.iter().map(|r| r.dag).collect();
        keys.sort_unstable();
        keys.dedup();
        self.rounds
            .lock()
            .expect("round buffer poisoned")
            .push(RoundRecord {
                start_ns: self.rec.ns(t0),
                end_ns: self.rec.ns(t1),
                track: self.track,
                members: requests
                    .iter()
                    .map(|r| r.inputs.as_ptr() as usize)
                    .collect(),
                groups: keys.len(),
            });
        out
    }

    fn round_cycles(&self, costs: &[u64], cores: usize) -> u64 {
        Backend::round_cycles(&*self.inner, costs, cores)
    }

    fn steal_class(&self) -> StealClass {
        Backend::steal_class(&*self.inner)
    }

    fn cache_stats(&self) -> CacheStats {
        Backend::cache_stats(&*self.inner)
    }

    fn prewarm(&self) -> usize {
        Backend::prewarm(&*self.inner)
    }
}

/// What the client knows about one traced request.
pub struct ClientRecord {
    pub req: u64,
    /// Address of the request's input buffer (its identity in rounds).
    pub ptr: usize,
    pub scheduled_ns: u64,
    pub submit_start_ns: u64,
    pub submit_end_ns: u64,
    /// The dispatcher's timeline, shifted onto the recorder's clock.
    pub accepted_ns: u64,
    pub round_closed_ns: u64,
    pub execute_start_ns: u64,
    pub completed_ns: u64,
}

/// Builds each request's span tree — lateness, submit, the dispatcher's
/// stages, and the round that executed it — under one root span per
/// request.
pub fn request_spans(rec: &Recorder, clients: &[ClientRecord], rounds: &[RoundRecord]) {
    // Join rounds to requests by buffer address; an address can be reused
    // after a request is freed, so take the latest submit before the round.
    let mut by_ptr: HashMap<usize, Vec<(u64, usize)>> = HashMap::new();
    for (i, c) in clients.iter().enumerate() {
        by_ptr
            .entry(c.ptr)
            .or_default()
            .push((c.submit_start_ns, i));
    }
    for v in by_ptr.values_mut() {
        v.sort_unstable();
    }
    let mut round_of: Vec<Option<usize>> = vec![None; clients.len()];
    for (ri, r) in rounds.iter().enumerate() {
        for ptr in &r.members {
            if let Some(v) = by_ptr.get(ptr) {
                let pos = v.partition_point(|&(t, _)| t <= r.start_ns);
                if pos > 0 {
                    round_of[v[pos - 1].1] = Some(ri);
                }
            }
        }
    }
    for r in rounds {
        rec.push(Span {
            name: "engine.round",
            start_ns: r.start_ns,
            end_ns: r.end_ns,
            track: r.track,
            parent: None,
            req: None,
            arg: r.members.len() as u64,
        });
    }
    for (c, round) in clients.iter().zip(round_of) {
        let root = rec.push(Span {
            name: "harness.request",
            start_ns: c.scheduled_ns,
            end_ns: c.completed_ns,
            track: 0,
            parent: None,
            req: Some(c.req),
            arg: 0,
        });
        let mut stages = vec![
            ("harness.late", c.scheduled_ns, c.submit_start_ns),
            ("ingest.submit", c.submit_start_ns, c.submit_end_ns),
            ("dispatch.admit", c.submit_end_ns, c.accepted_ns),
            ("dispatch.batching", c.accepted_ns, c.round_closed_ns),
            ("dispatch.queue", c.round_closed_ns, c.execute_start_ns),
        ];
        if let Some(ri) = round {
            let r = &rounds[ri];
            stages.push(("engine.execute_round", r.start_ns, r.end_ns));
        }
        for (name, start, end) in stages {
            if end > start {
                rec.push(Span {
                    name,
                    start_ns: start,
                    end_ns: end,
                    track: 0,
                    parent: Some(root),
                    req: Some(c.req),
                    arg: 0,
                });
            }
        }
    }
}

/// Self time over the span trees rooted at spans named `root`: a span's
/// duration minus the part of it its children cover, summed per span
/// name. Returns the sums and the total root duration.
pub fn self_times(spans: &[Span], root: &str) -> (HashMap<&'static str, u64>, u64) {
    let mut children: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }
    let mut stack: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == root && spans[i].parent.is_none())
        .collect();
    let total: u64 = stack.iter().map(|&i| spans[i].dur_ns()).sum();
    let mut by_name: HashMap<&'static str, u64> = HashMap::new();
    while let Some(i) = stack.pop() {
        let s = &spans[i];
        let kids = children.get(&i).map_or(&[][..], Vec::as_slice);
        let mut covered: Vec<(u64, u64)> = kids
            .iter()
            .map(|&k| {
                (
                    spans[k].start_ns.max(s.start_ns),
                    spans[k].end_ns.min(s.end_ns),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        covered.sort_unstable();
        let mut union = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in covered {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    union += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            union += cb - ca;
        }
        *by_name.entry(s.name).or_default() += s.dur_ns().saturating_sub(union);
        stack.extend_from_slice(kids);
    }
    (by_name, total)
}

/// Renders self times, summed per layer, as a text table.
pub fn self_time_table(title: &str, by_name: &HashMap<&'static str, u64>, total_ns: u64) -> String {
    let mut by_layer: Vec<(&str, u64)> = Vec::new();
    for (name, ns) in by_name {
        let layer = name.split('.').next().unwrap_or(name);
        match by_layer.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, sum)) => *sum += ns,
            None => by_layer.push((layer, *ns)),
        }
    }
    by_layer.sort_unstable();
    let mut out = format!(
        "{title}\n  {:<10} {:>12} {:>8}\n",
        "layer", "self_ms", "share"
    );
    for (layer, ns) in by_layer {
        out.push_str(&format!(
            "  {:<10} {:>12.3} {:>7.2}%\n",
            layer,
            ns as f64 / 1e6,
            100.0 * ns as f64 / total_ns.max(1) as f64
        ));
    }
    out
}

/// Writes spans as Chrome trace-event JSON (opens in Perfetto). Request
/// trees become nested async slices keyed by request id; rounds and
/// replay calls become complete events on their thread's track. Only
/// requests with id below `max_requests`, and rounds that start before the
/// last of them ends, are exported, to keep the file small.
pub fn write_chrome(
    path: &std::path::Path,
    spans: &[Span],
    max_requests: u64,
) -> std::io::Result<()> {
    let horizon = spans
        .iter()
        .filter(|s| s.req.is_some_and(|r| r < max_requests))
        .map(|s| s.end_ns)
        .max()
        .unwrap_or(u64::MAX);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    let mut emit = |w: &mut std::io::BufWriter<std::fs::File>, ev: String| -> std::io::Result<()> {
        if !first {
            write!(w, ",")?;
        }
        first = false;
        write!(w, "{ev}")
    };
    for s in spans {
        let us = |ns: u64| ns as f64 / 1e3;
        match s.req {
            Some(r) if r >= max_requests => {}
            Some(r) => {
                for (ph, t) in [("b", s.start_ns), ("e", s.end_ns)] {
                    emit(
                        &mut w,
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"id\":{r},\"ts\":{:.3},\"pid\":1,\"tid\":0}}",
                            s.name,
                            s.layer(),
                            us(t)
                        ),
                    )?;
                }
            }
            None if s.track != REPLAY_TRACK && s.start_ns > horizon => {}
            None => emit(
                &mut w,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"size\":{}}}}}",
                    s.name,
                    s.layer(),
                    us(s.start_ns),
                    us(s.dur_ns()),
                    s.track,
                    s.arg
                ),
            )?,
        }
    }
    write!(w, "]}}")?;
    w.flush()
}
