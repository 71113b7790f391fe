//! Sharded multi-backend dispatcher: continuous ingestion, adaptive round
//! closing, warm-cache affinity routing, work stealing, and live
//! DPU-vs-baseline mirroring.
//!
//! The [`Dispatcher`] is the layer above the execution backends: where an
//! engine serves a pre-collected slice of requests, the dispatcher
//! accepts requests **continuously** through [`Submitter`] handles and
//! serves them across `N` shards. A shard is any [`Backend`]: a simulated
//! DPU-v2 [`Engine`] (replicas of one [`ArchConfig`], or distinct
//! configuration points — see [`Dispatcher::with_configs`]) or an
//! analytic baseline platform
//! ([`BaselineBackend`](crate::BaselineBackend)), so one request stream
//! can be served across heterogeneous hardware models — the paper's
//! §V-C comparison, live.
//!
//! - **Routing.** Each request's [`DagKey`] fingerprint picks a *home
//!   shard* ([`home_shard`]) among the **primary** shards, so repeat
//!   traffic for a DAG always lands on the shard whose
//!   [`ProgramCache`](crate::ProgramCache) already holds its compiled
//!   program (warm-cache affinity).
//! - **Adaptive round closing.** The ingestion thread accumulates each
//!   shard's pending requests into a *round* and closes it when the round
//!   reaches [`DispatchOptions::max_batch`] requests **or** its oldest
//!   request has waited [`DispatchOptions::max_wait`] — whichever comes
//!   first. Bursts get full rounds; trickles get bounded latency.
//! - **Work stealing.** An idle shard steals the most recently queued
//!   round from the deepest backlog among shards in the same *steal
//!   class* ([`StealClass`](crate::StealClass)): identical backends with
//!   identical parameters, and the same primary/mirror role. Stealing
//!   across distinct classes would change per-request results or
//!   accounting, breaking determinism. The thief compiles through its
//!   own cache, so stealing trades a possible cold compile for latency —
//!   exactly the real trade-off.
//! - **Overload protection.** Admission is bounded per home shard
//!   ([`DispatchOptions::queue_capacity`]): a full queue rejects at the
//!   submission edge with
//!   [`SubmitRejection::WouldBlock`](crate::SubmitRejection) instead of
//!   queueing without bound. Requests may carry a deadline and a
//!   [`Priority`]: a deadline the live queueing estimate proves
//!   unmeetable is shed *before* execution (the ticket resolves to
//!   [`Outcome::Shed`](crate::Outcome)), interactive rounds preempt
//!   batch rounds in packing, dispatch, and stealing, and an aging floor
//!   ([`DispatchOptions::priority_aging`]) keeps batch work from
//!   starving. [`DispatchReport::classes`] is the honest per-class
//!   ledger: `offered == completed + failed + shed + rejected`, always.
//! - **Failure injection and recovery.** A seeded
//!   [`ChaosPlan`] ([`DispatchOptions::chaos`]) scripts
//!   shard deaths and stalls deterministically. A dying shard's queued
//!   *and* in-flight rounds are recovered through its round lease onto
//!   surviving same-class shards (the moves `steal_compatible`
//!   statically proves result-identical), worker
//!   panics at the backend seam are contained the same way, and optional
//!   hedging ([`DispatchOptions::hedge`]) re-enqueues a copy of a
//!   straggling round on an idle identical-class shard — first completion
//!   per job wins its atomic claim, the loser is discarded *before*
//!   ticket fulfilment. No accepted ticket is ever lost or fulfilled
//!   twice, and surviving results stay byte-identical to a serial pass.
//!   [`DispatchReport::recovered`] / [`DispatchReport::hedged`] /
//!   [`DispatchReport::hedge_wins`] report the recovery traffic.
//! - **One resolution path, one recovery path.** Every accepted job —
//!   completed, failed, or shed at ingestion or at execute time —
//!   resolves through `Shared::resolve`, the only place a ticket is
//!   fulfilled and its outcome ledgered: it wins the job's claim, stamps
//!   the completion, updates the per-class ledger against the job's home
//!   shard, fulfils the ticket, and marks the serving window and the
//!   in-flight count. Rounds stranded by a dead shard — its backlog and
//!   lease when it dies, or a round ingestion closes for it afterwards —
//!   all go through `Shared::recover`, which requeues them onto a
//!   same-class survivor or fails them typed. The ingestion, shard and
//!   supervisor threads share one `Shared` state.
//! - **Mirror mode.** [`Dispatcher::with_backends`] optionally takes
//!   *mirror* shards: every accepted request is additionally executed,
//!   ticketless, on each mirror — e.g. a DPU-v2 fleet serving the
//!   traffic while CPU/GPU baseline models shadow it, so
//!   [`DispatchReport::platforms`] answers "what would this live traffic
//!   cost on a Xeon?" from the **same** dispatcher run. Mirrors never
//!   touch ticket results: per-request outputs remain byte-identical to
//!   a serial DPU pass.
//! - **Closed-loop latency accounting.** Every ticketed request carries a
//!   [`Timeline`] through the path (arrival → accepted →
//!   round-closed → execute-start → completed, monotonic ns from the
//!   dispatcher's epoch), from which queueing delay, batching delay and
//!   service time derive. Each shard records completed timelines into a
//!   [`LatencyReport`] of mergeable histograms;
//!   [`DispatchReport::latency`] is their order-independent merge over
//!   the primary shards, and every [`Ticket`](crate::Ticket) exposes its
//!   own timeline on completion
//!   ([`Ticket::wait_detailed`](crate::Ticket::wait_detailed)).
//! - **Deterministic, loss-free shutdown.** Every request accepted by
//!   [`Submitter::submit`] is executed and its [`Ticket`](crate::Ticket)
//!   fulfilled before [`Dispatcher::shutdown`] returns; per-request
//!   results are byte-identical to a serial pass regardless of shard
//!   count, stealing, or timing (a request's result depends only on its
//!   backend's parameters, its program, and its inputs).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dpu_compiler::CompileOptions;
use dpu_dag::Dag;
use dpu_isa::ArchConfig;

use crate::backend::Backend;
use crate::cache::CacheStats;
use crate::chaos::{ChaosPlan, HedgeOptions};
use crate::ingest::{
    job_channel, Admission, Gate, Job, Outcome, Priority, ShedReason, Submitter, TicketState,
};
use crate::latency::{Clock, LatencyHistogram, LatencyReport, Timeline};
use crate::pool::{Engine, EngineOptions, Request, ServeError};
use crate::{DagKey, DPU_V2_L_CORES};

/// Sizing and policy knobs of a [`Dispatcher`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchOptions {
    /// Number of engine shards (ignored by [`Dispatcher::with_configs`]
    /// and [`Dispatcher::with_backends`], which take one shard per
    /// config/backend).
    pub shards: usize,
    /// Close a shard's pending round once it holds this many requests.
    pub max_batch: usize,
    /// ... or once its oldest request has waited this long (the latency
    /// budget), whichever comes first.
    pub max_wait: Duration,
    /// Allow idle shards to steal queued rounds from same-class shards.
    pub work_stealing: bool,
    /// Modelled DPU cores per shard, for the simulated-clock accounting
    /// (each executed round is packed onto these cores by the backend's
    /// round-cost model).
    pub cores: usize,
    /// Per-shard program-cache capacity (`None` = unbounded).
    pub cache_capacity: Option<usize>,
    /// Shared spill directory for the engine shards' program caches
    /// (`None` = in-memory only). All shards spill into — and back-fill
    /// from — the same content-addressed directory, so a restarted
    /// dispatcher starts warm and one shard's compile work is visible to
    /// every other. See [`EngineOptions::spill_dir`].
    pub spill_dir: Option<std::path::PathBuf>,
    /// Bounded admission: maximum accepted-but-unresolved requests per
    /// home shard. A submit against a full home-shard queue fails fast
    /// with [`SubmitRejection::WouldBlock`](crate::SubmitRejection) and a
    /// retry hint instead of growing the ingest queue without bound.
    /// `None` (the default) keeps admission unbounded — exactly the old
    /// behavior.
    pub queue_capacity: Option<usize>,
    /// Anti-starvation floor for priority scheduling: a queued round of
    /// any class is treated as [`Priority::Interactive`] once it has
    /// waited this long, so sustained interactive load can delay
    /// [`Priority::Batch`] work but never starve it forever.
    pub priority_aging: Duration,
    /// Deterministic failure script ([`ChaosPlan`]): kill or stall
    /// specific shards at specific points. `None` (the default) injects
    /// nothing and leaves the dispatch path byte-identical to a run
    /// without chaos support.
    pub chaos: Option<ChaosPlan>,
    /// Straggler hedging policy ([`HedgeOptions`]): re-enqueue a copy of
    /// a round that has waited past a latency-percentile trigger on an
    /// idle identical-class shard; first completion per job wins. `None`
    /// (the default) never hedges.
    pub hedge: Option<HedgeOptions>,
    /// Stalled-shard detection: a round checked out by a worker for
    /// longer than this is presumed stalled and its lease is reclaimed —
    /// a *copy* is requeued on a surviving same-class shard while the
    /// original worker keeps running (whichever copy finishes a job
    /// first wins its claim). `None` (the default) never reclaims.
    pub stall_timeout: Option<Duration>,
}

impl Default for DispatchOptions {
    fn default() -> Self {
        DispatchOptions {
            shards: 2,
            max_batch: 32,
            max_wait: Duration::from_millis(1),
            work_stealing: true,
            cores: DPU_V2_L_CORES,
            cache_capacity: None,
            spill_dir: None,
            queue_capacity: None,
            priority_aging: Duration::from_millis(20),
            chaos: None,
            hedge: None,
            stall_timeout: None,
        }
    }
}

/// The home shard of a DAG key among `shards` primary shards — the
/// affinity half of the routing policy. [`DagKey`] is already a
/// structural hash, so a plain modulus spreads distinct DAGs uniformly.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn home_shard(key: DagKey, shards: usize) -> usize {
    assert!(shards > 0, "shards must be positive");
    (key.0 % shards as u64) as usize
}

/// One closed round: the unit of dispatch between ingestion and shards.
///
/// Cloning a round shares its jobs — same payloads, tickets and claim
/// tokens, so every job still resolves exactly once however many copies
/// (lease, recovery, hedge) exist. Each executing copy stamps its own
/// timelines on the stack ([`Shared::shard_loop`]).
#[derive(Clone)]
struct Round {
    /// The shard this round was routed to (its keys' home, or the mirror
    /// shard it shadows traffic for).
    home: usize,
    /// The round's dispatch class: the most urgent [`Priority`] among its
    /// jobs. Shard queues and work stealing serve interactive rounds
    /// first (subject to the aging floor).
    priority: Priority,
    /// When the round closed — the reference point for
    /// [`DispatchOptions::priority_aging`] promotion.
    closed_at: Instant,
    /// Whether a hedge copy of this round has been enqueued (set on both
    /// the original and the copy), so a round is hedged at most once.
    hedged: bool,
    /// Whether this round *is* a hedge copy — wins by its jobs are
    /// counted as hedge wins.
    hedge: bool,
    /// Requests in class-then-arrival order (interactive first within the
    /// round), each with its completion handle and its latency timeline
    /// as of round close. Shared by every copy of the round.
    jobs: Arc<[TrackedJob]>,
}

impl Round {
    /// Dispatch rank of the round: its class index, collapsed to the
    /// interactive rank once the round has aged past the anti-starvation
    /// floor. Lower dispatches first.
    fn effective_rank(&self, aging: Duration, now: Instant) -> usize {
        let rank = self.priority.index();
        if rank > 0 && now.duration_since(self.closed_at) >= aging {
            0
        } else {
            rank
        }
    }
}

/// Per-shard queue state behind the shared lock.
struct QueueState {
    rounds: VecDeque<Round>,
    /// The round this shard's worker has checked out, held until the
    /// worker releases it after resolution, so a dead or stalled worker's
    /// in-flight round can be recovered without its cooperation. A worker
    /// holds at most one lease: [`Shared::next_round`] releases the finished
    /// round's lease in the same critical section that leases the next.
    /// Recovery reclaims a lease by taking it out of the slot, so each
    /// lease is reclaimed at most once and a later release of a reclaimed
    /// lease is a no-op; the atomic claim on every job guarantees that a
    /// late original and a reclaimed copy never both fulfil a ticket.
    lease: Option<Lease>,
    /// Set once, by the ingestion thread, after the final rounds have
    /// been queued; a shard exits when every queue it may serve is
    /// closed, empty and without a lease out.
    closed: bool,
    /// Set once the shard's worker died (a chaos kill or a contained
    /// panic). A dead queue is permanently empty: its backlog was
    /// requeued at death and ingestion reroutes later rounds around it.
    dead: bool,
}

/// One leased round (see [`QueueState::lease`]).
struct Lease {
    /// When the round was checked out — the stall-detection reference.
    checked_out: Instant,
    /// Shared copy of the round (same jobs, same claim tokens).
    round: Round,
}

/// Outstanding accepted-but-not-completed job count (mirror copies
/// included), for [`Dispatcher::drain`].
struct InFlight {
    count: Mutex<u64>,
    zero: Condvar,
}

impl InFlight {
    fn inc(&self) {
        *self.count.lock().expect("in-flight poisoned") += 1;
    }

    fn dec(&self) {
        let mut c = self.count.lock().expect("in-flight poisoned");
        *c -= 1;
        if *c == 0 {
            drop(c);
            self.zero.notify_all();
        }
    }
}

/// The serving window: first accepted request → last completion, in
/// nanoseconds relative to the dispatcher's [`Clock`] epoch (its
/// construction instant — the same epoch every [`Timeline`] stamp uses,
/// so callers pass in stamps they already took instead of re-reading the
/// clock). Lock-free: ingestion stamps the first acceptance with
/// `fetch_min`, every completing job stamps `fetch_max`. Throughput
/// reported over this window measures the system *while it served*,
/// not however long it happened to sit idle before traffic arrived.
struct ServingWindow {
    first_ns: AtomicU64,
    last_ns: AtomicU64,
}

impl ServingWindow {
    fn new() -> Self {
        ServingWindow {
            first_ns: AtomicU64::new(u64::MAX),
            last_ns: AtomicU64::new(0),
        }
    }

    /// Stamps an accepted request (called by ingestion on pickup, with
    /// the acceptance stamp it just took).
    fn mark_accept(&self, now_ns: u64) {
        self.first_ns.fetch_min(now_ns, Ordering::Relaxed);
    }

    /// Stamps a completed job (ticketed or mirror copy), with the job's
    /// completion stamp.
    fn mark_complete(&self, now_ns: u64) {
        self.last_ns.fetch_max(now_ns, Ordering::Relaxed);
    }

    /// Width of the window in seconds; 0 when nothing was served.
    fn seconds(&self) -> f64 {
        let first = self.first_ns.load(Ordering::Relaxed);
        let last = self.last_ns.load(Ordering::Relaxed);
        if first == u64::MAX || last <= first {
            0.0
        } else {
            (last - first) as f64 / 1e9
        }
    }
}

/// One backend shard plus its execution counters (written only by the
/// shard's worker thread; read at shutdown).
struct ShardState {
    backend: Arc<dyn Backend>,
    /// Mirror shards shadow the full request stream without fulfilling
    /// tickets.
    mirror: bool,
    requests: AtomicU64,
    rounds: AtomicU64,
    /// Rounds this shard executed that were homed on another shard.
    stolen: AtomicU64,
    /// Simulated cycles of this shard's executed rounds, per the
    /// backend's round-cost model.
    modelled_cycles: AtomicU64,
    dag_ops: AtomicU64,
    /// Per-request latency distributions of this shard. Written only by
    /// the shard's worker thread; read (merged) at shutdown, after every
    /// worker has been joined, so the lock is never contended.
    latency: Mutex<LatencyReport>,
}

/// Everything a dispatcher's threads share: one allocation per
/// dispatcher, handed to the ingestion, shard and supervisor threads as
/// `&Shared` and kept by the [`Dispatcher`] handle for its report.
struct Shared {
    options: DispatchOptions,
    /// Primary shard count; shards `[primaries..]` are mirrors.
    primaries: usize,
    shards: Vec<ShardState>,
    /// Shard `j` may steal from — and recover onto — shard `k` iff their
    /// entries match: same primary/mirror role and a *compatible* backend
    /// `StealClass` (statically proven identical per-request results; see
    /// [`StealClass::compatible`](crate::StealClass::compatible)). Each
    /// entry is the index of the first shard of its class; compatibility
    /// is an equivalence relation (field-wise equality with
    /// `data_mem_rows` projected out), so first-match classification is
    /// well defined.
    steal_class: Vec<usize>,
    /// The queue fabric: one lock over all shard queues, so stealing,
    /// recovery and the exit condition need no lock ordering.
    queues: Mutex<Vec<QueueState>>,
    /// Signalled on every push and on close.
    work: Condvar,
    in_flight: InFlight,
    window: ServingWindow,
    clock: Arc<Clock>,
    admission: Arc<Admission>,
    /// Observed round queue waits (close → checkout, ns), feeding the
    /// hedge percentile trigger; recorded only when hedging is on.
    round_waits: Mutex<LatencyHistogram>,
    started: Instant,
    supervisor_stop: AtomicBool,
    /// Requests the ingestion thread picked up, and the rounds it closed
    /// by size, by timer and by flush (written only by that thread).
    submitted: AtomicU64,
    closed_full: AtomicU64,
    closed_timer: AtomicU64,
    closed_flush: AtomicU64,
}

/// Per-shard slice of a [`DispatchReport`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Platform key of the backend this shard serves (`dpu_v2`, `cpu`,
    /// ...).
    pub platform: &'static str,
    /// Whether this shard mirrored traffic instead of serving tickets.
    pub mirror: bool,
    /// Requests this shard executed.
    pub requests: u64,
    /// Rounds this shard executed.
    pub rounds: u64,
    /// Of those, rounds stolen from another shard's queue.
    pub stolen_rounds: u64,
    /// Simulated cycles of this shard's work on its modelled platform.
    pub modelled_cycles: u64,
    /// Arithmetic DAG operations served.
    pub dag_ops: u64,
    /// Declared average platform power (analytic backends), if any.
    pub power_w: Option<f64>,
    /// Final program-cache statistics (zero for backends that never
    /// compile).
    pub cache: CacheStats,
    /// This shard's per-request latency distributions (successful
    /// requests only). [`DispatchReport::latency`] is the order-
    /// independent merge of these across primary shards.
    pub latency: LatencyReport,
}

/// Live per-platform aggregate over a dispatcher's shards — one row of
/// the side-by-side DPU-vs-baseline comparison
/// ([`DispatchReport::platforms`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSummary {
    /// Platform key (`dpu_v2`, `cpu`, `gpu`, `dpu_v1`, `spu`, ...).
    pub platform: &'static str,
    /// Shards of this platform.
    pub shards: usize,
    /// Whether these shards mirrored traffic (vs serving tickets).
    pub mirror: bool,
    /// Requests executed across the platform's shards.
    pub requests: u64,
    /// Arithmetic DAG operations served.
    pub dag_ops: u64,
    /// Modelled makespan: the platform's shards are independent devices
    /// running in parallel, so this is the busiest shard's cycles.
    pub modelled_cycles: u64,
    /// Declared average power **per device** (one shard), if the backend
    /// models one. Fleet-level metrics scale this by [`shards`].
    ///
    /// [`shards`]: PlatformSummary::shards
    pub power_w: Option<f64>,
}

impl PlatformSummary {
    /// Throughput in operations per second at the reference clock
    /// `freq_hz` (DAG operations over the platform's modelled makespan).
    pub fn throughput_ops(&self, freq_hz: f64) -> f64 {
        self.dag_ops as f64 * freq_hz / self.modelled_cycles.max(1) as f64
    }

    /// [`PlatformSummary::throughput_ops`] in GOPS.
    pub fn gops(&self, freq_hz: f64) -> f64 {
        self.throughput_ops(freq_hz) / 1e9
    }

    /// Energy-delay product per operation in pJ·ns — the Table III
    /// metric, `(power / throughput) × (1 / throughput)` — when the
    /// platform declares a power figure and served any work. Throughput
    /// here is the *fleet's* (ops over the parallel makespan), so power
    /// is the fleet's too: per-device [`PlatformSummary::power_w`] times
    /// [`PlatformSummary::shards`].
    pub fn edp_pj_ns(&self, freq_hz: f64) -> Option<f64> {
        let gops = self.gops(freq_hz);
        let power = self.power_w? * self.shards as f64;
        if gops <= 0.0 {
            return None;
        }
        Some((power / gops * 1e3) * (1.0 / gops))
    }
}

/// Per-priority-class slice of the admission/outcome ledger — one row of
/// [`DispatchReport::classes`]. The honesty invariant per class (and in
/// aggregate) is `offered == completed + failed + shed + rejected`:
/// every submit attempt is accounted for exactly once, never silently
/// dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassReport {
    /// Submit attempts of this class (`accepted + rejected`).
    pub offered: u64,
    /// Requests admitted past the submission edge.
    pub accepted: u64,
    /// Accepted requests executed to successful completion.
    pub completed: u64,
    /// Accepted requests that resolved
    /// [`Outcome::Failed`]: a per-request backend
    /// error, or a shard loss with no surviving compatible shard to
    /// recover onto. (Before the failure ledger these were miscounted as
    /// completions.)
    pub failed: u64,
    /// Accepted requests shed before execution to protect a deadline.
    pub shed: u64,
    /// Submit attempts rejected at the edge (backpressure, shutdown, or a
    /// stale deadline) — no ticket ever existed.
    pub rejected: u64,
}

/// Aggregate result of a dispatcher's lifetime, returned by
/// [`Dispatcher::shutdown`].
///
/// Headline aggregates ([`DispatchReport::total_dag_ops`],
/// [`DispatchReport::modelled_cycles`], [`DispatchReport::gops`],
/// [`DispatchReport::shard_balance`], [`DispatchReport::cache_totals`])
/// cover the **primary** shards — the serving system itself. Mirror
/// shards are observers; they appear in [`DispatchReport::shards`] and in
/// the per-platform comparison ([`DispatchReport::platforms`]).
///
/// Overload accounting lives in [`DispatchReport::classes`] (per
/// [`Priority`] class) plus the by-kind splits: rejected-at-shutdown
/// ([`DispatchReport::rejected_queue_closed`]) is reported separately
/// from shed-by-deadline ([`DispatchReport::shed_unmeetable`] /
/// [`DispatchReport::shed_expired`]) — an operator must be able to tell
/// "the system refused new work while stopping" from "the system dropped
/// admitted work to protect its deadlines".
#[derive(Debug, Clone)]
pub struct DispatchReport {
    /// Requests accepted over the dispatcher's lifetime.
    pub submitted: u64,
    /// Requests executed on primary shards (equals `submitted` minus
    /// [`DispatchReport::shed`](DispatchReport::shed) — and exactly
    /// `submitted` when nothing was shed: shutdown is loss-free). Under
    /// hedging this counts *executions*, so losing hedge copies can push
    /// it past `submitted`; the ticket ledger in
    /// [`DispatchReport::classes`] stays exact either way.
    pub served: u64,
    /// Shadow executions on mirror shards (`submitted ×` mirror count
    /// when mirrors are configured).
    pub mirrored: u64,
    /// Rounds closed because they reached
    /// [`DispatchOptions::max_batch`].
    pub rounds_closed_full: u64,
    /// Rounds closed by the [`DispatchOptions::max_wait`] latency budget.
    pub rounds_closed_timer: u64,
    /// Rounds closed by [`Dispatcher::flush`] / shutdown.
    pub rounds_closed_flush: u64,
    /// Per-shard execution counters (primaries first, then mirrors).
    pub shards: Vec<ShardReport>,
    /// Host wall-clock seconds of the **serving window**: first accepted
    /// request → last completed job. This is the denominator host-side
    /// throughput should divide by; measuring from construction (as this
    /// field did before the serving-window fix, now
    /// [`DispatchReport::lifetime_seconds`]) under-reports whenever the
    /// dispatcher idles before traffic arrives. 0.0 when nothing was
    /// served.
    pub host_seconds: f64,
    /// Host wall-clock seconds from construction to shutdown — the old
    /// `host_seconds` total, kept as its own field so dashboards and
    /// baselines switch to the serving window consciously, not silently.
    pub lifetime_seconds: f64,
    /// Per-request latency distributions over the **primary** shards,
    /// merged from [`ShardReport::latency`]. The host-time histograms
    /// (queueing, batching, service, total) measure this machine; the
    /// modelled [`LatencyReport::service_cycles`] histogram is a pure
    /// function of the request stream — byte-identical across shard
    /// counts, stealing, and timing — and is what CI gates. Mirror shards
    /// are observers and contribute nothing here.
    pub latency: LatencyReport,
    /// Per-priority-class admission/outcome ledger, indexed by
    /// [`Priority::index`]. Each class (and the aggregate) satisfies
    /// `offered == completed + failed + shed + rejected`.
    pub classes: [ClassReport; 3],
    /// Rejections at the edge because the home-shard queue was at
    /// [`DispatchOptions::queue_capacity`].
    pub rejected_would_block: u64,
    /// Rejections at the edge because the dispatcher had shut down —
    /// refused work, reported apart from deadline sheds.
    pub rejected_queue_closed: u64,
    /// Rejections at the edge because the deadline was already past at
    /// submit time.
    pub rejected_deadline_past: u64,
    /// Accepted requests shed at ingestion: the live queueing estimate
    /// projected completion past the deadline.
    pub shed_unmeetable: u64,
    /// Accepted requests shed at execute time: the deadline expired while
    /// the request sat in queue.
    pub shed_expired: u64,
    /// Jobs rescued from a dead or stalled shard: requeued onto a
    /// surviving same-class shard by the lease/requeue path. An overlay
    /// counter — recovery moves work without changing any outcome, so it
    /// sits outside the class balance equation.
    pub recovered: u64,
    /// Jobs for which a hedge copy was enqueued on an idle
    /// identical-class shard ([`DispatchOptions::hedge`]).
    pub hedged: u64,
    /// Hedged jobs whose copy won the completion claim (the straggler
    /// original lost and was discarded before ticket fulfilment).
    pub hedge_wins: u64,
}

impl DispatchReport {
    fn primaries(&self) -> impl Iterator<Item = &ShardReport> {
        self.shards.iter().filter(|s| !s.mirror)
    }

    /// Submit attempts over the dispatcher's lifetime, all classes
    /// (`accepted + rejected`).
    pub fn offered(&self) -> u64 {
        self.classes.iter().map(|c| c.offered).sum()
    }

    /// Accepted requests shed before execution, all classes.
    pub fn shed(&self) -> u64 {
        self.classes.iter().map(|c| c.shed).sum()
    }

    /// Submit attempts rejected at the edge, all classes.
    pub fn rejected(&self) -> u64 {
        self.classes.iter().map(|c| c.rejected).sum()
    }

    /// The ledger row of one [`Priority`] class.
    pub fn class(&self, priority: Priority) -> &ClassReport {
        &self.classes[priority.index()]
    }

    /// Total arithmetic DAG operations served by primary shards.
    pub fn total_dag_ops(&self) -> u64 {
        self.primaries().map(|s| s.dag_ops).sum()
    }

    /// Simulated wall-clock of the serving system: primary shards are
    /// independent modelled devices running in parallel, so the makespan
    /// is the busiest one's cycles.
    pub fn modelled_cycles(&self) -> u64 {
        self.primaries()
            .map(|s| s.modelled_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Aggregate simulated throughput in operations per second at
    /// `freq_hz` (DAG operations over the modelled makespan).
    pub fn throughput_ops(&self, freq_hz: f64) -> f64 {
        self.total_dag_ops() as f64 * freq_hz / self.modelled_cycles().max(1) as f64
    }

    /// [`DispatchReport::throughput_ops`] in GOPS.
    pub fn gops(&self, freq_hz: f64) -> f64 {
        self.throughput_ops(freq_hz) / 1e9
    }

    /// Shard load balance over primary shards: busiest shard's requests
    /// over the per-shard mean. 1.0 is perfect balance; `k` means the
    /// busiest shard carried `k×` its fair share. 0.0 when nothing was
    /// served.
    pub fn shard_balance(&self) -> f64 {
        let n = self.primaries().count();
        let total: u64 = self.primaries().map(|s| s.requests).sum();
        if total == 0 || n == 0 {
            return 0.0;
        }
        let mean = total as f64 / n as f64;
        let max = self.primaries().map(|s| s.requests).max().unwrap_or(0);
        max as f64 / mean
    }

    /// Fraction of executed rounds (all shards) that were work-stolen.
    pub fn steal_rate(&self) -> f64 {
        let rounds: u64 = self.shards.iter().map(|s| s.rounds).sum();
        if rounds == 0 {
            return 0.0;
        }
        let stolen: u64 = self.shards.iter().map(|s| s.stolen_rounds).sum();
        stolen as f64 / rounds as f64
    }

    /// Aggregated program-cache statistics across primary shards.
    pub fn cache_totals(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in self.primaries() {
            total.hits += s.cache.hits;
            total.misses += s.cache.misses;
            total.evictions += s.cache.evictions;
            total.entries += s.cache.entries;
            total.spill_hits += s.cache.spill_hits;
            total.spill_writes += s.cache.spill_writes;
            total.spill_rejects += s.cache.spill_rejects;
            total.spill_verified += s.cache.spill_verified;
            total.spill_unverifiable += s.cache.spill_unverifiable;
            total.decode_count += s.cache.decode_count;
        }
        total
    }

    /// The live side-by-side platform comparison: shards grouped by
    /// platform key (in first-appearance order, primaries before
    /// mirrors), each with its own requests / DAG-op / makespan / power
    /// aggregate. Query [`PlatformSummary::gops`] and
    /// [`PlatformSummary::edp_pj_ns`] at the reference clock to get the
    /// paper's Table III metrics per platform.
    pub fn platforms(&self) -> Vec<PlatformSummary> {
        let mut out: Vec<PlatformSummary> = Vec::new();
        for s in &self.shards {
            if let Some(p) = out
                .iter_mut()
                .find(|p| p.platform == s.platform && p.mirror == s.mirror)
            {
                p.shards += 1;
                p.requests += s.requests;
                p.dag_ops += s.dag_ops;
                p.modelled_cycles = p.modelled_cycles.max(s.modelled_cycles);
                if p.power_w.is_none() {
                    p.power_w = s.power_w;
                }
            } else {
                out.push(PlatformSummary {
                    platform: s.platform,
                    shards: 1,
                    mirror: s.mirror,
                    requests: s.requests,
                    dag_ops: s.dag_ops,
                    modelled_cycles: s.modelled_cycles,
                    power_w: s.power_w,
                });
            }
        }
        out
    }
}

/// The sharded async serving front-end. See the module docs for the
/// execution model.
pub struct Dispatcher {
    shared: Arc<Shared>,
    tx: crossbeam::channel::Sender<Job>,
    shut_down: Arc<RwLock<bool>>,
    ingest: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// The supervision thread (stall reclaim + hedging), spawned only
    /// when a policy needing one is configured.
    supervisor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("shards", &self.shared.shards.len())
            .field("primaries", &self.shared.primaries)
            .field("options", &self.shared.options)
            .finish()
    }
}

/// Spawns one named dispatcher thread running `body` over the shared
/// state.
fn spawn(
    shared: &Arc<Shared>,
    name: String,
    body: impl FnOnce(&Shared) + Send + 'static,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || body(&shared))
        .expect("spawn dispatcher thread")
}

impl Dispatcher {
    /// Builds a dispatcher of [`DispatchOptions::shards`] replica engine
    /// shards, every shard serving `config`.
    ///
    /// # Panics
    ///
    /// Panics if `options.shards == 0`, `options.max_batch == 0` or
    /// `options.cores == 0`.
    pub fn new(config: ArchConfig, compile_opts: CompileOptions, options: DispatchOptions) -> Self {
        assert!(options.shards > 0, "at least one shard required");
        Self::with_configs(vec![config; options.shards], compile_opts, options)
    }

    /// Builds a dispatcher with one engine shard per entry of `configs` —
    /// distinct architecture points are allowed (work stealing then only
    /// happens between shards with identical configs).
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty, `options.max_batch == 0` or
    /// `options.cores == 0`.
    pub fn with_configs(
        configs: Vec<ArchConfig>,
        compile_opts: CompileOptions,
        options: DispatchOptions,
    ) -> Self {
        let backends: Vec<Arc<dyn Backend>> = configs
            .iter()
            .map(|&config| {
                Arc::new(Engine::new(
                    config,
                    compile_opts.clone(),
                    EngineOptions {
                        workers: 1,
                        cores: options.cores,
                        cache_capacity: options.cache_capacity,
                        spill_dir: options.spill_dir.clone(),
                    },
                )) as Arc<dyn Backend>
            })
            .collect();
        Self::with_backends(backends, Vec::new(), options)
    }

    /// Builds a dispatcher over arbitrary [`Backend`]s — the multi-layer
    /// seam behind every other constructor.
    ///
    /// `primaries` serve the ticketed request stream (routing and
    /// stealing as in the module docs). Each entry of `mirrors`
    /// additionally shadows **every** accepted request, ticketless, so
    /// one run yields a live per-platform comparison
    /// ([`DispatchReport::platforms`]) without perturbing primary
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if `primaries` is empty, `options.max_batch == 0` or
    /// `options.cores == 0`.
    pub fn with_backends(
        primaries: Vec<Arc<dyn Backend>>,
        mirrors: Vec<Arc<dyn Backend>>,
        mut options: DispatchOptions,
    ) -> Self {
        assert!(!primaries.is_empty(), "at least one primary shard required");
        assert!(options.max_batch > 0, "max_batch must be positive");
        assert!(options.cores > 0, "cores must be positive");
        options.shards = primaries.len();
        let p = primaries.len();
        let n = p + mirrors.len();
        if let Some(max) = options.chaos.as_ref().and_then(ChaosPlan::max_shard) {
            assert!(
                max < n,
                "chaos plan targets shard {max} but only {n} shards exist"
            );
        }

        let shards: Vec<ShardState> = primaries
            .into_iter()
            .map(|b| (b, false))
            .chain(mirrors.into_iter().map(|b| (b, true)))
            .map(|(backend, mirror)| ShardState {
                backend,
                mirror,
                requests: AtomicU64::new(0),
                rounds: AtomicU64::new(0),
                stolen: AtomicU64::new(0),
                modelled_cycles: AtomicU64::new(0),
                dag_ops: AtomicU64::new(0),
                latency: Mutex::new(LatencyReport::default()),
            })
            .collect();
        let steal_class = (0..n)
            .map(|j| {
                (0..n)
                    .position(|k| {
                        shards[k].mirror == shards[j].mirror
                            && shards[k]
                                .backend
                                .steal_class()
                                .compatible(&shards[j].backend.steal_class())
                    })
                    .expect("self always matches")
            })
            .collect();
        let queues = (0..n)
            .map(|_| QueueState {
                rounds: VecDeque::new(),
                lease: None,
                closed: false,
                dead: false,
            })
            .collect();
        let started = Instant::now();
        let shared = Arc::new(Shared {
            primaries: p,
            shards,
            steal_class,
            queues: Mutex::new(queues),
            work: Condvar::new(),
            in_flight: InFlight {
                count: Mutex::new(0),
                zero: Condvar::new(),
            },
            window: ServingWindow::new(),
            clock: Arc::new(Clock::from_epoch(started)),
            admission: Arc::new(Admission::new(p, options.queue_capacity, options.max_wait)),
            round_waits: Mutex::new(LatencyHistogram::new()),
            started,
            supervisor_stop: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            closed_full: AtomicU64::new(0),
            closed_timer: AtomicU64::new(0),
            closed_flush: AtomicU64::new(0),
            options,
        });

        let (tx, rx) = job_channel();
        let ingest = spawn(&shared, "dpu-ingest".into(), move |s| s.ingest_loop(&rx));
        let workers = (0..n)
            .map(|i| spawn(&shared, format!("dpu-shard-{i}"), move |s| s.shard_loop(i)))
            .collect();
        let supervised = shared.options.hedge.is_some() || shared.options.stall_timeout.is_some();
        let supervisor =
            supervised.then(|| spawn(&shared, "dpu-supervisor".into(), Shared::supervisor_loop));

        Dispatcher {
            shared,
            tx,
            shut_down: Arc::new(RwLock::new(false)),
            ingest: Some(ingest),
            workers,
            supervisor,
        }
    }

    /// The options this dispatcher runs with (with `shards` normalized to
    /// the actual primary shard count).
    pub fn options(&self) -> &DispatchOptions {
        &self.shared.options
    }

    /// Number of shards, mirrors included.
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Number of primary (ticket-serving) shards.
    pub fn primary_shards(&self) -> usize {
        self.shared.primaries
    }

    /// Registers a DAG on **every** shard (stealing, rebalancing and
    /// mirroring mean any shard may end up executing it) and returns its
    /// content key.
    pub fn register(&self, dag: Dag) -> DagKey {
        let mut key = None;
        for shard in &self.shared.shards {
            key = Some(shard.backend.register(dag.clone()));
        }
        key.expect("at least one shard")
    }

    /// A new submission handle. Cheap; clone freely across producer
    /// threads.
    pub fn submitter(&self) -> Submitter {
        Submitter::new(
            self.tx.clone(),
            Arc::clone(&self.shut_down),
            Arc::clone(&self.shared.clock),
            Arc::clone(&self.shared.admission),
        )
    }

    /// Pre-warms every shard that supports it from its spill store (see
    /// [`Backend::prewarm`] / [`Engine::prewarm`]), returning the total
    /// number of programs loaded. Call after registering DAGs and before
    /// submitting traffic so the first requests hit warm caches —
    /// particularly when the shards share a spill directory a previous
    /// run (or a peer fleet) already populated.
    pub fn prewarm(&self) -> usize {
        self.shared.shards.iter().map(|s| s.backend.prewarm()).sum()
    }

    /// Jobs the ingestion thread has picked up but that have not yet
    /// completed (mirror copies included). A request sits briefly in the
    /// ingestion channel between `submit` and pickup, so this can read 0
    /// while accepted requests are still queued — use
    /// [`Dispatcher::drain`] (whose flush marker is ordered behind every
    /// earlier submit) as the quiescence barrier, not this counter.
    pub fn in_flight(&self) -> u64 {
        *self
            .shared
            .in_flight
            .count
            .lock()
            .expect("in-flight poisoned")
    }

    /// Forces every pending round closed now (instead of waiting out the
    /// latency budget) and returns once the ingestion thread has queued
    /// them. Does not wait for execution — tickets do that.
    pub fn flush(&self) {
        let gate = Arc::new(Gate::default());
        if self.tx.send(Job::Flush(Arc::clone(&gate))).is_ok() {
            gate.wait();
        }
    }

    /// Flushes, then blocks until every request accepted before the flush
    /// has completed (its ticket fulfilled, its mirror copies executed).
    /// The dispatcher keeps serving; this is a barrier, not a shutdown.
    pub fn drain(&self) {
        self.flush();
        let in_flight = &self.shared.in_flight;
        let mut count = in_flight.count.lock().expect("in-flight poisoned");
        while *count > 0 {
            count = in_flight.zero.wait(count).expect("in-flight poisoned");
        }
    }

    /// Stops ingestion, executes everything already accepted, joins all
    /// threads, and returns the lifetime report. Loss-free: every ticket
    /// whose submit returned `Ok` is fulfilled before this returns; later
    /// submits are rejected with
    /// [`SubmitRejection::QueueClosed`](crate::SubmitRejection).
    pub fn shutdown(mut self) -> DispatchReport {
        self.stop();
        let shared = &self.shared;
        let shards: Vec<ShardReport> = shared
            .shards
            .iter()
            .map(|s| ShardReport {
                platform: s.backend.platform(),
                mirror: s.mirror,
                requests: s.requests.load(Ordering::Relaxed),
                rounds: s.rounds.load(Ordering::Relaxed),
                stolen_rounds: s.stolen.load(Ordering::Relaxed),
                modelled_cycles: s.modelled_cycles.load(Ordering::Relaxed),
                dag_ops: s.dag_ops.load(Ordering::Relaxed),
                power_w: s.backend.power_w(),
                cache: s.backend.cache_stats(),
                latency: s.latency.lock().expect("latency poisoned").clone(),
            })
            .collect();
        // Merge the primaries' latency distributions; fold order cannot
        // matter (histogram merge is associative and commutative).
        let mut latency = LatencyReport::default();
        for s in shards.iter().filter(|s| !s.mirror) {
            latency.merge(&s.latency);
        }
        // The admission ledger is coherent here: every submitter that
        // returned has finished its counter updates (the write-locked
        // flag flipped before the marker), and every worker is joined.
        let adm = &shared.admission;
        let classes: [ClassReport; 3] = std::array::from_fn(|i| {
            let accepted = adm.accepted[i].load(Ordering::Relaxed);
            let rejected = adm.rejected[i].load(Ordering::Relaxed);
            ClassReport {
                offered: accepted + rejected,
                accepted,
                completed: adm.completed[i].load(Ordering::Relaxed),
                failed: adm.failed[i].load(Ordering::Relaxed),
                shed: adm.shed[i].load(Ordering::Relaxed),
                rejected,
            }
        });
        let submitted = shared.submitted.load(Ordering::Relaxed);
        debug_assert!(
            classes
                .iter()
                .all(|c| c.offered == c.completed + c.failed + c.shed + c.rejected),
            "admission ledger dishonest: {classes:?}"
        );
        // Every accepted request reached ingestion, and every resolution
        // path gave its home depth slot back exactly once.
        debug_assert_eq!(
            classes.iter().map(|c| c.accepted).sum::<u64>(),
            submitted,
            "accepted requests missing from ingestion: {classes:?}"
        );
        debug_assert!(
            adm.depth.iter().all(|d| d.load(Ordering::Relaxed) == 0),
            "admission depth not released: {:?}",
            adm.depth
        );
        DispatchReport {
            submitted,
            served: shards
                .iter()
                .filter(|s| !s.mirror)
                .map(|s| s.requests)
                .sum(),
            mirrored: shards.iter().filter(|s| s.mirror).map(|s| s.requests).sum(),
            rounds_closed_full: shared.closed_full.load(Ordering::Relaxed),
            rounds_closed_timer: shared.closed_timer.load(Ordering::Relaxed),
            rounds_closed_flush: shared.closed_flush.load(Ordering::Relaxed),
            shards,
            host_seconds: shared.window.seconds(),
            lifetime_seconds: shared.started.elapsed().as_secs_f64(),
            latency,
            classes,
            rejected_would_block: adm.rejected_would_block.load(Ordering::Relaxed),
            rejected_queue_closed: adm.rejected_queue_closed.load(Ordering::Relaxed),
            rejected_deadline_past: adm.rejected_deadline_past.load(Ordering::Relaxed),
            shed_unmeetable: adm.shed_unmeetable.load(Ordering::Relaxed),
            shed_expired: adm.shed_expired.load(Ordering::Relaxed),
            recovered: adm.recovered.load(Ordering::Relaxed),
            hedged: adm.hedged.load(Ordering::Relaxed),
            hedge_wins: adm.hedge_wins.load(Ordering::Relaxed),
        }
    }

    /// Idempotent teardown shared by [`Dispatcher::shutdown`] and `Drop`:
    /// reject new submissions, send the end-of-stream marker, join every
    /// thread.
    fn stop(&mut self) {
        let Some(ingest) = self.ingest.take() else {
            return; // already stopped
        };
        {
            // Write lock: every submit that already returned Ok has
            // finished its send; the marker goes behind all of them.
            let mut flag = self.shut_down.write().expect("flag poisoned");
            *flag = true;
        }
        let _ = self.tx.send(Job::Shutdown);
        ingest.join().expect("ingest thread panicked");
        for w in self.workers.drain(..) {
            w.join().expect("shard thread panicked");
        }
        // The supervisor outlives the workers so stall reclaim and
        // hedging keep helping the final drain; with the workers joined
        // there is nothing left for it to supervise.
        self.shared.supervisor_stop.store(true, Ordering::Relaxed);
        if let Some(sup) = self.supervisor.take() {
            sup.join().expect("supervisor thread panicked");
        }
        debug_assert_eq!(self.in_flight(), 0, "shutdown left requests in flight");
        debug_assert!(
            self.shared.queues().iter().all(|q| q.rounds.is_empty()),
            "shutdown left rounds queued"
        );
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One pending job: a request, its completion handle (`None` on mirror
/// copies), its priority class, its latency timeline (stamped by the
/// ingestion thread through round close; the executing shard stamps a
/// copy), and its claim.
struct TrackedJob {
    request: Request,
    ticket: Option<Arc<TicketState>>,
    priority: Priority,
    timeline: Timeline,
    /// First-completion-wins arbiter of every copy of this job's round
    /// (lease copies, recovery requeues, hedges), minted by ingestion
    /// when it builds the job.
    claim: AtomicBool,
}

impl TrackedJob {
    fn new(
        request: Request,
        ticket: Option<Arc<TicketState>>,
        priority: Priority,
        timeline: Timeline,
    ) -> Self {
        TrackedJob {
            request,
            ticket,
            priority,
            timeline,
            claim: AtomicBool::new(false),
        }
    }

    /// Wins the exclusive right to resolve this job: copies race through
    /// the shared token, and exactly one caller ever sees `true`.
    fn claim(&self) -> bool {
        self.claim
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Whether another copy of this job has already resolved it — a
    /// cheap pre-check so losing copies skip the backend seam entirely.
    fn already_resolved(&self) -> bool {
        self.claim.load(Ordering::Acquire)
    }
}

/// Per-shard pending-round state: one job list per priority class. Round
/// closing drains interactive first, then standard, then batch — within a
/// class, arrival order — so an interactive request never queues behind
/// batch work inside its own round. With single-class traffic this packs
/// exactly the old single-list order.
struct PendingRound {
    by_class: [Vec<TrackedJob>; 3],
    /// When the round's first job arrived — its latency-budget clock.
    first_at: Option<Instant>,
}

impl PendingRound {
    fn new() -> Self {
        PendingRound {
            by_class: [Vec::new(), Vec::new(), Vec::new()],
            first_at: None,
        }
    }

    fn len(&self) -> usize {
        self.by_class.iter().map(Vec::len).sum()
    }

    fn is_empty(&self) -> bool {
        self.by_class.iter().all(Vec::is_empty)
    }
}

impl Shared {
    fn queues(&self) -> MutexGuard<'_, Vec<QueueState>> {
        self.queues.lock().expect("queues poisoned")
    }

    /// Resolves an accepted job — the only place a ticket is fulfilled and
    /// ledgered. Wins the job's claim (every copy of its round races on
    /// it; a losing copy returns `None` and touches nothing), stamps the
    /// completion, ledgers the outcome against `home` — the shard whose
    /// admission depth minted the job, even when another shard executed
    /// it — fulfils the ticket, and marks the serving window and the
    /// in-flight count. Mirror copies (no ticket) skip ledger and ticket.
    /// Returns the stamped timeline.
    fn resolve(
        &self,
        job: &TrackedJob,
        home: usize,
        outcome: Outcome,
        mut timeline: Timeline,
    ) -> Option<Timeline> {
        if !job.claim() {
            return None;
        }
        timeline.completed_ns = self.clock.now_ns();
        if let Some(ticket) = &job.ticket {
            let class = job.priority.index();
            match &outcome {
                Outcome::Completed(_) => {
                    // Feed the live estimates the shed projections run on
                    // (ticketed, i.e. primary, observations only — mirrors
                    // model other hardware and would skew the estimate).
                    self.admission
                        .observe(timeline.queueing_delay_ns(), timeline.service_ns());
                    self.admission.note_completed(class, home);
                }
                Outcome::Failed(_) => self.admission.note_failed(class, home),
                Outcome::Shed { reason } => self.admission.note_shed(class, home, *reason),
            }
            ticket.fulfill(outcome, timeline);
        }
        self.window.mark_complete(timeline.completed_ns);
        self.in_flight.dec();
        Some(timeline)
    }

    /// The ingestion loop: route among the primaries, fan copies out to
    /// the mirror shards, shed provably late requests at the door,
    /// accumulate, close rounds adaptively.
    fn ingest_loop(&self, rx: &crossbeam::channel::Receiver<Job>) {
        use crossbeam::channel::RecvTimeoutError;

        let (p, n) = (self.primaries, self.shards.len());
        let max_wait = self.options.max_wait;
        let mut pending: Vec<PendingRound> = (0..n).map(|_| PendingRound::new()).collect();

        // Closes shard `s`'s pending round, if any, counting it under
        // `reason`.
        let close = |s: usize, pending: &mut PendingRound, reason: &AtomicU64| {
            if pending.is_empty() {
                return;
            }
            reason.fetch_add(1, Ordering::Relaxed);
            let closed_ns = self.clock.now_ns();
            let mut jobs: Vec<TrackedJob> = Vec::with_capacity(pending.len());
            for class in pending.by_class.iter_mut() {
                jobs.append(class);
            }
            pending.first_at = None;
            let mut priority = Priority::Batch;
            for job in &mut jobs {
                job.timeline.round_closed_ns = closed_ns;
                priority = priority.min(job.priority);
            }
            let round = Round {
                home: s,
                priority,
                closed_at: Instant::now(),
                hedged: false,
                hedge: false,
                jobs: jobs.into(),
            };
            let mut qs = self.queues();
            if qs[s].dead {
                // The home shard died since these jobs were routed: hand
                // the round straight to recovery. `home` stays `s`, so
                // depth slots and ledger attribution are unchanged.
                self.recover(qs, s, vec![round]);
            } else {
                qs[s].rounds.push_back(round);
                drop(qs);
                self.work.notify_all();
            }
        };

        // Appends one job to shard `s`'s pending round, closing it when full.
        let push = |s: usize, job: TrackedJob, pending: &mut [PendingRound]| {
            self.in_flight.inc();
            let round = &mut pending[s];
            if round.is_empty() {
                round.first_at = Some(Instant::now());
            }
            round.by_class[job.priority.index()].push(job);
            if round.len() >= self.options.max_batch {
                close(s, round, &self.closed_full);
            }
        };

        loop {
            // Close every round that has exhausted its latency budget.
            let now = Instant::now();
            for (s, round) in pending.iter_mut().enumerate() {
                if round
                    .first_at
                    .is_some_and(|t0| now.duration_since(t0) >= max_wait)
                {
                    close(s, round, &self.closed_timer);
                }
            }

            // Sleep until the next message or the next round deadline.
            let next_deadline = pending
                .iter()
                .filter_map(|r| r.first_at)
                .map(|t0| t0 + max_wait)
                .min();
            let msg = match next_deadline {
                Some(deadline) => {
                    let timeout = deadline.saturating_duration_since(Instant::now());
                    match rx.recv_timeout(timeout) {
                        Ok(m) => Some(m),
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => None,
                    }
                }
                None => rx.recv().ok(),
            };

            match msg {
                Some(Job::Request(sub)) => {
                    self.submitted.fetch_add(1, Ordering::Relaxed);
                    let accepted_ns = self.clock.now_ns();
                    self.window.mark_accept(accepted_ns);
                    let timeline = Timeline {
                        arrival_ns: sub.arrival_ns,
                        accepted_ns,
                        deadline_ns: sub.deadline_ns,
                        ..Timeline::default()
                    };
                    let s = home_shard(sub.request.dag, p);
                    let job =
                        TrackedJob::new(sub.request, Some(sub.ticket), sub.priority, timeline);
                    // Shed-before-queue: when the live queueing + service
                    // estimate already proves the deadline unmeetable,
                    // resolve the ticket now instead of spending a round
                    // slot (and mirror executions) on a result nobody can
                    // use in time.
                    if sub.deadline_ns != 0 {
                        let projected_ns = self.admission.projected_completion_ns(accepted_ns);
                        if projected_ns > sub.deadline_ns {
                            let reason = ShedReason::DeadlineUnmeetable {
                                projected_ns,
                                deadline_ns: sub.deadline_ns,
                            };
                            self.in_flight.inc();
                            self.resolve(&job, s, Outcome::Shed { reason }, timeline);
                            continue;
                        }
                    }
                    // Mirror copies first (so the request moves last).
                    // Mirror copies carry no deadline: they shadow
                    // accepted traffic for the platform comparison and
                    // are never shed.
                    for m in p..n {
                        let timeline = Timeline {
                            deadline_ns: 0,
                            ..timeline
                        };
                        let copy =
                            TrackedJob::new(job.request.clone(), None, job.priority, timeline);
                        push(m, copy, &mut pending);
                    }
                    push(s, job, &mut pending);
                }
                Some(Job::Flush(gate)) => {
                    for (s, round) in pending.iter_mut().enumerate() {
                        close(s, round, &self.closed_flush);
                    }
                    gate.open();
                }
                // End of stream: the shutdown marker, or every submitter
                // and the dispatcher gone.
                Some(Job::Shutdown) | None => {
                    for (s, round) in pending.iter_mut().enumerate() {
                        close(s, round, &self.closed_flush);
                    }
                    for q in self.queues().iter_mut() {
                        q.closed = true;
                    }
                    self.work.notify_all();
                    return;
                }
            }
        }
    }

    /// Pushes `rounds` onto the first surviving shard of `from`'s steal
    /// class — the only requeue target statically proven result-identical
    /// — under the queues lock the *caller* already holds, counting the
    /// jobs not already resolved by another copy as recovered. Returns the
    /// rounds back when no survivor exists.
    ///
    /// Taking the lock as a parameter is what makes every recovery move
    /// atomic with the liveness checks around it: a peer deciding to exit
    /// serializes against this push on the same lock, so it either sees
    /// the requeued rounds or the requeue sees it still alive.
    fn requeue_locked(
        &self,
        qs: &mut [QueueState],
        from: usize,
        rounds: Vec<Round>,
    ) -> Result<(), Vec<Round>> {
        let class = self.steal_class[from];
        let Some(t) =
            (0..qs.len()).find(|&t| t != from && !qs[t].dead && self.steal_class[t] == class)
        else {
            return Err(rounds);
        };
        let recovered = rounds
            .iter()
            .flat_map(|r| r.jobs.iter())
            .filter(|j| !j.already_resolved())
            .count();
        self.admission
            .recovered
            .fetch_add(recovered as u64, Ordering::Relaxed);
        qs[t].rounds.extend(rounds);
        Ok(())
    }

    /// The one recovery path for rounds stranded on a dead shard `from` —
    /// its backlog and lease when it dies ([`Shared::abandon_shard`]), or
    /// a round ingestion closed for it afterwards. Requeues them onto a
    /// surviving same-class shard under the caller's queues guard `qs`,
    /// the same critical section that observed or marked the death, so no
    /// peer can see the death without also seeing the requeue. With no
    /// survivor, each unclaimed job fails typed
    /// ([`ServeError::ShardLost`]), ledgered against the round's home.
    ///
    /// Requeueing ignores [`DispatchOptions::work_stealing`]: steal-class
    /// compatibility is the static proof of result identity, stealing is
    /// just a scheduling policy, and every worker's exit condition is
    /// class-wide and lease-aware ([`Shared::next_round`]), so a survivor
    /// is always still there to take the rounds.
    fn recover(&self, mut qs: MutexGuard<'_, Vec<QueueState>>, from: usize, rounds: Vec<Round>) {
        let stranded = self.requeue_locked(&mut qs, from, rounds).err();
        drop(qs);
        // Wake everyone: exit-waiters re-check against the new dead flag
        // and the (possibly) requeued rounds.
        self.work.notify_all();
        for round in stranded.into_iter().flatten() {
            for job in round.jobs.iter() {
                let lost = Outcome::Failed(ServeError::ShardLost { shard: from });
                self.resolve(job, round.home, lost, job.timeline);
            }
        }
    }

    /// A worker's dying act (chaos kill or contained panic): marks the
    /// shard dead and hands its entire failure domain — queued rounds
    /// plus the round it had checked out on lease — to [`Shared::recover`]
    /// within the same queues-lock acquisition.
    fn abandon_shard(&self, me: usize) {
        let mut qs = self.queues();
        qs[me].dead = true;
        let mut stranded: Vec<Round> = qs[me].rounds.drain(..).collect();
        stranded.extend(qs[me].lease.take().map(|l| l.round));
        self.recover(qs, me, stranded);
    }

    /// One shard's worker loop: pop own rounds (interactive first), steal
    /// when idle, shed queue-expired deadlines, execute the rest on the
    /// shard's backend, stamp/record latency, resolve tickets.
    ///
    /// Every checked-out round is leased ([`QueueState::lease`]) until
    /// resolved, scripted chaos events (kill/stall) fire at checkout, and
    /// every job resolves through [`Shared::resolve`], whose claim keeps a
    /// recovered or hedged copy from double-fulfilling a ticket. A backend
    /// panic is contained here: the in-hand jobs fail typed, the shard
    /// abandons its queue, the worker exits — the dispatcher keeps
    /// serving on the survivors.
    fn shard_loop(&self, me: usize) {
        let my = &self.shards[me];
        let mut scratch = my.backend.scratch();
        let mut costs: Vec<u64> = Vec::new();
        let chaos = self.options.chaos.as_ref();
        let kill_after = chaos.and_then(|c| c.kill_after(me));
        let stall = chaos.and_then(|c| c.stall(me));
        let mut rounds_done: u64 = 0;
        // The previous round, kept alive until its lease is released so
        // the release under the queues lock never frees the round's jobs.
        let mut finished: Option<Round> = None;

        loop {
            let next = self.next_round(me, finished.is_some());
            drop(finished.take());
            let Some(round) = next else {
                return; // all queues I can serve are closed and empty
            };
            // Feed the round's observed queue wait to the hedge trigger.
            if self.options.hedge.is_some() {
                let waited = Instant::now().duration_since(round.closed_at).as_nanos() as u64;
                self.round_waits
                    .lock()
                    .expect("round waits poisoned")
                    .record(waited);
            }
            if kill_after.is_some_and(|after| rounds_done >= after) {
                // Scripted death at checkout: drop the in-hand round — the
                // lease copy owns its recovery — and abandon everything.
                drop(round);
                self.abandon_shard(me);
                return;
            }
            if let (Some(plan), Some(base)) = (chaos, stall) {
                std::thread::sleep(plan.stall_for(me, rounds_done, base));
            }
            rounds_done += 1;
            if round.home != me {
                my.stolen.fetch_add(1, Ordering::Relaxed);
            }
            my.rounds.fetch_add(1, Ordering::Relaxed);
            costs.clear();
            // Pass 1 — admission: stamp each job's execute-start on this
            // copy's own timeline and run the last-chance deadline check
            // (primary copies only — a mirror job's deadline stamp is
            // always 0): if the deadline passed in queue, or the remaining
            // service estimate no longer fits it, shed instead of
            // executing. Shed jobs never reach the backend seam.
            let mut exec: Vec<(usize, Timeline)> = Vec::with_capacity(round.jobs.len());
            for (i, job) in round.jobs.iter().enumerate() {
                if job.already_resolved() {
                    continue; // another copy won the claim while we queued
                }
                let mut timeline = job.timeline;
                let now_ns = self.clock.now_ns();
                timeline.execute_start_ns = now_ns;
                if timeline.deadline_ns != 0
                    && now_ns.saturating_add(self.admission.service_estimate())
                        > timeline.deadline_ns
                {
                    let reason = ShedReason::DeadlineExpired {
                        now_ns,
                        deadline_ns: timeline.deadline_ns,
                    };
                    self.resolve(job, round.home, Outcome::Shed { reason }, timeline);
                    continue;
                }
                exec.push((i, timeline));
            }
            // Pass 2 — execute the survivors as one round through the
            // seam: backends with per-program setup cost amortize it
            // across the round's repeat-program jobs
            // ([`Backend::execute_round`]), and a stolen round flows
            // through identically to a home round. An empty survivor set
            // never reaches the seam — a round of expired deadlines (or
            // fully claimed-away jobs) must not charge a backend its
            // per-round setup cost for zero requests.
            let outcomes = if exec.is_empty() {
                Vec::new()
            } else {
                let requests: Vec<&Request> =
                    exec.iter().map(|&(i, _)| &round.jobs[i].request).collect();
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    my.backend.execute_round(&mut scratch, &requests)
                }));
                drop(requests);
                match caught {
                    Ok(outcomes) => outcomes,
                    Err(_) => {
                        // Contained backend panic: the in-hand jobs fail
                        // typed (the panicking round must terminate, not
                        // requeue forever), the queue backlog recovers,
                        // the worker exits.
                        for (i, timeline) in exec {
                            let lost = Outcome::Failed(ServeError::ShardLost { shard: me });
                            self.resolve(&round.jobs[i], round.home, lost, timeline);
                        }
                        // The poisoned round's jobs are all resolved:
                        // release its lease so recovery does not requeue
                        // it.
                        self.queues()[me].lease = None;
                        self.abandon_shard(me);
                        return;
                    }
                }
            };
            let executed = exec.len() as u64;
            // Pass 3 — per-job resolution in request order: each job keeps
            // its own completion stamp, service cycles, latency record and
            // ticket outcome, exactly as when jobs executed one by one.
            // Whichever copy claims first wins, and because identical-
            // class backends are result-identical the outcome bytes are
            // the same either way. The latency lock is uncontended: only
            // this shard's worker writes it, and shutdown reads it after
            // joining every worker.
            let mut latency = my.latency.lock().expect("latency poisoned");
            for ((i, mut timeline), result) in exec.into_iter().zip(outcomes) {
                let job = &round.jobs[i];
                let cost = result.as_ref().ok().map(|res| (res.cycles, res.dag_ops));
                let outcome = match result {
                    Ok(res) => {
                        timeline.service_cycles = res.cycles;
                        Outcome::Completed(res)
                    }
                    // A backend that *returns* an error (vs. one that
                    // panics) is a per-job failure, not a completion.
                    Err(e) => Outcome::Failed(e),
                };
                let Some(timeline) = self.resolve(job, round.home, outcome, timeline) else {
                    continue; // lost the race to another copy after executing
                };
                if let Some((cycles, dag_ops)) = cost {
                    costs.push(cycles);
                    my.dag_ops.fetch_add(dag_ops, Ordering::Relaxed);
                    latency.record(&timeline);
                }
                if round.hedge && job.ticket.is_some() {
                    self.admission.hedge_wins.fetch_add(1, Ordering::Relaxed);
                }
            }
            drop(latency);
            my.requests.fetch_add(executed, Ordering::Relaxed);
            if !costs.is_empty() {
                my.modelled_cycles.fetch_add(
                    my.backend.round_cycles(&costs, self.options.cores),
                    Ordering::Relaxed,
                );
            }
            finished = Some(round);
        }
    }

    /// The failure supervisor, spawned only when stall reclaim or hedging
    /// is configured. Each tick it (1) reclaims leases checked out longer
    /// than [`DispatchOptions::stall_timeout`] and requeues the copies
    /// onto live same-class shards — atomically under the queues lock,
    /// like every recovery move — and (2) runs the hedge pass. A reclaimed
    /// round with no surviving peer is *dropped*, not failed: its stalled
    /// holder is alive and still resolves the original. The supervisor
    /// outlives the workers (it is stopped after they join) so a stall
    /// detected during the final drain still recovers.
    fn supervisor_loop(&self) {
        let tick = {
            let mut t = Duration::from_millis(10);
            if let Some(stall) = self.options.stall_timeout {
                t = t.min(stall / 4);
            }
            if let Some(hedge) = &self.options.hedge {
                t = t.min(hedge.min_wait / 4);
            }
            t.max(Duration::from_micros(100))
        };
        while !self.supervisor_stop.load(Ordering::Relaxed) {
            std::thread::sleep(tick);
            if let Some(timeout) = self.options.stall_timeout {
                let now = Instant::now();
                let mut qs = self.queues();
                let mut pushed = false;
                for holder in 0..qs.len() {
                    let stalled = |l: &mut Lease| now.duration_since(l.checked_out) >= timeout;
                    let Some(lease) = qs[holder].lease.take_if(stalled) else {
                        continue;
                    };
                    // Err: no surviving peer — drop the copy; the stalled
                    // holder is still alive and resolves the original.
                    pushed |= self
                        .requeue_locked(&mut qs, holder, vec![lease.round])
                        .is_ok();
                }
                drop(qs);
                if pushed {
                    self.work.notify_all();
                }
            }
            if let Some(hedge) = &self.options.hedge {
                self.hedge_pass(hedge);
            }
        }
    }

    /// One hedge sweep: any queued round on a live primary that has waited
    /// past `max(observed wait at trigger_percentile, min_wait)` gets one
    /// copy pushed to an idle (empty-queue, live) shard of the same steal
    /// class. The original is marked `hedged` (never hedged twice), the
    /// copy `hedge` (its claimed-job completions count as hedge wins). The
    /// busy map keeps two hedges from landing on one idle shard in a
    /// single pass.
    fn hedge_pass(&self, hedge: &HedgeOptions) {
        let threshold = {
            let waits = self.round_waits.lock().expect("round waits poisoned");
            let observed_ns = if waits.is_empty() {
                0
            } else {
                waits.value_at_quantile(f64::from(hedge.trigger_percentile) / 100.0)
            };
            Duration::from_nanos(observed_ns).max(hedge.min_wait)
        };
        let now = Instant::now();
        let steal_class = &self.steal_class;
        let mut qs = self.queues();
        let n = qs.len();
        let mut busy: Vec<bool> = (0..n)
            .map(|t| qs[t].dead || !qs[t].rounds.is_empty())
            .collect();
        let mut hedged_jobs = 0u64;
        let mut pushed = false;
        for s in 0..self.primaries.min(n) {
            if qs[s].dead {
                continue;
            }
            // Plan against the immutable queue first, then apply: indices
            // stay valid because the plan only reads and the apply only
            // mutates flags and *other* shards' queues.
            let mut plan: Vec<(usize, usize)> = Vec::new();
            for (i, r) in qs[s].rounds.iter().enumerate() {
                if r.hedged || r.hedge || now.duration_since(r.closed_at) < threshold {
                    continue;
                }
                let Some(t) =
                    (0..n).find(|&t| t != s && !busy[t] && steal_class[t] == steal_class[s])
                else {
                    break; // no idle same-class peer left this pass
                };
                busy[t] = true;
                plan.push((i, t));
            }
            for (i, t) in plan {
                let copy = {
                    let r = &mut qs[s].rounds[i];
                    r.hedged = true;
                    let mut c = r.clone();
                    c.hedge = true;
                    c
                };
                hedged_jobs += copy.jobs.iter().filter(|j| !j.already_resolved()).count() as u64;
                qs[t].rounds.push_back(copy);
                pushed = true;
            }
        }
        drop(qs);
        if hedged_jobs > 0 {
            self.admission
                .hedged
                .fetch_add(hedged_jobs, Ordering::Relaxed);
        }
        if pushed {
            self.work.notify_all();
        }
    }

    /// Releases `me`'s lease if its previous round is `finished`, then
    /// blocks until `me` has a round to execute and leases it
    /// ([`QueueState::lease`]). Both happen under the queues lock: a round
    /// is always either queued or leased, so no peer can see it in
    /// neither place and exit early, and a peer waiting out a lease is
    /// either woken by its release or sees it gone. Selection is
    /// priority-aware on both paths:
    ///
    /// - **Own queue:** the best-ranked round, oldest first within a rank
    ///   ([`Round::effective_rank`] — interactive rounds jump ahead of
    ///   earlier-closed batch rounds, and the aging floor promotes
    ///   anything that has waited out
    ///   [`DispatchOptions::priority_aging`]).
    /// - **Stealing:** from the deepest same-class backlog, the best-ranked
    ///   round, *newest* first within a rank (the victim drains
    ///   oldest-first, so thief and victim meet in the middle).
    ///
    /// With single-class traffic and no aged rounds this degrades exactly
    /// to the old FIFO-pop / newest-steal behavior. Returns `None` once
    /// every same-class queue is closed, empty and without a lease out.
    ///
    /// The exit condition is class-wide even with stealing off: recovery
    /// and hedging requeue onto same-class peers regardless of the
    /// stealing policy, so an idle worker must stay alive while any
    /// same-class queue still has (or could receive) work. The worker also
    /// waits out every outstanding same-class *lease* — a peer holding one
    /// could still die and requeue its in-hand round here. Once all
    /// same-class queues are closed+empty and no lease is out, no new work
    /// can materialize (every producer path starts from a queued round or
    /// a lease), so the condition is stable.
    fn next_round(&self, me: usize, finished: bool) -> Option<Round> {
        let steal_class = &self.steal_class;
        let aging = self.options.priority_aging;
        let mut qs = self.queues();
        if finished {
            qs[me].lease = None;
            // Peers only wait out leases once ingestion has closed every
            // queue, so that is the only time a release needs to wake them.
            if qs[me].closed {
                self.work.notify_all();
            }
        }
        loop {
            let mut source = None;
            if !qs[me].rounds.is_empty() {
                let now = Instant::now();
                let best = qs[me]
                    .rounds
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, r)| (r.effective_rank(aging, now), *i))
                    .map(|(i, _)| i)
                    .expect("nonempty queue");
                source = Some((me, best));
            } else if self.options.work_stealing {
                // Deepest backlog among shards whose class matches mine.
                let victim = (0..qs.len())
                    .filter(|&j| j != me && steal_class[j] == steal_class[me])
                    .max_by_key(|&j| qs[j].rounds.len())
                    .filter(|&j| !qs[j].rounds.is_empty());
                if let Some(j) = victim {
                    let now = Instant::now();
                    let len = qs[j].rounds.len();
                    let best = qs[j]
                        .rounds
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, r)| (r.effective_rank(aging, now), len - *i))
                        .map(|(i, _)| i)
                        .expect("nonempty victim");
                    source = Some((j, best));
                }
            }
            if let Some((j, i)) = source {
                let round = qs[j].rounds.remove(i).expect("index in range");
                qs[me].lease = Some(Lease {
                    checked_out: Instant::now(),
                    round: round.clone(),
                });
                return Some(round);
            }
            if (0..qs.len())
                .filter(|&j| steal_class[j] == steal_class[me])
                .all(|j| qs[j].closed && qs[j].rounds.is_empty() && qs[j].lease.is_none())
            {
                return None;
            }
            qs = self.work.wait(qs).expect("queues poisoned");
        }
    }
}
