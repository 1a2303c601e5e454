//! The job queue, scheduler, and admission control.
//!
//! Shape of the machine: `teams` dispatcher threads, each permanently
//! holding one persistent [`ThreadPool`] checked out of a shared
//! [`PoolSet`] at startup. Requests are admitted into per-tenant FIFO
//! queues under bounded depth (global and per tenant — the load-shedding
//! layer), and dispatchers pull jobs by weighted round-robin across
//! tenants, so one chatty tenant cannot starve the rest. Each job is
//! executed on the team's cached-or-fresh `Fun3dApp` with
//! `ExecMode::Auto`, which resolves serial vs parallel per solve from
//! the PR 6 cost model — the per-job thread choice without any pool
//! churn.
//!
//! Observability: admission emits `serve_admit`/`serve_reject` flight
//! events on the submitting thread; completion emits `serve_job` tagged
//! with the solve's own `SolveId` (via `telemetry::emit_tagged`), tying
//! tenant → request → solver events in one dump. Execution is wrapped
//! in a `serve_job` telemetry span.

use crate::cache::{CacheCounters, CacheSnapshot, TeamAppCache};
use crate::tenant_hash;
use crate::wire::SolveRequest;
use fun3d_core::{FlowConditions, Fun3dApp};
use fun3d_machine::MachineSpec;
use fun3d_util::{fnv1a, fnv1a_word};
use fun3d_threads::{PoolSet, ThreadPool};
use fun3d_util::telemetry::{self, metrics, Json};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Why a request was shed instead of queued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The global queue is at capacity.
    QueueFull,
    /// This tenant's queue is at capacity (others may still admit).
    TenantQueueFull,
    /// The request failed validation/parsing.
    BadRequest,
    /// The service is shutting down.
    Shutdown,
}

impl RejectReason {
    /// Flight-recorder payload code (decoded by
    /// [`telemetry::reject_reason_slug`]).
    pub(crate) fn code(self) -> u64 {
        match self {
            RejectReason::QueueFull => 1,
            RejectReason::TenantQueueFull => 2,
            RejectReason::BadRequest => 3,
            RejectReason::Shutdown => 4,
        }
    }

    /// Stable wire slug (identical to the flight decoding).
    pub(crate) fn slug(self) -> &'static str {
        telemetry::reject_reason_slug(self.code())
    }
}

/// A structured admission rejection.
#[derive(Clone, Debug)]
pub struct Rejected {
    /// Tenant that was shed (may be empty for unparseable requests).
    pub tenant: String,
    /// Why.
    pub reason: RejectReason,
    /// Human detail (e.g. the parse error).
    pub detail: String,
    /// Global queue depth at rejection time.
    pub queue_depth: usize,
}

/// How much of the artifact cache a completed job could reuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Neither layer hit: full mesh build + setup + factorization.
    Cold,
    /// Prepared app reused, factors rebuilt.
    App,
    /// Fresh app build, but the first factors were seeded.
    Factor,
    /// Both layers hit: reset, seed, solve.
    AppAndFactor,
}

impl CacheOutcome {
    fn new(app_hit: bool, factor_hit: bool) -> CacheOutcome {
        match (app_hit, factor_hit) {
            (false, false) => CacheOutcome::Cold,
            (true, false) => CacheOutcome::App,
            (false, true) => CacheOutcome::Factor,
            (true, true) => CacheOutcome::AppAndFactor,
        }
    }

    /// Stable wire slug.
    pub(crate) fn slug(self) -> &'static str {
        match self {
            CacheOutcome::Cold => "cold",
            CacheOutcome::App => "app",
            CacheOutcome::Factor => "factor",
            CacheOutcome::AppAndFactor => "app+factor",
        }
    }

    fn hits(self) -> u64 {
        matches!(self, CacheOutcome::App | CacheOutcome::AppAndFactor) as u64
            + matches!(self, CacheOutcome::Factor | CacheOutcome::AppAndFactor) as u64
    }
}

/// A completed solve, as delivered to the submitter.
#[derive(Clone, Debug)]
pub struct SolveReply {
    /// Tenant the job belonged to.
    pub tenant: String,
    /// Flight-recorder id of the solve (distinct per job).
    pub solve_id: u64,
    /// Dispatcher team that executed the job.
    pub team: usize,
    /// Worker threads the team offered (1 = serial team).
    pub nt: usize,
    /// Tolerance met.
    pub converged: bool,
    /// Pseudo-time steps taken.
    pub steps: usize,
    /// Total linear iterations.
    pub linear_iters: usize,
    /// Final residual norm.
    pub res: f64,
    /// Full residual history (in-process consumers; not on the wire).
    pub res_history: Vec<f64>,
    /// Concrete scheme the last linear solve ran (`Auto` resolved).
    pub exec: &'static str,
    /// Artifact-cache outcome for this job.
    pub cache: CacheOutcome,
    /// Milliseconds spent queued before a team picked the job up.
    pub queue_ms: f64,
    /// Milliseconds of execution (prep + solve), excluding queueing.
    pub wall_ms: f64,
    /// FNV-64 over the converged state's bit pattern — lets a remote
    /// client (or the bitwise-identity test) compare solutions without
    /// shipping the state vector.
    pub state_fnv: u64,
}

/// Receives one [`SolveReply`] for one admitted job.
pub struct JobHandle {
    rx: mpsc::Receiver<SolveReply>,
}

impl JobHandle {
    /// Blocks until the job completes. Panics if the service was torn
    /// down with the job still queued (dispatchers drain on shutdown,
    /// so this only happens on a dispatcher panic).
    pub fn wait(self) -> SolveReply {
        self.rx.recv().expect("serve dispatcher dropped the job")
    }
}

/// Service sizing and policy knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Dispatcher teams (one persistent pool each).
    pub teams: usize,
    /// Workers per team pool (1 = serial teams, no pools at all).
    pub team_threads: usize,
    /// Global queued-job bound (admission control).
    pub queue_cap: usize,
    /// Per-tenant queued-job bound.
    pub tenant_queue_cap: usize,
    /// Prepared-app LRU entries per team (0 disables the layer).
    pub app_cache_per_team: usize,
    /// Shared first-factor cache entries (0 disables the layer).
    pub factor_cache_cap: usize,
    /// Tenant → weighted-round-robin weight (unlisted tenants get 1).
    pub tenant_weights: Vec<(String, u32)>,
}

impl ServeConfig {
    /// Sizing derived from [`MachineSpec::host`]: teams × team_threads
    /// ≤ cores, parallel teams only where the core budget supports
    /// them.
    pub fn host_default() -> ServeConfig {
        let cores = MachineSpec::host().cores;
        // Prefer team parallelism once there are enough cores that a
        // 2-wide team still leaves ≥ 2 teams; the AutoPolicy decides
        // per job whether those workers actually pay.
        let team_threads = if cores >= 4 { 2 } else { 1 };
        let teams = (cores / team_threads).clamp(1, 4);
        ServeConfig {
            teams,
            team_threads,
            queue_cap: 64,
            tenant_queue_cap: 32,
            app_cache_per_team: 4,
            factor_cache_cap: 32,
            tenant_weights: Vec::new(),
        }
    }

    /// The worker budget this configuration is allowed to occupy.
    pub fn worker_budget(&self) -> usize {
        self.teams * self.team_threads
    }

    fn weight_of(&self, tenant: &str) -> u32 {
        self.tenant_weights
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|&(_, w)| w.max(1))
            .unwrap_or(1)
    }
}

/// Aggregate service statistics.
#[derive(Clone, Copy, Debug)]
pub struct ServeStats {
    /// Jobs completed (replies delivered).
    pub completed: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Configured worker budget (`teams * team_threads`).
    pub worker_budget: usize,
    /// Most pool workers ever leased simultaneously — must never
    /// exceed `worker_budget`.
    pub pool_high_water: usize,
    /// Deepest the global queue ever got.
    pub queue_high_water: usize,
    /// Cache counters (both layers).
    pub cache: CacheSnapshot,
}

struct Job {
    req: SolveRequest,
    enqueued: Instant,
    /// Admission time on the telemetry clock (the flight/metrics epoch),
    /// so `ServeStages` timestamps interleave with solver events.
    admit_ns: u64,
    reply: mpsc::Sender<SolveReply>,
}

struct RrSlot {
    tenant: String,
    weight: u32,
    credit: u32,
}

struct SchedState {
    queues: HashMap<String, VecDeque<Job>>,
    rr: Vec<RrSlot>,
    cursor: usize,
    queued: usize,
    queue_high_water: usize,
    active: usize,
    shutdown: bool,
}

impl SchedState {
    /// Weighted round-robin: serve up to `weight` consecutive jobs from
    /// the cursor tenant before advancing, skipping empty queues.
    fn next_job(&mut self) -> Option<Job> {
        if self.rr.is_empty() {
            return None;
        }
        for _ in 0..self.rr.len() {
            let slot = &mut self.rr[self.cursor];
            let job = self
                .queues
                .get_mut(&slot.tenant)
                .and_then(VecDeque::pop_front);
            match job {
                Some(job) => {
                    self.queued -= 1;
                    slot.credit = slot.credit.saturating_sub(1);
                    if slot.credit == 0 {
                        slot.credit = slot.weight;
                        self.cursor = (self.cursor + 1) % self.rr.len();
                    }
                    return Some(job);
                }
                None => {
                    slot.credit = slot.weight;
                    self.cursor = (self.cursor + 1) % self.rr.len();
                }
            }
        }
        None
    }
}

/// Process-wide serve gauges, resolved once (the registry lock is paid
/// at first use, not per request).
struct ServeGauges {
    queue_depth: Arc<metrics::Gauge>,
    inflight: Arc<metrics::Gauge>,
    cache_apps: Arc<metrics::Gauge>,
    cache_factors: Arc<metrics::Gauge>,
}

fn gauges() -> &'static ServeGauges {
    static GAUGES: std::sync::OnceLock<ServeGauges> = std::sync::OnceLock::new();
    GAUGES.get_or_init(|| ServeGauges {
        queue_depth: metrics::gauge("serve.queue_depth"),
        inflight: metrics::gauge("serve.inflight"),
        cache_apps: metrics::gauge("serve.cache.apps"),
        cache_factors: metrics::gauge("serve.cache.factors"),
    })
}

struct Shared {
    cfg: ServeConfig,
    state: Mutex<SchedState>,
    /// Signalled when work arrives or shutdown begins.
    work: Condvar,
    /// Signalled when a dispatcher goes idle (drain waits here).
    idle: Condvar,
    completed: AtomicU64,
    rejected: AtomicU64,
}

/// The running service: admission in front, dispatcher teams behind.
pub struct Service {
    shared: Arc<Shared>,
    pools: Option<Arc<PoolSet>>,
    counters: Arc<CacheCounters>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the dispatcher teams and their pools.
    pub fn start(cfg: ServeConfig) -> Service {
        assert!(cfg.teams >= 1, "need at least one team");
        assert!(cfg.team_threads >= 1, "team_threads counts workers, min 1");
        let counters = Arc::new(CacheCounters::new(cfg.factor_cache_cap));
        // Serial teams run on the dispatcher thread itself; only
        // parallel teams own doorbell pools.
        let pools = (cfg.team_threads > 1)
            .then(|| Arc::new(PoolSet::new(&vec![cfg.team_threads; cfg.teams])));
        let shared = Arc::new(Shared {
            cfg: cfg.clone(),
            state: Mutex::new(SchedState {
                queues: HashMap::new(),
                rr: Vec::new(),
                cursor: 0,
                queued: 0,
                queue_high_water: 0,
                active: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        let workers = (0..cfg.teams)
            .map(|team| {
                let shared = Arc::clone(&shared);
                let counters = Arc::clone(&counters);
                let lease = pools
                    .as_ref()
                    .map(|set| set.checkout_owned(cfg.team_threads).expect("pool per team"));
                std::thread::Builder::new()
                    .name(format!("serve-team{team}"))
                    .spawn(move || {
                        telemetry::set_thread_label(format!("serve-team{team}"));
                        let pool = lease.as_ref().map(|l| Arc::clone(l.pool()));
                        dispatcher_loop(team, shared, pool, counters);
                        drop(lease);
                    })
                    .expect("spawn dispatcher")
            })
            .collect();
        Service {
            shared,
            pools,
            counters,
            workers,
        }
    }

    /// Admits a request or sheds it with a structured reason. Emits the
    /// `serve_admit`/`serve_reject` flight event on this thread.
    pub fn submit(&self, req: SolveRequest) -> Result<JobHandle, Rejected> {
        let tenant = req.tenant.clone();
        let thash = tenant_hash(&tenant);
        let mut st = self.shared.state.lock().unwrap();
        let reject = if st.shutdown {
            Some((RejectReason::Shutdown, "service is shutting down"))
        } else if st.queued >= self.shared.cfg.queue_cap {
            Some((RejectReason::QueueFull, "global queue at capacity"))
        } else if st
            .queues
            .get(&tenant)
            .is_some_and(|q| q.len() >= self.shared.cfg.tenant_queue_cap)
        {
            Some((RejectReason::TenantQueueFull, "tenant queue at capacity"))
        } else {
            None
        };
        if let Some((reason, detail)) = reject {
            let depth = st.queued;
            drop(st);
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            metrics::counter_add("serve.shed", 1);
            metrics::counter(&format!("serve.shed.{}", reason.slug())).incr();
            telemetry::emit(telemetry::EventKind::ServeReject {
                tenant: thash,
                reason: reason.code(),
                queue_depth: depth as u64,
            });
            return Err(Rejected {
                tenant,
                reason,
                detail: detail.to_string(),
                queue_depth: depth,
            });
        }
        let (tx, rx) = mpsc::channel();
        if !st.queues.contains_key(&tenant) {
            st.queues.insert(tenant.clone(), VecDeque::new());
            let weight = self.shared.cfg.weight_of(&tenant);
            st.rr.push(RrSlot {
                tenant: tenant.clone(),
                weight,
                credit: weight,
            });
        }
        st.queues.get_mut(&tenant).unwrap().push_back(Job {
            req,
            enqueued: Instant::now(),
            admit_ns: telemetry::now_ns(),
            reply: tx,
        });
        st.queued += 1;
        st.queue_high_water = st.queue_high_water.max(st.queued);
        let depth = st.queued;
        drop(st);
        self.shared.work.notify_one();
        metrics::counter_add("serve.admitted", 1);
        gauges().queue_depth.set(depth as u64);
        telemetry::emit(telemetry::EventKind::ServeAdmit {
            tenant: thash,
            queue_depth: depth as u64,
        });
        Ok(JobHandle { rx })
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ServeStats {
        let st = self.shared.state.lock().unwrap();
        ServeStats {
            completed: self.shared.completed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            worker_budget: self.shared.cfg.worker_budget(),
            pool_high_water: self.pools.as_ref().map_or(0, |p| p.high_water()),
            queue_high_water: st.queue_high_water,
            cache: self.counters.snapshot(),
        }
    }

    /// Drains outstanding jobs, stops the teams, and returns the final
    /// statistics.
    pub fn shutdown(mut self) -> ServeStats {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.workers.drain(..) {
            h.join().expect("dispatcher panicked");
        }
        self.stats()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return; // consumed by shutdown()
        }
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn dispatcher_loop(
    team: usize,
    shared: Arc<Shared>,
    pool: Option<Arc<ThreadPool>>,
    counters: Arc<CacheCounters>,
) {
    let mut app_cache = TeamAppCache::new(shared.cfg.app_cache_per_team);
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(job) = st.next_job() {
                    st.active += 1;
                    gauges().queue_depth.set(st.queued as u64);
                    gauges().inflight.set(st.active as u64);
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        let reply_tx = job.reply.clone();
        let reply = execute(
            team,
            pool.as_ref(),
            job,
            &mut app_cache,
            &counters,
            shared.cfg.factor_cache_cap > 0,
        );
        // A submitter that gave up (dropped the handle) is not an error.
        let _ = reply_tx.send(reply);
        shared.completed.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("serve.completed", 1);
        gauges().cache_apps.set(app_cache.len() as u64);
        gauges().cache_factors.set(counters.factors.len() as u64);
        {
            let mut st = shared.state.lock().unwrap();
            st.active -= 1;
            gauges().inflight.set(st.active as u64);
        }
        shared.idle.notify_all();
    }
}

/// Runs one job on this team: artifact-cache lookups, the solve, the
/// flight/telemetry tagging, and the reply. Without a factor layer
/// (`factors_cached` false) the solve neither looks up nor captures its
/// first factors, so it refactors in place.
fn execute(
    team: usize,
    pool: Option<&Arc<ThreadPool>>,
    job: Job,
    app_cache: &mut TeamAppCache,
    counters: &CacheCounters,
    factors_cached: bool,
) -> SolveReply {
    let _span = telemetry::span("serve_job");
    let queue_ns = job.enqueued.elapsed().as_nanos() as u64;
    let admit_ns = job.admit_ns;
    let dispatch_ns = telemetry::now_ns();
    let req = job.req;
    let nt = pool.map_or(1, |p| p.size());
    let t0 = Instant::now();

    let prep_key = req.prep_key(nt);
    let (mut app, app_hit) = match app_cache.take(prep_key, counters) {
        Some(mut app) => {
            app.reset_for_reuse();
            (app, true)
        }
        None => {
            let mut mesh = req.mesh.build();
            Fun3dApp::rcm_reorder(&mut mesh);
            let app = Fun3dApp::with_pool(
                mesh,
                FlowConditions::default(),
                req.opt_config(nt),
                pool.cloned(),
            );
            (app, false)
        }
    };

    let factor_key = req.factor_key();
    let mut factor_hit = false;
    if factors_cached {
        app.capture_first_factors(true);
        if let Some(seed) = counters.factors.get(factor_key) {
            app.set_factor_seed(Some(seed));
            factor_hit = true;
        }
    }

    let solve_start_ns = telemetry::now_ns();
    let (u, stats) = app.run(&req.ptc_config());
    let solve_end_ns = telemetry::now_ns();

    if factors_cached && !factor_hit {
        if let Some(f) = app.first_factors() {
            counters.factors.insert(factor_key, f);
        }
    }
    let cache = CacheOutcome::new(app_hit, factor_hit);
    app_cache.put(prep_key, app, counters);

    let state_fnv = hash_state(&u);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let reply_ns = telemetry::now_ns();
    telemetry::emit_tagged(
        stats.solve_id,
        telemetry::EventKind::ServeJob {
            tenant: tenant_hash(&req.tenant),
            queue_ns,
            cache_hits: cache.hits(),
            cache_misses: 2 - cache.hits(),
        },
    );
    // Full stage record for `telemetry::assemble_trace`: every boundary of this
    // request on the shared telemetry clock, tagged with its SolveId.
    telemetry::emit_tagged(
        stats.solve_id,
        telemetry::EventKind::ServeStages {
            tenant: tenant_hash(&req.tenant),
            admit_ns,
            dispatch_ns,
            solve_start_ns,
            solve_end_ns,
            reply_ns,
        },
    );
    record_stage_metrics(&req.tenant, admit_ns, dispatch_ns, solve_start_ns, solve_end_ns, reply_ns);
    metrics::counter_add("serve.cache.hits", cache.hits());
    metrics::counter_add("serve.cache.misses", 2 - cache.hits());
    SolveReply {
        tenant: req.tenant,
        solve_id: stats.solve_id,
        team,
        nt,
        converged: stats.converged,
        steps: stats.time_steps,
        linear_iters: stats.linear_iters,
        res: stats.res_history.last().copied().unwrap_or(f64::NAN),
        res_history: stats.res_history,
        exec: stats.exec,
        cache,
        queue_ms: queue_ns as f64 / 1e6,
        wall_ms,
        state_fnv,
    }
}

/// Records one finished request into the live stage histograms:
/// service-wide and per-tenant `queue/prep/solve/total` distributions
/// (tenant handles cached per dispatcher thread, so steady-state
/// recording never takes the registry lock).
fn record_stage_metrics(
    tenant: &str,
    admit_ns: u64,
    dispatch_ns: u64,
    solve_start_ns: u64,
    solve_end_ns: u64,
    reply_ns: u64,
) {
    if !telemetry::enabled() {
        return;
    }
    let queue = dispatch_ns.saturating_sub(admit_ns);
    let prep = solve_start_ns.saturating_sub(dispatch_ns);
    let solve = solve_end_ns.saturating_sub(solve_start_ns);
    let total = reply_ns.saturating_sub(admit_ns);
    metrics::record_ns("serve.queue_ns", queue);
    metrics::record_ns("serve.prep_ns", prep);
    metrics::record_ns("serve.solve_ns", solve);
    metrics::record_ns("serve.total_ns", total);
    thread_local! {
        static TENANT_HISTS: std::cell::RefCell<
            HashMap<String, [Arc<metrics::Histogram>; 4]>,
        > = std::cell::RefCell::new(HashMap::new());
    }
    TENANT_HISTS.with(|cache| {
        let mut cache = cache.borrow_mut();
        let hists = cache.entry(tenant.to_string()).or_insert_with(|| {
            let h = |stage: &str| metrics::histogram(&format!("serve.tenant.{tenant}.{stage}"));
            [h("queue_ns"), h("prep_ns"), h("solve_ns"), h("total_ns")]
        });
        for (h, v) in hists.iter().zip([queue, prep, solve, total]) {
            h.record(v);
        }
    });
}

impl Service {
    /// One-line strict-JSON answer to the `{"cmd":"stats"}` admin
    /// request: the lane implementation the edge kernels run on
    /// (`"avx2"` | `"portable"` — a latency difference between two hosts
    /// should name its cause), service counters, per-tenant live p50/p99
    /// (from the in-process histograms, not a bench log), cache hit rate,
    /// and the full `fun3d.metrics.v1` snapshot for machine consumers.
    pub fn stats_json(&self) -> Json {
        let stats = self.stats();
        let snap = metrics::snapshot();
        let tenants: Vec<(String, Json)> = snap
            .hists
            .iter()
            .filter_map(|h| {
                let name = h
                    .name
                    .strip_prefix("serve.tenant.")?
                    .strip_suffix(".total_ns")?;
                Some((
                    name.to_string(),
                    Json::obj(vec![
                        ("count", Json::num(h.count as f64)),
                        ("p50_ms", telemetry::json_f64(h.quantile(0.50) / 1e6)),
                        ("p99_ms", telemetry::json_f64(h.quantile(0.99) / 1e6)),
                        ("max_ms", Json::num(h.max_ns as f64 / 1e6)),
                    ]),
                ))
            })
            .collect();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("kind", Json::str("stats")),
            ("isa", Json::str(fun3d_core::active_isa())),
            ("completed", Json::num(stats.completed as f64)),
            ("rejected", Json::num(stats.rejected as f64)),
            ("queue_depth", Json::num(snap.gauge("serve.queue_depth") as f64)),
            ("inflight", Json::num(snap.gauge("serve.inflight") as f64)),
            (
                "cache_hit_rate",
                telemetry::json_f64(stats.cache.combined_hit_rate()),
            ),
            ("tenants", Json::Obj(tenants)),
            ("metrics", metrics::snapshot_json(&snap)),
        ])
    }
}

/// FNV-64 over a state vector's exact bit pattern.
pub fn hash_state(u: &[f64]) -> u64 {
    u.iter()
        .fold(fnv1a(b"fun3d-state"), |h, x| fnv1a_word(h, x.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_mesh::generator::MeshPreset;

    impl Service {
        /// Blocks until every queued job has been executed and delivered.
        fn drain(&self) {
            let mut st = self.shared.state.lock().unwrap();
            while st.queued > 0 || st.active > 0 {
                st = self.shared.idle.wait(st).unwrap();
            }
        }
    }

    fn quick_req(tenant: &str) -> SolveRequest {
        let mut req = SolveRequest::new(tenant, MeshPreset::Tiny);
        req.max_steps = 3;
        req.rtol = 1e-2;
        req
    }

    fn tiny_config() -> ServeConfig {
        ServeConfig {
            teams: 1,
            team_threads: 1,
            queue_cap: 8,
            tenant_queue_cap: 4,
            app_cache_per_team: 2,
            factor_cache_cap: 8,
            tenant_weights: Vec::new(),
        }
    }

    #[test]
    fn submit_executes_and_replies() {
        let svc = Service::start(tiny_config());
        let reply = svc.submit(quick_req("t0")).unwrap().wait();
        assert_eq!(reply.tenant, "t0");
        assert!(reply.steps > 0 && reply.solve_id > 0);
        assert_eq!(reply.cache, CacheOutcome::Cold);
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn repeat_requests_hit_both_cache_layers() {
        let svc = Service::start(tiny_config());
        let first = svc.submit(quick_req("t")).unwrap().wait();
        let second = svc.submit(quick_req("t")).unwrap().wait();
        assert_eq!(first.cache, CacheOutcome::Cold);
        assert_eq!(second.cache, CacheOutcome::AppAndFactor);
        assert_eq!(
            first.state_fnv, second.state_fnv,
            "cached reuse must be bitwise identical"
        );
        assert_eq!(first.res_history, second.res_history);
        let stats = svc.shutdown();
        assert!(stats.cache.app.hits >= 1 && stats.cache.factor.hits >= 1);
    }

    #[test]
    fn cache_off_stays_cold() {
        let mut cfg = tiny_config();
        cfg.app_cache_per_team = 0;
        cfg.factor_cache_cap = 0;
        let svc = Service::start(cfg);
        for _ in 0..2 {
            let r = svc.submit(quick_req("t")).unwrap().wait();
            assert_eq!(r.cache, CacheOutcome::Cold);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.cache.app.hits + stats.cache.factor.hits, 0);
    }

    #[test]
    fn admission_sheds_past_the_bounds() {
        // One team, kept busy by a deliberately slow first job, so the
        // subsequent submissions are pure queue arithmetic: tenant `a`
        // overflows its own cap first, then fresh tenants fill the
        // global queue. (Even if the dispatcher has not yet picked up
        // the slow job, both caps still trip — the slow job just
        // occupies one more global slot.)
        let mut cfg = tiny_config();
        cfg.queue_cap = 4;
        cfg.tenant_queue_cap = 2;
        let svc = Service::start(cfg);
        let mut slow = SolveRequest::new("z", MeshPreset::Small);
        slow.max_steps = 8;
        slow.rtol = 1e-10;
        let mut handles = vec![svc.submit(slow).unwrap()];
        let mut saw_tenant_full = false;
        let mut saw_global_full = false;
        for t in ["a", "a", "a", "b", "c", "d", "e"] {
            match svc.submit(quick_req(t)) {
                Ok(h) => handles.push(h),
                Err(r) => match r.reason {
                    RejectReason::TenantQueueFull => {
                        assert_eq!(r.tenant, "a");
                        saw_tenant_full = true;
                    }
                    RejectReason::QueueFull => saw_global_full = true,
                    other => panic!("unexpected reject {other:?}"),
                },
            }
        }
        assert!(saw_tenant_full, "tenant `a` should overflow its cap");
        assert!(saw_global_full, "fresh tenants should overflow the global cap");
        for h in handles {
            h.wait();
        }
        let stats = svc.shutdown();
        assert!(stats.rejected >= 2);
        assert!(stats.queue_high_water <= 4);
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_refuses_new_ones() {
        let svc = Service::start(tiny_config());
        let handles: Vec<_> = (0..4)
            .map(|i| svc.submit(quick_req(&format!("t{i}"))).unwrap())
            .collect();
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 4, "shutdown must drain the queue");
        for h in handles {
            h.wait();
        }
    }

    #[test]
    fn shutdown_rejects_with_reason() {
        let svc = Service::start(tiny_config());
        {
            let mut st = svc.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        let err = match svc.submit(quick_req("t")) {
            Err(r) => r,
            Ok(_) => panic!("submit should be rejected after shutdown"),
        };
        assert_eq!(err.reason, RejectReason::Shutdown);
        assert_eq!(err.reason.slug(), "shutdown");
    }

    #[test]
    fn stats_json_reports_live_tenant_percentiles() {
        telemetry::set_level(telemetry::Level::Counters);
        let svc = Service::start(tiny_config());
        for _ in 0..2 {
            svc.submit(quick_req("statsee")).unwrap().wait();
        }
        // The completed counter bumps after the reply send; drain waits
        // for the dispatcher to fully retire both jobs.
        svc.drain();
        let doc = svc.stats_json();
        let parsed = Json::parse(&doc.render()).expect("stats render is valid JSON");
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            parsed.get("isa").and_then(Json::as_str),
            Some(fun3d_core::active_isa()),
            "the reply names the lanes the kernels run on"
        );
        assert!(parsed.get("completed").and_then(Json::as_f64).unwrap() >= 2.0);
        let tenant = parsed
            .get("tenants")
            .and_then(|t| t.get("statsee"))
            .expect("live per-tenant entry");
        assert!(tenant.get("count").and_then(Json::as_f64).unwrap() >= 2.0);
        let p50 = tenant.get("p50_ms").and_then(Json::as_f64).unwrap();
        let p99 = tenant.get("p99_ms").and_then(Json::as_f64).unwrap();
        assert!(p50 > 0.0 && p99 >= p50, "p50={p50} p99={p99}");
        assert!(parsed.get("cache_hit_rate").and_then(Json::as_f64).is_some());
        // The embedded metrics snapshot is itself schema-valid.
        let m = parsed.get("metrics").expect("metrics subdocument");
        metrics::check_snapshot(m).expect("embedded snapshot validates");
        svc.shutdown();
    }

    #[test]
    fn serve_stages_are_monotone_and_tagged() {
        telemetry::set_level(telemetry::Level::Counters);
        let svc = Service::start(tiny_config());
        let reply = svc.submit(quick_req("stager")).unwrap().wait();
        svc.shutdown();
        let log = telemetry::flight_log();
        let stages = log
            .solve(reply.solve_id)
            .into_iter()
            .find_map(|e| match e.kind {
                telemetry::EventKind::ServeStages {
                    tenant,
                    admit_ns,
                    dispatch_ns,
                    solve_start_ns,
                    solve_end_ns,
                    reply_ns,
                } => Some((tenant, [admit_ns, dispatch_ns, solve_start_ns, solve_end_ns, reply_ns])),
                _ => None,
            })
            .expect("a serve_stages event tagged with the reply's solve id");
        assert_eq!(stages.0, tenant_hash("stager"));
        assert!(
            stages.1.windows(2).all(|w| w[0] <= w[1]),
            "stage boundaries must be monotone: {:?}",
            stages.1
        );
    }

    #[test]
    fn weighted_round_robin_interleaves_tenants() {
        // Two tenants, heavy at weight 2: a full drain order of
        // h h l h h l … — verify the scheduler state machine directly.
        let mut st = SchedState {
            queues: HashMap::new(),
            rr: Vec::new(),
            cursor: 0,
            queued: 0,
            queue_high_water: 0,
            active: 0,
            shutdown: false,
        };
        let (tx, _rx) = mpsc::channel();
        let push = |st: &mut SchedState, tenant: &str, weight: u32| {
            if !st.queues.contains_key(tenant) {
                st.queues.insert(tenant.to_string(), VecDeque::new());
                st.rr.push(RrSlot {
                    tenant: tenant.to_string(),
                    weight,
                    credit: weight,
                });
            }
            st.queues.get_mut(tenant).unwrap().push_back(Job {
                req: quick_req(tenant),
                enqueued: Instant::now(),
                admit_ns: telemetry::now_ns(),
                reply: tx.clone(),
            });
            st.queued += 1;
        };
        for _ in 0..6 {
            push(&mut st, "heavy", 2);
        }
        for _ in 0..3 {
            push(&mut st, "light", 1);
        }
        let mut order = Vec::new();
        while let Some(job) = st.next_job() {
            order.push(job.req.tenant.clone());
        }
        assert_eq!(
            order,
            vec!["heavy", "heavy", "light", "heavy", "heavy", "light", "heavy", "heavy", "light"],
            "weight-2 tenant gets two slots per round, and nobody starves"
        );
        assert_eq!(st.queued, 0);
    }
}
