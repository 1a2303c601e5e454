//! The service workload: tenants of `fun3d-serve` in a closed loop, and in
//! the traced run an open-loop phase beside it.
//!
//! Closed loop, `C = min(nproc, 4)` clients with one outstanding request
//! each, because callers of a solver service wait for their reply; the
//! quantiles then repeat from run to run, where a 10 req/s open loop left
//! the median at the mercy of which requests happened to collide. The open
//! loop survives as a traced-run phase, where queueing changes show first.

use crate::host::{self, team_size};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workload::{secs, Args, Outcome, SplitMix};
use fun3d_mesh::generator::MeshPreset;
use fun3d_serve::{ServeConfig, Service, SolveReply, SolveRequest};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Tiny mesh, full solve: the cheapest complete operation.
    TinyFull,
    /// One loose step on the Small mesh, one of two shapes that stay cached.
    ProbeHot,
    /// The same probe on one of six further shapes, which do not fit the
    /// four-entry per-team cache beside the hot set and force evictions.
    ProbeCold,
    /// Small mesh, full solve: the tail.
    SmallFull,
}

impl Class {
    fn span_name(self) -> &'static str {
        match self {
            Class::TinyFull => "serve.tiny_full",
            Class::ProbeHot => "serve.probe_hot",
            Class::ProbeCold => "serve.probe_cold",
            Class::SmallFull => "serve.small_full",
        }
    }

    /// Classes whose replies must report convergence; a probe stops after
    /// one step by design.
    fn must_converge(self) -> bool {
        matches!(self, Class::TinyFull | Class::SmallFull)
    }
}

/// (ILU fill, limiter, least-squares gradients): what decides the prepared
/// application a request needs.
type Shape = (usize, bool, bool);

const DEFAULT_SHAPE: Shape = (1, false, false);
const HOT_SHAPES: [Shape; 2] = [DEFAULT_SHAPE, (2, false, false)];
const COLD_SHAPES: [Shape; 6] = [
    (0, false, false),
    (0, true, false),
    (0, false, true),
    (1, true, false),
    (1, false, true),
    (2, true, false),
];
const TENANTS: [&str; 3] = ["tenant-a", "tenant-b", "tenant-c"];

/// How many requests of each class a block of 25 holds: 20 % tiny-full,
/// 52 % probe-hot, 16 % probe-cold, 12 % small-full. The shares put the
/// median inside the cached path and the 95th percentile inside the full
/// solves, so each quantile sits mid-mass of one class and names a layer.
const BLOCK_MIX: [(Class, usize); 4] = [
    (Class::TinyFull, 5),
    (Class::ProbeHot, 13),
    (Class::ProbeCold, 4),
    (Class::SmallFull, 3),
];

/// One client's seeded request stream. It is dealt in blocks: every block
/// holds exactly [`BLOCK_MIX`], in an order, with hot shapes and tenants,
/// that the seed decides. Drawing each request independently left the number
/// of full solves in a run, and with it the throughput, to vary by
/// ±15 % between seeds; whole blocks are the same work under any seed.
pub struct Stream {
    rng: SplitMix,
    cold_next: usize,
    /// The rest of the current block, dealt from the back.
    block: Vec<Class>,
}

impl Stream {
    pub fn new(seed: u64, client: u64) -> Stream {
        Stream {
            rng: SplitMix::new(seed, client),
            cold_next: 3 * client as usize,
            block: Vec::new(),
        }
    }

    /// True between blocks, where a client may stop.
    pub fn at_block_boundary(&self) -> bool {
        self.block.is_empty()
    }

    pub fn next(&mut self) -> (Class, Shape, SolveRequest) {
        if self.block.is_empty() {
            self.block = BLOCK_MIX
                .iter()
                .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
                .collect();
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
        }
        let class = self.block.pop().expect("a block was just dealt");
        let tenant = TENANTS[self.rng.below(TENANTS.len() as u64) as usize];
        let shape = match class {
            Class::ProbeHot => HOT_SHAPES[self.rng.below(2) as usize],
            Class::ProbeCold => {
                self.cold_next += 1;
                COLD_SHAPES[self.cold_next % COLD_SHAPES.len()]
            }
            Class::TinyFull | Class::SmallFull => DEFAULT_SHAPE,
        };
        let mesh = if class == Class::TinyFull {
            MeshPreset::Tiny
        } else {
            MeshPreset::Small
        };
        let mut req = SolveRequest::new(tenant, mesh);
        (req.ilu_fill, req.use_limiter, req.use_lsq_gradients) = shape;
        if matches!(class, Class::ProbeHot | Class::ProbeCold) {
            req.max_steps = 1;
            req.rtol = 1e-1;
            req.max_linear_iters = 4;
        }
        (class, shape, req)
    }
}

/// Poisson arrivals at `rate` per second over `window`, as offsets from the
/// phase start.
pub fn open_schedule(seed: u64, rate: f64, window: Duration) -> Vec<Duration> {
    let mut rng = SplitMix::new(seed, OPEN_STREAM);
    let mut at = 0.0;
    std::iter::from_fn(|| {
        at += -rng.unit().ln() / rate;
        (at < secs(window)).then(|| Duration::from_secs_f64(at))
    })
    .collect()
}

const OPEN_STREAM: u64 = 1000;
const OPEN_RATE: f64 = 10.0;
const SETUP_REPS: usize = 3;

struct Record {
    class: Class,
    shape: Shape,
    latency_ms: f64,
    /// `None` when admission control shed the request.
    reply: Option<SolveReply>,
}

/// One client's part of a closed-loop phase.
struct ClientRun {
    records: Vec<Record>,
    /// Per block, in order: the median latency of its requests in ms, and
    /// its requests per second.
    blocks: Vec<(f64, f64)>,
}

/// The two end-to-end figures of a closed-loop phase. Every block is the
/// same work, and on a shared host whatever disturbs one only ever slows
/// it down, so the block least disturbed is the best estimate of what the
/// service costs: the lowest block median of any client, and the sum of
/// each client's highest block rate.
fn best_blocks(runs: &[ClientRun]) -> (f64, f64) {
    let p50_ms = runs
        .iter()
        .flat_map(|c| &c.blocks)
        .map(|b| b.0)
        .fold(f64::INFINITY, f64::min);
    let rps = runs
        .iter()
        .map(|c| c.blocks.iter().map(|b| b.1).fold(0.0, f64::max))
        .sum();
    (p50_ms, rps)
}

/// Runs one client per stream; each sends its next request only when the
/// previous reply has arrived, and stops at the first block boundary at or
/// after `window`, so that every client's work is whole blocks.
fn closed_loop(
    svc: &Service,
    streams: &mut [Stream],
    window: Duration,
    log: Option<&mut Tracer>,
) -> Vec<ClientRun> {
    let start = Instant::now();
    let fork = log.as_deref().map(|l| l.fork(0));
    let per_client: Vec<(ClientRun, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(client, stream)| {
                let fork = &fork;
                scope.spawn(move || {
                    let mut spans = fork.as_ref().map(|f| f.fork(1 << 12));
                    let mut records: Vec<Record> = Vec::new();
                    let mut blocks = Vec::new();
                    let (mut block_start, mut block_first) = (Instant::now(), 0);
                    loop {
                        if !records.is_empty() && stream.at_block_boundary() {
                            let latencies: Vec<f64> = records[block_first..]
                                .iter()
                                .map(|r| r.latency_ms)
                                .collect();
                            let rate = latencies.len() as f64 / secs(block_start.elapsed());
                            blocks.push((quantile(&latencies, 0.5), rate));
                            (block_start, block_first) = (Instant::now(), records.len());
                            if start.elapsed() >= window {
                                break (ClientRun { records, blocks }, spans);
                            }
                        }
                        let (class, shape, req) = stream.next();
                        let sent = Instant::now();
                        let reply = svc.submit(req).ok().map(|handle| handle.wait());
                        let got = Instant::now();
                        if let Some(spans) = spans.as_mut() {
                            spans.set_solve((client * 1_000_000 + records.len()) as u32);
                            spans.record(class.span_name(), sent, got);
                        }
                        records.push(Record {
                            class,
                            shape,
                            latency_ms: secs(got - sent) * 1e3,
                            reply,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut log = log;
    per_client
        .into_iter()
        .map(|(run, spans)| {
            if let (Some(log), Some(spans)) = (log.as_deref_mut(), spans) {
                log.absorb(spans);
            }
            run
        })
        .collect()
}

struct OpenPhase {
    records: Vec<Record>,
    rejected: u64,
    gen_lag_ms: Vec<f64>,
}

/// Sends on the seeded schedule whatever the service is doing. Latency is
/// timed from when a request was *due*: the generator's lag plus the queue
/// and execution times the reply reports.
fn open_loop(svc: &Service, seed: u64, window: Duration) -> OpenPhase {
    let mut stream = Stream::new(seed, OPEN_STREAM);
    let start = Instant::now();
    let mut phase = OpenPhase {
        records: Vec::new(),
        rejected: 0,
        gen_lag_ms: Vec::new(),
    };
    let mut pending = Vec::new();
    for due in open_schedule(seed, OPEN_RATE, window) {
        std::thread::sleep(due.saturating_sub(start.elapsed()));
        let lag_ms = secs(start.elapsed().saturating_sub(due)) * 1e3;
        phase.gen_lag_ms.push(lag_ms);
        let (class, shape, req) = stream.next();
        match svc.submit(req) {
            Ok(handle) => pending.push((class, shape, lag_ms, handle)),
            Err(_) => phase.rejected += 1,
        }
    }
    for (class, shape, lag_ms, handle) in pending {
        let reply = handle.wait();
        let latency_ms = lag_ms + reply.queue_ms + reply.wall_ms;
        phase.records.push(Record {
            class,
            shape,
            latency_ms,
            reply: Some(reply),
        });
    }
    phase
}

/// Counts the operations that failed: shed, non-finite, a full solve that
/// did not converge, or a reply that differs from an earlier reply to the
/// identical request.
fn count_failed(records: &[Record], out: &mut Outcome) -> u64 {
    let mut first_reply: BTreeMap<(Class, Shape), (u64, usize, usize)> = BTreeMap::new();
    let mut failed = 0;
    for r in records {
        let verdict = match &r.reply {
            None => Err("rejected by admission control".to_string()),
            Some(reply) if !reply.res.is_finite() => Err("non-finite residual".to_string()),
            Some(reply) if r.class.must_converge() && !reply.converged => {
                Err("did not converge".to_string())
            }
            Some(reply) => {
                let this = (reply.state_fnv, reply.steps, reply.linear_iters);
                let first = *first_reply.entry((r.class, r.shape)).or_insert(this);
                if this == first {
                    Ok(())
                } else {
                    Err(format!(
                        "reply {this:x?} differs from an identical request's {first:x?}"
                    ))
                }
            }
        };
        if let Err(why) = verdict {
            failed += 1;
            if failed <= 5 {
                out.note(format!("{:?} {:?} FAILED: {why}", r.class, r.shape));
            }
        }
    }
    failed
}

fn latencies(records: &[Record], class: Option<Class>) -> Vec<f64> {
    records
        .iter()
        .filter(|r| class.is_none_or(|c| r.class == c))
        .map(|r| r.latency_ms)
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let clients = team_size();
    let mut out = Outcome::default();
    let cfg = ServeConfig::host_default();
    out.note(format!(
        "C={clients} nproc={} teams={} team_threads={} app_cache_per_team={}",
        host::nproc(),
        cfg.teams,
        cfg.team_threads,
        cfg.app_cache_per_team
    ));

    // Set-up is starting the service and sending one untimed block per
    // client, after which every team has built and cached the hot set.
    let set_up = || {
        let t = Instant::now();
        let svc = Service::start(cfg.clone());
        let mut streams: Vec<Stream> = (0..clients as u64)
            .map(|c| Stream::new(args.seed, c))
            .collect();
        closed_loop(&svc, &mut streams, Duration::ZERO, None);
        (svc, streams, secs(t.elapsed()))
    };
    let (svc, mut streams, first_setup_s) = set_up();

    let mut log = args.trace.then(|| Tracer::with_capacity(1 << 14));
    // The traced run splits its time between the two loops.
    let window = if args.trace {
        args.measure / 2
    } else {
        args.measure
    };
    let before = svc.stats().cache;
    let runs = closed_loop(&svc, &mut streams, window, log.as_mut());
    let (best_p50_ms, best_rps) = best_blocks(&runs);
    let records: Vec<Record> = runs.into_iter().flat_map(|c| c.records).collect();
    let after = svc.stats().cache;
    let rss = host::peak_rss_mib();

    let all = latencies(&records, None);
    out.attempted = records.len() as u64;
    out.failed = count_failed(&records, &mut out);
    out.note(format!(
        "samples={} in blocks of 25; over all of them p50={:.2} ms p95={:.2} ms ({} samples beyond p95)",
        all.len(),
        quantile(&all, 0.5),
        quantile(&all, 0.95),
        all.len() / 20
    ));

    let Some(log) = log else {
        svc.shutdown();
        // Set up twice more, for the median the contract asks for; after
        // the measurement, so that peak memory is one service's.
        let mut setups = vec![first_setup_s];
        for _ in 1..SETUP_REPS {
            let (svc, _, setup_s) = set_up();
            svc.shutdown();
            setups.push(setup_s);
        }
        out.set("latency_p50_ms", best_p50_ms);
        out.set("throughput_rps", best_rps);
        out.set("peak_rss_mib", rss);
        out.set("setup_s", median(&setups));
        return out;
    };

    let open = open_loop(&svc, args.seed, args.measure - window);
    svc.shutdown();
    out.attempted += open.records.len() as u64 + open.rejected;
    out.failed += count_failed(&open.records, &mut out) + open.rejected;

    let replies = |f: &dyn Fn(&SolveReply) -> f64, rs: &[Record]| -> Vec<f64> {
        rs.iter().filter_map(|r| r.reply.as_ref()).map(f).collect()
    };
    let rate = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let p50_of = |class| quantile(&latencies(&records, Some(class)), 0.5);
    out.set("serve.tiny_ms_p50", p50_of(Class::TinyFull));
    out.set("serve.hot_ms_p50", p50_of(Class::ProbeHot));
    out.set("serve.cold_ms_p50", p50_of(Class::ProbeCold));
    out.set("serve.full_ms_p50", p50_of(Class::SmallFull));
    out.set("serve.latency_p95_ms", quantile(&all, 0.95));
    out.set("serve.latency_p99_ms", quantile(&all, 0.99));
    out.set(
        "serve.exec_ms_p50",
        quantile(&replies(&|r| r.wall_ms, &records), 0.5),
    );
    out.set(
        "serve.queue_ms_p95",
        quantile(&replies(&|r| r.queue_ms, &records), 0.95),
    );
    out.set(
        "serve.app_hit_rate",
        rate(
            after.app.hits - before.app.hits,
            after.app.misses - before.app.misses,
        ),
    );
    out.set(
        "serve.factor_hit_rate",
        rate(
            after.factor.hits - before.factor.hits,
            after.factor.misses - before.factor.misses,
        ),
    );
    out.set(
        "serve.evictions",
        (after.app.evictions - before.app.evictions) as f64,
    );
    let open_all = latencies(&open.records, None);
    out.set("serve.open.latency_p50_ms", quantile(&open_all, 0.5));
    out.set("serve.open.latency_p95_ms", quantile(&open_all, 0.95));
    out.set(
        "serve.open.queue_ms_p95",
        quantile(&replies(&|r| r.queue_ms, &open.records), 0.95),
    );
    out.set("serve.open.rejected", open.rejected as f64);
    out.set(
        "serve.open.gen_lag_ms_p95",
        quantile(&open.gen_lag_ms, 0.95),
    );
    out.set("bench.threads", clients as f64);
    // For a request the closure is between the client's clock and the
    // service's: the share of the measured latency that the queue and
    // execution times in the reply do not account for.
    let unexplained: Vec<f64> = records
        .iter()
        .filter_map(|r| {
            r.reply
                .as_ref()
                .map(|p| (r.latency_ms - p.queue_ms - p.wall_ms).abs() / r.latency_ms)
        })
        .collect();
    out.set("bench.span_closure_err", median(&unexplained));
    out.note(format!(
        "open loop: {} sent at {OPEN_RATE} req/s, {} rejected",
        open.gen_lag_ms.len(),
        open.rejected
    ));
    crate::write_trace(&log, args, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rendered(seed: u64, client: u64, n: usize) -> Vec<String> {
        let mut s = Stream::new(seed, client);
        (0..n).map(|_| s.next().2.render()).collect()
    }

    #[test]
    fn same_seed_same_requests_and_schedule_other_seed_other_mix() {
        assert_eq!(rendered(3, 0, 200), rendered(3, 0, 200));
        assert_ne!(rendered(3, 0, 200), rendered(4, 0, 200));
        assert_ne!(
            rendered(3, 0, 200),
            rendered(3, 1, 200),
            "clients draw from separate streams"
        );
        let window = Duration::from_secs(12);
        assert_eq!(
            open_schedule(3, OPEN_RATE, window),
            open_schedule(3, OPEN_RATE, window)
        );
        assert_ne!(
            open_schedule(3, OPEN_RATE, window),
            open_schedule(4, OPEN_RATE, window)
        );
    }

    #[test]
    fn mix_has_the_stated_shares_and_shapes() {
        let mut s = Stream::new(11, 0);
        let mut share: BTreeMap<Class, usize> = BTreeMap::new();
        let mut prep_keys: BTreeMap<Class, std::collections::BTreeSet<u64>> = BTreeMap::new();
        let block: usize = BLOCK_MIX.iter().map(|&(_, n)| n).sum();
        for i in 0..20_000 {
            assert_eq!(s.at_block_boundary(), i % block == 0);
            let (class, _, req) = s.next();
            *share.entry(class).or_default() += 1;
            prep_keys.entry(class).or_default().insert(req.prep_key(1));
        }
        for (class, want) in [
            (Class::TinyFull, 0.20),
            (Class::ProbeHot, 0.52),
            (Class::ProbeCold, 0.16),
            (Class::SmallFull, 0.12),
        ] {
            assert_eq!(
                share[&class] as f64 / 20_000.0,
                want,
                "{class:?}: whole blocks hold the exact shares"
            );
        }
        // Three hot keys (small-full shares the default probe shape) and
        // six cold ones, none of them hot.
        let hot: std::collections::BTreeSet<u64> =
            [Class::TinyFull, Class::ProbeHot, Class::SmallFull]
                .iter()
                .flat_map(|c| prep_keys[c].clone())
                .collect();
        assert_eq!(hot.len(), 3);
        assert_eq!(prep_keys[&Class::ProbeCold].len(), 6);
        assert!(prep_keys[&Class::ProbeCold].is_disjoint(&hot));
    }

    #[test]
    fn schedule_is_poisson_at_the_stated_rate() {
        let arrivals = open_schedule(5, OPEN_RATE, Duration::from_secs(200));
        let rate = arrivals.len() as f64 / 200.0;
        assert!((rate - OPEN_RATE).abs() < 0.6, "rate {rate}");
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
    }
}
