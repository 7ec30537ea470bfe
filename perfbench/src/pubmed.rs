//! `pubmed-serve`: online serving through a cold `Daemon`. An open-loop
//! Poisson trace of GCN, GAT, GraphSAGE and GINConv requests on Pubmed
//! at full scale, over 2 synthesis seeds (8 distinct profiles), under
//! the Standard SLA at 0.2x the mix's resident service rate.

use std::collections::{BTreeSet, HashMap};

use gnnie_bench::experiments::online_serving::P99_BOUND_FACTOR;
use gnnie_core::SimThreads;
use gnnie_gnn::model::GnnModel;
use gnnie_graph::{Dataset, GraphDataset};
use gnnie_serve::{
    percentile_nearest_rank, report_profile, schedule_online, ArrivalProcess, BatchProfile,
    Daemon, DaemonConfig, InferenceRequest, LoadGen, OnlineConfig, OnlineReport, OnlineRequest,
    RequestCost, SimClock, SlaClass, SlaMix,
};

use crate::infer::{self, Job, SimTotals};
use crate::metrics::Metric;
use crate::spans::Recorder;
use crate::stats::{self, median};
use crate::{timed, Args, Outcome, PassTimes, Plan};

/// Requests in the trace: enough that p99 has 20 samples beyond it.
const REQUESTS: usize = 2000;

/// Models in the mix, assigned round-robin.
const MODELS: [GnnModel; 4] =
    [GnnModel::Gcn, GnnModel::Gat, GnnModel::GraphSage, GnnModel::GinConv];

/// Distinct synthesis seeds; with 4 models, 8 distinct profiles. A cold
/// serve then takes about 3 s of host time, so a run times about ten.
const SYNTH_SEEDS: u64 = 2;

/// Arrival rate as a multiple of the mix's resident service rate.
const BASE_FACTOR: f64 = 0.2;

/// Daemon start-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 201;

/// Scale of the warm-up request's Cora graph.
const WARMUP_SCALE: f64 = 0.1;

/// Rate multiples the sustained-rate search brackets, and its relative
/// resolution.
const SEARCH: (f64, f64, f64) = (0.05, 4.0, 0.005);

/// Arrival traces the sustained rate is searched on; `sim_rps` is the
/// median. One trace's first rejection is a rare event that moves the
/// answer by ±15% from trace to trace, and with 8 profiles a median of
/// 16 still moved by 9% from seed to seed.
const SWEEP_TRACES: u64 = 64;

/// One request worker with one simulation thread. With two, which jobs
/// of a serve overlap varies from run to run, and the process's peak
/// memory with it (by up to 12%).
const DAEMON: DaemonConfig =
    DaemonConfig { workers: 1, sim_threads: SimThreads::Fixed(1), chips: 1 };

/// The scheduler settings of the `online_serving` experiment.
const ONLINE: OnlineConfig = OnlineConfig { max_batch: 8, admission_control: true };

/// A splitmix64 stream: the `stream`-th seed derived from `seed`.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The request queue: models round-robin, synthesis seeds cycling every
/// four requests, so every profile appears about equally often.
fn queue(seed: u64) -> Vec<InferenceRequest> {
    (0..REQUESTS)
        .map(|i| {
            let synth = derive(seed, 1 + (i / MODELS.len()) as u64 % SYNTH_SEEDS);
            InferenceRequest::new(
                i as u64,
                MODELS[i % MODELS.len()],
                Dataset::Pubmed,
                1.0,
                synth,
            )
        })
        .collect()
}

/// The request a new daemon answers before it counts as set up: GCN on
/// Cora at a tenth of its scale, a profile the queue never uses, so that
/// every serve stays cold. A bare `Daemon::new` takes 5-20 us, and how
/// long depends on the virtual machine's state: its median over a run
/// halved from one set of runs to the next. The warm-up takes a few
/// milliseconds of steady work and takes the worker through its first
/// job, so set-up ends with a daemon that has answered.
fn warmup_request(seed: u64) -> InferenceRequest {
    InferenceRequest::new(
        u64::MAX,
        GnnModel::Gcn,
        Dataset::Cora,
        WARMUP_SCALE,
        derive(seed, 0xC0),
    )
}

/// The queue stamped with Poisson arrivals at `rate_rps` under the
/// Standard SLA. The same `seed` at another rate gives the same trace
/// stretched in time.
fn arrivals(
    queue: &[InferenceRequest],
    rate_rps: f64,
    seed: u64,
    clock: &SimClock,
) -> Vec<OnlineRequest> {
    LoadGen {
        process: ArrivalProcess::Poisson { rate_rps },
        sla: SlaMix::Uniform(SlaClass::Standard),
        seed,
    }
    .generate(queue, clock)
}

/// One cold serve: the daemon's cost oracle over the queue, the base
/// rate it implies, and the schedule at that rate.
struct Served {
    costs: HashMap<u64, RequestCost>,
    mean_service_s: f64,
    trace: Vec<OnlineRequest>,
    report: OnlineReport,
}

fn serve_cold(
    rec: &mut Recorder,
    daemon: &Daemon,
    queue: &[InferenceRequest],
    arrival_seed: u64,
    clock: &SimClock,
) -> Served {
    rec.span("serve", |rec| {
        let costs = rec.span("serve.profile", |_| daemon.profile_costs(queue));
        let mean_service_s =
            queue.iter().map(|r| clock.to_seconds(costs[&r.id].resident_cycles())).sum::<f64>()
                / queue.len() as f64;
        let trace = arrivals(queue, BASE_FACTOR / mean_service_s, arrival_seed, clock);
        let report =
            rec.span("serve.schedule", |_| schedule_online(&trace, &costs, &ONLINE, clock));
        Served { costs, mean_service_s, trace, report }
    })
}

/// One pass: daemon start-ups, the serves due each on the daemon just
/// started, so every serve is cold. Returns the last serve with its
/// (now warm) daemon.
fn pass(
    rec: &mut Recorder,
    plan: Plan,
    queue: &[InferenceRequest],
    arrival_seed: u64,
    clock: &SimClock,
) -> (PassTimes, Daemon, Served, Vec<String>) {
    let mut times = PassTimes::default();
    let mut failures = Vec::new();
    let mut first: Option<OnlineReport> = None;
    let mut last: Option<(Daemon, Served)> = None;
    let warmup = warmup_request(arrival_seed);
    for round in 0..plan.setup_reps {
        let (daemon, secs) = timed(|| {
            rec.span("setup", |rec| {
                let daemon = rec.span("serve.spawn", |_| Daemon::new(DAEMON));
                rec.span("serve.warmup", |_| daemon.profile_costs(&[warmup]));
                daemon
            })
        });
        times.setup_s.push(secs);
        if !plan.due(round, &times.infer_s) {
            daemon.shutdown();
            continue;
        }
        // Only the last serve's daemon is kept; drop the previous one first
        // so that one serving daemon is alive at a time.
        if let Some((old, _)) = last.take() {
            old.shutdown();
        }
        let (served, secs) = timed(|| serve_cold(rec, &daemon, queue, arrival_seed, clock));
        times.push_infer(secs);
        match &first {
            None => first = Some(served.report.clone()),
            Some(f) if *f != served.report => {
                failures.push(format!("serve {} scheduled differently", times.infer_s.len()))
            }
            Some(_) => {}
        }
        last = Some((daemon, served));
    }
    let (daemon, served) = last.expect("the first round serves");
    (times, daemon, served, failures)
}

/// Every offered request is served or rejected, exactly once.
fn check_accounting(label: &str, trace: &[OnlineRequest], r: &OnlineReport) -> Vec<String> {
    let mut bad = Vec::new();
    if r.outcomes.len() + r.rejected.len() != trace.len() {
        bad.push(format!(
            "{label}: {} served + {} rejected != {} offered",
            r.outcomes.len(),
            r.rejected.len(),
            trace.len()
        ));
    }
    let mut seen: Vec<u64> = r
        .outcomes
        .iter()
        .map(|o| o.request.id())
        .chain(r.rejected.iter().map(|x| x.request.id()))
        .collect();
    let mut offered: Vec<u64> = trace.iter().map(OnlineRequest::id).collect();
    seen.sort_unstable();
    offered.sort_unstable();
    if seen != offered {
        bad.push(format!("{label}: served and rejected ids are not the offered ids once each"));
    }
    bad
}

/// The daemon's cost oracle replayed through the engine's public calls,
/// one span per call: every distinct profile synthesized once and
/// simulated cold. (Each daemon worker synthesizes per job and also runs
/// the resident variant.) Gives the serve's per-layer host split per
/// job, the simulated totals and energy, and the cold costs the daemon
/// must agree with.
struct Oracle {
    totals: SimTotals,
    cold: HashMap<(GnnModel, u64), BatchProfile>,
    edge_shortfall: f64,
    failures: Vec<String>,
}

fn oracle(rec: &mut Recorder, queue: &[InferenceRequest]) -> Oracle {
    rec.span("oracle", |rec| {
        let mut out = Oracle {
            totals: SimTotals::default(),
            cold: HashMap::new(),
            edge_shortfall: 0.0,
            failures: Vec::new(),
        };
        let mut seeds = BTreeSet::new();
        for r in queue {
            if out.cold.contains_key(&(r.model, r.seed)) {
                continue;
            }
            let ds = rec
                .span("graph.generate", |_| GraphDataset::generate(r.dataset, r.scale, r.seed));
            if seeds.insert(r.seed) {
                out.edge_shortfall += ds.spec.edges as f64 - ds.graph.num_edges() as f64;
            }
            let job = Job::single(r.model);
            let report = infer::run(rec, &ds, job);
            out.failures.extend(infer::check_report(
                &format!("pubmed {:?} seed {}", r.model, r.seed),
                &report,
                &infer::expected_walk_edges(&ds, job),
            ));
            out.totals.add(&report);
            out.cold.insert((r.model, r.seed), report_profile(&report));
        }
        out
    })
}

/// Runs the workload: the measured pass (and the traced pass in a traced
/// run), then the rate sweep, the oracle replay and the checks.
pub fn run(args: &Args, rec: &mut Recorder) -> Result<Outcome, String> {
    let queue = queue(args.seed);
    let arrival_seed = derive(args.seed, 0);
    let clock = SimClock::paper(Dataset::Pubmed);
    let plan = Plan::new(args, SETUP_REPS);
    let (measured, daemon, served, mut failures) =
        pass(&mut Recorder::off(), plan, &queue, arrival_seed, &clock);
    let traced = args.trace.then(|| {
        let (times, daemon, traced_served, traced_failures) =
            pass(rec, plan, &queue, arrival_seed, &clock);
        daemon.shutdown();
        failures.extend(traced_failures);
        if traced_served.report != served.report {
            failures.push("the traced serve scheduled differently".into());
        }
        times
    });

    // After timing: the warm daemon's own serve path must reproduce the
    // cold serve, then the sweep replays the memoized costs.
    let base = &served.report;
    failures.extend(check_accounting("base rate", &served.trace, base));
    if daemon.serve_online(&served.trace, &ONLINE) != *base {
        failures.push("Daemon::serve_online disagrees with the cold serve".into());
    }
    let limit_s = P99_BOUND_FACTOR * served.mean_service_s;
    let service_rps = 1.0 / served.mean_service_s;
    let before = daemon.profile_cache_stats();
    let (lo, hi, tol) = SEARCH;
    let sustained: Vec<f64> = (0..SWEEP_TRACES)
        .map(|k| {
            let seed = derive(arrival_seed, k);
            let found = stats::sustained_rate(lo, hi, tol, |factor| {
                let trace = arrivals(&queue, factor * service_rps, seed, &clock);
                let report = daemon.serve_online(&trace, &ONLINE);
                failures.extend(check_accounting(&format!("{factor:.4}x"), &trace, &report));
                report.rejected.is_empty() && report.p99_latency_s() <= limit_s
            });
            found.unwrap_or(0.0) * service_rps
        })
        .collect();
    let after = daemon.profile_cache_stats();
    daemon.shutdown();
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    let hit_share = (after.hits - before.hits) as f64 / lookups.max(1) as f64;

    let replay = oracle(rec, &queue);
    failures.extend(replay.failures.iter().cloned());
    if let Some(r) =
        queue.iter().find(|r| served.costs[&r.id].cold != replay.cold[&(r.model, r.seed)])
    {
        failures
            .push(format!("the daemon's cost for request {} differs from the engine's", r.id));
    }

    let offered = queue.len() as u64;
    let rejected = base.rejected.len() as u64;
    let missed = base.outcomes.iter().filter(|o| !o.deadline_met).count() as u64;
    let latencies: Vec<f64> = base.outcomes.iter().map(|o| o.latency_s).collect();
    let waits: Vec<f64> = base
        .outcomes
        .iter()
        .map(|o| clock.to_seconds(o.dispatch.saturating_sub(o.request.arrival)))
        .collect();
    let tail = stats::tail_percentile(&latencies);
    if tail.map(|t| t.percentile) != Some(99.0) {
        failures
            .push(format!("{} served requests do not give p99 ten samples", latencies.len()));
    }
    let tail = tail.unwrap_or(stats::Tail { percentile: 0.0, value: 0.0, samples: 0 });
    let share = |n: u64| stats::fail_share(n, offered);

    let mut layers = vec![
        Metric::host("graph.edge_shortfall", replay.edge_shortfall, "edges"),
        // Less the set-up's warm-up profile.
        Metric::host("serve.distinct_profiles", (after.entries - 1) as f64, "count"),
        Metric::host("serve.profile_hit_share", hit_share, "ratio"),
        Metric::sim("serve.batches", base.batches.len() as f64, "count"),
        Metric::sim(
            "serve.mean_batch_size",
            base.outcomes.len() as f64 / base.batches.len().max(1) as f64,
            "count",
        ),
        Metric::sim(
            "serve.queue_wait_p99_ms",
            percentile_nearest_rank(&waits, 0.99) * 1e3,
            "ms",
        ),
        Metric::sim("serve.p99_ms", tail.value * 1e3, "ms"),
        Metric::sim("serve.latency_samples", tail.samples as f64, "count"),
        Metric::sim("serve.reject_share", share(rejected), "ratio"),
        Metric::sim("serve.deadline_miss_share", share(missed), "ratio"),
        Metric::sim("fail_share", share(rejected), "ratio"),
    ];
    layers.extend(replay.totals.layer_metrics());
    let reps = measured.infer_s.len() as u64;
    Ok(Outcome {
        attempted: reps * offered,
        failed: reps * rejected,
        sim: vec![
            Metric::sim("sim_cycles", replay.totals.cycles as f64, "cycles"),
            Metric::sim("sim_energy_uj", replay.totals.energy_uj(), "uJ"),
            Metric::sim("sim_p50_ms", median(&latencies) * 1e3, "ms"),
            Metric::sim("sim_rps", median(&sustained), "req/s"),
        ],
        layers,
        peak_rss_mb: measured.peak_rss_mb()?,
        failures,
        measured,
        traced,
    })
}
