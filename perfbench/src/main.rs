//! The GNNIE repository benchmark. See `README.md` for the metrics, the
//! workloads and how to read a traced run.
//!
//! ```text
//! gnnie-perfbench --workload <ppi-snapshot|reddit-scaleout|pubmed-serve>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs the timed phases once untraced and once traced, writes the spans
//! to `perfbench/out/trace-<workload>-<seed>.json`, and prints the
//! per-layer metrics. The last line of standard output is always the
//! JSON result.

mod infer;
mod metrics;
mod ppi;
mod pubmed;
mod reddit;
mod spans;
mod stats;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::Metric;
use spans::{Recorder, Span};

/// Names of the top-level spans that wrap the timed phases: one span per
/// timed set-up and per timed repetition of the traced pass.
pub const TIMED_SPANS: [&str; 3] = ["setup", "infer", "serve"];

/// Slack, as a share of the traced pass's host time, allowed between its
/// top-level spans and its timed phases. Each span sits inside the timer
/// of its phase, so the two differ by a few clock reads.
const COVERAGE_TOLERANCE: f64 = 0.001;

/// Largest share of the timed spans' time that no layer span may
/// explain. Every call the benchmark times has a layer span of its own,
/// so the rest is the benchmark's own glue.
const MAX_UNATTRIBUTED_SHARE: f64 = 0.01;

const USAGE: &str =
    "usage: gnnie-perfbench --workload <ppi-snapshot|reddit-scaleout|pubmed-serve> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Host seconds the repeated inference phase should cover.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: expected {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("a positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// How often one pass repeats its timed phases.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Set-ups timed (the median is reported).
    pub setup_reps: usize,
    /// Host seconds of inference to repeat for (at least one repetition).
    pub infer_budget_s: f64,
}

impl Plan {
    /// The measured plan: `setup_reps` set-ups and `--seconds` of
    /// inference; a traced run does everything once.
    pub fn new(args: &Args, setup_reps: usize) -> Plan {
        if args.trace {
            Plan { setup_reps: 1, infer_budget_s: 0.0 }
        } else {
            Plan { setup_reps, infer_budget_s: args.seconds }
        }
    }

    /// Whether another inference repetition is due in set-up round
    /// `round`, given the repetitions `done` so far. Repetitions follow
    /// the set-ups they belong to, spread over the rounds so that host
    /// noise at any one moment of the run moves few samples: after round
    /// `r` the inference time reaches `(r + 1) / setup_reps` of the
    /// budget. The first round always runs one.
    pub fn due(&self, round: usize, done: &[f64]) -> bool {
        let target = self.infer_budget_s * (round + 1) as f64 / self.setup_reps as f64;
        done.is_empty() || done.iter().sum::<f64>() < target
    }
}

/// Host seconds of each repetition of one pass's timed phases.
#[derive(Debug, Clone, Default)]
pub struct PassTimes {
    /// One entry per set-up.
    pub setup_s: Vec<f64>,
    /// One entry per repetition of the inference phase.
    pub infer_s: Vec<f64>,
    /// One [`reference_s`] per repetition, timed right after it: seconds
    /// per pass of the reference computation.
    pub reference_s: Vec<f64>,
    /// High-water RSS right after the first inference repetition, MB.
    rss_after_first_mb: Option<f64>,
    /// The reference computation's buffer, allocated once per pass.
    reference_buf: Vec<u32>,
}

impl PassTimes {
    /// All host time the pass measured.
    pub fn total(&self) -> f64 {
        self.setup_s.iter().sum::<f64>() + self.infer_s.iter().sum::<f64>()
    }

    /// Records one inference repetition and times the reference
    /// computation right after it. The reference runs outside every span
    /// and outside [`PassTimes::total`]. The first repetition also reads
    /// the process's high-water RSS, before the reference allocates: later
    /// set-ups and repetitions exist only to time the phases again, and
    /// must not enter the memory figure.
    pub fn push_infer(&mut self, secs: f64) {
        if self.infer_s.is_empty() {
            self.rss_after_first_mb = peak_rss_mb().ok();
        }
        self.infer_s.push(secs);
        let per_pass = reference_s(&mut self.reference_buf, REFERENCE_SHARE * secs);
        self.reference_s.push(per_pass);
    }

    /// The high-water RSS after the first set-up and inference, MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.rss_after_first_mb.ok_or_else(|| "cannot read VmHWM from /proc/self/status".into())
    }

    /// `infer_rel`: the median over the repetitions of each one's host
    /// time divided by the time of one reference pass right after it.
    pub fn infer_rel(&self) -> f64 {
        let ratios: Vec<f64> =
            self.infer_s.iter().zip(&self.reference_s).map(|(i, r)| i / r).collect();
        stats::median(&ratios)
    }
}

/// Elements one reference pass sorts.
const REFERENCE_LEN: usize = 1_000_000;

/// How long the reference runs after each repetition, as a share of the
/// repetition's time.
const REFERENCE_SHARE: f64 = 0.1;

/// Runs the reference computation for at least `min_s` seconds and
/// returns the seconds per pass. A pass fills `buf` with a fixed
/// pseudo-random sequence of 1M `u32` and sorts it, about 25 ms. It is
/// the benchmark's own code and does the same work in every run of
/// every commit, so its time tracks only how fast the host runs at that
/// moment. On a shared host that speed moves by 20-40% for seconds to
/// minutes at a time, and the simulator's host time moves with it; their
/// ratio moves much less. Running it for a fixed share of each
/// repetition gives a long serve as many passes as it needs to average
/// the host's bursts. The buffer is allocated before timing, so that
/// page faults, whose cost in a virtual machine varies on its own, stay
/// out.
pub fn reference_s(buf: &mut Vec<u32>, min_s: f64) -> f64 {
    buf.resize(REFERENCE_LEN, 0);
    let start = Instant::now();
    let mut passes = 0u32;
    loop {
        for (i, x) in buf.iter_mut().enumerate() {
            *x = (i as u32).wrapping_mul(0x9E37_79B1);
        }
        buf.sort_unstable();
        black_box(&buf);
        passes += 1;
        let secs = start.elapsed().as_secs_f64();
        if secs >= min_s {
            return secs / f64::from(passes);
        }
    }
}

/// What a workload hands back to `run`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The untraced pass (the only one in a measured run).
    pub measured: PassTimes,
    /// The traced pass, in a traced run.
    pub traced: Option<PassTimes>,
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// End-to-end simulated metrics.
    pub sim: Vec<Metric>,
    /// Per-layer metrics that do not come from spans.
    pub layers: Vec<Metric>,
    /// Process high-water RSS after the first set-up and inference, MB.
    pub peak_rss_mb: f64,
    /// Self-check violations.
    pub failures: Vec<String>,
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Where the benchmark keeps what it writes: snapshots, traces and
/// simulated-metric records. Inside the benchmark's own directory.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Compares this run's simulated end-to-end metrics with the record an
/// earlier run of the same binary, workload and seed left, or leaves the
/// record. Simulated results are a pure function of the seed, so any
/// difference is a determinism bug.
fn check_sim_record(args: &Args, sim: &[Metric]) -> Result<Option<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    std::hash::Hash::hash(&bytes, &mut hasher);
    let build = std::hash::Hasher::finish(&hasher);
    let dir = out_dir()?.join("sim");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}-{build:016x}.txt", args.workload, args.seed));
    let now: String = sim.iter().map(|m| format!("{} {:?}\n", m.name, m.value)).collect();
    match std::fs::read_to_string(&path) {
        Ok(before) if before == now => Ok(None),
        Ok(before) => Ok(Some(format!(
            "simulated metrics differ from an earlier run with seed {}:\nbefore:\n{before}now:\n{now}",
            args.seed
        ))),
        Err(_) => {
            std::fs::write(&path, now).map_err(|e| format!("write {}: {e}", path.display()))?;
            Ok(None)
        }
    }
}

/// Checks that the spans account for the traced pass's timed phases: one
/// top-level span per timed phase, covering the same host time, and at
/// most [`MAX_UNATTRIBUTED_SHARE`] of it outside every layer span. (The
/// spans cannot be checked against the untraced pass: the two passes
/// differ by the trace overhead, which is measured from the same times.)
pub fn check_span_coverage(rec: &Recorder, traced: &PassTimes) -> Vec<String> {
    let mut bad = Vec::new();
    let phases = traced.setup_s.len() + traced.infer_s.len();
    let spans = rec.top_level(&TIMED_SPANS).count();
    if spans != phases {
        bad.push(format!("{spans} top-level timed spans for {phases} timed phases"));
    }
    let covered = rec.top_level(&TIMED_SPANS).map(Span::duration).sum::<f64>();
    if (covered - traced.total()).abs() > COVERAGE_TOLERANCE * traced.total() {
        bad.push(format!(
            "top-level spans cover {covered:.6} s but the traced phases took {:.6} s",
            traced.total()
        ));
    }
    let unattributed = rec.top_level_self_time(&TIMED_SPANS) / covered;
    if unattributed.is_nan() || unattributed > MAX_UNATTRIBUTED_SHARE {
        bad.push(format!(
            "{:.2}% of the timed spans is in no layer span (at most {:.0}% allowed)",
            unattributed * 100.0,
            MAX_UNATTRIBUTED_SHARE * 100.0
        ));
    }
    bad
}

/// The per-layer host times the traced pass's spans give, and the trace
/// overhead.
fn span_metrics(rec: &Recorder, outcome: &Outcome) -> Result<Vec<Metric>, String> {
    let traced = outcome.traced.as_ref().ok_or("a traced run needs a traced pass")?;
    let untraced = outcome.measured.total();
    let covered = rec.top_level(&TIMED_SPANS).map(Span::duration).sum::<f64>();
    let mut out = vec![
        Metric::host(
            "obs.trace_overhead_share",
            (traced.total() - untraced) / untraced,
            "ratio",
        ),
        Metric::host(
            "obs.unattributed_share",
            rec.top_level_self_time(&TIMED_SPANS) / covered,
            "ratio",
        ),
    ];
    for (name, seconds) in rec.self_time_by_name() {
        let metric = match name {
            "graph.generate" => "graph.generate_s",
            "ingest.open" => "ingest.open_s",
            "ingest.first_pass" => "ingest.first_pass_s",
            "core.begin" => "core.begin_s",
            "core.weighting" => "core.weighting_s",
            "core.aggregation" => "core.aggregation_s",
            "core.finish" => "core.finish_s",
            "serve.profile" => "serve.profile_s",
            "serve.schedule" => "serve.schedule_s",
            // Phase wrappers and calls without a layer metric of their
            // own (the daemon spawn and warm-up make up `setup` on
            // pubmed-serve).
            _ => continue,
        };
        out.push(Metric::host(metric, seconds, "s"));
    }
    Ok(out)
}

/// Writes the traced run's spans and validates the file with the
/// repository's Chrome-trace validator.
fn write_trace(args: &Args, rec: &Recorder) -> Result<Option<String>, String> {
    let path = out_dir()?.join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, rec.chrome_json("gnnie-perfbench", &args.workload))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read back: {e}"))?;
    eprintln!("trace: {}", path.display());
    Ok(gnnie_bench::trace::validate_chrome_trace(&text)
        .err()
        .map(|e| format!("trace {} is invalid: {e}", path.display())))
}

fn run(args: &Args) -> Result<(), String> {
    let mut rec = if args.trace { Recorder::on() } else { Recorder::off() };
    let outcome = match args.workload.as_str() {
        "ppi-snapshot" => ppi::run(args, &mut rec)?,
        "reddit-scaleout" => reddit::run(args, &mut rec)?,
        "pubmed-serve" => pubmed::run(args, &mut rec)?,
        other => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let mut failures = outcome.failures.clone();
    failures.extend(check_sim_record(args, &outcome.sim)?);

    let metrics = if args.trace {
        let traced = outcome.traced.as_ref().ok_or("a traced run needs a traced pass")?;
        failures.extend(check_span_coverage(&rec, traced));
        let mut layer = outcome.layers.clone();
        layer.extend(span_metrics(&rec, &outcome)?);
        failures.extend(write_trace(args, &rec)?);
        metrics::per_layer(&layer)
    } else {
        let m = &outcome.measured;
        for (name, xs) in
            [("setup_s", &m.setup_s), ("infer_s", &m.infer_s), ("reference_s", &m.reference_s)]
        {
            let (lo, hi) =
                xs.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            eprintln!(
                "{name}: {} samples, min {lo:.6} median {:.6} max {hi:.6}",
                xs.len(),
                stats::median(xs)
            );
        }
        let mut e2e = vec![
            Metric::host("setup_s", stats::median(&m.setup_s), "s"),
            Metric::host("infer_rel", m.infer_rel(), "x"),
        ];
        e2e.extend(outcome.sim.iter().cloned());
        e2e.push(Metric::host("peak_rss_mb", outcome.peak_rss_mb, "MB"));
        metrics::end_to_end(&e2e)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            failures.push(format!("{} is not a finite number", m.name));
        }
    }
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    let metrics: Vec<Metric> = metrics.into_iter().filter(|m| m.value.is_finite()).collect();
    print!("{}", metrics::table(&metrics));
    println!(
        "{}",
        metrics::result_line(failures.is_empty(), outcome.attempted, outcome.failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some(ppi::PREPARE_FLAG) {
        ppi::prepare_main(&argv[1..])
    } else {
        match Args::parse(&argv) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args =
            Args::parse(&argv("--workload pubmed-serve --seed 7 --seconds 10 --trace 1"))
                .unwrap();
        assert_eq!(
            args,
            Args { workload: "pubmed-serve".into(), seed: 7, seconds: 10.0, trace: true }
        );
        for bad in [
            "--workload x --seed 7 --seconds 10",
            "--workload x --seed -1 --seconds 10 --trace 0",
            "--workload x --seed 1 --seconds 0 --trace 0",
            "--workload x --seed 1 --seconds 1 --trace 2",
            "--workload x --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn span_coverage_fails_on_a_phase_without_a_span_or_unattributed_time() {
        let work = || std::thread::sleep(std::time::Duration::from_millis(50));
        let mut rec = Recorder::on();
        let mut times = PassTimes::default();
        let ((), secs) =
            timed(|| rec.span("setup", |rec| rec.span("graph.generate", |_| work())));
        times.setup_s.push(secs);
        let ((), secs) =
            timed(|| rec.span("infer", |rec| rec.span("core.aggregation", |_| work())));
        times.infer_s.push(secs);
        assert_eq!(check_span_coverage(&rec, &times), Vec::<String>::new());

        // A timed repetition that recorded no span: wrong count and time.
        let mut unspanned = times.clone();
        unspanned.infer_s.push(timed(work).1);
        assert_eq!(check_span_coverage(&rec, &unspanned).len(), 2);

        // A timed call with no layer span of its own.
        let ((), secs) = timed(|| rec.span("infer", |_| work()));
        times.infer_s.push(secs);
        let bad = check_span_coverage(&rec, &times);
        assert!(bad.len() == 1 && bad[0].contains("no layer span"), "{bad:?}");
    }

    #[test]
    fn infer_rel_is_the_median_of_paired_ratios() {
        let times = PassTimes {
            infer_s: vec![2.0, 4.0, 9.0],
            reference_s: vec![1.0, 1.0, 3.0],
            ..PassTimes::default()
        };
        assert_eq!(times.infer_rel(), 3.0);
    }

    #[test]
    fn repetitions_spread_over_the_setups_and_a_traced_plan_runs_once() {
        let mut args = Args { workload: "w".into(), seed: 1, seconds: 10.0, trace: false };
        let plan = Plan::new(&args, 5);
        assert_eq!(plan.setup_reps, 5);
        assert!(plan.due(0, &[]) && plan.due(0, &[1.5]) && !plan.due(0, &[2.0]));
        assert!(plan.due(4, &[4.0, 5.0]) && !plan.due(4, &[4.0, 6.0]));
        args.trace = true;
        let traced = Plan::new(&args, 5);
        assert_eq!(traced.setup_reps, 1);
        assert!(traced.due(0, &[]) && !traced.due(0, &[0.001]));
    }
}
