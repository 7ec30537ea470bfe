//! Parallel-simulation sweep — `Engine::run` wall clock at 1/2/4/8
//! worker threads vs the serial path, equality-checked per row.
//!
//! The engine's hot loops (the per-vertex Weighting profile and the
//! cache walk's vertex scans) shard across a `SimPool`; this sweep runs
//! every Table II dataset (GCN, paper configuration, `GNNIE_SCALE`-sized)
//! once serially and once per thread count, records the best-of-repeats
//! wall clock, and asserts the **bit-identity contract**: the
//! `InferenceReport` at any thread count must render byte-identically to
//! the serial one. CI uploads the result as
//! `BENCH_parallel_speedup.json` and the `bench_check` gate compares its
//! headline metrics (the identity flag is deterministic and gated
//! tightly; the wall-clock speedup has a conservative baseline — on a
//! one-core host forced threads can only add overhead, and that is still
//! a correct, gated data point).

use std::time::Instant;

use gnnie_core::config::AcceleratorConfig;
use gnnie_core::engine::Engine;
use gnnie_core::SimThreads;
use gnnie_gnn::model::GnnModel;
use gnnie_graph::Dataset;

use crate::{Ctx, ExperimentResult, Metric, Table};

/// Worker-thread counts swept against the serial path.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Wall-clock repetitions per measurement (the minimum is reported).
const REPS: usize = 2;

/// One (dataset, threads) measurement.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Table II dataset.
    pub dataset: Dataset,
    /// Forced worker count (`SimThreads::Fixed`).
    pub threads: usize,
    /// `Engine::run` wall clock at `threads` workers, ms (best of
    /// repeats).
    pub run_ms: f64,
    /// The serial reference wall clock, ms (best of repeats).
    pub serial_ms: f64,
    /// `serial_ms / run_ms`.
    pub speedup: f64,
    /// Whether the report renders byte-identically to the serial one.
    pub identical: bool,
    /// Simulated total cycles (identical across rows of a dataset when
    /// `identical` holds).
    pub total_cycles: u64,
}

fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = Some(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (out.expect("reps >= 1"), best)
}

/// Runs the sweep over every Table II dataset at the context's scale.
pub fn sweep(ctx: &Ctx) -> Vec<SpeedupRow> {
    let mut rows = Vec::new();
    for dataset in Dataset::ALL {
        let ds = ctx.dataset(dataset);
        let mc = ctx.model_config(GnnModel::Gcn, dataset);
        let mut cfg = AcceleratorConfig::paper(dataset);
        cfg.sim_threads = SimThreads::Fixed(1);
        let serial_engine = Engine::new(cfg.clone());
        let (serial_report, serial_ms) = best_ms(REPS, || serial_engine.run(&mc, &ds));
        let serial_rendering = format!("{serial_report:?}");
        for threads in THREAD_SWEEP {
            cfg.sim_threads = SimThreads::Fixed(threads);
            let engine = Engine::new(cfg.clone());
            let (report, run_ms) = best_ms(REPS, || engine.run(&mc, &ds));
            rows.push(SpeedupRow {
                dataset,
                threads,
                run_ms,
                serial_ms,
                speedup: serial_ms / run_ms.max(1e-9),
                identical: format!("{report:?}") == serial_rendering,
                total_cycles: report.total_cycles,
            });
        }
    }
    rows
}

/// Regenerates the parallel-speedup table and its headline metrics.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    finish(&sweep(ctx))
}

/// The table and headline of a computed sweep, with an error when any
/// sharded run diverged from the serial report (so `bench` exits 1 even
/// without `--json`).
fn finish(rows: &[SpeedupRow]) -> ExperimentResult {
    let mut result = render(rows).with_headline(headline(rows));
    if rows.iter().any(|r| !r.identical) {
        result.errors.push("a sharded run diverged from the serial report (see table)".into());
    }
    result
}

/// The gated metrics: the equality flag is deterministic; the thread
/// speedup is wall clock (conservative baseline). The maximum skips the
/// `threads = 1` rows — they rerun the serial code path, so a
/// regression in the actually-parallel path must not be able to hide
/// behind their ~1x.
///
/// # Errors
///
/// A sweep without multi-thread rows, which has nothing to gate.
pub fn headline(rows: &[SpeedupRow]) -> Result<Vec<Metric>, String> {
    let max_speedup = rows
        .iter()
        .filter(|r| r.threads > 1)
        .map(|r| r.speedup)
        .reduce(f64::max)
        .ok_or("parallel: no multi-thread rows to gate")?;
    Ok(vec![
        Metric::flag("bit_identical", rows.iter().all(|r| r.identical)),
        Metric::wall_clock("max_speedup_vs_serial", max_speedup),
    ])
}

/// Renders an already-computed sweep as the printed table.
pub fn render(rows: &[SpeedupRow]) -> ExperimentResult {
    let mut t = Table::new(&[
        "dataset",
        "threads",
        "run ms",
        "serial ms",
        "speedup",
        "bit-identical",
        "total cycles",
    ]);
    for r in rows {
        t.row(vec![
            r.dataset.abbrev().to_string(),
            r.threads.to_string(),
            format!("{:.2}", r.run_ms),
            format!("{:.2}", r.serial_ms),
            format!("{:.2}x", r.speedup),
            if r.identical { "yes".into() } else { "NO".into() },
            r.total_cycles.to_string(),
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "the sharded loops (per-vertex Weighting profile, cache-walk vertex scans) \
         partition vertices into contiguous ranges and merge per-shard results in \
         shard order, so every report is byte-identical to the serial path; the \
         speedup column is host wall clock (expect <= 1x on a single-core box, \
         where forced workers only add scope/spawn overhead)"
            .to_string(),
    );
    ExperimentResult::new("Parallel", "Parallel simulation speedup (sim-threads sweep)", lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rows_are_bit_identical_and_complete() {
        let ctx = Ctx::with_scale(0.02);
        let rows = sweep(&ctx);
        assert_eq!(rows.len(), Dataset::ALL.len() * THREAD_SWEEP.len());
        for r in &rows {
            assert!(r.identical, "{:?} @ {} threads diverged", r.dataset, r.threads);
            assert!(r.run_ms > 0.0 && r.serial_ms > 0.0);
            assert!(r.speedup.is_finite());
            assert!(r.total_cycles > 0);
        }
        // Cycles are a simulated quantity: constant across thread counts.
        for chunk in rows.chunks(THREAD_SWEEP.len()) {
            assert!(chunk.iter().all(|r| r.total_cycles == chunk[0].total_cycles));
        }
    }

    fn row(threads: usize, speedup: f64, identical: bool) -> SpeedupRow {
        SpeedupRow {
            dataset: Dataset::Cora,
            threads,
            run_ms: 1.0,
            serial_ms: speedup,
            speedup,
            identical,
            total_cycles: 100,
        }
    }

    #[test]
    fn parallel_metrics_fold_flags_and_speedups() {
        // The threads=1 row reruns the serial path (~1x by construction)
        // and must NOT feed the wall-clock maximum.
        let rows = [row(1, 2.5, true), row(4, 1.8, false), row(8, 0.9, true)];
        let m = headline(&rows).unwrap();
        assert_eq!(
            m,
            vec![
                Metric::new("bit_identical", 0.0),
                Metric::wall_clock("max_speedup_vs_serial", 1.8)
            ]
        );
        // A sweep with only trivial rows cannot be gated.
        assert!(headline(&[row(1, 1.0, true)]).is_err());
    }

    #[test]
    fn a_diverged_row_is_an_error_but_still_reports_its_headline() {
        let clean = finish(&[row(1, 1.0, true), row(2, 1.4, true)]);
        assert!(clean.errors.is_empty(), "{:?}", clean.errors);
        assert_eq!(clean.headline[0], Metric::new("bit_identical", 1.0));
        let diverged = finish(&[row(1, 1.0, true), row(2, 1.4, false)]);
        assert_eq!(diverged.errors.len(), 1, "{:?}", diverged.errors);
        assert!(diverged.errors[0].contains("diverged"));
        assert_eq!(diverged.headline[0], Metric::new("bit_identical", 0.0));
        assert!(diverged.lines.iter().any(|l| l.contains("NO")), "the table shows the row");
    }
}
