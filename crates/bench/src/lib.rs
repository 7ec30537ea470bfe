//! The GNNIE experiment harness.
//!
//! One module per table/figure of the paper's evaluation section
//! ([`experiments`]); each regenerates its artifact — workload, parameter
//! sweep, baselines — and prints the measured rows next to the paper's
//! reported values. The `bench` binary runs them: with no flags every
//! experiment in [`all_experiments`] order, with `--only <id>` one of
//! them, and with `--json <path>` it also writes that experiment's
//! `BENCH_*` artifact (see [`gate`]). `cargo bench` times the
//! simulator's kernels through the `kernels` Criterion target.
//!
//! An experiment that CI gates declares its **headline metrics**
//! ([`Metric`]) where its rows are computed; the artifact carries them
//! verbatim and `bench_check` compares them against
//! `bench/baselines/<id>.json`.
//!
//! # Scaling
//!
//! `GNNIE_SCALE` (a float in `(0, 1]`) scales every dataset; per-dataset
//! defaults keep the harness laptop-friendly: full size for Cora,
//! Citeseer, and Pubmed, 10% for PPI, 2% for Reddit. The paper's trends
//! are scale-stable (verified in the integration tests).

pub mod ctx;
pub mod experiments;
pub mod gate;
pub mod json;
pub mod table;
pub mod trace;

use std::time::Instant;

pub use ctx::Ctx;
pub use table::Table;

/// One headline metric an experiment is gated on. Every gate metric is
/// higher-is-better.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (stable across runs; the baseline key).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Whether the value is host wall clock rather than a deterministic
    /// simulated quantity. Wall-clock baselines are frozen by
    /// `--write-baselines` and demoted to informational on single-core
    /// runners.
    pub wall_clock: bool,
}

impl Metric {
    /// A deterministic metric (simulated cycles, bit-identity flags).
    pub fn new(name: &str, value: f64) -> Self {
        Metric { name: name.to_string(), value, wall_clock: false }
    }

    /// A metric measured in host wall clock.
    pub fn wall_clock(name: &str, value: f64) -> Self {
        Metric { name: name.to_string(), value, wall_clock: true }
    }

    /// A 0/1 metric for a pass/fail property.
    pub fn flag(name: &str, ok: bool) -> Self {
        Metric::new(name, f64::from(u8::from(ok)))
    }
}

/// An experiment's rendered result: an id like `"fig12a"`, a title, the
/// printable lines (already column-aligned), and — for gated
/// experiments — the headline metrics.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Paper artifact id (e.g. "Fig. 12a", "Table IV").
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Rendered lines.
    pub lines: Vec<String>,
    /// The metrics `bench_check` gates (empty for ungated experiments).
    pub headline: Vec<Metric>,
    /// Failures the run detected (a contract violation, or rows that
    /// cannot be reduced to a headline). `bench` exits 1 when any exist.
    pub errors: Vec<String>,
}

impl ExperimentResult {
    /// An ungated result with no errors.
    pub fn new(id: &'static str, title: &'static str, lines: Vec<String>) -> Self {
        ExperimentResult { id, title, lines, headline: Vec::new(), errors: Vec::new() }
    }

    /// Attaches the headline metrics, or records why they could not be
    /// computed.
    pub fn with_headline(mut self, headline: Result<Vec<Metric>, String>) -> Self {
        match headline {
            Ok(metrics) => self.headline = metrics,
            Err(e) => self.errors.push(e),
        }
        self
    }

    /// Prints the result to stdout with a header.
    pub fn print(&self) {
        println!("==== {} — {} ====", self.id, self.title);
        for line in &self.lines {
            println!("{line}");
        }
        println!();
    }
}

/// An experiment entry point: regenerates one artifact from the shared
/// context.
pub type ExperimentFn = fn(&Ctx) -> ExperimentResult;

/// Every experiment in paper order, as `(id, runner)` pairs. The id is
/// what `bench --only` takes and what names the gated artifact
/// (`BENCH_<id>.json`) and its baseline (`bench/baselines/<id>.json`).
pub fn all_experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("fig01", experiments::fig01_accuracy::run),
        ("table2", experiments::table2_datasets::run),
        ("table3", experiments::table3_configs::run),
        ("fig02", experiments::fig02_feature_sparsity::run),
        ("fig10", experiments::fig10_alpha_rounds::run),
        ("fig11", experiments::fig11_gamma_ablation::run),
        ("fig12", experiments::fig12_baseline_speedup::run),
        ("fig13", experiments::fig13_cross_platform::run),
        ("fig14", experiments::fig14_energy_breakdown::run),
        ("fig15", experiments::fig15_energy_efficiency::run),
        ("fig16", experiments::fig16_weighting_balance::run),
        ("fig17", experiments::fig17_beta_designs::run),
        ("fig18", experiments::fig18_optimizations::run),
        ("table4", experiments::table4_throughput::run),
        ("table4_scaling", experiments::table4_scaling::run),
        // Ablations beyond the paper's figures (design choices such as
        // attention reordering, exp-LUT sizing, 8-bit weights).
        ("ablation_attention", experiments::ablation_attention::run),
        ("ablation_buffers", experiments::ablation_buffers::run),
        ("ablation_cache_policy", experiments::ablation_cache_policy::run),
        ("ablation_comm", experiments::ablation_comm::run),
        ("ablation_lut", experiments::ablation_lut::run),
        ("ablation_multihead", experiments::ablation_multihead::run),
        ("ablation_psum", experiments::ablation_psum::run),
        ("ablation_psum_policy", experiments::ablation_psum_policy::run),
        ("ablation_quant", experiments::ablation_quant::run),
        ("dse", experiments::dse::run),
        ("ingest_throughput", experiments::ingest_throughput::run),
        ("online_serving", experiments::online_serving::run),
        ("parallel_speedup", experiments::parallel_speedup::run),
        ("scaleout", experiments::scaleout::run),
        ("serving_throughput", experiments::serving_throughput::run),
        ("tiered_cache", experiments::tiered_cache::run),
    ]
}

/// Runs `experiments` in order, printing each result to stdout and its
/// host time to stderr. With `json`, the (single) experiment's artifact
/// is written there. Returns the process exit status: 1 when any
/// experiment reported an error (its artifact is then not written) or
/// the artifact could not be written, else 0.
pub fn run_bench(
    ctx: &Ctx,
    experiments: &[(&'static str, ExperimentFn)],
    json: Option<&str>,
) -> i32 {
    let t0 = Instant::now();
    let mut failed = false;
    for &(id, runner) in experiments {
        let t = Instant::now();
        let result = runner(ctx);
        result.print();
        eprintln!("[{id} regenerated in {:.2} s]", t.elapsed().as_secs_f64());
        for e in &result.errors {
            eprintln!("error: {id}: {e}");
        }
        if !result.errors.is_empty() {
            failed = true;
            continue;
        }
        if let Some(path) = json {
            match std::fs::write(path, gate::render_artifact(id, &result)) {
                Ok(()) => eprintln!("[{id}: wrote {path}]"),
                Err(e) => {
                    eprintln!("error: cannot write {path}: {e}");
                    failed = true;
                }
            }
        }
    }
    if experiments.len() > 1 {
        eprintln!("[bench completed in {:.1} s]", t0.elapsed().as_secs_f64());
    }
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_are_unique() {
        let ids: Vec<&str> = all_experiments().into_iter().map(|(id, _)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate experiment id in {ids:?}");
    }

    /// Rows that cannot be reduced to a headline.
    fn ungatable(_: &Ctx) -> ExperimentResult {
        ExperimentResult::new("T", "ungatable", vec!["row".into()])
            .with_headline(Err("no multi-thread rows to gate".into()))
    }

    fn gated(_: &Ctx) -> ExperimentResult {
        ExperimentResult::new("T", "gated", vec!["row \"quoted\"".into()])
            .with_headline(Ok(vec![Metric::wall_clock("speedup", 1.5)]))
    }

    #[test]
    fn errors_exit_1_and_skip_the_artifact() {
        let ctx = Ctx::with_scale(0.01);
        let dir = std::env::temp_dir().join(format!("gnnie-run-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_x.json");
        let path_str = path.to_str().unwrap();

        assert_eq!(run_bench(&ctx, &[("x", ungatable)], Some(path_str)), 1);
        assert!(!path.exists(), "a failed run must not leave an artifact to gate");

        assert_eq!(run_bench(&ctx, &[("x", gated)], Some(path_str)), 0);
        let artifact = gate::parse_artifact(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(artifact.experiment, "x");
        assert_eq!(artifact.headline, vec![Metric::wall_clock("speedup", 1.5)]);

        // One failing experiment fails a multi-experiment run too.
        assert_eq!(run_bench(&ctx, &[("a", gated), ("b", ungatable)], None), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
