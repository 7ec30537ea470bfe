//! The GNNIE experiment harness.
//!
//! One module per table/figure of the paper's evaluation section
//! ([`experiments`]); each regenerates its artifact — workload, parameter
//! sweep, baselines — and prints the measured rows next to the paper's
//! reported values. The `run_all` binary executes everything;
//! `cargo bench` re-runs the suite through the `figures` bench target and
//! times the simulator's kernels through `kernels`.
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

pub use ctx::Ctx;
pub use table::Table;

/// An experiment's rendered result: an id like `"fig12a"`, a title, and
/// the printable lines (already column-aligned).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Paper artifact id (e.g. "Fig. 12a", "Table IV").
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Rendered lines.
    pub lines: Vec<String>,
}

impl ExperimentResult {
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

/// Every experiment in paper order, as `(id, runner)` pairs.
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
