//! One simulated inference driven phase by phase through the engine's
//! public API, the simulated totals the benchmark sums over its reports,
//! and the self-checks every report must pass.

use gnnie_core::engine::{sampled_union_graph, RunOptions, SAGE_ENGINE_SEED};
use gnnie_core::{AcceleratorConfig, Engine, InferenceReport, SimThreads};
use gnnie_gnn::model::{GnnModel, ModelConfig};
use gnnie_graph::{GraphDataset, PartitionerKind, Permutation};

use crate::metrics::Metric;
use crate::spans::Recorder;
use crate::{timed, PassTimes};

/// Simulation threads the engine runs with (the benchmark host has 2
/// cores; reports are bit-identical at any width).
pub const SIM_THREADS: usize = 2;

/// One entry of a workload's inference list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// The model run.
    pub model: GnnModel,
    /// Simulated chips (above 1 the graph is split with `edgecut`).
    pub chips: usize,
}

impl Job {
    /// A cold run of `model` on one chip.
    pub const fn single(model: GnnModel) -> Self {
        Job { model, chips: 1 }
    }
}

/// Runs `job` over `ds` inside a span named after the model, with one
/// span per engine call: `core.begin`, then `core.weighting` and
/// `core.aggregation` per layer, then `core.finish`.
/// (No workload runs DiffPool, whose schedule goes through
/// `run_diffpool` instead of the per-layer phases.)
pub fn run(rec: &mut Recorder, ds: &GraphDataset, job: Job) -> InferenceReport {
    let mut cfg = AcceleratorConfig::paper(ds.spec.dataset);
    cfg.chips = job.chips;
    if job.chips > 1 {
        cfg.partitioner = PartitionerKind::EdgeCut;
    }
    let engine = Engine::new(cfg);
    let model = ModelConfig::paper(job.model, &ds.spec);
    let opts = RunOptions {
        sim_threads: Some(SimThreads::Fixed(SIM_THREADS)),
        ..RunOptions::default()
    };
    rec.span(job.model.name(), |rec| {
        let mut session = rec.span("core.begin", |_| engine.begin_with(&model, ds, opts));
        while !session.is_complete() {
            rec.span("core.weighting", |_| session.run_weighting());
            rec.span("core.aggregation", |_| session.run_aggregation());
        }
        rec.span("core.finish", |_| session.finish())
    })
}

/// An inference list run repeatedly: the last repetition's reports, and
/// the first repetition's totals every later one must match.
#[derive(Debug, Default)]
pub struct ListRun {
    /// One report per job of the list, from the last repetition.
    pub reports: Vec<InferenceReport>,
    first: Option<SimTotals>,
    /// Repetitions that simulated differently from the first.
    pub failures: Vec<String>,
}

impl ListRun {
    /// Runs `list` over `ds` once inside an `infer` span and records its
    /// host seconds in `times`.
    pub fn repeat(
        &mut self,
        rec: &mut Recorder,
        ds: &GraphDataset,
        list: &[Job],
        times: &mut PassTimes,
    ) {
        let (reports, secs) = timed(|| {
            rec.span("infer", |rec| list.iter().map(|&job| run(rec, ds, job)).collect())
        });
        times.push_infer(secs);
        self.reports = reports;
        let mut totals = SimTotals::default();
        self.reports.iter().for_each(|r| totals.add(r));
        match &self.first {
            None => self.first = Some(totals),
            Some(first) if *first != totals => self
                .failures
                .push(format!("repetition {} simulated differently", times.infer_s.len())),
            Some(_) => {}
        }
    }

    /// The simulated totals of one repetition.
    ///
    /// # Panics
    ///
    /// Panics before the first repetition.
    pub fn totals(&self) -> &SimTotals {
        self.first.as_ref().expect("the list ran at least once")
    }
}

/// Simulated quantities summed over a set of reports. Equal totals for
/// two repetitions of the same list are the run's determinism check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimTotals {
    /// Reports summed.
    pub inferences: u64,
    /// Σ `total_cycles`.
    pub cycles: u64,
    /// Σ energy, picojoules.
    pub energy_pj: f64,
    /// Each report's simulated latency, seconds.
    pub latencies_s: Vec<f64>,
    /// Σ preprocessing cycles.
    pub preprocessing_cycles: u64,
    /// Σ Weighting-phase cycles.
    pub weighting_cycles: u64,
    /// Σ Aggregation-phase cycles.
    pub aggregation_cycles: u64,
    /// Σ Aggregation stall cycles.
    pub stall_cycles: u64,
    /// Σ Weighting MACs issued after zero-skipping.
    pub macs_issued: u64,
    /// Σ Weighting MACs a dense engine would issue.
    pub macs_dense: u64,
    /// Σ halo bytes over the inter-chip link.
    pub inter_chip_bytes: u64,
    /// Σ cache-walk iterations.
    pub iterations: u64,
    /// Σ cache-walk Rounds.
    pub rounds: u64,
    /// Σ evictions.
    pub evictions: u64,
    /// Σ re-fetches of evicted vertices.
    pub refetches: u64,
    /// Σ vertex fetches.
    pub fetches: u64,
    /// Σ evictions that spilled partial sums.
    pub partial_spills: u64,
    /// Σ streaming DRAM bytes of the cache walk.
    pub dram_seq_bytes: u64,
    /// Σ random-access DRAM bytes of the cache walk.
    pub dram_random_bytes: u64,
    /// Aggregation walks that did not complete.
    pub incomplete_walks: u64,
}

impl SimTotals {
    /// Adds one report.
    pub fn add(&mut self, r: &InferenceReport) {
        self.inferences += 1;
        self.cycles += r.total_cycles;
        self.energy_pj += r.energy.total_pj();
        self.latencies_s.push(r.latency_s);
        self.preprocessing_cycles += r.preprocessing_cycles;
        self.weighting_cycles += r.weighting_cycles();
        self.aggregation_cycles += r.aggregation_cycles();
        self.inter_chip_bytes += r.inter_chip_bytes();
        for layer in &r.layers {
            self.macs_issued += layer.weighting.macs_issued;
            self.macs_dense += layer.weighting.macs_dense;
            self.stall_cycles += layer.aggregation.stall_cycles;
            if let Some(cache) = &layer.aggregation.cache {
                self.iterations += cache.iterations;
                self.rounds += u64::from(cache.rounds);
                self.evictions += cache.evictions;
                self.refetches += cache.refetches;
                self.fetches += cache.fetched_vertices;
                self.partial_spills += cache.partial_spills;
                self.dram_seq_bytes +=
                    cache.counters.seq_read_bytes + cache.counters.seq_write_bytes;
                self.dram_random_bytes += cache.counters.random_bytes();
                self.incomplete_walks += u64::from(!cache.completed);
            }
        }
    }

    /// Σ energy in microjoules.
    pub fn energy_uj(&self) -> f64 {
        self.energy_pj * 1e-6
    }

    /// The per-layer simulated metrics of the `core` and `mem` layers.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let share = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        vec![
            Metric::sim(
                "core.preprocessing_cycles",
                self.preprocessing_cycles as f64,
                "cycles",
            ),
            Metric::sim("core.weighting_cycles", self.weighting_cycles as f64, "cycles"),
            Metric::sim("core.aggregation_cycles", self.aggregation_cycles as f64, "cycles"),
            Metric::sim("core.stall_cycles", self.stall_cycles as f64, "cycles"),
            Metric::sim(
                "core.zero_block_share",
                1.0 - share(self.macs_issued, self.macs_dense),
                "ratio",
            ),
            Metric::sim("core.inter_chip_bytes", self.inter_chip_bytes as f64, "bytes"),
            Metric::sim("mem.iterations", self.iterations as f64, "count"),
            Metric::sim("mem.rounds", self.rounds as f64, "count"),
            Metric::sim("mem.evictions", self.evictions as f64, "count"),
            Metric::sim("mem.refetch_share", share(self.refetches, self.fetches), "ratio"),
            Metric::sim("mem.partial_spills", self.partial_spills as f64, "count"),
            Metric::sim("mem.dram_seq_bytes", self.dram_seq_bytes as f64, "bytes"),
            Metric::sim("mem.dram_random_bytes", self.dram_random_bytes as f64, "bytes"),
        ]
    }
}

/// The edges each Aggregation walk of `job` over `ds` must process: the
/// whole graph, or for GraphSAGE each layer's sampled neighborhood graph
/// (rebuilt here the way the engine builds it, after timing).
pub fn expected_walk_edges(ds: &GraphDataset, job: Job) -> Vec<u64> {
    let model = ModelConfig::paper(job.model, &ds.spec);
    let layers = model.layers.len();
    if job.model != GnnModel::GraphSage {
        return vec![ds.graph.num_edges() as u64; layers];
    }
    let sorted = Permutation::descending_degree(&ds.graph).apply(&ds.graph);
    let k = model.sample_size.unwrap_or(25);
    (0..layers)
        .map(|layer| {
            let seed = SAGE_ENGINE_SEED ^ ((layer as u64 + 1) << 32);
            sampled_union_graph(&sorted, k, seed).num_edges() as u64
        })
        .collect()
}

/// Checks one report: its cycle total is the sum of its parts, and every
/// Aggregation walk completed and processed `expected[layer]` edges
/// (cut edges, walked by no single chip, count once across a
/// partitioned walk). Returns one message per violation.
pub fn check_report(label: &str, r: &InferenceReport, expected: &[u64]) -> Vec<String> {
    let mut bad = Vec::new();
    let parts = r.preprocessing_cycles
        + r.layers
            .iter()
            .map(|l| l.weighting.total_cycles + l.aggregation.total_cycles)
            .sum::<u64>()
        + r.coarsening_cycles
        + r.writeback_cycles;
    if parts != r.total_cycles {
        bad.push(format!("{label}: total_cycles {} != sum of parts {parts}", r.total_cycles));
    }
    if r.layers.len() != expected.len() {
        bad.push(format!("{label}: {} layers, expected {}", r.layers.len(), expected.len()));
    }
    for (layer, want) in r.layers.iter().zip(expected) {
        let agg = &layer.aggregation;
        let Some(cache) = &agg.cache else {
            bad.push(format!("{label} L{}: no cache walk", layer.layer));
            continue;
        };
        if !cache.completed {
            bad.push(format!("{label} L{}: cache walk did not complete", layer.layer));
        }
        let cut: u64 = agg.chip_lanes.iter().map(|lane| lane.cut_edges).sum::<u64>() / 2;
        if cache.edges_processed + cut != *want {
            bad.push(format!(
                "{label} L{}: walk processed {} + {cut} cut edges, graph has {want}",
                layer.layer, cache.edges_processed
            ));
        }
    }
    bad
}

/// Whether any Aggregation walk of `r` stopped short.
pub fn walk_incomplete(r: &InferenceReport) -> bool {
    r.layers.iter().any(|l| l.aggregation.cache.as_ref().is_some_and(|c| !c.completed))
}

/// The end-to-end simulated metrics of an inference list run back to
/// back with nothing queued: total cycles and energy, the median
/// latency, and inferences completed per simulated second.
pub fn list_sim_metrics(totals: &SimTotals) -> Vec<Metric> {
    let busy_s: f64 = totals.latencies_s.iter().sum();
    vec![
        Metric::sim("sim_cycles", totals.cycles as f64, "cycles"),
        Metric::sim("sim_energy_uj", totals.energy_uj(), "uJ"),
        Metric::sim("sim_p50_ms", crate::stats::median(&totals.latencies_s) * 1e3, "ms"),
        Metric::sim("sim_rps", totals.inferences as f64 / busy_s, "req/s"),
    ]
}

/// Checks and counts common to the inference-list workloads: every
/// report of the measured pass passes [`check_report`], the traced pass
/// simulated the same, and the per-layer `core`/`mem` metrics and the
/// failure count come from the measured reports.
pub struct ListSummary {
    /// Inferences attempted in the measured pass.
    pub attempted: u64,
    /// Of those, how many had an incomplete walk.
    pub failed: u64,
    /// Per-layer metrics (`core`, `mem`, `fail_share`).
    pub layers: Vec<Metric>,
    /// Check violations.
    pub failures: Vec<String>,
}

/// Builds the [`ListSummary`] of a measured (and optionally traced) run
/// of `list` over `ds`.
pub fn summarize_list(
    label: &str,
    ds: &GraphDataset,
    list: &[Job],
    measured: &ListRun,
    reps: usize,
    traced: Option<&ListRun>,
) -> ListSummary {
    let mut failures = measured.failures.clone();
    for (job, report) in list.iter().zip(&measured.reports) {
        let label = format!("{label} {:?} x{}", job.model, job.chips);
        failures.extend(check_report(&label, report, &expected_walk_edges(ds, *job)));
    }
    if let Some(t) = traced {
        failures.extend(t.failures.iter().cloned());
        if t.totals() != measured.totals() {
            failures.push("the traced pass simulated different results".into());
        }
    }
    let failed_per_rep = measured.reports.iter().filter(|r| walk_incomplete(r)).count() as u64;
    let mut layers = vec![Metric::sim(
        "fail_share",
        crate::stats::fail_share(failed_per_rep, list.len() as u64),
        "ratio",
    )];
    layers.extend(measured.totals().layer_metrics());
    ListSummary {
        attempted: reps as u64 * list.len() as u64,
        failed: reps as u64 * failed_per_rep,
        layers,
        failures,
    }
}
