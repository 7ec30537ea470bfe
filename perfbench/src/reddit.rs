//! `reddit-scaleout`: Reddit at scale 0.01, synthesized in-process on
//! every set-up, run through GCN and GAT on one chip and then on four
//! chips split by the `edgecut` partitioner.

use gnnie_gnn::model::GnnModel;
use gnnie_graph::{Dataset, GraphDataset};

use crate::infer::{self, Job, ListRun};
use crate::metrics::Metric;
use crate::spans::Recorder;
use crate::{timed, Args, Outcome, PassTimes, Plan};

/// Reddit scale factor (2,329 vertices, about 1.14M edges).
const SCALE: f64 = 0.01;

/// Syntheses timed per run. One takes 10-15 s, so a run times one and
/// spends the rest of its time on inference repetitions; `setup_s` is
/// that one synthesis.
const SETUP_REPS: usize = 1;

/// The inference list.
const LIST: [Job; 4] = [
    Job::single(GnnModel::Gcn),
    Job::single(GnnModel::Gat),
    Job { model: GnnModel::Gcn, chips: 4 },
    Job { model: GnnModel::Gat, chips: 4 },
];

/// One pass: syntheses, each followed by the inference repetitions due.
fn pass(rec: &mut Recorder, plan: Plan, seed: u64) -> (PassTimes, GraphDataset, ListRun) {
    let mut times = PassTimes::default();
    let mut list = ListRun::default();
    let mut ds = None;
    for round in 0..plan.setup_reps {
        drop(ds.take());
        let (made, secs) = timed(|| {
            rec.span("setup", |rec| {
                rec.span("graph.generate", |_| {
                    GraphDataset::generate(Dataset::Reddit, SCALE, seed)
                })
            })
        });
        times.setup_s.push(secs);
        let ds = ds.insert(made);
        while plan.due(round, &times.infer_s) {
            list.repeat(rec, ds, &LIST, &mut times);
        }
    }
    (times, ds.expect("at least one set-up"), list)
}

/// Runs the workload: the measured pass (and the traced pass in a traced
/// run), then the checks.
pub fn run(args: &Args, rec: &mut Recorder) -> Result<Outcome, String> {
    let plan = Plan::new(args, SETUP_REPS);
    let (measured, ds, list) = pass(&mut Recorder::off(), plan, args.seed);
    let traced = args.trace.then(|| pass(rec, plan, args.seed));

    let summary = infer::summarize_list(
        "reddit",
        &ds,
        &LIST,
        &list,
        measured.infer_s.len(),
        traced.as_ref().map(|t| &t.2),
    );
    let shortfall = ds.spec.edges as f64 - ds.graph.num_edges() as f64;
    let mut layers = vec![Metric::host("graph.edge_shortfall", shortfall, "edges")];
    layers.extend(summary.layers);
    Ok(Outcome {
        attempted: summary.attempted,
        failed: summary.failed,
        sim: infer::list_sim_metrics(list.totals()),
        layers,
        peak_rss_mb: measured.peak_rss_mb()?,
        failures: summary.failures,
        measured,
        traced: traced.map(|t| t.0),
    })
}
