//! `ppi-snapshot`: PPI at a quarter of Table II scale, frozen once to a
//! v3 `.gnniecsr` snapshot by an untimed child process, then opened
//! zero-copy through `DataSource::file(..).resolve()` and run through
//! GCN, GAT and GraphSAGE on one chip.

use std::hint::black_box;
use std::path::{Path, PathBuf};

use gnnie_gnn::model::GnnModel;
use gnnie_graph::{Dataset, GraphDataset};
use gnnie_ingest::{DataSource, DatasetRegistry, Provenance, Resolved};

use crate::infer::{self, Job, ListRun};
use crate::metrics::Metric;
use crate::spans::Recorder;
use crate::{out_dir, timed, Args, Outcome, PassTimes, Plan};

/// PPI scale factor (14,236 vertices, about 407k edges). At full scale
/// one inference takes about 4 s of host time, too few repetitions for a
/// steady median in one run; at a quarter it takes about 0.35 s and the
/// cache walk still evicts and re-fetches.
const SCALE: f64 = 0.25;

/// Flag that turns the benchmark binary into the snapshot writer.
pub const PREPARE_FLAG: &str = "--prepare-ppi";

/// Snapshot opens timed per run; `setup_s` is their median. An open and
/// pass takes about a millisecond, so many are needed for a steady
/// median.
const SETUP_REPS: usize = 101;

/// The inference list.
const LIST: [Job; 3] =
    [Job::single(GnnModel::Gcn), Job::single(GnnModel::Gat), Job::single(GnnModel::GraphSage)];

/// Child-process entry: `--prepare-ppi <path> <seed>` synthesizes PPI
/// and freezes it to `path`, printing `write_s <seconds>`. A separate
/// process keeps the synthesizer's memory out of the measured process's
/// high-water mark.
pub fn prepare_main(argv: &[String]) -> Result<(), String> {
    let [path, seed] = argv else {
        return Err(format!("usage: {PREPARE_FLAG} <path> <seed>"));
    };
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    let ds = GraphDataset::generate(Dataset::Ppi, SCALE, seed);
    let (written, write_s) = timed(|| gnnie_ingest::write_snapshot(Path::new(path), &ds, true));
    written.map_err(|e| e.to_string())?;
    println!("write_s {write_s:?}");
    Ok(())
}

/// Runs the snapshot writer as a child and returns its write time.
fn prepare(path: &Path, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg(PREPARE_FLAG)
        .arg(path)
        .arg(seed.to_string())
        .output()
        .map_err(|e| format!("spawn snapshot writer: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "snapshot writer failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("write_s "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("snapshot writer printed no write time: {stdout}"))
}

/// Reads every mapped section once (graph offsets and neighbors, feature
/// offsets, columns and values), so set-up pays for touching the pages
/// and not only for mapping them.
fn first_pass(ds: &GraphDataset) -> u64 {
    let words = |xs: &[usize]| xs.iter().fold(0u64, |a, &x| a.wrapping_add(x as u64));
    let ids = |xs: &[u32]| xs.iter().fold(0u64, |a, &x| a.wrapping_add(u64::from(x)));
    let f = &ds.features;
    words(ds.graph.offsets())
        .wrapping_add(ids(ds.graph.neighbors_flat()))
        .wrapping_add(words(f.offsets()))
        .wrapping_add(ids(f.col_indices()))
        .wrapping_add(
            f.values().iter().fold(0u64, |a, v| a.wrapping_add(u64::from(v.to_bits()))),
        )
}

/// One pass: snapshot opens, each followed by the inference repetitions
/// due.
struct Pass {
    times: PassTimes,
    loaded: Resolved,
    list: ListRun,
}

fn pass(rec: &mut Recorder, plan: Plan, path: &Path, seed: u64) -> Result<Pass, String> {
    let registry = DatasetRegistry::new(None);
    let source = DataSource::file(path, Dataset::Ppi, seed);
    let mut times = PassTimes::default();
    let mut list = ListRun::default();
    let mut loaded = None;
    for round in 0..plan.setup_reps {
        // Unmap the previous open before timing the next.
        drop(loaded.take());
        let (resolved, secs) = timed(|| {
            rec.span("setup", |rec| {
                let resolved = rec.span("ingest.open", |_| source.resolve(&registry))?;
                rec.span("ingest.first_pass", |_| black_box(first_pass(resolved.dataset())));
                Ok::<_, gnnie_ingest::IngestError>(resolved)
            })
        });
        times.setup_s.push(secs);
        let ds = loaded.insert(resolved.map_err(|e| e.to_string())?).dataset();
        while plan.due(round, &times.infer_s) {
            list.repeat(rec, ds, &LIST, &mut times);
        }
    }
    let loaded = loaded.expect("at least one set-up");
    Ok(Pass { times, loaded, list })
}

/// Whether two datasets hold bit-identical graphs, features and specs.
fn same_dataset(a: &GraphDataset, b: &GraphDataset) -> bool {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.spec == b.spec
        && a.graph.offsets() == b.graph.offsets()
        && a.graph.neighbors_flat() == b.graph.neighbors_flat()
        && a.features.shape() == b.features.shape()
        && a.features.offsets() == b.features.offsets()
        && a.features.col_indices() == b.features.col_indices()
        && bits(a.features.values()) == bits(b.features.values())
}

/// Runs the workload: prepare, the measured pass (and the traced pass in
/// a traced run), then the checks.
pub fn run(args: &Args, rec: &mut Recorder) -> Result<Outcome, String> {
    let path: PathBuf =
        out_dir()?.join(format!("ppi-{}-{}.gnniecsr", args.seed, std::process::id()));
    let result = measure(args, rec, &path);
    // The snapshot is scratch: remove it whatever happened.
    let _ = std::fs::remove_file(&path);
    result
}

fn measure(args: &Args, rec: &mut Recorder, path: &Path) -> Result<Outcome, String> {
    let write_s = rec.span("prepare", |_| prepare(path, args.seed))?;
    let mapped_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let plan = Plan::new(args, SETUP_REPS);
    let measured = pass(&mut Recorder::off(), plan, path, args.seed)?;
    let traced = if args.trace { Some(pass(rec, plan, path, args.seed)?) } else { None };

    // Checks, after timing.
    let ds = measured.loaded.dataset();
    let summary = infer::summarize_list(
        "ppi",
        ds,
        &LIST,
        &measured.list,
        measured.times.infer_s.len(),
        traced.as_ref().map(|t| &t.list),
    );
    let mut failures = summary.failures;
    match &measured.loaded.provenance {
        Provenance::Snapshot { version: 3, mmap: true, .. } => {}
        other => failures.push(format!("PPI loaded from `{other}`, not a v3 mmap snapshot")),
    }
    if !same_dataset(ds, &GraphDataset::generate(Dataset::Ppi, SCALE, args.seed)) {
        failures.push("the mmap-loaded PPI differs from the regenerated one".into());
    }

    let shortfall = ds.spec.edges as f64 - ds.graph.num_edges() as f64;
    let mut layers = vec![
        Metric::host("ingest.write_s", write_s, "s"),
        Metric::host("ingest.mapped_bytes", mapped_bytes as f64, "bytes"),
        Metric::host("graph.edge_shortfall", shortfall, "edges"),
    ];
    layers.extend(summary.layers);
    Ok(Outcome {
        attempted: summary.attempted,
        failed: summary.failed,
        sim: infer::list_sim_metrics(measured.list.totals()),
        layers,
        peak_rss_mb: measured.times.peak_rss_mb()?,
        failures,
        measured: measured.times,
        traced: traced.map(|t| t.times),
    })
}
