//! `bench` — regenerates the paper's tables and figures (see
//! `gnnie_bench::experiments`).
//!
//! ```text
//! bench                                  # every experiment, in paper order
//! bench --only <id>                      # one experiment
//! bench --only <id> --json <path>        # ... and write its BENCH_* artifact
//! ```
//!
//! Results go to stdout, host timings to stderr. `GNNIE_SCALE` scales
//! every dataset. Exits 1 when an experiment reports an error (for
//! example a sharded run that diverged from the serial report), 2 on a
//! usage error such as an unknown id.

fn main() {
    let mut only: Option<String> = None;
    let mut json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--only" => &mut only,
            "--json" => &mut json,
            other => usage_exit(&format!("unexpected argument `{other}`")),
        };
        match args.next() {
            Some(value) => *slot = Some(value),
            None => usage_exit(&format!("{arg} needs a value")),
        }
    }

    let mut experiments = gnnie_bench::all_experiments();
    if let Some(id) = &only {
        experiments.retain(|(known, _)| known == id);
        if experiments.is_empty() {
            let known: Vec<&str> =
                gnnie_bench::all_experiments().into_iter().map(|(id, _)| id).collect();
            usage_exit(&format!("unknown experiment `{id}`; known ids: {}", known.join(", ")));
        }
    } else if json.is_some() {
        usage_exit("--json writes one experiment's artifact and needs --only <id>");
    }

    let ctx = gnnie_bench::Ctx::from_env();
    std::process::exit(gnnie_bench::run_bench(&ctx, &experiments, json.as_deref()));
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}\nusage: bench [--only <id> [--json <path>]]");
    std::process::exit(2);
}
