//! Named metrics with units and the clock they are measured on, and the
//! result line the benchmark prints last.

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time or memory of the simulator process on the host.
    Host,
    /// The modelled accelerator's cycles, energy or counts.
    Simulated,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The clock it was measured on.
    pub clock: Clock,
}

impl Metric {
    /// A host-clock metric.
    pub fn host(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit, clock: Clock::Host }
    }

    /// A simulated-clock metric.
    pub fn sim(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit, clock: Clock::Simulated }
    }
}

/// End-to-end metrics every measured run reports, in output order.
pub const END_TO_END: [(&str, &str, Clock); 7] = [
    ("setup_s", "s", Clock::Host),
    ("infer_rel", "x", Clock::Host),
    ("sim_cycles", "cycles", Clock::Simulated),
    ("sim_energy_uj", "uJ", Clock::Simulated),
    ("sim_p50_ms", "ms", Clock::Simulated),
    ("sim_rps", "req/s", Clock::Simulated),
    ("peak_rss_mb", "MB", Clock::Host),
];

/// Per-layer metrics every traced run reports, in output order. A layer
/// that does no work on a workload reports 0.
pub const PER_LAYER: [(&str, &str, Clock); 37] = [
    ("graph.generate_s", "s", Clock::Host),
    ("graph.edge_shortfall", "edges", Clock::Host),
    ("ingest.write_s", "s", Clock::Host),
    ("ingest.open_s", "s", Clock::Host),
    ("ingest.first_pass_s", "s", Clock::Host),
    ("ingest.mapped_bytes", "bytes", Clock::Host),
    ("core.begin_s", "s", Clock::Host),
    ("core.weighting_s", "s", Clock::Host),
    ("core.aggregation_s", "s", Clock::Host),
    ("core.finish_s", "s", Clock::Host),
    ("core.preprocessing_cycles", "cycles", Clock::Simulated),
    ("core.weighting_cycles", "cycles", Clock::Simulated),
    ("core.aggregation_cycles", "cycles", Clock::Simulated),
    ("core.stall_cycles", "cycles", Clock::Simulated),
    ("core.zero_block_share", "ratio", Clock::Simulated),
    ("core.inter_chip_bytes", "bytes", Clock::Simulated),
    ("mem.iterations", "count", Clock::Simulated),
    ("mem.rounds", "count", Clock::Simulated),
    ("mem.evictions", "count", Clock::Simulated),
    ("mem.refetch_share", "ratio", Clock::Simulated),
    ("mem.partial_spills", "count", Clock::Simulated),
    ("mem.dram_seq_bytes", "bytes", Clock::Simulated),
    ("mem.dram_random_bytes", "bytes", Clock::Simulated),
    ("serve.profile_s", "s", Clock::Host),
    ("serve.distinct_profiles", "count", Clock::Host),
    ("serve.profile_hit_share", "ratio", Clock::Host),
    ("serve.schedule_s", "s", Clock::Host),
    ("serve.batches", "count", Clock::Simulated),
    ("serve.mean_batch_size", "count", Clock::Simulated),
    ("serve.queue_wait_p99_ms", "ms", Clock::Simulated),
    ("serve.p99_ms", "ms", Clock::Simulated),
    ("serve.latency_samples", "count", Clock::Simulated),
    ("serve.reject_share", "ratio", Clock::Simulated),
    ("serve.deadline_miss_share", "ratio", Clock::Simulated),
    ("fail_share", "ratio", Clock::Simulated),
    ("obs.trace_overhead_share", "ratio", Clock::Host),
    ("obs.unattributed_share", "ratio", Clock::Host),
];

/// Keeps the declared per-layer metrics in declaration order, with 0 for
/// any `measured` lacks.
///
/// # Panics
///
/// Panics if `measured` holds a name that is not declared or a unit
/// that differs from the declaration (a bug in this benchmark).
pub fn per_layer(measured: &[Metric]) -> Vec<Metric> {
    for m in measured {
        let declared = PER_LAYER.iter().find(|(name, ..)| *name == m.name);
        assert!(
            declared.is_some_and(|(_, unit, clock)| *unit == m.unit && *clock == m.clock),
            "undeclared per-layer metric {} [{}]",
            m.name,
            m.unit
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit, clock)| {
            let value =
                measured.iter().filter(|m| m.name == name).fold(0.0, |sum, m| sum + m.value);
            Metric { name, value, unit, clock }
        })
        .collect()
}

/// `measured` in the declared end-to-end order.
///
/// # Panics
///
/// Panics unless `measured` holds each declared metric exactly once,
/// with its declared unit and clock (a bug in this benchmark).
pub fn end_to_end(measured: &[Metric]) -> Vec<Metric> {
    assert_eq!(measured.len(), END_TO_END.len(), "end-to-end metrics: {measured:?}");
    END_TO_END
        .iter()
        .map(|&(name, unit, clock)| {
            let m = measured.iter().find(|m| m.name == name).expect("declared metric measured");
            assert!(m.unit == unit && m.clock == clock, "{name} measured as {m:?}");
            m.clone()
        })
        .collect()
}

/// The human-readable table printed above the result line.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = format!("{:<28} {:>18} {:<8} clock\n", "metric", "value", "unit");
    for m in metrics {
        let clock = match m.clock {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
        };
        out.push_str(&format!("{:<28} {:>18.6} {:<8} {clock}\n", m.name, m.value, m.unit));
    }
    out
}

/// The one-line JSON result: `correct`, `attempted`, `failed` and every
/// metric with its unit, values printed with all their digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_fills_missing_layers_with_zero_and_keeps_order() {
        let out = per_layer(&[
            Metric::host("core.begin_s", 0.25, "s"),
            Metric::host("core.begin_s", 0.5, "s"),
        ]);
        assert_eq!(out.len(), PER_LAYER.len());
        assert_eq!(out[0].name, "graph.generate_s");
        let begin = out.iter().find(|m| m.name == "core.begin_s").unwrap();
        assert_eq!(begin.value, 0.75);
        assert!(out.iter().filter(|m| m.name != "core.begin_s").all(|m| m.value == 0.0));
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn per_layer_rejects_a_wrong_unit() {
        per_layer(&[Metric::host("core.begin_s", 1.0, "ms")]);
    }

    /// The metric lists here and in `BENCHMARK.json` name the same
    /// metrics, in the same order, with the same units.
    #[test]
    fn declarations_match_benchmark_json() {
        use gnnie_bench::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let field = |m: &Json, k: &str| match m.get(k) {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("{key}.{k}: {other:?}"),
            };
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let ours = |list: &[(&str, &str, Clock)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u, _)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric::host("setup_s", 0.1, "s"), Metric::sim("sim_cycles", 663832.0, "cycles")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}, \
             \"sim_cycles\": {\"value\": 663832.0, \"unit\": \"cycles\"}}}"
        );
        let doc = gnnie_bench::json::Json::parse(&line).unwrap();
        assert!(doc.get("metrics").is_some());
    }
}
