//! The compact text flamegraph: span durations aggregated per track, as
//! a terminal-friendly alternative to loading the Chrome export.

use crate::trace::TraceEvent;

/// Width of the proportional bar in [`flame_summary`] lines.
const BAR_WIDTH: usize = 24;

/// Renders the recorded spans as a text flamegraph summary.
///
/// Spans are grouped by `process/track` (in first-use order, like the
/// Chrome export's pid/tid tables) and then by span name within the
/// track, with a bar proportional to the track's busiest entry. Each
/// percentage is a share of its own *process's* span cycles: processes
/// describe the same run from different angles (the engine's phases,
/// the per-chip walk lanes that repeat its aggregation), so a share of
/// the sum over all of them would read low everywhere. Instants and
/// counters don't carry duration and are summarized as counts. Output
/// is a pure function of the event stream — byte-identical for equal
/// traces.
pub fn flame_summary(events: &[TraceEvent]) -> String {
    let mut out =
        format!("trace summary: {} events (span shares are per process)\n", events.len());
    // (process, track) groups in first-use order.
    let mut groups: Vec<(String, String)> = Vec::new();
    for e in events {
        let key = (e.process().to_string(), e.track().to_string());
        if !groups.contains(&key) {
            groups.push(key);
        }
    }
    for (process, track) in &groups {
        let process_span_cycles: u64 = events
            .iter()
            .filter(|e| e.process() == process)
            .map(|e| if let TraceEvent::Span { dur, .. } = e { *dur } else { 0 })
            .sum();
        // Aggregate by span name, keeping first-use order within the track.
        let mut rows: Vec<(String, u64, u64)> = Vec::new(); // (name, cycles, count)
        let mut markers = 0u64;
        for e in events {
            if e.process() != process || e.track() != track {
                continue;
            }
            match e {
                TraceEvent::Span { name, dur, .. } => {
                    match rows.iter_mut().find(|(n, _, _)| n == name) {
                        Some(row) => {
                            row.1 += dur;
                            row.2 += 1;
                        }
                        None => rows.push((name.clone(), *dur, 1)),
                    }
                }
                TraceEvent::Instant { .. } | TraceEvent::Counter { .. } => markers += 1,
            }
        }
        out.push_str(&format!("  {process}/{track}\n"));
        let peak = rows.iter().map(|(_, c, _)| *c).max().unwrap_or(0).max(1);
        for (name, cycles, count) in &rows {
            let share = if process_span_cycles == 0 {
                0.0
            } else {
                100.0 * *cycles as f64 / process_span_cycles as f64
            };
            let filled = ((*cycles as u128 * BAR_WIDTH as u128) / peak as u128) as usize;
            out.push_str(&format!(
                "    {:<28} {:>12} cycles {:>5.1}%  {}{}\n",
                clip(name, 28),
                cycles,
                share,
                "#".repeat(filled),
                if *count > 1 { format!("  (x{count})") } else { String::new() },
            ));
        }
        if markers > 0 {
            out.push_str(&format!("    {markers} marker/counter event(s)\n"));
        }
    }
    out
}

/// Clips a label to `width` characters with a trailing ellipsis, so one
/// long span name can't shear the column layout.
fn clip(s: &str, width: usize) -> String {
    if s.chars().count() <= width {
        s.to_string()
    } else {
        let kept: String = s.chars().take(width.saturating_sub(1)).collect();
        format!("{kept}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    #[test]
    fn summary_aggregates_repeated_names_and_stays_deterministic() {
        let t = Trace::recording();
        t.span("engine", "phases", "Weighting", 0, 30, &[]);
        t.span("engine", "phases", "Aggregation", 30, 70, &[]);
        t.span("engine", "phases", "Weighting", 100, 10, &[]);
        t.instant("serve", "batches", "enqueue", 3, &[]);
        // A lane in another process that repeats part of the engine's
        // time must not dilute the engine's shares.
        t.span("chips", "chip0", "walk", 30, 55, &[]);
        let events = t.events();
        let a = flame_summary(&events);
        assert_eq!(a, flame_summary(&events), "pure function of the stream");
        assert!(a.contains("engine/phases"), "{a}");
        assert!(a.contains("(x2)"), "repeated span names fold: {a}");
        assert!(a.starts_with("trace summary: 5 events"), "{a}");
        assert!(!a.contains("span cycles"), "no cross-process total: {a}");
        assert!(a.contains("serve/batches"), "{a}");
        assert!(a.contains("1 marker/counter event(s)"), "{a}");
        // Aggregation holds 70/110 of the engine's cycles; the chip lane
        // is all of its own process.
        assert!(a.contains("63.6%"), "{a}");
        assert!(a.contains("36.4%"), "{a}");
        assert!(a.contains("100.0%"), "{a}");
    }

    #[test]
    fn empty_trace_summarizes_without_panicking() {
        let s = flame_summary(&[]);
        assert!(s.contains("0 events"));
    }

    #[test]
    fn long_names_are_clipped_not_sheared() {
        let t = Trace::recording();
        t.span("p", "t", &"x".repeat(64), 0, 5, &[]);
        let s = flame_summary(&t.events());
        assert!(s.contains('…'), "{s}");
    }
}
