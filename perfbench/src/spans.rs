//! Host-time spans recorded by the benchmark around its calls into the
//! GNNIE crates: name, start, end and parent, kept in memory and written
//! out as Chrome trace-event JSON when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.aggregation`.
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    /// Seconds since the recorder was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The span recorder. A disabled recorder runs the wrapped calls and
/// records nothing, not even a clock read.
#[derive(Debug)]
pub struct Recorder {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder { origin: None, spans: Vec::new(), open: Vec::new() }
    }

    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Recorder { origin: Some(Instant::now()), ..Recorder::off() }
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let Some(origin) = self.origin else { return f(self) };
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, start, end: start, parent });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = origin.elapsed().as_secs_f64();
        out
    }

    /// Total self time per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let selfs = self_times(&self.spans);
        let mut by_name = BTreeMap::new();
        for (span, t) in self.spans.iter().zip(selfs) {
            *by_name.entry(span.name).or_insert(0.0) += t;
        }
        by_name
    }

    /// The top-level spans called one of `names`.
    pub fn top_level<'a>(&'a self, names: &'a [&str]) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(|s| s.parent.is_none() && names.contains(&s.name))
    }

    /// Total self time of the top-level spans called one of `names`: the
    /// part of their time no layer span accounts for.
    pub fn top_level_self_time(&self, names: &[&str]) -> f64 {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.parent.is_none() && names.contains(&s.name))
            .map(|(_, t)| t)
            .sum()
    }

    /// The spans as a Chrome trace-event document on one track, with
    /// integer microsecond timestamps (the format `trace_check` accepts).
    pub fn chrome_json(&self, process: &str, track: &str) -> String {
        let us = |s: f64| (s * 1e6).round() as u64;
        let mut events = vec![
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{process}\"}}}}"
            ),
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{track}\"}}}}"
            ),
        ];
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{},\"dur\":{},\"name\":\"{}\",\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                us(s.start),
                us(s.end).saturating_sub(us(s.start)),
                s.name
            ));
        }
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\
             \"otherData\":{{\"timeUnit\":\"host wall-clock microseconds\"}}}}\n",
            events.join(",\n")
        )
    }
}

/// Self time of each span: its duration minus the part of its interval
/// its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("infer", 0.0, 10.0, None),
            span("core.begin", 1.0, 3.0, Some(0)),
            span("core.aggregation", 3.0, 8.0, Some(0)),
            // A grandchild is its parent's business, not the root's.
            span("mem.walk", 4.0, 7.0, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![3.0, 2.0, 2.0, 3.0]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span("serve", 0.0, 10.0, None),
            span("a", 1.0, 5.0, Some(0)),
            span("b", 4.0, 6.0, Some(0)),
            span("c", 5.5, 12.0, Some(0)),
        ];
        // Children cover [1, 10] once clipped to the parent: 9 s.
        assert!((self_times(&spans)[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_sums_by_name() {
        let mut rec = Recorder::on();
        let out = rec.span("infer", |rec| {
            rec.span("core.weighting", |_| ());
            rec.span("core.weighting", |_| 7)
        });
        assert_eq!(out, 7);
        let spans = &rec.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end >= s.start));
        let by_name = rec.self_time_by_name();
        let total: f64 = by_name.values().sum();
        let infer: f64 = rec.top_level(&["infer"]).map(Span::duration).sum();
        assert!((total - infer).abs() < 1e-9);

        let mut off = Recorder::off();
        assert_eq!(off.span("infer", |_| 3), 3);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn chrome_export_passes_the_repository_validator() {
        let mut rec = Recorder::on();
        rec.span("setup", |rec| rec.span("graph.generate", |_| ()));
        let summary =
            gnnie_bench::trace::validate_chrome_trace(&rec.chrome_json("perfbench", "w"))
                .unwrap();
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.processes, 1);
    }
}
