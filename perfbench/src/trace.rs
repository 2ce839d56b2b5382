//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, the span it ran inside and the
//! request it belongs to. Spans stay in memory while a pass runs and are
//! written out once, at exit.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats;

/// One closed span; times are nanoseconds since the process's first span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request; 0 outside requests.
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A span opened by [`Tracer::begin`]; inert when tracing was off.
#[must_use]
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// Records spans while enabled; every call is a no-op while disabled.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens the root span of a new request.
    pub fn request(&mut self, name: &'static str) -> Open {
        self.request += 1;
        self.begin(name)
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span. Spans close innermost first.
    pub fn end(&mut self, span: Open) {
        let Some(index) = span.0 else { return };
        let end = self.now();
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end = end;
    }

    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    fn now(&self) -> u64 {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        let origin = ORIGIN.get_or_init(Instant::now);
        u64::try_from(origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }
}

/// Appends another tracer's spans, keeping their parents and requests apart
/// from those already in `spans`.
pub fn append(spans: &mut Vec<Span>, more: Vec<Span>) {
    let offset = spans.len();
    let requests = spans.iter().map(|span| span.request).max().unwrap_or(0);
    spans.extend(more.into_iter().map(|span| Span {
        parent: span.parent.map(|parent| parent + offset),
        request: if span.request == 0 {
            0
        } else {
            span.request + requests
        },
        ..span
    }));
}

/// Each span's self time: its duration minus its children's. Spans close
/// innermost first, so children never overlap or outlast their parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut times: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            times[parent] -= span.duration();
        }
    }
    times
}

/// Totals of every span with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub calls: u64,
    /// Summed self time, in seconds.
    pub self_s: f64,
    /// Median duration, in milliseconds.
    pub p50_ms: f64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, Summary> {
    let mut by_name: BTreeMap<&'static str, (u64, Vec<u64>)> = BTreeMap::new();
    for (span, self_time) in spans.iter().zip(self_times(spans)) {
        let (self_total, durations) = by_name.entry(span.name).or_default();
        *self_total += self_time;
        durations.push(span.duration());
    }
    by_name
        .into_iter()
        .map(|(name, (self_total, mut durations))| {
            durations.sort_unstable();
            let summary = Summary {
                calls: durations.len() as u64,
                self_s: self_total as f64 * 1e-9,
                p50_ms: durations[stats::rank(durations.len(), 500)] as f64 * 1e-6,
            };
            (name, summary)
        })
        .collect()
}

/// Writes the spans as tab-separated lines, one span per line.
pub fn write(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "span\trequest\tname\tparent\tstart_ns\tend_ns")?;
    for (index, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "-".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{index}\t{}\t{}\t{parent}\t{}\t{}",
            span.request, span.name, span.start, span.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let spans = [
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            // A grandchild only reduces its own parent.
            span("a.inner", 12, 28, Some(1)),
        ];
        assert_eq!(self_times(&spans), [50, 4, 30, 16]);
    }

    #[test]
    fn appended_spans_keep_their_parents_and_requests_apart() {
        let mut spans = vec![span("commit", 0, 10, None), span("stage", 1, 9, Some(0))];
        let set_up = Span {
            request: 0,
            ..span("document.new", 15, 18, None)
        };
        append(
            &mut spans,
            vec![
                set_up,
                span("commit", 20, 30, None),
                span("stage", 21, 29, Some(1)),
            ],
        );
        let shape: Vec<_> = spans.iter().map(|s| (s.parent, s.request)).collect();
        assert_eq!(
            shape,
            [(None, 1), (Some(0), 1), (None, 0), (None, 2), (Some(3), 2)]
        );
        assert_eq!(self_times(&spans), [2, 8, 3, 2, 8]);
    }

    #[test]
    fn summaries_count_calls_sum_self_time_and_take_the_median() {
        let ms = 1_000_000;
        let spans = [
            span("read", 0, 10 * ms, None),
            span("hub.serve", ms, 9 * ms, Some(0)),
            span("query.select", 2 * ms, 3 * ms, Some(1)),
            span("read", 20 * ms, 22 * ms, None),
            span("hub.serve", 20 * ms, 22 * ms, Some(3)),
            span("query.select", 21 * ms, 22 * ms, Some(4)),
        ];
        let summary = summarize(&spans);
        let serve = summary["hub.serve"];
        assert_eq!(serve.calls, 2);
        // (8 - 1) + (2 - 1) ms of serving outside the selections.
        assert!((serve.self_s - 0.008).abs() < 1e-12);
        // Nearest-rank median of {2, 8} ms.
        assert!((serve.p50_ms - 2.0).abs() < 1e-12);
        assert!((summary["read"].self_s - 0.002).abs() < 1e-12);
        assert_eq!(summary["query.select"].calls, 2);
    }

    #[test]
    fn the_tracer_nests_spans_per_request_and_is_inert_when_off() {
        let mut tracer = Tracer::default();
        let off = tracer.request("commit");
        tracer.end(off);
        assert!(tracer.spans.is_empty());
        tracer.set_enabled(true);
        for _ in 0..2 {
            let request = tracer.request("commit");
            let stage = tracer.begin("update.stage");
            tracer.end(stage);
            let commit = tracer.begin("document.commit");
            tracer.end(commit);
            tracer.end(request);
        }
        let spans = tracer.take();
        let shape: Vec<_> = spans
            .iter()
            .map(|s| (s.name, s.parent, s.request))
            .collect();
        assert_eq!(
            shape,
            [
                ("commit", None, 2),
                ("update.stage", Some(0), 2),
                ("document.commit", Some(0), 2),
                ("commit", None, 3),
                ("update.stage", Some(3), 3),
                ("document.commit", Some(3), 3),
            ]
        );
        assert!(spans.iter().all(|s| s.start <= s.end));
    }
}
