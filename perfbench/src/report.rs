//! What one pass of a workload produced, and the metrics derived from it.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use pxml_core::query::SelectionStats;
use pxml_core::{ProbTree, UpdateDelta};
use pxml_server::HubStats;

use crate::speed::{self, Gauge};
use crate::stats::{self, Latency};
use crate::trace::{self, Span};

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 6] = [
    "op_ms",
    "op_tail_ms",
    "ops_per_s",
    "setup_s",
    "peak_rss_mb",
    "ok_ratio",
];

/// The spans a traced pass records around the layers' public functions.
const SPANS: [&str; 10] = [
    "update.stage",
    "document.commit",
    "hub.observe",
    "hub.serve",
    "query.select",
    "query.prepare",
    "document.new",
    "worlds.plan",
    "worlds.enumerate",
    "worlds.combine",
];

/// Exact counters reported as per-layer metrics.
const COUNTS: [&str; 18] = [
    "update.matches",
    "update.survivor_copies",
    "update.simplify_savings",
    "document.map_entries",
    "document.nodes",
    "document.distinct_nodes",
    "hub.view_maintains",
    "hub.windows_composed",
    "hub.fallbacks",
    "hub.answers_remapped",
    "hub.unions_rebuilt",
    "hub.unions_carried",
    "query.comparisons",
    "query.tie_keys_built",
    "worlds.states_enumerated",
    "worlds.joint_assignments",
    "worlds.classes",
    "worlds.worlds_out",
];

/// Root spans of the timed requests, one name per op class.
const REQUESTS: [&str; 3] = ["commit", "read", "fold"];

/// Exact counters of one pass. One seed must reproduce every value, in
/// every pass, traced or untraced.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    /// Adds to a counter; checksums wrap.
    pub fn add(&mut self, key: &'static str, value: u64) {
        let slot = self.0.entry(key).or_default();
        *slot = slot.wrapping_add(value);
    }

    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    pub fn lines(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(key, value)| format!("{key}={value}"))
            .collect()
    }

    /// One committed step: the engine's telemetry and the delta.
    pub fn add_commit(&mut self, delta: &UpdateDelta) {
        let report = &delta.report;
        self.add("update.matches", report.matches as u64);
        self.add("update.survivor_copies", report.survivor_copies as u64);
        self.add(
            "update.simplify_savings",
            report.simplification_savings() as u64,
        );
        let map_entries = delta.node_map.as_ref().map_or(0, HashMap::len);
        self.add("document.map_entries", map_entries as u64);
        self.add("delta.inserted", delta.nodes_inserted as u64);
        self.add("delta.removed", delta.nodes_removed as u64);
        self.add("delta.rewritten", delta.rewritten.len() as u64);
    }

    /// One ranked selection's work counters.
    pub fn add_selection(&mut self, stats: SelectionStats) {
        self.add("query.enumerated", stats.enumerated);
        self.add("query.comparisons", stats.comparisons);
        self.add("query.tie_keys_built", stats.tie_keys_built);
        self.add("query.selected", stats.selected as u64);
    }

    /// Maintenance-hub counters.
    pub fn add_hub(&mut self, hub: &HubStats) {
        self.add("hub.deltas_observed", hub.deltas_observed);
        self.add("hub.flags_fanned", hub.flags_fanned);
        self.add("hub.windows_composed", hub.windows_composed);
        self.add("hub.view_maintains", hub.view_maintains);
        self.add("hub.windows_applied", hub.windows_applied);
        self.add("hub.steps_patched", hub.steps_patched);
        self.add("hub.fallbacks", hub.fallbacks);
        self.add("hub.unions_rebuilt", hub.unions_rebuilt);
        self.add("hub.unions_carried", hub.unions_carried);
        self.add("hub.answers_remapped", hub.answers_remapped);
        self.add("hub.semiring_values_computed", hub.semiring_values_computed);
        self.add("hub.semiring_cache_hits", hub.semiring_cache_hits);
    }

    /// A final document's logical and distinct stored nodes.
    pub fn add_document(&mut self, tree: &ProbTree) {
        let memory = tree.memory_stats();
        self.add("document.nodes", memory.logical_nodes as u64);
        self.add("document.distinct_nodes", memory.distinct_nodes as u64);
    }
}

/// The timed latencies of one op class in one pass, each tagged with its op
/// kind and the calibration kernel's time around it.
pub struct Class {
    pub name: &'static str,
    /// Each op's time as measured.
    pub samples: Vec<Duration>,
    kernels: Vec<Duration>,
    kinds: Vec<&'static str>,
}

/// One op kind's share of its class, and its median.
pub struct KindShare {
    pub name: &'static str,
    pub share: f64,
    pub p50: Duration,
}

impl Class {
    pub fn new(name: &'static str) -> Self {
        Class {
            name,
            samples: Vec::new(),
            kernels: Vec::new(),
            kinds: Vec::new(),
        }
    }

    /// Adds one op: its kind, its time, and the kernel's time around it.
    pub fn push(&mut self, kind: &'static str, latency: Duration, kernel: Duration) {
        self.samples.push(latency);
        self.kernels.push(kernel);
        self.kinds.push(kind);
    }

    /// Each op's time at the reference speed.
    pub fn scaled(&self) -> Vec<Duration> {
        self.samples
            .iter()
            .zip(&self.kernels)
            .map(|(&sample, &kernel)| speed::at_reference(sample, kernel))
            .collect()
    }
}

/// One op class over every pass of a run.
pub struct Merged {
    pub name: &'static str,
    /// Each op's time at the reference speed: its median over the passes.
    pub latencies: Vec<Duration>,
    /// Each op's median over the passes as measured.
    pub measured: Vec<Duration>,
    kinds: Vec<&'static str>,
    /// Each pass's median op, as measured.
    pub pass_medians: Vec<Duration>,
}

/// The median of `values`' `op`-th elements.
fn median_of_op(values: &[Vec<Duration>], op: usize) -> Duration {
    let of_op: Vec<Duration> = values.iter().map(|pass| pass[op]).collect();
    stats::median(&of_op)
}

impl Merged {
    /// Each op at its median over `passes`, passes over the same ops.
    pub fn of(passes: &[&Class]) -> Merged {
        let first = passes[0];
        assert!(
            passes
                .iter()
                .all(|pass| pass.name == first.name && pass.kinds == first.kinds),
            "every pass runs the same ops"
        );
        let scaled: Vec<Vec<Duration>> = passes.iter().map(|pass| pass.scaled()).collect();
        let measured: Vec<Vec<Duration>> = passes.iter().map(|pass| pass.samples.clone()).collect();
        let ops = 0..first.samples.len();
        Merged {
            name: first.name,
            latencies: ops.clone().map(|op| median_of_op(&scaled, op)).collect(),
            measured: ops.map(|op| median_of_op(&measured, op)).collect(),
            kinds: first.kinds.clone(),
            pass_medians: measured.iter().map(|pass| stats::median(pass)).collect(),
        }
    }

    /// Each op kind's share and median at the reference speed, cheapest
    /// first: where the class's percentiles fall among the kinds.
    pub fn kinds(&self) -> Vec<KindShare> {
        let mut by_kind: BTreeMap<&'static str, Vec<Duration>> = BTreeMap::new();
        for (kind, &latency) in self.kinds.iter().zip(&self.latencies) {
            by_kind.entry(*kind).or_default().push(latency);
        }
        let mut shares: Vec<KindShare> = by_kind
            .into_iter()
            .map(|(name, latencies)| KindShare {
                name,
                share: latencies.len() as f64 / self.latencies.len() as f64,
                p50: stats::median(&latencies),
            })
            .collect();
        shares.sort_by_key(|kind| kind.p50);
        shares
    }
}

/// The passes of one run over the same timed ops.
pub struct Passes {
    /// Each pass's op classes, always in one order.
    passes: Vec<Vec<Class>>,
    /// The first pass's counters.
    counters: Option<Counters>,
    /// Every pass reported the first pass's counters.
    repeated: bool,
}

impl Default for Passes {
    fn default() -> Self {
        Passes {
            passes: Vec::new(),
            counters: None,
            repeated: true,
        }
    }
}

impl Passes {
    /// Adds one pass: its op classes, always in one order, and its counters.
    pub fn add(&mut self, classes: Vec<Class>, counters: Counters) {
        self.passes.push(classes);
        match &self.counters {
            None => self.counters = Some(counters),
            Some(first) => self.repeated &= *first == counters,
        }
    }

    /// Each op class, every op at its median over the passes.
    fn merged(&self) -> Vec<Merged> {
        let classes = self.passes.first().map_or(0, Vec::len);
        (0..classes)
            .map(|class| {
                let passes: Vec<&Class> = self.passes.iter().map(|pass| &pass[class]).collect();
                Merged::of(&passes)
            })
            .collect()
    }
}

/// Set-up times, gathered wherever a workload sets up. Every pass sets up
/// the same number of times at the same points, its slots, so set-ups are
/// measured like timed ops: each slot at its median over the passes.
pub struct Setups {
    /// Each set-up sample, at the reference speed.
    times: Vec<Duration>,
    slots: usize,
}

impl Setups {
    /// Set-up times for passes of `slots` set-ups each.
    pub fn new(slots: usize) -> Self {
        Setups {
            times: Vec::new(),
            slots,
        }
    }

    /// Each slot's median set-up over the passes, at the reference speed.
    fn medians(&self) -> Vec<Duration> {
        assert!(
            self.times.len().is_multiple_of(self.slots),
            "every pass sets up in every slot"
        );
        (0..self.slots)
            .map(|slot| {
                let times: Vec<Duration> = self
                    .times
                    .iter()
                    .skip(slot)
                    .step_by(self.slots)
                    .copied()
                    .collect();
                stats::median(&times)
            })
            .collect()
    }

    /// Runs one set-up between two kernel runs and times it.
    pub fn time<T>(&mut self, gauge: &mut Gauge, set_up: impl FnMut() -> T) -> T {
        self.time_batch(1, gauge, set_up)
    }

    /// Runs `batch` set-ups, each between two kernel runs, drops all but
    /// the last, which it returns, and records their mean time at the
    /// reference speed as one sample: a set-up of a few milliseconds, timed
    /// alone, lands wholly in or out of one of the machine's brief slow
    /// spells.
    pub fn time_batch<T>(
        &mut self,
        batch: u32,
        gauge: &mut Gauge,
        mut set_up: impl FnMut() -> T,
    ) -> T {
        let mut total = Duration::ZERO;
        let mut ready = None;
        gauge.next();
        for _ in 0..batch {
            drop(ready.take());
            let begin = Instant::now();
            ready = Some(set_up());
            let time = begin.elapsed();
            total += speed::at_reference(time, gauge.next());
        }
        self.times.push(total / batch);
        ready.expect("a batch holds at least one set-up")
    }
}

/// What one run of a workload produced.
pub struct Outcome {
    /// The timed op classes, every op at its median over the passes;
    /// `op_ms` and `op_tail_ms` describe the first class.
    pub classes: Vec<Merged>,
    /// Every run of the calibration kernel, as measured.
    pub kernels: Vec<Duration>,
    /// Passes over the timed ops.
    pub passes: usize,
    /// Timed ops, over every pass, that failed or disagreed with their
    /// oracle.
    pub failed: usize,
    /// The set-up, warm-up and end-of-pass checks passed, and every pass
    /// reported the same counters.
    pub checks_passed: bool,
    /// Each set-up slot's median over the passes at the reference speed;
    /// `setup_s` is their median.
    pub setups: Vec<Duration>,
    pub counters: Counters,
    /// The workload's sizes and op-kind shares, for the report.
    pub sizes: Vec<String>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn new(
        passes: Passes,
        failed: usize,
        checks_passed: bool,
        setups: Setups,
        gauge: Gauge,
        sizes: Vec<String>,
        spans: Vec<Span>,
    ) -> Self {
        Outcome {
            classes: passes.merged(),
            kernels: gauge.times,
            passes: passes.passes.len(),
            failed,
            checks_passed: checks_passed && passes.repeated,
            setups: setups.medians(),
            counters: passes.counters.unwrap_or_default(),
            sizes,
            spans,
        }
    }

    /// Timed ops in one pass.
    pub fn ops(&self) -> usize {
        self.classes.iter().map(|class| class.latencies.len()).sum()
    }

    /// Timed ops over every pass.
    pub fn attempted(&self) -> usize {
        self.passes * self.ops()
    }

    /// Summed time of every op, at the reference speed.
    pub fn busy(&self) -> Duration {
        self.classes.iter().flat_map(|class| &class.latencies).sum()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.busy().as_secs_f64()
    }

    pub fn correct(&self) -> bool {
        self.checks_passed && self.failed == 0
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(outcome: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    let latency = Latency::of(&outcome.classes[0].latencies)
        .expect("every workload times enough ops for a tail");
    let attempted = outcome.attempted() as u64;
    let succeeded = attempted.saturating_sub(outcome.failed as u64);
    let values = [
        (stats::ms(latency.p50), "ms"),
        (stats::ms(latency.tail), "ms"),
        (outcome.ops_per_s(), "1/s"),
        (stats::median(&outcome.setups).as_secs_f64(), "s"),
        (peak_rss_mb, "MB"),
        (stats::ratio(succeeded, attempted), "ratio"),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&name, (value, unit))| metric(name, value, unit))
        .collect()
}

/// The per-layer metrics of a traced run. `untraced_busy` is the time the
/// same workload's untraced run spent inside ops, against which the tracing
/// overhead is taken. Span times are scaled to the reference speed by the
/// run's median kernel time.
pub fn per_layer(traced: &Outcome, untraced_busy: Duration) -> Vec<Metric> {
    let spans = trace::summarize(&traced.spans);
    let scale =
        speed::at_reference(Duration::from_secs(1), stats::median(&traced.kernels)).as_secs_f64();
    let mut metrics = Vec::new();
    for name in SPANS {
        let span = spans.get(name).copied().unwrap_or_default();
        metrics.push(metric(format!("{name}.calls"), span.calls as f64, "count"));
        metrics.push(metric(format!("{name}.self_s"), span.self_s * scale, "s"));
        metrics.push(metric(format!("{name}.p50_ms"), span.p50_ms * scale, "ms"));
    }
    let counters = &traced.counters;
    metrics.extend(
        COUNTS
            .iter()
            .map(|&key| metric(key, counters.get(key) as f64, "count")),
    );
    let changed = counters.get("delta.inserted")
        + counters.get("delta.removed")
        + counters.get("delta.rewritten");
    let maintains = counters.get("hub.view_maintains");
    let patched = maintains.saturating_sub(counters.get("hub.fallbacks"));
    let hits = counters.get("hub.semiring_cache_hits");
    let lookups = hits + counters.get("hub.semiring_values_computed");
    let overhead = traced.busy().as_secs_f64() / untraced_busy.as_secs_f64() - 1.0;
    metrics.extend([
        metric(
            "document.delta_density",
            stats::ratio(changed, counters.get("document.map_entries")),
            "ratio",
        ),
        metric("hub.patch_ratio", stats::ratio(patched, maintains), "ratio"),
        metric(
            "query.cache_hit_ratio",
            stats::ratio(hits, lookups),
            "ratio",
        ),
        metric("trace.overhead", overhead, "ratio"),
        metric("trace.coverage", coverage(&traced.spans), "ratio"),
    ]);
    metrics
}

/// The share of the timed requests' time that their layer spans cover.
pub fn coverage(spans: &[Span]) -> f64 {
    let (mut total, mut uncovered) = (0, 0);
    for (span, self_time) in spans.iter().zip(trace::self_times(spans)) {
        if span.parent.is_none() && REQUESTS.contains(&span.name) {
            total += span.duration();
            uncovered += self_time;
        }
    }
    stats::ratio(total - uncovered, total)
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (index, metric) in metrics.iter().enumerate() {
        let separator = if index == 0 { "" } else { ", " };
        // JSON has no NaN or infinity.
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let _ = write!(
            line,
            "{separator}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::REFERENCE;

    fn outcome(counters: Counters, spans: Vec<Span>, busy_ms: u64) -> Outcome {
        let mut class = Class::new("commit");
        class.push("insert", Duration::from_millis(busy_ms), REFERENCE);
        Outcome {
            classes: vec![Merged::of(&[&class])],
            kernels: vec![REFERENCE],
            passes: 1,
            failed: 0,
            checks_passed: true,
            setups: vec![Duration::from_millis(1)],
            counters,
            sizes: Vec::new(),
            spans,
        }
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|metric| metric.name == name)
            .map(|metric| metric.value)
            .expect("metric is printed")
    }

    #[test]
    fn ratio_metrics_divide_useful_work_by_work_done() {
        let mut counters = Counters::default();
        for (key, count) in [
            ("delta.inserted", 2),
            ("delta.removed", 2),
            ("delta.rewritten", 1),
            ("document.map_entries", 50),
            ("hub.view_maintains", 8),
            ("hub.fallbacks", 6),
            ("hub.semiring_cache_hits", 30),
            ("hub.semiring_values_computed", 10),
        ] {
            counters.add(key, count);
        }
        let untraced_busy = Duration::from_millis(10);
        let metrics = per_layer(&outcome(counters, Vec::new(), 11), untraced_busy);
        assert_eq!(value(&metrics, "document.delta_density"), 0.1);
        assert_eq!(value(&metrics, "hub.patch_ratio"), 0.25);
        assert_eq!(value(&metrics, "query.cache_hit_ratio"), 0.75);
        assert!((value(&metrics, "trace.overhead") - 0.1).abs() < 1e-12);
        // A layer that did no work reads 0, not NaN.
        let idle = outcome(Counters::default(), Vec::new(), 10);
        let metrics = per_layer(&idle, untraced_busy);
        assert_eq!(value(&metrics, "hub.patch_ratio"), 0.0);
        assert_eq!(value(&metrics, "document.delta_density"), 0.0);
        assert_eq!(value(&metrics, "query.cache_hit_ratio"), 0.0);
    }

    #[test]
    fn span_times_are_scaled_by_the_runs_median_kernel() {
        let span = Span {
            name: "update.stage",
            start: 0,
            end: 10_000_000,
            parent: None,
            request: 1,
        };
        let mut traced = outcome(Counters::default(), vec![span], 10);
        // At half the reference speed, 10 ms as measured are 5 ms.
        traced.kernels = vec![REFERENCE, REFERENCE * 2, REFERENCE * 3];
        let metrics = per_layer(&traced, Duration::from_millis(10));
        assert!((value(&metrics, "update.stage.p50_ms") - 5.0).abs() < 1e-9);
        assert!((value(&metrics, "update.stage.self_s") - 0.005).abs() < 1e-12);
        assert_eq!(value(&metrics, "update.stage.calls"), 1.0);
    }

    /// One pass of 40 reads of `micros(i)` microseconds each and one 2 ms
    /// commit, at the reference speed.
    fn pass(micros: impl Fn(u64) -> u64) -> Vec<Class> {
        let mut reads = Class::new("read");
        for i in 1..=40 {
            reads.push("fresh", Duration::from_micros(micros(i)), REFERENCE);
        }
        let mut commits = Class::new("commit");
        commits.push("insert", Duration::from_millis(2), REFERENCE);
        vec![reads, commits]
    }

    #[test]
    fn end_to_end_reads_each_ops_median_pass_and_the_median_set_up() {
        let mut passes = Passes::default();
        let mut counters = Counters::default();
        counters.add("read.checksum", 7);
        // Over three passes, every odd read i takes i, 3i and 2i us: its
        // median is 2i. Every even read takes i us in each pass.
        passes.add(pass(|i| i), Counters::default());
        passes.add(
            pass(|i| if i % 2 == 1 { 3 * i } else { i }),
            Counters::default(),
        );
        passes.add(
            pass(|i| if i % 2 == 1 { 2 * i } else { i }),
            Counters::default(),
        );
        // Three set-up slots, in three passes: their medians are 4, 2 and
        // 3 ms.
        let ms = Duration::from_millis;
        let setups = Setups {
            times: [3, 1, 4, 5, 2, 2, 4, 9, 3].map(ms).to_vec(),
            slots: 3,
        };
        let gauge = Gauge::default();
        let outcome = Outcome::new(passes, 1, true, setups, gauge, Vec::new(), Vec::new());
        assert_eq!(outcome.setups, [4, 2, 3].map(ms));
        // Each pass's own median read: the 20th of 1..=40 us, of the second
        // pass's 3, 2, 9, 4, 15, ... us and of the third's 2, 2, 6, 4, ... us.
        let us = Duration::from_micros;
        assert_eq!(outcome.classes[0].pass_medians, [us(20), us(30), us(26)]);
        assert!(!outcome.correct(), "a failed op fails the run");
        let metrics = end_to_end(&outcome, 64.0);
        let close = |name, expected: f64| {
            let got = value(&metrics, name);
            assert!((got - expected).abs() <= 1e-9 * expected, "{name}: {got}");
        };
        // 40 reads of 2, 4, ..., 40 and 2, 6, ..., 78 us: p50 is the 20th,
        // 26 us; the tail is p75, the 30th, 40 us, with ten beyond.
        close("op_ms", 0.026);
        close("op_tail_ms", 0.040);
        // 41 ops per pass, in 1 220 us of reads and one 2 ms commit.
        close("ops_per_s", 41.0 / 0.003_220);
        close("setup_s", 0.003);
        close("peak_rss_mb", 64.0);
        // 123 ops attempted over three passes, one failed.
        close("ok_ratio", 122.0 / 123.0);
        // A pass that reports other counters fails the run.
        let mut passes = Passes::default();
        passes.add(pass(|i| i), Counters::default());
        passes.add(pass(|i| i), counters);
        let setups = Setups {
            times: vec![ms(1), ms(1)],
            slots: 1,
        };
        let gauge = Gauge::default();
        let outcome = Outcome::new(passes, 0, true, setups, gauge, Vec::new(), Vec::new());
        assert!(!outcome.correct());
    }

    #[test]
    fn each_op_is_its_median_over_the_passes_at_the_reference_speed() {
        let us = Duration::from_micros;
        let mut first = Class::new("read");
        first.push("fresh", us(10), REFERENCE);
        first.push("fresh", us(20), REFERENCE);
        // The second pass runs at half the reference speed, the third at a
        // third of it for the second read.
        let mut second = Class::new("read");
        second.push("fresh", us(15), REFERENCE * 2);
        second.push("fresh", us(16), REFERENCE * 2);
        let mut third = Class::new("read");
        third.push("fresh", us(12), REFERENCE);
        third.push("fresh", us(30), REFERENCE * 3);
        assert_eq!(second.scaled(), [us(7) + Duration::from_nanos(500), us(8)]);
        let merged = Merged::of(&[&first, &second, &third]);
        // At the reference speed the first read took 10, 7.5 and 12 us, the
        // second 20, 8 and 10 us.
        assert_eq!(merged.latencies, [us(10), us(10)]);
        assert_eq!(merged.measured, [us(12), us(20)]);
        assert_eq!(merged.pass_medians, [us(10), us(15), us(12)]);
    }

    #[test]
    #[should_panic(expected = "every pass runs the same ops")]
    fn passes_over_different_ops_are_refused() {
        let mut class = Class::new("read");
        class.push("fresh", Duration::from_micros(1), REFERENCE);
        let mut other = Class::new("read");
        other.push("stale", Duration::from_micros(1), REFERENCE);
        Merged::of(&[&class, &other]);
    }

    #[test]
    fn coverage_is_the_request_time_inside_layer_spans() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            request: 1,
        };
        let spans = [
            // Set-up spans are roots but not requests.
            span("document.new", 0, 50, None),
            span("commit", 100, 200, None),
            span("update.stage", 100, 180, Some(1)),
            span("document.commit", 180, 195, Some(1)),
        ];
        assert_eq!(coverage(&spans), 0.95);
        assert_eq!(coverage(&[]), 0.0);
    }

    #[test]
    fn the_json_line_has_the_four_keys_and_finite_values() {
        let metrics = [metric("op_ms", 1.5, "ms"), metric("bad", f64::NAN, "ms")];
        assert_eq!(
            json(true, 3, 0, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"bad\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_names() {
        let spec = include_str!("../../BENCHMARK.json");
        let mut listed: Vec<&str> = spec
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("a closing quote")])
            .collect();
        let idle = outcome(Counters::default(), Vec::new(), 1);
        let mut printed: Vec<String> = ["ingest", "serve", "worlds"]
            .iter()
            .chain(&END_TO_END)
            .map(|name| (*name).to_owned())
            .collect();
        let per_layer = per_layer(&idle, Duration::from_millis(1));
        printed.extend(per_layer.into_iter().map(|metric| metric.name));
        listed.sort_unstable();
        printed.sort_unstable();
        assert_eq!(listed, printed);
    }

    #[test]
    fn kinds_report_shares_cheapest_first() {
        let mut class = Class::new("read");
        for micros in [30, 10, 12, 11] {
            let kind = if micros > 20 { "stale" } else { "fresh" };
            class.push(kind, Duration::from_micros(micros), REFERENCE);
        }
        let kinds = Merged::of(&[&class]).kinds();
        let summary: Vec<_> = kinds.iter().map(|k| (k.name, k.share, k.p50)).collect();
        assert_eq!(
            summary,
            [
                ("fresh", 0.75, Duration::from_micros(11)),
                ("stale", 0.25, Duration::from_micros(30)),
            ]
        );
    }
}
