//! The multi-tenant traffic driver: a deterministic seeded workload mix
//! over a scoped-thread worker pool.
//!
//! Each tenant owns one warehouse document (its extraction scenario from
//! [`pxml_workloads::warehouse`]) and four hub-maintained views. A lane
//! interleaves extractor commits with application reads; lanes are claimed
//! by workers through a work-stealing counter, so wall-clock scales with
//! the thread budget while the *logical* workload stays deterministic —
//! a document is only ever written by its own lane, every read lands at a
//! known epoch, and the per-tenant answer checksums (and hub counters)
//! are byte-identical run to run.
//!
//! Tunables come from `PXML_SERVER_THREADS` / `PXML_SERVER_TENANTS` via
//! [`TrafficConfig::from_env`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use pxml_core::config::env;
use pxml_workloads::warehouse::{
    scenario_script, services_with_endpoint_and_contact, skeleton, WarehouseConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::hub::HubStats;
use crate::warehouse::Warehouse;

/// The hub-maintained views each tenant registers, one per read kind.
const VIEW_NAMES: [&str; 4] = ["top", "above", "expected", "possible"];

/// Shape of one traffic run. All fields are logical workload parameters
/// except `threads`, which only affects wall-clock.
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// Number of tenants (= documents = independent write lanes).
    pub tenants: usize,
    /// Worker threads claiming tenant lanes (work stealing).
    pub threads: usize,
    /// Commit rounds per tenant (one probabilistic update each).
    pub rounds: usize,
    /// View reads per tenant after each commit.
    pub reads_per_round: usize,
    /// Services in each tenant's warehouse skeleton.
    pub services: usize,
    /// Probability that a commit round is a retraction.
    pub deletion_ratio: f64,
    /// Master seed; tenant `t` uses stream `seed + t`.
    pub seed: u64,
    /// `k` for the top-k read kind.
    pub top_k: usize,
    /// Threshold for the above-threshold read kind.
    pub threshold: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            tenants: 4,
            threads: 4,
            rounds: 6,
            reads_per_round: 8,
            services: 6,
            deletion_ratio: 0.25,
            seed: 0x2007_0611,
            top_k: 3,
            threshold: 0.5,
        }
    }
}

impl TrafficConfig {
    /// The default mix with `PXML_SERVER_THREADS` / `PXML_SERVER_TENANTS`
    /// overrides applied (best-effort parsing, like the other engines'
    /// `from_env` constructors).
    pub fn from_env() -> Self {
        let mut config = TrafficConfig::default();
        if let Some(threads) = env::parse_lenient(env::SERVER_THREADS) {
            config.threads = threads;
        }
        if let Some(tenants) = env::parse_lenient(env::SERVER_TENANTS) {
            config.tenants = tenants;
        }
        config
    }
}

/// Order statistics of one operation class's latencies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of operations sampled.
    pub count: usize,
    /// Median latency.
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Worst observed latency.
    pub max: Duration,
}

impl LatencySummary {
    fn from_samples(mut samples: Vec<Duration>) -> Self {
        samples.sort_unstable();
        let percentile = |p: f64| {
            if samples.is_empty() {
                Duration::ZERO
            } else {
                samples[((samples.len() - 1) as f64 * p / 100.0).round() as usize]
            }
        };
        LatencySummary {
            count: samples.len(),
            p50: percentile(50.0),
            p95: percentile(95.0),
            p99: percentile(99.0),
            max: samples.last().copied().unwrap_or(Duration::ZERO),
        }
    }
}

/// What one traffic run did and how fast. The `checksum` (a sum of every
/// read's scalar result, combined in tenant order) and the `hub` counters
/// are deterministic for a fixed [`TrafficConfig`]; the latency fields
/// are the only wall-clock-dependent parts.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    /// The configuration that produced this report.
    pub config: TrafficConfig,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Latency order statistics of the commit path.
    pub commits: LatencySummary,
    /// Latency order statistics of the view-read path.
    pub reads: LatencySummary,
    /// Maintenance-hub counters summed over all tenants.
    pub hub: HubStats,
    /// Sum of every read's scalar result (deterministic per config).
    pub checksum: f64,
}

impl TrafficReport {
    /// Total operations (commits + reads) per second of wall-clock.
    pub fn ops_per_second(&self) -> f64 {
        (self.commits.count + self.reads.count) as f64
            / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// One timed operation flowing back to the aggregator.
enum Sample {
    Commit(Duration),
    Read(Duration),
    /// A finished lane's answer checksum, keyed by tenant for
    /// order-independent (hence deterministic) combination.
    Lane(usize, f64),
}

/// Runs the configured traffic mix against a fresh [`Warehouse`] and
/// reports throughput, latency order statistics, the aggregated hub
/// counters and the deterministic answer checksum.
pub fn run_traffic(config: &TrafficConfig) -> TrafficReport {
    let warehouse = Warehouse::new();
    let query = services_with_endpoint_and_contact();
    let scenario = WarehouseConfig {
        services: config.services,
        extraction_rounds: config.rounds,
        deletion_ratio: config.deletion_ratio,
    };

    // Stage every tenant's document, views and script before the clock
    // starts: the run measures serving, not setup.
    let mut scripts = Vec::with_capacity(config.tenants);
    for t in 0..config.tenants {
        let name = tenant_name(t);
        warehouse
            .register(&name, skeleton(config.services))
            .expect("fresh warehouse");
        for view in VIEW_NAMES {
            warehouse
                .register_view(&name, view, Arc::new(query.clone()))
                .expect("fresh document");
        }
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(t as u64));
        let (script, _) = scenario_script(&scenario, &mut rng);
        scripts.push(script);
    }

    let next = AtomicUsize::new(0);
    let (sender, receiver) = mpsc::channel::<Sample>();
    let workers = config.threads.clamp(1, config.tenants.max(1));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let sender = sender.clone();
            scope.spawn(|| {
                let sender = sender;
                loop {
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    if t >= config.tenants {
                        break;
                    }
                    let checksum = run_lane(&warehouse, config, t, &scripts[t], &sender);
                    sender
                        .send(Sample::Lane(t, checksum))
                        .expect("aggregator alive");
                }
            });
        }
        drop(sender);
    });
    let elapsed = start.elapsed();

    let mut commits = Vec::new();
    let mut reads = Vec::new();
    let mut lanes = vec![0.0; config.tenants];
    for sample in receiver {
        match sample {
            Sample::Commit(d) => commits.push(d),
            Sample::Read(d) => reads.push(d),
            Sample::Lane(t, checksum) => lanes[t] = checksum,
        }
    }
    let mut hub = HubStats::default();
    for t in 0..config.tenants {
        hub += warehouse
            .hub_stats(&tenant_name(t))
            .expect("tenant registered");
    }
    TrafficReport {
        config: config.clone(),
        elapsed,
        commits: LatencySummary::from_samples(commits),
        reads: LatencySummary::from_samples(reads),
        hub,
        checksum: lanes.iter().sum(),
    }
}

fn tenant_name(t: usize) -> String {
    format!("tenant{t}")
}

/// One tenant's lane: alternate one extractor commit with a burst of view
/// reads. The document is only written here, so every read lands at a
/// known epoch and the returned checksum is deterministic.
fn run_lane(
    warehouse: &Warehouse,
    config: &TrafficConfig,
    tenant: usize,
    script: &pxml_core::UpdateScript,
    sender: &mpsc::Sender<Sample>,
) -> f64 {
    let name = tenant_name(tenant);
    let mut checksum = 0.0;
    for (round, update) in script.steps().iter().enumerate() {
        let begin = Instant::now();
        warehouse.commit(&name, update).expect("serialized writer");
        sender
            .send(Sample::Commit(begin.elapsed()))
            .expect("aggregator alive");
        for read in 0..config.reads_per_round {
            let kind = (tenant + round + read) % VIEW_NAMES.len();
            let begin = Instant::now();
            let value = match kind {
                0 => warehouse
                    .top_k(&name, "top", config.top_k)
                    .expect("view registered")
                    .total_probability(),
                1 => warehouse
                    .above(&name, "above", config.threshold)
                    .expect("view registered")
                    .len() as f64,
                2 => warehouse
                    .expected_matches(&name, "expected")
                    .expect("view registered"),
                _ => warehouse
                    .possible_count(&name, "possible")
                    .expect("view registered") as f64,
            };
            sender
                .send(Sample::Read(begin.elapsed()))
                .expect("aggregator alive");
            checksum += value;
        }
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TrafficConfig {
        TrafficConfig {
            tenants: 3,
            threads: 2,
            rounds: 4,
            reads_per_round: 4,
            services: 4,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn traffic_is_deterministic_across_runs_and_thread_counts() {
        let config = small();
        let a = run_traffic(&config);
        let b = run_traffic(&TrafficConfig {
            threads: 1,
            ..config.clone()
        });
        assert_eq!(a.checksum.to_bits(), b.checksum.to_bits());
        assert_eq!(a.hub, b.hub);
        assert!(a.checksum.is_finite());
        assert!(a.checksum > 0.0, "reads observed live answers");
    }

    #[test]
    fn sample_counts_match_the_configured_mix() {
        let config = small();
        let report = run_traffic(&config);
        assert_eq!(report.commits.count, config.tenants * config.rounds);
        assert_eq!(
            report.reads.count,
            config.tenants * config.rounds * config.reads_per_round
        );
        assert_eq!(
            report.hub.deltas_observed,
            (config.tenants * config.rounds) as u64
        );
        assert_eq!(
            report.hub.flags_fanned,
            (config.tenants * config.rounds * VIEW_NAMES.len()) as u64
        );
        assert!(report.ops_per_second() > 0.0);
        assert!(report.reads.p50 <= report.reads.p95);
        assert!(report.reads.p95 <= report.reads.p99);
        assert!(report.reads.p99 <= report.reads.max);
    }

    #[test]
    fn latency_summary_orders_percentiles() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let summary = LatencySummary::from_samples(samples);
        assert_eq!(summary.count, 100);
        assert_eq!(summary.p50, Duration::from_micros(51));
        assert_eq!(summary.p95, Duration::from_micros(95));
        assert_eq!(summary.p99, Duration::from_micros(99));
        assert_eq!(summary.max, Duration::from_micros(100));
        assert_eq!(
            LatencySummary::from_samples(Vec::new()),
            LatencySummary::default()
        );
    }
}
