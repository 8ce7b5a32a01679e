//! Serving benchmark for `watchmand`.
//!
//! One process starts an in-process `serve()` server on loopback and
//! drives it from two closed-loop client threads at pipeline depth 1,
//! replaying a seeded trace workload.  After warm-up (which counts as
//! set-up time) it measures for `--seconds`, checks the answers against
//! the server's own counters, and prints every metric by name with its
//! unit and direction, then one JSON line:
//!
//! ```text
//! servebench --workload <hot_hits|tpcd_churn|warehouse_fetch> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics.  `--trace 1` reports the
//! per-layer metrics: it measures an untraced window, then a traced one of
//! the same length (allocation counting, `METRICS` scrapes), then probes
//! the wire codec and replays the trace in-process through the engine and
//! a bare policy.  The difference between its two windows is the tracing
//! overhead.  See `README.md` for the metric catalogue.

mod alloc;
mod checks;
mod drive;
mod layers;
mod stats;
mod workload;

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use watchman_core::engine::{RetryPolicy, StatsSnapshot};
use watchman_core::runtime::net;
use watchman_core::telemetry::MetricsSnapshot;
use watchman_server::{serve, Client, FaultPlan, GetRequest, ServerHandle};
use watchman_sim::{ExperimentScale, Workload};

use checks::{Delta, FaultOracle, Tally};
use drive::{drive, Budget, Invalidation, Outcome, Phase, Plan};
use stats::{MIN_MEDIAN_SAMPLES, MIN_P99_SAMPLES};
use workload::Spec;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median and the last one is measured.
const SETUP_ROUNDS: usize = 3;

/// Largest difference between the throughputs of a window's two halves
/// before the run is flagged as not in steady state.  Equals the
/// `throughput_qps` bound in `BENCHMARK.json`.
const STEADY_BOUND: f64 = 0.25;

/// Trace records the in-process replays run past the warm-up point.
const REPLAY_STEADY_RECORDS: usize = 30_000;

/// One-off GETs the traced run sends after its window when the window had
/// too few misses to report miss-path metrics (only `hot_hits`).
const MISS_PROBE_GETS: usize = 1_200;

/// `INVALIDATE` calls the traced run sends after its window when the
/// workload itself does not invalidate.
const INVALIDATE_PROBE_CALLS: usize = 32;

const USAGE: &str = "usage: servebench --workload <hot_hits|tpcd_churn|warehouse_fetch> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("servebench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::by_name(&args.workload) else {
        eprintln!("servebench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    match run(&spec, &args) {
        Ok(report) => report.print(),
        Err(err) => {
            eprintln!("servebench: {err}");
            ExitCode::FAILURE
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    better: &'static str,
    /// Samples behind the value, where it is an order statistic or a mean.
    samples: Option<usize>,
}

fn metric(
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    better: &'static str,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        better,
        samples: None,
    }
}

impl Metric {
    fn over(mut self, samples: usize) -> Metric {
        self.samples = Some(samples);
        self
    }
}

/// What a run prints.
struct Report {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Metrics shown in the table but not in the JSON line.
    context: Vec<Metric>,
    /// Metrics of the JSON line.
    metrics: Vec<Metric>,
}

impl Report {
    fn print(self) -> ExitCode {
        let mut problems = self.problems;
        for metric in &self.metrics {
            match metric.value {
                None => problems.push(format!("{}: too few samples", metric.name)),
                Some(value) if !value.is_finite() => {
                    problems.push(format!("{}: not a finite number", metric.name))
                }
                Some(_) => {}
            }
        }
        let correct = problems.is_empty();
        if correct {
            println!(
                "{:<38} {:>16} {:<6} {:<6} samples",
                "metric", "value", "unit", "better"
            );
            for metric in self.context.iter().chain(&self.metrics) {
                let value = metric
                    .value
                    .map_or("absent".to_owned(), |v| format!("{v:.4}"));
                let samples = metric.samples.map_or(String::new(), |n| n.to_string());
                println!(
                    "{:<38} {:>16} {:<6} {:<6} {samples}",
                    metric.name, value, metric.unit, metric.better
                );
            }
        } else {
            for problem in &problems {
                eprintln!("servebench: check failed: {problem}");
            }
        }
        let entries: Vec<String> = self
            .metrics
            .iter()
            .map(|metric| {
                let value = metric.value.filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    metric.name, metric.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            entries.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// A warmed-up server with its clients.
struct Served {
    plan: Plan,
    capacity_bytes: u64,
    fault_plan: Option<Arc<FaultPlan>>,
    oracle: Option<FaultOracle>,
    server: ServerHandle,
    clients: Vec<Client>,
    cursor: AtomicU64,
}

/// Timings of one set-up.
struct Setup {
    total_s: f64,
    trace_gen_s: f64,
    warmup_s: f64,
}

/// A measured window.
struct Window {
    phase: Phase,
    delta: Option<Delta>,
    /// Bytes cached when the window ended.
    used_bytes: u64,
}

fn connect(addr: &str) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|err| format!("connect {addr}: {err}"))?;
    // Fail fast: a lost connection is a failed request, never a silent
    // reconnect under a new accept-order id.
    client.set_retry_policy(RetryPolicy::none());
    Ok(client)
}

fn set_up(spec: &Spec, seed: u64) -> Result<(Served, Setup), String> {
    let started = Instant::now();
    let trace = spec.trace(seed);
    let trace_gen_s = started.elapsed().as_secs_f64();
    let capacity_bytes = spec.capacity_bytes(&trace);
    let plan = Plan::new(spec, trace);
    let fault_plan = spec.fault_plan();
    let server = serve(spec.server_config(capacity_bytes, fault_plan.clone()))
        .map_err(|err| format!("serve: {err}"))?;
    let addr = server.addr().to_string();
    // One connection at a time, in a fixed order: the fault plan's wire
    // schedule is keyed on accept order, so ids 0 and 1 go to the clients
    // on every run and no other connection is ever opened.
    let mut clients = Vec::with_capacity(workload::CLIENTS);
    for _ in 0..workload::CLIENTS {
        clients.push(connect(&addr)?);
    }
    let cursor = AtomicU64::new(0);
    let warm_started = Instant::now();
    let warm = drive(
        &mut clients,
        &plan,
        &cursor,
        Budget::Requests(spec.warmup_requests),
        true,
    );
    let warmup_s = warm_started.elapsed().as_secs_f64();
    if let Some(failure) = warm.failures.first() {
        return Err(format!("warm-up: {failure}"));
    }
    if warm.wrong_len > 0 {
        return Err(format!(
            "warm-up: {} responses with a wrong full_len",
            warm.wrong_len
        ));
    }
    let served = Served {
        plan,
        capacity_bytes,
        fault_plan,
        oracle: spec.faults.then(|| FaultOracle::new(workload::FAULT_SEED)),
        server,
        clients,
        cursor,
    };
    let setup = Setup {
        total_s: started.elapsed().as_secs_f64(),
        trace_gen_s,
        warmup_s,
    };
    Ok((served, setup))
}

impl Served {
    fn stats(&mut self) -> Result<StatsSnapshot, String> {
        self.clients[0]
            .stats()
            .map_err(|err| format!("STATS: {err}"))
    }

    fn metrics(&mut self) -> Result<MetricsSnapshot, String> {
        self.clients[0]
            .metrics()
            .map_err(|err| format!("METRICS: {err}"))
    }

    /// Measures one window of `length`, checking it as it goes.
    fn window(&mut self, length: Duration, problems: &mut Vec<String>) -> Result<Window, String> {
        self.measure(None, Budget::Until(Instant::now() + length), problems)
    }

    /// Sends `requests` from client 0 after everything sent so far, as one
    /// more checked window.
    fn probe(
        &mut self,
        requests: Vec<GetRequest>,
        problems: &mut Vec<String>,
    ) -> Result<Window, String> {
        let last = self
            .plan
            .request(self.cursor.load(Ordering::Relaxed), false);
        let offset = last.timestamp_us + 1_000_000;
        let count = requests.len() as u64;
        let probe = Plan {
            requests: requests
                .into_iter()
                .map(|request| GetRequest {
                    timestamp_us: request.timestamp_us + offset,
                    ..request
                })
                .collect(),
            lap_span_us: 0,
            rebalance: false,
            invalidate_every: 0,
            relations: Vec::new(),
        };
        self.measure(Some(&probe), Budget::Requests(count), problems)
    }

    /// Drives the workload's plan from both clients, or a probe plan from
    /// client 0, between two `STATS` snapshots, and checks the result.
    fn measure(
        &mut self,
        probe: Option<&Plan>,
        budget: Budget,
        problems: &mut Vec<String>,
    ) -> Result<Window, String> {
        let before = self.stats()?;
        let phase = match probe {
            None => drive(&mut self.clients, &self.plan, &self.cursor, budget, false),
            Some(plan) => drive(
                &mut self.clients[..1],
                plan,
                &AtomicU64::new(0),
                budget,
                false,
            ),
        };
        let after = self.stats()?;
        let plan = probe.unwrap_or(&self.plan);
        problems.extend(checks::window(
            plan,
            &phase,
            &before,
            &after,
            self.oracle.as_mut(),
        ));
        Ok(Window {
            delta: Delta::between(&before, &after).ok(),
            used_bytes: after.used_bytes,
            phase,
        })
    }

    /// Disconnects the clients and shuts the server down, handing back
    /// the plan.
    fn close(self) -> Plan {
        drop(self.clients);
        self.server.join();
        self.plan
    }
}

fn run(spec: &Spec, args: &Args) -> Result<Report, String> {
    eprintln!("{}", spec.describe(args.seed));
    eprintln!(
        "available parallelism: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut setups = Vec::with_capacity(SETUP_ROUNDS);
    let mut live = None;
    for round in 0..SETUP_ROUNDS {
        let (served, setup) = set_up(spec, args.seed)?;
        setups.push(setup);
        if round + 1 == SETUP_ROUNDS {
            live = Some(served);
        } else {
            drop(served.close());
        }
    }
    let mut served = live.expect("at least one set-up");
    let length = Duration::from_secs(args.seconds);
    let mut problems = Vec::new();
    // Read before the window: the harness's per-request sample buffers grow
    // with throughput and would otherwise dominate the figure.
    let peak_rss_mb = alloc::peak_rss_mb();
    let untraced = served.window(length, &mut problems)?;
    steady_state_guard(&untraced.phase, length);
    let e2e = end_to_end(&untraced, &setups, peak_rss_mb, length);

    if !args.trace {
        problems.extend(wire_faults(&served));
        drop(served.close());
        return Ok(Report {
            problems,
            attempted: untraced.phase.attempted(),
            failed: untraced.phase.failures.len() as u64,
            context: Vec::new(),
            metrics: e2e,
        });
    }

    // The traced window: same length, same server, now with allocation
    // counting and telemetry scrapes around it.
    let metrics_before = served.metrics()?;
    let syscalls_before = net::stats::read_syscalls() + net::stats::write_syscalls();
    let allocs_before = alloc::start();
    let traced = served.window(length, &mut problems)?;
    let allocs = alloc::stop() - allocs_before;
    let syscalls = net::stats::read_syscalls() + net::stats::write_syscalls() - syscalls_before;
    let metrics_after = served.metrics()?;
    let traced_e2e = end_to_end(&traced, &setups, peak_rss_mb, length);

    // Probes for paths the workload's own window left (nearly) unexercised.
    let traced_misses = traced
        .phase
        .samples
        .iter()
        .filter(|sample| sample.outcome != Outcome::Hit)
        .count();
    let one_offs = one_off_requests(spec, args.seed);
    let miss_window = if traced_misses < MIN_P99_SAMPLES {
        Some(served.probe(one_offs.clone(), &mut problems)?)
    } else {
        None
    };
    let invalidations = if traced.phase.invalidations.len() < MIN_MEDIAN_SAMPLES {
        invalidate_probe(&mut served)?
    } else {
        traced.phase.invalidations.clone()
    };
    problems.extend(wire_faults(&served));
    let capacity = served.capacity_bytes;
    let plan = served.close();

    let replay_len = spec.warmup_requests as usize + REPLAY_STEADY_RECORDS;
    let warmup = spec.warmup_requests as usize;
    let engine = layers::engine_replay(spec, &plan.requests, capacity, replay_len, warmup);
    let policy = layers::policy_replay(&plan.requests, &one_offs, capacity, replay_len, warmup);
    let codec = layers::codec(&plan, &traced.phase.samples);

    let layer = per_layer(PerLayer {
        untraced: &untraced,
        traced: &traced,
        length,
        miss_window: miss_window.as_ref(),
        invalidations: &invalidations,
        metrics_before: &metrics_before,
        metrics_after: &metrics_after,
        syscalls,
        allocs,
        engine: &engine,
        policy: &policy,
        codec: &codec,
        setups: &setups,
        untraced_e2e: &e2e,
        traced_e2e: &traced_e2e,
    });
    Ok(Report {
        problems,
        attempted: traced.phase.attempted(),
        failed: traced.phase.failures.len() as u64,
        context: e2e,
        metrics: layer,
    })
}

/// The fault plan's wire schedule resets and stalls connections by accept
/// order (ids 2, 5 and 9 under the canonical plan).  The harness opens ids
/// 0 and 1 only, so no wire fault may fire; report either way.
fn wire_faults(served: &Served) -> Vec<String> {
    let Some(plan) = &served.fault_plan else {
        return Vec::new();
    };
    let (resets, stalls) = (plan.triggered_resets(), plan.triggered_stalls());
    if resets.is_empty() && stalls.is_empty() {
        eprintln!(
            "fault plan: wire faults never fired (connections 0..{} only); {} fetch faults injected",
            workload::CLIENTS - 1,
            plan.injected_fetch_errors()
        );
        Vec::new()
    } else {
        vec![format!(
            "wire faults fired: resets on {resets:?}, stalls on {stalls:?}"
        )]
    }
}

/// Flags a window whose two halves ran at different throughputs: the
/// program was still changing under the measurement.
fn steady_state_guard(phase: &Phase, length: Duration) {
    let half = u64::try_from(length.as_nanos() / 2).unwrap_or(u64::MAX);
    let first = phase
        .samples
        .iter()
        .filter(|sample| sample.done_ns < half)
        .count() as f64;
    let second = phase.samples.len() as f64 - first;
    let drift = (first - second).abs() / first.max(second).max(1.0);
    if drift > STEADY_BOUND {
        eprintln!(
            "servebench: FLAGGED: not in steady state: window halves completed {first} and \
             {second} GETs ({:.1}% apart, bound {:.0}%)",
            drift * 100.0,
            STEADY_BOUND * 100.0
        );
    } else {
        eprintln!(
            "steady state: window halves completed {first} and {second} GETs ({:.1}% apart)",
            drift * 100.0
        );
    }
}

fn micros(nanos: Option<u64>) -> Option<f64> {
    nanos.map(|ns| ns as f64 / 1_000.0)
}

/// The median over the window's one-second slices of `stat`, computed on
/// the GETs completed in each slice (stragglers finishing after the
/// deadline join the last slice).  A burst of outside interference then
/// moves one slice, not the run's figure.  Slices too thin for `stat`
/// (it returns `None`) are skipped.
fn sliced(
    samples: &[drive::Sample],
    length: Duration,
    stat: impl Fn(&[u64], f64) -> Option<f64>,
) -> Option<f64> {
    let slices = length.as_secs().max(1) as usize;
    let slice_ns = length.as_nanos() as f64 / slices as f64;
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for sample in samples {
        let slice = ((sample.done_ns as f64 / slice_ns) as usize).min(slices - 1);
        buckets[slice].push(sample.rtt_ns);
    }
    let values: Vec<f64> = buckets
        .iter()
        .filter_map(|rtts| stat(rtts, slice_ns / 1e9))
        .collect();
    stats::median(&values)
}

fn hits_of(samples: &[drive::Sample]) -> Vec<drive::Sample> {
    samples
        .iter()
        .filter(|sample| sample.outcome == Outcome::Hit)
        .copied()
        .collect()
}

/// A sliced quantile of round trips in microseconds: the median over
/// one-second slices of each slice's nearest-rank `q`-quantile.
fn sliced_quantile_us(
    samples: &[drive::Sample],
    length: Duration,
    q: f64,
    min: usize,
) -> Option<f64> {
    sliced(samples, length, |rtts, _| {
        micros(stats::quantile(&mut rtts.to_vec(), q, min))
    })
}

/// Fewest samples a slice's 75th or 90th percentile is taken from: ten
/// beyond the 90th.
const MIN_SLICE_SAMPLES: usize = 100;

/// The end-to-end metrics of a window.  Tail latency is reported at the
/// 90th percentile of all GETs and the 75th of hits: the higher hit
/// percentiles and the all-GET median are not steady from run to run (see
/// `README.md`) and are per-layer metrics instead.
fn end_to_end(
    window: &Window,
    setups: &[Setup],
    peak_rss_mb: Option<f64>,
    length: Duration,
) -> Vec<Metric> {
    let samples = &window.phase.samples;
    let hits = hits_of(samples);
    let (n, n_hits) = (samples.len(), hits.len());
    let totals: Vec<f64> = setups.iter().map(|setup| setup.total_s).collect();
    vec![
        metric(
            "throughput_qps",
            sliced(samples, length, |rtts, secs| Some(rtts.len() as f64 / secs)),
            "1/s",
            "higher",
        )
        .over(n),
        metric(
            "latency_mean_us",
            sliced(samples, length, |rtts, _| {
                stats::mean(rtts).map(|ns| ns / 1_000.0)
            }),
            "us",
            "lower",
        )
        .over(n),
        metric(
            "latency_p90_us",
            sliced_quantile_us(samples, length, 0.9, MIN_SLICE_SAMPLES),
            "us",
            "lower",
        )
        .over(n),
        metric(
            "hit_latency_p50_us",
            sliced_quantile_us(&hits, length, 0.5, MIN_MEDIAN_SAMPLES),
            "us",
            "lower",
        )
        .over(n_hits),
        metric(
            "hit_latency_p75_us",
            sliced_quantile_us(&hits, length, 0.75, MIN_SLICE_SAMPLES),
            "us",
            "lower",
        )
        .over(n_hits),
        metric(
            "csr",
            window.delta.map(|delta| delta.csr()),
            "ratio",
            "higher",
        )
        .over(n),
        metric(
            "hit_ratio",
            window.delta.map(|delta| delta.hit_ratio()),
            "ratio",
            "higher",
        )
        .over(n),
        metric("setup_s", stats::median(&totals), "s", "lower").over(totals.len()),
        metric("peak_rss_mb", peak_rss_mb, "MiB", "lower"),
    ]
}

/// One-off detail queries (TPC-D Q13 and Q16 of the skewed trace for the
/// same seed) at the workload's fetch-delay scale: they miss wherever they
/// are sent.
fn one_off_requests(spec: &Spec, seed: u64) -> Vec<GetRequest> {
    let trace =
        Workload::tpcd_skewed(ExperimentScale::quick(MISS_PROBE_GETS * 4).with_seed(seed)).trace;
    trace
        .iter()
        .filter(|record| matches!(record.instance.template.0, 12 | 15))
        .take(MISS_PROBE_GETS)
        .map(|record| spec.request(record.clone()))
        .collect()
}

/// Times `INVALIDATE` for every relation, round-robin, from client 0.
fn invalidate_probe(served: &mut Served) -> Result<Vec<Invalidation>, String> {
    let relations = served.plan.relations.clone();
    let mut timings = Vec::with_capacity(INVALIDATE_PROBE_CALLS);
    for call in 0..INVALIDATE_PROBE_CALLS {
        let relation = &relations[call % relations.len()];
        let sent = Instant::now();
        let (_, invalidated) = served.clients[0]
            .invalidate_relation(relation.as_str())
            .map_err(|err| format!("INVALIDATE {relation}: {err}"))?;
        timings.push(Invalidation {
            rtt_ns: u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX),
            invalidated,
        });
    }
    Ok(timings)
}

/// Everything the per-layer metrics are computed from.
struct PerLayer<'a> {
    untraced: &'a Window,
    traced: &'a Window,
    length: Duration,
    miss_window: Option<&'a Window>,
    invalidations: &'a [Invalidation],
    metrics_before: &'a MetricsSnapshot,
    metrics_after: &'a MetricsSnapshot,
    syscalls: u64,
    allocs: u64,
    engine: &'a layers::EngineReplay,
    policy: &'a layers::PolicyReplay,
    codec: &'a layers::Codec,
    setups: &'a [Setup],
    untraced_e2e: &'a [Metric],
    traced_e2e: &'a [Metric],
}

fn value_of(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics
        .iter()
        .find(|metric| metric.name == name)
        .and_then(|metric| metric.value)
}

fn per_layer(input: PerLayer<'_>) -> Vec<Metric> {
    let traced = &input.traced.phase;
    let gets = traced.samples.len();
    // Requests of every kind the sessions handled in the traced window.
    let requests = (gets as u64 + traced.rebalances) as f64 + traced.invalidations.len() as f64;
    let per_request = |count: u64| Some(count as f64 / requests.max(1.0));
    let per_1k_gets = |count: u64| Some(count as f64 * 1_000.0 / (gets as f64).max(1.0));
    let counter = |name: &str| {
        input
            .metrics_after
            .counter(name)
            .saturating_sub(input.metrics_before.counter(name))
    };
    let poll_us = match (
        input.metrics_after.histogram("runtime.task.poll_us"),
        input.metrics_before.histogram("runtime.task.poll_us"),
    ) {
        (Some(after), Some(before)) => Some(stats::histogram_delta(after, before)),
        _ => None,
    };

    // Miss-path samples come from the traced window, or from the one-off
    // probe after it when the window had too few misses.
    let miss_source = match input.miss_window {
        Some(probe) => &probe.phase.samples,
        None => &traced.samples,
    };
    let misses: Vec<_> = miss_source
        .iter()
        .filter(|sample| sample.outcome != Outcome::Hit)
        .collect();
    let mut miss_rtt: Vec<u64> = misses.iter().map(|sample| sample.rtt_ns).collect();
    let mut miss_service: Vec<u64> = misses
        .iter()
        .filter(|sample| sample.outcome != Outcome::FetchError)
        .map(|sample| sample.service_us)
        .collect();
    let mut excess: Vec<u64> = misses
        .iter()
        .filter(|sample| sample.outcome == Outcome::Executed)
        .map(|sample| {
            sample
                .rtt_ns
                .saturating_sub(u64::from(sample.fetch_delay_us) * 1_000)
        })
        .collect();

    let mut hit_service: Vec<u64> = traced
        .samples
        .iter()
        .filter(|sample| sample.outcome == Outcome::Hit)
        .map(|sample| sample.service_us)
        .collect();
    let mut overhead: Vec<u64> = traced
        .samples
        .iter()
        .filter(|sample| sample.outcome != Outcome::FetchError)
        .map(|sample| sample.rtt_ns.saturating_sub(sample.service_us * 1_000))
        .collect();
    let tally = Tally::of(traced);
    let untraced_hits = hits_of(&input.untraced.phase.samples);
    let delta = input.traced.delta.unwrap_or_default();
    let mut invalidate_ns: Vec<u64> = input.invalidations.iter().map(|i| i.rtt_ns).collect();
    let invalidated: u64 = input
        .invalidations
        .iter()
        .map(|i| u64::from(i.invalidated))
        .sum();
    let trace_gen: Vec<f64> = input.setups.iter().map(|setup| setup.trace_gen_s).collect();
    let warmups: Vec<f64> = input.setups.iter().map(|setup| setup.warmup_s).collect();
    let overhead_pct = |name: &str, higher_is_better: bool| {
        let (Some(plain), Some(traced)) = (
            value_of(input.untraced_e2e, name),
            value_of(input.traced_e2e, name),
        ) else {
            return None;
        };
        let cost = if higher_is_better {
            plain - traced
        } else {
            traced - plain
        };
        Some(cost / plain * 100.0)
    };
    let from_split = |name, split: &layers::Split, q, min, unit| {
        let found = split.quantile(q, min);
        let samples = found.map_or(0, |(_, n)| n);
        metric(name, found.map(|(v, _)| v as f64), unit, "lower").over(samples)
    };
    let steady = &input.policy.steady;
    let n_miss = miss_rtt.len();
    let n_service_miss = miss_service.len();
    let n_excess = excess.len();
    let n_hit_service = hit_service.len();
    let n_overhead = overhead.len();
    let n_invalidate = invalidate_ns.len();
    vec![
        // wire
        metric(
            "wire.encode_request_ns",
            Some(input.codec.encode_request_ns),
            "ns",
            "lower",
        )
        .over(input.codec.frames),
        metric(
            "wire.decode_response_ns",
            Some(input.codec.decode_response_ns),
            "ns",
            "lower",
        )
        .over(input.codec.frames),
        metric(
            "wire.bytes_per_request",
            Some(input.codec.bytes_per_request),
            "bytes",
            "lower",
        )
        .over(input.codec.frames),
        // client/server session
        metric(
            "session.overhead_us_p50",
            micros(stats::quantile(&mut overhead, 0.5, MIN_MEDIAN_SAMPLES)),
            "us",
            "lower",
        )
        .over(n_overhead),
        metric(
            "session.syscalls_per_request",
            per_request(input.syscalls),
            "count",
            "lower",
        ),
        metric(
            "session.allocs_per_request",
            per_request(input.allocs),
            "count",
            "lower",
        ),
        metric(
            "server.service_hit_us_p50",
            stats::binned_median(&mut hit_service),
            "us",
            "lower",
        )
        .over(n_hit_service),
        metric(
            "server.service_miss_us_p50",
            stats::binned_median(&mut miss_service),
            "us",
            "lower",
        )
        .over(n_service_miss),
        // end to end, from the untraced window (not steady enough across
        // runs to carry a bound)
        metric(
            "latency_p50_us",
            sliced_quantile_us(
                &input.untraced.phase.samples,
                input.length,
                0.5,
                MIN_MEDIAN_SAMPLES,
            ),
            "us",
            "lower",
        )
        .over(input.untraced.phase.samples.len()),
        metric(
            "latency_p99_us",
            sliced_quantile_us(
                &input.untraced.phase.samples,
                input.length,
                0.99,
                MIN_P99_SAMPLES,
            ),
            "us",
            "lower",
        )
        .over(input.untraced.phase.samples.len()),
        metric(
            "hit_latency_p90_us",
            sliced_quantile_us(&untraced_hits, input.length, 0.9, MIN_SLICE_SAMPLES),
            "us",
            "lower",
        )
        .over(untraced_hits.len()),
        metric(
            "hit_latency_p99_us",
            sliced_quantile_us(&untraced_hits, input.length, 0.99, MIN_P99_SAMPLES),
            "us",
            "lower",
        )
        .over(untraced_hits.len()),
        metric(
            "miss_latency_p50_us",
            micros(stats::quantile(&mut miss_rtt, 0.5, MIN_MEDIAN_SAMPLES)),
            "us",
            "lower",
        )
        .over(n_miss),
        metric(
            "miss_latency_p99_us",
            micros(stats::quantile(&mut miss_rtt, 0.99, MIN_P99_SAMPLES)),
            "us",
            "lower",
        )
        .over(n_miss),
        metric(
            "error_rate",
            Some(tally.errors as f64 / (gets as f64).max(1.0)),
            "ratio",
            "lower",
        )
        .over(gets),
        // runtime
        metric(
            "runtime.steals_per_request",
            per_request(counter("runtime.scheduler.steals")),
            "count",
            "lower",
        ),
        metric(
            "runtime.parks_per_request",
            per_request(counter("runtime.scheduler.parks")),
            "count",
            "lower",
        ),
        metric(
            "runtime.reactor_wakeups_per_request",
            per_request(counter("runtime.reactor.wakeups")),
            "count",
            "lower",
        ),
        metric(
            "runtime.poll_us_p99",
            poll_us
                .as_ref()
                .and_then(|h| stats::histogram_quantile(h, 0.99, MIN_P99_SAMPLES)),
            "us",
            "lower",
        )
        .over(poll_us.as_ref().map_or(0, |h| h.count as usize)),
        metric(
            "runtime.long_polls",
            Some(counter("runtime.long_polls") as f64),
            "count",
            "lower",
        ),
        // engine
        from_split(
            "engine.hit_ns_p50",
            &input.engine.hit_ns,
            0.5,
            MIN_MEDIAN_SAMPLES,
            "ns",
        ),
        from_split(
            "engine.miss_self_ns_p50",
            &input.engine.miss_self_ns,
            0.5,
            MIN_MEDIAN_SAMPLES,
            "ns",
        ),
        metric(
            "engine.fetch_excess_us_p50",
            micros(stats::quantile(&mut excess, 0.5, MIN_MEDIAN_SAMPLES)),
            "us",
            "lower",
        )
        .over(n_excess),
        metric(
            "engine.executions_per_request",
            Some(delta.misses as f64 / (gets as f64).max(1.0)),
            "ratio",
            "lower",
        )
        .over(gets),
        metric(
            "engine.coalesced_per_request",
            Some(delta.coalesced as f64 / (gets as f64).max(1.0)),
            "ratio",
            "higher",
        )
        .over(gets),
        metric(
            "engine.fetch_retries_per_1k",
            per_1k_gets(delta.fetch_retries),
            "count",
            "lower",
        ),
        metric(
            "engine.stale_serves_per_1k",
            per_1k_gets(delta.stale_serves),
            "count",
            "lower",
        ),
        metric(
            "engine.negative_hits_per_1k",
            per_1k_gets(delta.negative_hits),
            "count",
            "lower",
        ),
        metric(
            "engine.invalidate_us_p50",
            micros(stats::quantile(&mut invalidate_ns, 0.5, MIN_MEDIAN_SAMPLES)),
            "us",
            "lower",
        )
        .over(n_invalidate),
        metric(
            "engine.invalidated_per_call",
            Some(invalidated as f64 / (n_invalidate as f64).max(1.0)),
            "count",
            "lower",
        )
        .over(n_invalidate),
        {
            let found = input.engine.rebalance_ns.quantile(0.5, MIN_MEDIAN_SAMPLES);
            metric(
                "engine.rebalance_pass_us_p50",
                found.map(|(ns, _)| ns as f64 / 1_000.0),
                "us",
                "lower",
            )
            .over(found.map_or(0, |(_, n)| n))
        },
        metric(
            "engine.used_bytes",
            Some(input.traced.used_bytes as f64),
            "bytes",
            "lower",
        ),
        // policy
        from_split(
            "policy.get_ns_p50",
            &input.policy.get_ns,
            0.5,
            MIN_MEDIAN_SAMPLES,
            "ns",
        ),
        from_split(
            "policy.insert_ns_p50",
            &input.policy.insert_ns,
            0.5,
            MIN_MEDIAN_SAMPLES,
            "ns",
        ),
        from_split(
            "policy.insert_ns_p99",
            &input.policy.insert_ns,
            0.99,
            MIN_P99_SAMPLES,
            "ns",
        ),
        metric(
            "policy.admit_ratio",
            Some(steady.admissions as f64 / (steady.insertions_offered as f64).max(1.0)),
            "ratio",
            "higher",
        )
        .over(steady.insertions_offered as usize),
        metric(
            "policy.evictions_per_insert",
            Some(steady.evictions as f64 / (steady.insertions_offered as f64).max(1.0)),
            "ratio",
            "lower",
        )
        .over(steady.insertions_offered as usize),
        metric(
            "policy.retained_entries",
            Some(input.policy.retained_entries as f64),
            "count",
            "lower",
        ),
        metric(
            "policy.retained_metadata_bytes",
            Some(input.policy.retained_metadata_bytes as f64),
            "bytes",
            "lower",
        ),
        // set-up
        metric("setup.trace_gen_s", stats::median(&trace_gen), "s", "lower").over(trace_gen.len()),
        metric("setup.warmup_s", stats::median(&warmups), "s", "lower").over(warmups.len()),
        // tracing overhead: the traced window against the untraced one
        metric(
            "trace.overhead_throughput_pct",
            overhead_pct("throughput_qps", true),
            "%",
            "lower",
        ),
        metric(
            "trace.overhead_latency_mean_pct",
            overhead_pct("latency_mean_us", false),
            "%",
            "lower",
        ),
    ]
}
