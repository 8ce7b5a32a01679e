//! The three serving workloads: what each replays, how the server is
//! configured for it, and how its generated requests look on the wire.
//!
//! Every input is a pure function of the workload name and `--seed`: the
//! trace (template choice, parameters, logical timestamps), the fault
//! plan's key classification and the invalidation schedule.  The server
//! only ever sees the generated requests.

use std::sync::Arc;

use watchman_core::engine::StalenessPolicy;
use watchman_core::engine::{FailureConfig, PolicyKind, RebalanceConfig, RetryPolicy};
use watchman_server::{FaultPlan, GetRequest, ServerConfig};
use watchman_sim::{ExperimentScale, Workload};
use watchman_trace::{Trace, TraceConfig, TraceGenerator, TraceRecord};
use watchman_warehouse::tpcd;

/// Closed-loop client threads, one connection each.
pub const CLIENTS: usize = 2;

/// Requests a client has in flight at once: an analyst waits for each
/// answer before sending the next drill-down query (paper §4.1).
pub const PIPELINE_DEPTH: usize = 1;

/// Cache capacity as a fraction of the TPC-D database (paper Figures 4–6).
pub const CACHE_FRACTION: f64 = 0.01;

/// Engine shards and runtime workers of every served configuration.
pub const SHARDS: usize = 4;
/// Runtime workers of the served engine (sessions and fetches share them).
pub const RUNTIME_WORKERS: usize = 4;

/// Seed of the `warehouse_fetch` fault plan.  Fixed, unlike the trace
/// seed: which hot reports the plan dooms moves the cost savings ratio by
/// more than the trace's own randomness does, so it is part of the
/// workload's definition rather than of its sampled input.
pub const FAULT_SEED: u64 = 0xC4A0_5EED;

/// Which TPC-D templates the trace draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Templates {
    /// Only the hot report templates Q1 and Q10, weighted 10 : 40 as in
    /// `Workload::tpcd_skewed`.
    HotOnly,
    /// `Workload::tpcd_skewed`: Q10 40, Q1 10, Q13 30, Q16 10, every other
    /// template 0.5.
    Skewed,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why the workload exists, in one sentence.
    pub why: &'static str,
    /// Template mix of the trace.
    pub templates: Templates,
    /// Distinct trace records generated; the measured window replays them
    /// in laps (see [`Plan`](crate::drive::Plan)).
    pub trace_len: usize,
    /// Requests replayed before measurement starts.  Long enough for every
    /// shard's LNC retained-reference store to saturate, so the window
    /// measures steady state.
    pub warmup_requests: u64,
    /// Send `REBALANCE_NOW` every 128 records under
    /// `RebalanceConfig::manual()`, the cadence of the simulator's replays.
    pub rebalance: bool,
    /// Requested execution time per block of `cost_blocks`, in
    /// nanoseconds (0 = misses execute instantly).
    pub fetch_ns_per_block: u64,
    /// Serve through the fallible pipeline under `FaultPlan::canonical`.
    pub faults: bool,
    /// Client 0 sends `INVALIDATE <relation>` after every this many of its
    /// own GETs (0 = never).
    pub invalidate_every: u64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "hot_hits",
            why: "the hot set fits in the cache, so every measured GET is a hit: \
                  wire codec, session IO, runtime and the engine hit path only",
            templates: Templates::HotOnly,
            trace_len: 20_000,
            // The hot set is cached after its 85 cold misses; the rest of
            // warm-up settles sessions, allocator and scheduler, and keeps
            // `setup_s` long enough to be timed steadily.
            warmup_requests: 40_000,
            rebalance: false,
            fetch_ns_per_block: 0,
            faults: false,
            invalidate_every: 0,
        },
        Spec {
            name: "tpcd_churn",
            why: "the working set exceeds the cache: misses pay LNC admission, \
                  eviction and retained-store upkeep beside the hit path",
            templates: Templates::Skewed,
            trace_len: 250_000,
            warmup_requests: 50_000,
            rebalance: true,
            fetch_ns_per_block: 0,
            faults: false,
            invalidate_every: 0,
        },
        Spec {
            name: "warehouse_fetch",
            why: "misses hold runtime workers for a cost-proportional fetch under a \
                  fault plan and invalidations: fetch scheduling, retry, stale \
                  serving and coherence",
            templates: Templates::Skewed,
            trace_len: 150_000,
            warmup_requests: 50_000,
            rebalance: true,
            fetch_ns_per_block: 100,
            faults: true,
            invalidate_every: 256,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|spec| spec.name == name)
}

impl Spec {
    /// Generates the workload's trace for `seed`.
    pub fn trace(&self, seed: u64) -> Trace {
        match self.templates {
            Templates::Skewed => {
                Workload::tpcd_skewed(ExperimentScale::quick(self.trace_len).with_seed(seed)).trace
            }
            Templates::HotOnly => {
                let benchmark = tpcd::benchmark();
                let mut weights = vec![0.0; benchmark.template_count()];
                weights[9] = 40.0; // Q10
                weights[0] = 10.0; // Q1
                let config = TraceConfig::quick(self.trace_len, seed).with_weights(weights);
                TraceGenerator::new(&benchmark, config).generate()
            }
        }
    }

    /// The served cache capacity for a trace: 1% of its database.
    pub fn capacity_bytes(&self, trace: &Trace) -> u64 {
        (trace.database_bytes as f64 * CACHE_FRACTION) as u64
    }

    /// The engine policy of every workload.
    pub fn policy(&self) -> PolicyKind {
        PolicyKind::LNC_RA
    }

    /// The rebalancing configuration handed to the engine, if any.
    pub fn rebalance_config(&self) -> Option<RebalanceConfig> {
        self.rebalance.then(|| RebalanceConfig::new().manual())
    }

    /// The workload's fault plan (fresh per server: it counts fetch
    /// invocations per key).
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults
            .then(|| Arc::new(FaultPlan::canonical(FAULT_SEED)))
    }

    /// The served configuration.
    pub fn server_config(&self, capacity_bytes: u64, plan: Option<Arc<FaultPlan>>) -> ServerConfig {
        let failure = if self.faults {
            FailureConfig {
                retry: RetryPolicy {
                    max_attempts: 3,
                    base_delay: std::time::Duration::from_micros(50),
                    max_delay: std::time::Duration::from_millis(1),
                    jitter_seed: 0x5EED_F00D,
                },
                // No breaker: an open breaker fails healthy keys too, and
                // every error must be explained by the plan's key classes.
                breaker: None,
                staleness: Some(StalenessPolicy::default()),
                negative: Default::default(),
            }
        } else {
            FailureConfig::default()
        };
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: SHARDS,
            policy: self.policy(),
            capacity_bytes,
            runtime_workers: RUNTIME_WORKERS,
            rebalance: self.rebalance_config(),
            failure,
            max_inflight: 0,
            read_deadline: None,
            fault_plan: plan,
        }
    }

    /// The GET a trace record becomes on the wire (before lap offsets).
    pub fn request(&self, record: TraceRecord) -> GetRequest {
        let delay_us = record.cost_blocks * self.fetch_ns_per_block / 1_000;
        GetRequest {
            key: record.query_text,
            timestamp_us: record.timestamp_us,
            result_bytes: record.result_bytes,
            cost_blocks: record.cost_blocks,
            fetch_delay_us: u32::try_from(delay_us).unwrap_or(u32::MAX),
            deadline_hint_us: 0,
            payload_prefix_cap: 0,
        }
    }

    /// A one-line description of every input knob, printed with each run.
    pub fn describe(&self, seed: u64) -> String {
        let weights = match self.templates {
            Templates::HotOnly => "TPC-D Q10 40, Q1 10, others 0",
            Templates::Skewed => "TPC-D Q10 40, Q13 30, Q1 10, Q16 10, others 0.5",
        };
        format!(
            "workload {} seed {seed} ({}): trace {} records ({weights}), warm-up {} requests, \
             cache {:.0}% of DB, {}, {SHARDS} shards, {RUNTIME_WORKERS} workers, \
             rebalance {}, fetch delay {} ns/block, fault plan {}, invalidate every {}, \
             {CLIENTS} clients, pipeline depth {PIPELINE_DEPTH}",
            self.name,
            self.why,
            self.trace_len,
            self.warmup_requests,
            CACHE_FRACTION * 100.0,
            self.policy().label(),
            if self.rebalance {
                "manual every 128 records"
            } else {
                "off"
            },
            self.fetch_ns_per_block,
            if self.faults {
                "canonical(0xC4A05EED)"
            } else {
                "none"
            },
            if self.invalidate_every == 0 {
                "never".to_owned()
            } else {
                format!("{} GETs of client 0", self.invalidate_every)
            },
        )
    }
}
