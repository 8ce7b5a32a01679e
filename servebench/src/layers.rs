//! Per-layer probes.  Each one times calls into a layer's public functions
//! from outside the program: nothing here reaches into the program's
//! internals, and the program itself carries no extra instrumentation.
//!
//! * `wire` — the codec over frames of the workload's own requests and
//!   responses;
//! * `engine` — an in-process `get_or_execute_async` replay of the
//!   workload's requests on an engine configured like the served one;
//! * `policy` — a bare `LncCache` replay of the same requests, sized as
//!   one shard.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use watchman_core::clock::Timestamp;
use watchman_core::engine::{splitmix64, LookupSource, Watchman};
use watchman_core::key::QueryKey;
use watchman_core::metrics::CacheStats;
use watchman_core::policy::lnc::{LncCache, LncConfig};
use watchman_core::policy::{InsertOutcome, QueryCache};
use watchman_core::runtime::block_on;
use watchman_core::value::{ExecutionCost, SizedPayload};
use watchman_server::wire;
use watchman_server::{GetRequest, GetResponse, Request, Response, WireSource};
use watchman_sim::REBALANCE_EVERY_RECORDS;

use crate::drive::{Outcome, Plan, Sample};
use crate::stats;
use crate::workload::{Spec, RUNTIME_WORKERS, SHARDS};

/// Samples split at the end of warm-up.  A layer metric is taken from the
/// steady part when it holds enough samples, otherwise from the whole
/// replay (the hot set's cold misses, say, all happen during warm-up).
#[derive(Debug, Default)]
pub struct Split {
    /// Samples recorded during warm-up.
    pub warmup: Vec<u64>,
    /// Samples recorded after warm-up.
    pub steady: Vec<u64>,
}

impl Split {
    fn push(&mut self, steady: bool, value: u64) {
        if steady {
            self.steady.push(value);
        } else {
            self.warmup.push(value);
        }
    }

    /// Nearest-rank `q`-quantile of the steady samples when at least `min`
    /// exist, else of all samples.  Returns the value and the sample count.
    pub fn quantile(&self, q: f64, min: usize) -> Option<(u64, usize)> {
        let mut values = if self.steady.len() >= min {
            self.steady.clone()
        } else {
            self.warmup.iter().chain(&self.steady).copied().collect()
        };
        let count = values.len();
        stats::quantile(&mut values, q, min).map(|value| (value, count))
    }
}

/// What the in-process engine replay measured.
#[derive(Debug, Default)]
pub struct EngineReplay {
    /// Lookup spans of hits, in nanoseconds.
    pub hit_ns: Split,
    /// Lookup spans of executed misses minus the fetch closure's own span.
    pub miss_self_ns: Split,
    /// `rebalance_now` spans, in nanoseconds.
    pub rebalance_ns: Split,
}

/// Replays the first `records` requests of `requests` through an
/// in-process engine built like the served one, one session, awaiting each
/// lookup.
pub fn engine_replay(
    spec: &Spec,
    requests: &[GetRequest],
    capacity_bytes: u64,
    records: usize,
    warmup: usize,
) -> EngineReplay {
    let mut engine = Watchman::<SizedPayload>::builder()
        .shards(SHARDS)
        .policy(spec.policy())
        .capacity_bytes(capacity_bytes)
        .runtime_workers(RUNTIME_WORKERS);
    if let Some(rebalance) = spec.rebalance_config() {
        engine = engine.rebalance(rebalance);
    }
    let engine = engine.build();
    let fetch_ns = Arc::new(AtomicU64::new(0));
    let mut replay = EngineReplay::default();
    for (index, request) in requests.iter().take(records).enumerate() {
        let key = QueryKey::from_raw_query(&request.key);
        let now = Timestamp::from_micros(request.timestamp_us);
        let (size, cost) = (request.result_bytes, request.cost_blocks);
        let closure_ns = Arc::clone(&fetch_ns);
        let steady = index >= warmup;
        let started = Instant::now();
        let lookup = block_on(engine.get_or_execute_async(&key, now, move || {
            let fetch_started = Instant::now();
            let value = (SizedPayload::new(size), ExecutionCost::from_blocks(cost));
            closure_ns.store(nanos(fetch_started), Ordering::Relaxed);
            value
        }));
        let span = nanos(started);
        match lookup.source {
            LookupSource::Hit => replay.hit_ns.push(steady, span),
            LookupSource::Executed => replay.miss_self_ns.push(
                steady,
                span.saturating_sub(fetch_ns.load(Ordering::Relaxed)),
            ),
            LookupSource::Coalesced | LookupSource::Stale => {}
        }
        if (index as u64 + 1).is_multiple_of(REBALANCE_EVERY_RECORDS) {
            let started = Instant::now();
            black_box(engine.rebalance_now(now));
            replay.rebalance_ns.push(steady, nanos(started));
        }
    }
    replay
}

/// What the bare policy replay measured.
#[derive(Debug, Default)]
pub struct PolicyReplay {
    /// `get` spans, in nanoseconds.
    pub get_ns: Split,
    /// `insert` spans of misses, in nanoseconds.
    pub insert_ns: Split,
    /// Policy counters accumulated after warm-up.
    pub steady: CacheStats,
    /// Retained reference-information entries at the end.
    pub retained_entries: usize,
    /// Bytes of retained reference metadata at the end.
    pub retained_metadata_bytes: u64,
}

/// Replays the requests among the first `records` of `requests` whose key
/// falls in one shard's slice of the keyspace (a hash quarter, as the
/// engine's signature hashing deals keys to its four shards) through a bare
/// LNC-RA cache holding one shard's share of `capacity_bytes`.  When that
/// leaves fewer than 1 000 inserts after warm-up, the `extra` one-off
/// requests follow, shifted past the last timestamp, so the insert path is
/// measured on every workload.
pub fn policy_replay(
    requests: &[GetRequest],
    extra: &[GetRequest],
    capacity_bytes: u64,
    records: usize,
    warmup: usize,
) -> PolicyReplay {
    let mut cache: LncCache<SizedPayload> =
        LncCache::new(LncConfig::lnc_ra(capacity_bytes / SHARDS as u64));
    let mut replay = PolicyReplay::default();
    let mut at_warmup = CacheStats::default();
    let mut last_us = 0;
    for (index, request) in requests.iter().take(records).enumerate() {
        if index == warmup {
            at_warmup = cache.stats().clone();
        }
        if in_slice(request) {
            reference(
                &mut cache,
                &mut replay,
                request,
                request.timestamp_us,
                index >= warmup,
            );
        }
        last_us = request.timestamp_us;
    }
    if replay.insert_ns.steady.len() < stats::MIN_P99_SAMPLES {
        for request in extra {
            reference(
                &mut cache,
                &mut replay,
                request,
                last_us + request.timestamp_us,
                true,
            );
        }
    }
    let end = cache.stats();
    replay.steady = CacheStats {
        references: end.references - at_warmup.references,
        insertions_offered: end.insertions_offered - at_warmup.insertions_offered,
        admissions: end.admissions - at_warmup.admissions,
        evictions: end.evictions - at_warmup.evictions,
        ..CacheStats::default()
    };
    replay.retained_entries = cache.retained_entries();
    replay.retained_metadata_bytes = cache.retained_metadata_bytes();
    replay
}

/// Whether the engine would see `request` on one given shard of four: a
/// well-mixed hash quarter of the keyspace.
fn in_slice(request: &GetRequest) -> bool {
    let signature = QueryKey::from_raw_query(&request.key).signature().value();
    splitmix64(signature).is_multiple_of(SHARDS as u64)
}

/// One reference of the policy protocol: `get`, and `insert` on a miss.
fn reference(
    cache: &mut LncCache<SizedPayload>,
    replay: &mut PolicyReplay,
    request: &GetRequest,
    timestamp_us: u64,
    steady: bool,
) {
    let key = QueryKey::from_raw_query(&request.key);
    let now = Timestamp::from_micros(timestamp_us);
    let started = Instant::now();
    let hit = cache.get(&key, now).is_some();
    replay.get_ns.push(steady, nanos(started));
    if !hit {
        let payload = SizedPayload::new(request.result_bytes);
        let cost = ExecutionCost::from_blocks(request.cost_blocks);
        let started = Instant::now();
        let outcome: InsertOutcome = cache.insert(key, payload, cost, now);
        replay.insert_ns.push(steady, nanos(started));
        black_box(outcome);
    }
}

/// What the codec probe measured.
#[derive(Debug)]
pub struct Codec {
    /// Median over rounds of the mean `encode_request_into` time per frame.
    pub encode_request_ns: f64,
    /// Median over rounds of the mean `decode_response` time per frame.
    pub decode_response_ns: f64,
    /// Mean request plus response bytes on the wire, length prefixes
    /// included.
    pub bytes_per_request: f64,
    /// Frames per round.
    pub frames: usize,
}

/// Rounds the codec probe times; the median round is reported.
const CODEC_ROUNDS: usize = 31;

/// Times the wire codec over the frames of (up to 4096 of) `samples`: the
/// GETs the workload sent and the responses it got back.
pub fn codec(plan: &Plan, samples: &[Sample]) -> Codec {
    let chosen: Vec<&Sample> = samples.iter().take(4096).collect();
    let requests: Vec<Request> = chosen
        .iter()
        .map(|sample| Request::Get(plan.request(sample.index, false)))
        .collect();
    let responses: Vec<Vec<u8>> = chosen
        .iter()
        .enumerate()
        .map(|(id, sample)| {
            let base = plan.base(sample.index);
            let source = match sample.outcome {
                Outcome::Hit => Some(WireSource::Hit),
                Outcome::Executed => Some(WireSource::Executed),
                Outcome::Coalesced => Some(WireSource::Coalesced),
                Outcome::Stale => Some(WireSource::Stale),
                Outcome::FetchError => None,
            };
            let response = match source {
                Some(source) => Response::Get(GetResponse {
                    source,
                    cost_blocks: base.cost_blocks as f64,
                    full_len: base.result_bytes,
                    prefix: Vec::new(),
                    service_us: sample.service_us,
                    deadline_exceeded: false,
                }),
                None => Response::Error {
                    message: "fetch failed: injected terminal fetch failure".to_owned(),
                },
            };
            wire::encode_response(id as u64, &response).expect("response fits a frame")
        })
        .collect();

    let mut buffer = Vec::with_capacity(4096);
    let mut request_bytes = 0usize;
    for (id, request) in requests.iter().enumerate() {
        buffer.clear();
        wire::encode_request_into(&mut buffer, id as u64, request);
        request_bytes += buffer.len() + 4;
    }
    let response_bytes: usize = responses.iter().map(|body| body.len() + 4).sum();

    let frames = requests.len().max(1);
    let mut encode = Vec::with_capacity(CODEC_ROUNDS);
    let mut decode = Vec::with_capacity(CODEC_ROUNDS);
    for _ in 0..CODEC_ROUNDS {
        let started = Instant::now();
        for (id, request) in requests.iter().enumerate() {
            buffer.clear();
            wire::encode_request_into(&mut buffer, id as u64, black_box(request));
            black_box(&buffer);
        }
        encode.push(nanos(started) as f64 / frames as f64);
        let started = Instant::now();
        for body in &responses {
            black_box(wire::decode_response(black_box(body)).expect("own frame decodes"));
        }
        decode.push(nanos(started) as f64 / frames as f64);
    }
    Codec {
        encode_request_ns: stats::median(&encode).unwrap_or(0.0),
        decode_response_ns: stats::median(&decode).unwrap_or(0.0),
        bytes_per_request: (request_bytes + response_bytes) as f64 / frames as f64,
        frames: requests.len(),
    }
}

fn nanos(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
