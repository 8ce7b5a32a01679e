//! The closed-loop load generator: [`CLIENTS`](crate::workload::CLIENTS)
//! threads, one blocking connection each, each sending its next request
//! only after the previous answer arrived.
//!
//! The threads draw trace positions from one shared cursor, so the server
//! sees the trace in (nearly) its generated order.  Positions past the end
//! of the trace replay it again in *laps*, every timestamp shifted past the
//! previous lap's last one: logical time keeps increasing, and a lap
//! repeats a one-off detail query only long after the cache and the LNC
//! retained store have forgotten it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use watchman_server::{Client, ClientError, GetRequest, WireSource};
use watchman_sim::REBALANCE_EVERY_RECORDS;
use watchman_trace::Trace;

use crate::workload::Spec;

/// The generated requests of one run and the admin traffic around them.
pub struct Plan {
    /// One GET per trace record, in trace order.
    pub requests: Vec<GetRequest>,
    /// Logical-time offset between laps.
    pub lap_span_us: u64,
    /// Send `REBALANCE_NOW` after every 128th position.
    pub rebalance: bool,
    /// Client 0 invalidates a relation after every this many of its GETs.
    pub invalidate_every: u64,
    /// Relations the invalidations rotate through.
    pub relations: Vec<String>,
}

impl Plan {
    /// Builds the plan of `spec` over `trace`, taking the trace's query
    /// texts over instead of copying them.
    pub fn new(spec: &Spec, trace: Trace) -> Plan {
        let last = trace.records.last().map_or(0, |record| record.timestamp_us);
        let requests: Vec<GetRequest> = trace
            .records
            .into_iter()
            .map(|record| spec.request(record))
            .collect();
        Plan {
            requests,
            lap_span_us: last + 1_000_000,
            rebalance: spec.rebalance,
            invalidate_every: spec.invalidate_every,
            relations: watchman_warehouse::tpcd::catalog(1 << 20)
                .relations()
                .iter()
                .map(|relation| relation.name.clone())
                .collect(),
        }
    }

    /// The template request at trace position `index` (lap offset not
    /// applied).
    pub fn base(&self, index: u64) -> &GetRequest {
        &self.requests[(index % self.requests.len() as u64) as usize]
    }

    /// The GET sent for cursor position `index`.  Warm-up requests carry no
    /// fetch delay: warm-up only has to reach the steady cache state, and
    /// that state does not depend on how long executions take.
    pub fn request(&self, index: u64, warm: bool) -> GetRequest {
        let base = self.base(index);
        let lap = index / self.requests.len() as u64;
        GetRequest {
            key: base.key.clone(),
            timestamp_us: base.timestamp_us + lap * self.lap_span_us,
            fetch_delay_us: if warm { 0 } else { base.fetch_delay_us },
            ..*base
        }
    }
}

/// How a GET was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from cache.
    Hit,
    /// This request led an execution.
    Executed,
    /// Waited for another connection's execution.
    Coalesced,
    /// Answered with a last-known-good value after a failed fetch.
    Stale,
    /// Answered with a `fetch failed` error response.
    FetchError,
}

/// One answered GET.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Cursor position (identifies the request).
    pub index: u64,
    /// Client-observed round trip.
    pub rtt_ns: u64,
    /// Completion time since the phase started.
    pub done_ns: u64,
    /// Server-reported service time (0 for error responses).
    pub service_us: u64,
    /// Execution time the request asked a miss to take.
    pub fetch_delay_us: u32,
    /// How it was answered.
    pub outcome: Outcome,
}

/// One timed `INVALIDATE`.
#[derive(Debug, Clone, Copy)]
pub struct Invalidation {
    /// Client-observed round trip.
    pub rtt_ns: u64,
    /// Sets the request removed.
    pub invalidated: u32,
}

/// Everything one driven phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Answered GETs (unordered across clients).
    pub samples: Vec<Sample>,
    /// `REBALANCE_NOW` requests sent.
    pub rebalances: u64,
    /// `INVALIDATE` round trips.
    pub invalidations: Vec<Invalidation>,
    /// Requests that got no usable answer, with the reason.
    pub failures: Vec<String>,
    /// GETs whose `full_len` differed from the request's `result_bytes`.
    pub wrong_len: u64,
    /// Wall time of the phase, until the last client stopped.
    pub elapsed: Duration,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.rebalances += other.rebalances;
        self.invalidations.extend(other.invalidations);
        self.failures.extend(other.failures);
        self.wrong_len += other.wrong_len;
    }

    /// Requests attempted: answered GETs plus requests that failed.
    pub fn attempted(&self) -> u64 {
        (self.samples.len() + self.failures.len()) as u64
    }
}

/// When a phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// After the cursor reaches this position.
    Requests(u64),
    /// At this instant (each client finishes its request in flight).
    Until(Instant),
}

/// Drives `clients` through `plan` from the shared `cursor` until `budget`
/// is spent.
pub fn drive(
    clients: &mut [Client],
    plan: &Plan,
    cursor: &AtomicU64,
    budget: Budget,
    warm: bool,
) -> Phase {
    let started = Instant::now();
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(slot, client)| {
                scope.spawn(move || run_client(slot, client, plan, cursor, budget, warm, started))
            })
            .collect();
        for handle in handles {
            phase.merge(handle.join().expect("client thread panicked"));
        }
    });
    phase.elapsed = started.elapsed();
    if let Budget::Requests(limit) = budget {
        // Threads that stopped drew one position each past the limit;
        // the next phase resumes exactly at the limit.
        cursor.store(limit, Ordering::Relaxed);
    }
    phase
}

fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

fn run_client(
    slot: usize,
    client: &mut Client,
    plan: &Plan,
    cursor: &AtomicU64,
    budget: Budget,
    warm: bool,
    started: Instant,
) -> Phase {
    let mut phase = Phase::default();
    let mut own_gets = 0u64;
    loop {
        if let Budget::Until(deadline) = budget {
            if Instant::now() >= deadline {
                break;
            }
        }
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        if let Budget::Requests(limit) = budget {
            if index >= limit {
                break;
            }
        }
        let request = plan.request(index, warm);
        let expected_len = request.result_bytes;
        let timestamp_us = request.timestamp_us;
        let fetch_delay_us = request.fetch_delay_us;
        let sent = Instant::now();
        let answer = client.get(request);
        let rtt_ns = nanos(sent.elapsed());
        let (outcome, service_us) = match answer {
            Ok(response) => {
                if response.full_len != expected_len {
                    phase.wrong_len += 1;
                }
                let outcome = match response.source {
                    WireSource::Hit => Outcome::Hit,
                    WireSource::Executed => Outcome::Executed,
                    WireSource::Coalesced => Outcome::Coalesced,
                    WireSource::Stale => Outcome::Stale,
                };
                (outcome, response.service_us)
            }
            Err(ClientError::Server { message }) if message.starts_with("fetch failed") => {
                (Outcome::FetchError, 0)
            }
            Err(err) => {
                // The connection is no longer trustworthy: stop this client.
                phase
                    .failures
                    .push(format!("GET at position {index}: {err}"));
                break;
            }
        };
        phase.samples.push(Sample {
            index,
            rtt_ns,
            done_ns: nanos(started.elapsed()),
            service_us,
            fetch_delay_us,
            outcome,
        });

        if plan.rebalance && (index + 1).is_multiple_of(REBALANCE_EVERY_RECORDS) {
            if let Err(err) = client.rebalance_now(timestamp_us) {
                phase
                    .failures
                    .push(format!("REBALANCE_NOW at position {index}: {err}"));
                break;
            }
            phase.rebalances += 1;
        }
        own_gets += 1;
        if slot == 0 && plan.invalidate_every > 0 && own_gets.is_multiple_of(plan.invalidate_every)
        {
            let relation =
                &plan.relations[(index / plan.invalidate_every) as usize % plan.relations.len()];
            let sent = Instant::now();
            match client.invalidate_relation(relation.as_str()) {
                Ok((_, invalidated)) => phase.invalidations.push(Invalidation {
                    rtt_ns: nanos(sent.elapsed()),
                    invalidated,
                }),
                Err(err) => {
                    phase.failures.push(format!("INVALIDATE {relation}: {err}"));
                    break;
                }
            }
        }
    }
    phase
}
