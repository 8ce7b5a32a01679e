//! Correctness checks run on every measured window.  Any failed check
//! makes the run incorrect.

use std::collections::HashMap;

use watchman_core::engine::StatsSnapshot;
use watchman_core::key::QueryKey;
use watchman_core::metrics::CacheStats;
use watchman_server::FaultPlan;

use crate::drive::{Outcome, Phase, Plan};

/// Client-side count of each answer source over a window.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Answered GETs.
    pub gets: u64,
    /// Answered from cache.
    pub hits: u64,
    /// Led an execution.
    pub executed: u64,
    /// Coalesced onto another execution.
    pub coalesced: u64,
    /// Last-known-good value served after a failed fetch.
    pub stale: u64,
    /// `fetch failed` error responses.
    pub errors: u64,
}

impl Tally {
    /// Counts the answers of `phase`.
    pub fn of(phase: &Phase) -> Tally {
        let mut tally = Tally::default();
        for sample in &phase.samples {
            tally.gets += 1;
            match sample.outcome {
                Outcome::Hit => tally.hits += 1,
                Outcome::Executed => tally.executed += 1,
                Outcome::Coalesced => tally.coalesced += 1,
                Outcome::Stale => tally.stale += 1,
                Outcome::FetchError => tally.errors += 1,
            }
        }
        tally
    }
}

/// Engine counters accumulated between two `STATS` snapshots.
#[derive(Debug, Default, Clone, Copy)]
pub struct Delta {
    /// References.
    pub references: u64,
    /// Hits.
    pub hits: u64,
    /// Coalesced references.
    pub coalesced: u64,
    /// Terminal fetch errors.
    pub fetch_errors: u64,
    /// Stale serves.
    pub stale_serves: u64,
    /// References that executed: what remains of `references`.
    pub misses: u64,
    /// CSR numerator.
    pub saved_cost: f64,
    /// CSR denominator.
    pub total_cost: f64,
    /// Fetch retries.
    pub fetch_retries: u64,
    /// Negative-cache answers.
    pub negative_hits: u64,
}

impl Delta {
    /// The window's counters, or why they do not add up.
    pub fn between(before: &StatsSnapshot, after: &StatsSnapshot) -> Result<Delta, String> {
        let sub = |name: &str, a: u64, b: u64| {
            a.checked_sub(b)
                .ok_or_else(|| format!("STATS counter {name} went backwards ({b} -> {a})"))
        };
        let (a, b): (&CacheStats, &CacheStats) = (&after.total, &before.total);
        let references = sub("references", a.references, b.references)?;
        let hits = sub("hits", a.hits, b.hits)?;
        let coalesced = sub("coalesced", a.coalesced, b.coalesced)?;
        let fetch_errors = sub("fetch_errors", a.fetch_errors, b.fetch_errors)?;
        let stale_serves = sub("stale_serves", a.stale_serves, b.stale_serves)?;
        let misses = references
            .checked_sub(hits + coalesced + fetch_errors + stale_serves)
            .ok_or_else(|| {
                format!(
                    "references {references} < hits {hits} + coalesced {coalesced} + \
                     fetch_errors {fetch_errors} + stale {stale_serves}"
                )
            })?;
        Ok(Delta {
            references,
            hits,
            coalesced,
            fetch_errors,
            stale_serves,
            misses,
            saved_cost: a.saved_cost - b.saved_cost,
            total_cost: a.total_cost - b.total_cost,
            fetch_retries: sub("fetch_retries", after.fetch_retries, before.fetch_retries)?,
            negative_hits: sub("negative_hits", after.negative_hits, before.negative_hits)?,
        })
    }

    /// Cost savings ratio over the window.
    pub fn csr(&self) -> f64 {
        if self.total_cost > 0.0 {
            self.saved_cost / self.total_cost
        } else {
            0.0
        }
    }

    /// Hit ratio over the window (coalesced references count as satisfied,
    /// as in the engine's own `hit_ratio`).
    pub fn hit_ratio(&self) -> f64 {
        if self.references > 0 {
            (self.hits + self.coalesced) as f64 / self.references as f64
        } else {
            0.0
        }
    }
}

/// Whether a key's fetches fail under the plan `FaultPlan::canonical(seed)`,
/// judged on a private twin of the plan through its public interface: the
/// first two fetch invocations of a key are healthy exactly when the key is
/// healthy (flaky keys fail their first attempt, doomed keys every attempt
/// after the first).
pub struct FaultOracle {
    twin: FaultPlan,
    verdicts: HashMap<u64, bool>,
}

impl FaultOracle {
    /// An oracle for the plan of `seed`.
    pub fn new(seed: u64) -> FaultOracle {
        FaultOracle {
            twin: FaultPlan::canonical(seed),
            verdicts: HashMap::new(),
        }
    }

    /// Whether the plan classifies `key` as faulty.
    pub fn faulty(&mut self, key: &str) -> bool {
        let signature = QueryKey::from_raw_query(key).signature().value();
        let twin = &self.twin;
        *self.verdicts.entry(signature).or_insert_with(|| {
            let first = twin.fetch_fault(signature).is_some();
            let second = twin.fetch_fault(signature).is_some();
            first || second
        })
    }
}

/// Checks one measured window; returns every violation found.
pub fn window(
    plan: &Plan,
    phase: &Phase,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    oracle: Option<&mut FaultOracle>,
) -> Vec<String> {
    let mut problems: Vec<String> = phase.failures.clone();
    if phase.wrong_len > 0 {
        problems.push(format!(
            "{} responses carried a full_len other than the request's result_bytes",
            phase.wrong_len
        ));
    }
    let tally = Tally::of(phase);
    match Delta::between(before, after) {
        Err(problem) => problems.push(problem),
        Ok(delta) => {
            let pairs = [
                ("references", delta.references, tally.gets),
                ("hits", delta.hits, tally.hits),
                ("misses", delta.misses, tally.executed),
                ("coalesced", delta.coalesced, tally.coalesced),
                ("stale_serves", delta.stale_serves, tally.stale),
                ("fetch_errors", delta.fetch_errors, tally.errors),
            ];
            for (name, server, client) in pairs {
                if server != client {
                    problems.push(format!(
                        "server {name} delta {server} != client count {client}"
                    ));
                }
            }
        }
    }
    let shard_sum: u64 = after.per_shard_capacity.iter().sum();
    if shard_sum != after.capacity_bytes {
        problems.push(format!(
            "shard capacities sum to {shard_sum}, configured {}",
            after.capacity_bytes
        ));
    }
    match oracle {
        None if tally.errors > 0 => problems.push(format!(
            "{} error responses on a workload without a fault plan",
            tally.errors
        )),
        None => {}
        Some(oracle) => {
            let unexplained = phase
                .samples
                .iter()
                .filter(|sample| sample.outcome == Outcome::FetchError)
                .filter(|sample| !oracle.faulty(&plan.base(sample.index).key))
                .count();
            if unexplained > 0 {
                problems.push(format!(
                    "{unexplained} error responses for keys the fault plan classifies as healthy"
                ));
            }
        }
    }
    problems
}
