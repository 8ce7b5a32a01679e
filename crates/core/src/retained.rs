//! Retained reference information (paper §2.4).
//!
//! With `K > 1`, a freshly admitted retrieved set has incomplete reference
//! information and is therefore among the first eviction candidates.  If its
//! reference history were discarded together with the set, the history would
//! have to be rebuilt from scratch after every re-reference and the set could
//! never accumulate enough references to stay cached — a starvation problem
//! first described for LRU-K.
//!
//! WATCHMAN therefore *retains* the reference information (timestamps, size
//! and execution cost) of evicted and admission-rejected sets in a side
//! table.  Instead of a wall-clock timeout (the "Five Minute Rule"), retained
//! entries are dropped whenever their profit falls below the smallest profit
//! among currently cached sets: valuable histories (small, expensive,
//! frequently referenced sets) survive long, worthless ones disappear
//! quickly, and the amount of retained information automatically scales with
//! the cache size.
//!
//! # Layout
//!
//! The purge runs after every LNC-RA admission and rejection, and the
//! capacity rebalancer ranks the table on every pass, so the table is laid
//! out for scans: beside the records sits a dense vector of each history's
//! packed profit inputs, and scans over it evaluate exactly the f64
//! expression of [`RetainedInfo::profit`].  Every purge, displacement and
//! ranking is therefore the one a scan over the records themselves would
//! make.  [`RetainedStore`] describes the layout and the purge's pre-filter.

use std::collections::HashMap;

use crate::clock::Timestamp;
use crate::history::ReferenceHistory;
use crate::key::QueryKey;
use crate::profit::Profit;
use crate::value::ExecutionCost;

/// Reference metadata kept for a retrieved set that is not currently cached.
#[derive(Debug, Clone)]
pub struct RetainedInfo {
    /// The query key the information belongs to.
    pub key: QueryKey,
    /// The size of the retrieved set when it was last materialized.
    pub size_bytes: u64,
    /// The execution cost of the associated query.
    pub cost: ExecutionCost,
    /// The last (up to) K reference times.
    pub history: ReferenceHistory,
}

impl RetainedInfo {
    /// The profit of the retrieved set this information describes, evaluated
    /// at time `now` using the maximal available number of reference samples
    /// (paper §2.4: fewer than K samples are used as-is).
    pub fn profit(&self, now: Timestamp) -> Profit {
        match self.history.rate(now) {
            Some(rate) => Profit::of_set(rate, self.cost, self.size_bytes),
            None => Profit::ZERO,
        }
    }

    /// Approximate number of bytes of cache metadata this entry occupies.
    pub fn metadata_bytes(&self) -> u64 {
        self.key.metadata_bytes() + self.history.metadata_bytes() + 16
    }
}

/// The profit inputs of one retained history, packed so that the store's
/// profit scans read contiguous memory instead of chasing each history's
/// window.
///
/// [`ProfitInputs::profit`] evaluates exactly the f64 expression of
/// [`RetainedInfo::profit`] — [`ReferenceHistory::rate`] followed by
/// [`Profit::of_set`] — so every comparison it feeds is bit-identical to one
/// made on the history itself.
#[derive(Debug, Clone, Copy)]
struct ProfitInputs {
    /// The oldest sample of the window (`t_K` in Eq. 3), in microseconds.
    oldest_us: u64,
    /// The most recent sample, in microseconds.
    newest_us: u64,
    /// Samples in the window, as the numerator of Eq. 3; zero for an empty
    /// history.
    samples: f64,
    cost: ExecutionCost,
    size_bytes: u64,
    /// `n·c/s`, the profit times the elapsed time, for the purge's
    /// pre-filter; zero (never passes) if it does not fit an f64.
    weight: f64,
}

/// Relative margin by which the purge's pre-filter must clear its
/// threshold.  Each side of that comparison, and the exact profit
/// expression, carries at most a few ulps (2⁻⁵³ each) of rounding error, so
/// 2⁻³⁰ leaves several orders of magnitude of slack.
const PREFILTER_MARGIN: f64 = 1.0 + 1.0 / (1u64 << 30) as f64;

/// The bar [`ProfitInputs::clearly_at_least`] compares against for a purge
/// at `threshold`: the threshold times the margin, or +∞ (nothing passes)
/// for a zero or subnormal threshold, where the margin's error bound does
/// not hold.
fn prefilter_bar(threshold: Profit) -> f64 {
    let threshold = threshold.value();
    if threshold.is_normal() {
        threshold * PREFILTER_MARGIN
    } else {
        f64::INFINITY
    }
}

impl ProfitInputs {
    fn of(info: &RetainedInfo) -> Self {
        let history = &info.history;
        let samples = history.sample_count() as f64;
        let weight = samples * info.cost.value() / info.size_bytes.max(1) as f64;
        ProfitInputs {
            oldest_us: history.oldest_reference().map_or(0, Timestamp::as_micros),
            newest_us: history.last_reference().map_or(0, Timestamp::as_micros),
            samples,
            cost: info.cost,
            size_bytes: info.size_bytes,
            weight: if weight.is_finite() { weight } else { 0.0 },
        }
    }

    /// The elapsed time of Eq. 3 at `now`: `now` is clamped to the newest
    /// sample and the span to at least one microsecond, as
    /// [`ReferenceHistory::rate`] does.
    fn elapsed_us(&self, now: Timestamp) -> u64 {
        now.as_micros()
            .max(self.newest_us)
            .saturating_sub(self.oldest_us)
            .max(1)
    }

    /// Exactly [`ReferenceHistory::rate`].
    fn rate(&self, now: Timestamp) -> Option<f64> {
        (self.samples > 0.0).then(|| self.samples / self.elapsed_us(now) as f64)
    }

    /// Exactly [`RetainedInfo::profit`].
    fn profit(&self, now: Timestamp) -> Profit {
        match self.rate(now) {
            Some(rate) => Profit::of_set(rate, self.cost, self.size_bytes),
            None => Profit::ZERO,
        }
    }

    /// Whether the profit at `now` is certainly at least the threshold
    /// `bar` was made from ([`prefilter_bar`]), decided with one
    /// multiplication: `n·c/s > T·margin·e`.
    ///
    /// `false` decides nothing — the caller then makes the exact
    /// [`Profit`] comparison — so this filter can only skip entries, never
    /// drop one the exact comparison would keep or keep one it would drop.
    /// It holds back where its error bound does not: a zero or subnormal
    /// threshold (an infinite bar), or an overflowing weight (zero).  With a
    /// normal threshold every intermediate of the exact expression that a
    /// passing entry computes is normal too, so the margin covers its
    /// rounding.
    fn clearly_at_least(&self, bar: f64, now: Timestamp) -> bool {
        self.weight > bar * self.elapsed_us(now) as f64
    }
}

/// The side table of retained reference information.
///
/// The layout is dense: a key→slot map plus two slot-parallel vectors, the
/// [`RetainedInfo`] records and their packed profit inputs (oldest and
/// newest reference, sample count, cost, size).  The profit
/// scans — the §2.4 purge, the hard-bound displacement and the greedy
/// packing behind [`RetainedStore::greedy_pack`] — walk the packed vector
/// and touch a record only for the entries they act on.  Entries leave by
/// swap-remove, so iteration order is unspecified (as it always was).
///
/// The purge runs a multiply-only pre-filter that skips entries clearly
/// above the threshold; it never decides alone, because rounding near the
/// threshold could tip its answer.  Every entry it does not skip is judged
/// by the exact [`Profit`] comparison, so purges drop exactly the entries a
/// comparison of [`RetainedInfo::profit`] values would.
#[derive(Debug, Clone, Default)]
pub struct RetainedStore {
    /// The slot of every retained key.
    slots: HashMap<QueryKey, usize>,
    /// Slot-indexed records.
    infos: Vec<RetainedInfo>,
    /// Slot-indexed profit inputs of `infos`.
    inputs: Vec<ProfitInputs>,
    /// Hard safety bound on the number of retained entries; the profit-based
    /// policy normally keeps the table far smaller, but a bound protects
    /// against pathological workloads where the cache is empty (min profit is
    /// undefined) for long stretches.
    max_entries: usize,
}

impl RetainedStore {
    /// Creates a store bounded to `max_entries` retained histories.
    pub fn new(max_entries: usize) -> Self {
        RetainedStore {
            slots: HashMap::new(),
            infos: Vec::new(),
            inputs: Vec::new(),
            max_entries: max_entries.max(1),
        }
    }

    /// Number of retained histories.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Total metadata bytes held by the store.
    pub fn metadata_bytes(&self) -> u64 {
        self.infos.iter().map(RetainedInfo::metadata_bytes).sum()
    }

    /// Returns the retained information for `key`, if any.
    pub fn get(&self, key: &QueryKey) -> Option<&RetainedInfo> {
        self.slots.get(key).map(|&slot| &self.infos[slot])
    }

    /// Whether information for `key` is retained.
    pub fn contains(&self, key: &QueryKey) -> bool {
        self.slots.contains_key(key)
    }

    /// Records a reference to a non-cached retrieved set, if its information
    /// is retained.  Returns `true` if information for the key is retained.
    ///
    /// A reference carrying the same timestamp as the most recent recorded
    /// one is **not** recorded again: one logical reference may reach the
    /// cache twice at the same logical time (a single-flight waiter retrying
    /// after an abandoned flight re-enters the lookup path), and double
    /// counting it would inflate the λ estimate of Eq. 3.
    pub fn record_reference(&mut self, key: &QueryKey, now: Timestamp) -> bool {
        let Some(&slot) = self.slots.get(key) else {
            return false;
        };
        let info = &mut self.infos[slot];
        if info.history.last_reference() != Some(now) {
            info.history.record(now);
            self.inputs[slot] = ProfitInputs::of(info);
        }
        true
    }

    /// Inserts or replaces retained information.  If the store is at its hard
    /// bound, the entry with the lowest profit is dropped first (ties broken
    /// by key signature, so displacement is deterministic rather than
    /// following slot order).
    pub fn insert(&mut self, info: RetainedInfo, now: Timestamp) {
        let inputs = ProfitInputs::of(&info);
        if let Some(&slot) = self.slots.get(&info.key) {
            self.infos[slot] = info;
            self.inputs[slot] = inputs;
            return;
        }
        if self.len() >= self.max_entries {
            let worst = self
                .inputs
                .iter()
                .zip(&self.infos)
                .enumerate()
                .map(|(slot, (inputs, info))| {
                    (inputs.profit(now), info.key.signature().value(), slot)
                })
                .min();
            if let Some((worst_profit, _, worst_slot)) = worst {
                // Only displace an existing entry if the newcomer is at least
                // as valuable; otherwise drop the newcomer.
                if inputs.profit(now) >= worst_profit {
                    self.remove_slot(worst_slot);
                } else {
                    return;
                }
            }
        }
        self.slots.insert(info.key.clone(), self.infos.len());
        self.infos.push(info);
        self.inputs.push(inputs);
    }

    /// Removes and returns the retained information for `key`, typically
    /// because the retrieved set is being (re-)admitted to the cache.
    pub fn take(&mut self, key: &QueryKey) -> Option<RetainedInfo> {
        let slot = *self.slots.get(key)?;
        Some(self.remove_slot(slot))
    }

    /// Swap-removes `slot`, re-pointing the key that moves into it.
    fn remove_slot(&mut self, slot: usize) -> RetainedInfo {
        let info = self.infos.swap_remove(slot);
        self.inputs.swap_remove(slot);
        self.slots.remove(&info.key);
        if let Some(moved) = self.infos.get(slot) {
            *self
                .slots
                .get_mut(&moved.key)
                .expect("every retained record has a slot") = slot;
        }
        info
    }

    /// Applies the paper's retention policy: drop every retained entry whose
    /// profit is smaller than `min_cached_profit`, the least profit among all
    /// currently cached retrieved sets.
    ///
    /// Returns the number of entries dropped.  When the cache is empty the
    /// caller should pass [`Profit::ZERO`], which retains everything (subject
    /// to the hard bound).
    pub fn purge_below(&mut self, min_cached_profit: Profit, now: Timestamp) -> usize {
        let before = self.len();
        let bar = prefilter_bar(min_cached_profit);
        let mut slot = 0;
        while slot < self.inputs.len() {
            let inputs = &self.inputs[slot];
            if inputs.clearly_at_least(bar, now) || inputs.profit(now) >= min_cached_profit {
                slot += 1;
            } else {
                // The last entry moves into `slot`; judge it next.
                self.remove_slot(slot);
            }
        }
        before - self.len()
    }

    /// Removes every retained entry.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.infos.clear();
        self.inputs.clear();
    }

    /// Iterates over retained entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &RetainedInfo> {
        self.infos.iter()
    }

    /// The aggregate profit (Eq. 5) of the retained sets that greedily fill
    /// `bytes` of hypothetical extra capacity: in descending profit at
    /// `now` (ties by key signature), each set that still fits is packed.
    ///
    /// This is the marginal gain of growing the cache by `bytes`
    /// ([`QueryCache::grow_gain`](crate::policy::QueryCache::grow_gain)).
    /// Sets larger than `bytes` can never be packed, so they are dropped
    /// before ranking, and each candidate is scored once.
    pub fn greedy_pack(&self, bytes: u64, now: Timestamp) -> Profit {
        let mut ranked: Vec<(std::cmp::Reverse<Profit>, u64, usize)> = self
            .inputs
            .iter()
            .enumerate()
            .filter(|(_, inputs)| inputs.size_bytes <= bytes)
            .map(|(slot, inputs)| {
                (
                    std::cmp::Reverse(inputs.profit(now)),
                    self.infos[slot].key.signature().value(),
                    slot,
                )
            })
            .collect();
        ranked.sort_unstable();
        let mut free = bytes;
        Profit::of_list(ranked.into_iter().filter_map(|(_, _, slot)| {
            let inputs = &self.inputs[slot];
            (inputs.size_bytes <= free).then(|| {
                free -= inputs.size_bytes;
                (
                    inputs.rate(now).unwrap_or(0.0),
                    inputs.cost,
                    inputs.size_bytes,
                )
            })
        }))
    }
}

/// The `HashMap` store this module shipped with, kept verbatim (bar its name
/// and the packing loop `LncCache::grow_gain` ran over its ranking) as the
/// differential-test oracle for the dense [`RetainedStore`].
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// The side table of retained reference information.
    #[derive(Debug, Clone, Default)]
    pub struct HashMapRetainedStore {
        entries: HashMap<QueryKey, RetainedInfo>,
        /// Hard safety bound on the number of retained entries; the profit-based
        /// policy normally keeps the table far smaller, but a bound protects
        /// against pathological workloads where the cache is empty (min profit is
        /// undefined) for long stretches.
        max_entries: usize,
    }

    impl HashMapRetainedStore {
        /// Creates a store bounded to `max_entries` retained histories.
        pub fn new(max_entries: usize) -> Self {
            HashMapRetainedStore {
                entries: HashMap::new(),
                max_entries: max_entries.max(1),
            }
        }

        /// Number of retained histories.
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        /// Whether the store is empty.
        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        /// Total metadata bytes held by the store.
        pub fn metadata_bytes(&self) -> u64 {
            self.entries
                .values()
                .map(RetainedInfo::metadata_bytes)
                .sum()
        }

        /// Returns the retained information for `key`, if any.
        pub fn get(&self, key: &QueryKey) -> Option<&RetainedInfo> {
            self.entries.get(key)
        }

        /// Whether information for `key` is retained.
        pub fn contains(&self, key: &QueryKey) -> bool {
            self.entries.contains_key(key)
        }

        /// Records a reference to a non-cached retrieved set, if its information
        /// is retained.  Returns `true` if information for the key is retained.
        ///
        /// A reference carrying the same timestamp as the most recent recorded
        /// one is **not** recorded again: one logical reference may reach the
        /// cache twice at the same logical time (a single-flight waiter retrying
        /// after an abandoned flight re-enters the lookup path), and double
        /// counting it would inflate the λ estimate of Eq. 3.
        pub fn record_reference(&mut self, key: &QueryKey, now: Timestamp) -> bool {
            match self.entries.get_mut(key) {
                Some(info) => {
                    if info.history.last_reference() != Some(now) {
                        info.history.record(now);
                    }
                    true
                }
                None => false,
            }
        }

        /// Inserts or replaces retained information.  If the store is at its hard
        /// bound, the entry with the lowest profit is dropped first (ties broken
        /// by key signature, so displacement is deterministic rather than
        /// following hash-map iteration order).
        pub fn insert(&mut self, info: RetainedInfo, now: Timestamp) {
            if !self.entries.contains_key(&info.key) && self.entries.len() >= self.max_entries {
                if let Some(worst) = self
                    .entries
                    .values()
                    .min_by_key(|i| (i.profit(now), i.key.signature().value()))
                    .map(|i| i.key.clone())
                {
                    // Only displace an existing entry if the newcomer is at least
                    // as valuable; otherwise drop the newcomer.
                    let worst_profit = self.entries[&worst].profit(now);
                    if info.profit(now) >= worst_profit {
                        self.entries.remove(&worst);
                    } else {
                        return;
                    }
                }
            }
            self.entries.insert(info.key.clone(), info);
        }

        /// Removes and returns the retained information for `key`, typically
        /// because the retrieved set is being (re-)admitted to the cache.
        pub fn take(&mut self, key: &QueryKey) -> Option<RetainedInfo> {
            self.entries.remove(key)
        }

        /// Applies the paper's retention policy: drop every retained entry whose
        /// profit is smaller than `min_cached_profit`, the least profit among all
        /// currently cached retrieved sets.
        ///
        /// Returns the number of entries dropped.  When the cache is empty the
        /// caller should pass [`Profit::ZERO`], which retains everything (subject
        /// to the hard bound).
        pub fn purge_below(&mut self, min_cached_profit: Profit, now: Timestamp) -> usize {
            let before = self.entries.len();
            self.entries
                .retain(|_, info| info.profit(now) >= min_cached_profit);
            before - self.entries.len()
        }

        /// Removes every retained entry.
        pub fn clear(&mut self) {
            self.entries.clear();
        }

        /// Iterates over retained entries in unspecified order.
        pub fn iter(&self) -> impl Iterator<Item = &RetainedInfo> {
            self.entries.values()
        }

        /// Retained entries ranked by descending profit at `now`, ties broken by
        /// key signature.
        ///
        /// This is the lookup discipline shared by the capacity-planning signals
        /// (`QueryCache::grow_gain` greedily packs this order): callers no longer
        /// sort hash-map iteration output themselves, which made tie outcomes
        /// depend on the map's seed.
        pub fn ranked_by_profit_desc(&self, now: Timestamp) -> Vec<&RetainedInfo> {
            let mut ranked: Vec<&RetainedInfo> = self.entries.values().collect();
            ranked.sort_unstable_by_key(|info| {
                (
                    std::cmp::Reverse(info.profit(now)),
                    info.key.signature().value(),
                )
            });
            ranked
        }

        /// The greedy packing `LncCache::grow_gain` ran over
        /// [`HashMapRetainedStore::ranked_by_profit_desc`].
        pub fn greedy_pack(&self, bytes: u64, now: Timestamp) -> Profit {
            let mut free = bytes;
            let mut packed = Vec::new();
            for info in self.ranked_by_profit_desc(now) {
                if info.size_bytes <= free {
                    free -= info.size_bytes;
                    packed.push((
                        info.history.rate(now).unwrap_or(0.0),
                        info.cost,
                        info.size_bytes,
                    ));
                }
            }
            Profit::of_list(packed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    fn info(name: &str, size: u64, cost: f64, refs: &[u64], k: usize) -> RetainedInfo {
        let mut history = ReferenceHistory::new(k);
        for &r in refs {
            history.record(ts(r));
        }
        RetainedInfo {
            key: QueryKey::new(name.to_owned()),
            size_bytes: size,
            cost: ExecutionCost::from_block_reads(cost),
            history,
        }
    }

    #[test]
    fn record_reference_updates_existing_entry_only() {
        let mut store = RetainedStore::new(16);
        store.insert(info("q1", 100, 50.0, &[10], 2), ts(10));
        assert!(store.record_reference(&QueryKey::new("q1"), ts(20)));
        assert!(!store.record_reference(&QueryKey::new("q2"), ts(20)));
        assert_eq!(
            store
                .get(&QueryKey::new("q1"))
                .unwrap()
                .history
                .sample_count(),
            2
        );
    }

    #[test]
    fn duplicate_timestamp_references_are_recorded_once() {
        // A single-flight waiter retrying after an abandoned flight re-enters
        // the lookup path with the same logical timestamp; the retained
        // history must not count that logical reference twice.
        let mut store = RetainedStore::new(16);
        store.insert(info("q1", 100, 50.0, &[10], 4), ts(10));
        assert!(store.record_reference(&QueryKey::new("q1"), ts(20)));
        assert!(store.record_reference(&QueryKey::new("q1"), ts(20)));
        assert_eq!(
            store
                .get(&QueryKey::new("q1"))
                .unwrap()
                .history
                .sample_count(),
            2,
            "the second same-timestamp record must be a no-op"
        );
        // A later reference still counts.
        assert!(store.record_reference(&QueryKey::new("q1"), ts(30)));
        assert_eq!(
            store
                .get(&QueryKey::new("q1"))
                .unwrap()
                .history
                .sample_count(),
            3
        );
    }

    #[test]
    fn take_removes_the_entry() {
        let mut store = RetainedStore::new(16);
        store.insert(info("q1", 100, 50.0, &[10], 2), ts(10));
        let taken = store.take(&QueryKey::new("q1")).unwrap();
        assert_eq!(taken.size_bytes, 100);
        assert!(store.is_empty());
        assert!(store.take(&QueryKey::new("q1")).is_none());
    }

    #[test]
    fn purge_drops_entries_below_min_cached_profit() {
        let mut store = RetainedStore::new(16);
        // Valuable: small, expensive, recently referenced twice.
        store.insert(info("valuable", 10, 1_000.0, &[90, 100], 2), ts(100));
        // Worthless: huge, cheap, referenced once long ago.
        store.insert(info("worthless", 1_000_000, 1.0, &[1], 2), ts(100));
        let now = ts(200);
        let threshold = store.get(&QueryKey::new("valuable")).unwrap().profit(now);
        // Purge with a threshold equal to the valuable entry's profit: the
        // valuable entry survives (>=), the worthless one is dropped.
        let dropped = store.purge_below(threshold, now);
        assert_eq!(dropped, 1);
        assert!(store.contains(&QueryKey::new("valuable")));
        assert!(!store.contains(&QueryKey::new("worthless")));
    }

    #[test]
    fn purge_with_zero_threshold_keeps_everything() {
        let mut store = RetainedStore::new(16);
        store.insert(info("a", 10, 10.0, &[5], 2), ts(5));
        store.insert(info("b", 10, 10.0, &[6], 2), ts(6));
        assert_eq!(store.purge_below(Profit::ZERO, ts(100)), 0);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn hard_bound_displaces_lowest_profit_entry() {
        let mut store = RetainedStore::new(2);
        store.insert(info("low", 1_000_000, 1.0, &[1], 2), ts(1));
        store.insert(info("mid", 100, 100.0, &[2], 2), ts(2));
        // Store is full; inserting a high-profit entry displaces "low".
        store.insert(info("high", 10, 10_000.0, &[3], 2), ts(3));
        assert_eq!(store.len(), 2);
        assert!(store.contains(&QueryKey::new("high")));
        assert!(store.contains(&QueryKey::new("mid")));
        assert!(!store.contains(&QueryKey::new("low")));
    }

    #[test]
    fn hard_bound_rejects_entry_worse_than_all_retained() {
        let mut store = RetainedStore::new(2);
        store.insert(info("a", 10, 1_000.0, &[1, 2], 2), ts(2));
        store.insert(info("b", 10, 1_000.0, &[1, 2], 2), ts(2));
        store.insert(info("junk", 1_000_000, 1.0, &[3], 2), ts(3));
        assert_eq!(store.len(), 2);
        assert!(!store.contains(&QueryKey::new("junk")));
    }

    #[test]
    fn reinsert_same_key_replaces_in_place_even_when_full() {
        let mut store = RetainedStore::new(1);
        store.insert(info("a", 10, 10.0, &[1], 2), ts(1));
        store.insert(info("a", 20, 10.0, &[2], 2), ts(2));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&QueryKey::new("a")).unwrap().size_bytes, 20);
    }

    #[test]
    fn profit_of_entry_without_references_is_zero() {
        let i = info("empty", 100, 50.0, &[], 2);
        assert_eq!(i.profit(ts(10)), Profit::ZERO);
    }

    #[test]
    fn metadata_bytes_is_positive_and_additive() {
        let mut store = RetainedStore::new(8);
        assert_eq!(store.metadata_bytes(), 0);
        store.insert(info("a", 10, 10.0, &[1], 2), ts(1));
        let one = store.metadata_bytes();
        store.insert(info("bb", 10, 10.0, &[1, 2], 2), ts(2));
        assert!(store.metadata_bytes() > one);
    }

    #[test]
    fn clear_and_iter() {
        let mut store = RetainedStore::new(8);
        store.insert(info("a", 10, 10.0, &[1], 2), ts(1));
        store.insert(info("b", 10, 10.0, &[1], 2), ts(1));
        assert_eq!(store.iter().count(), 2);
        store.clear();
        assert!(store.is_empty());
    }

    /// The packed-input profit, bit for bit against [`RetainedInfo::profit`].
    fn assert_packed_profit_exact(info: &RetainedInfo, now: Timestamp) {
        let packed = ProfitInputs::of(info);
        assert_eq!(
            packed.profit(now).value().to_bits(),
            info.profit(now).value().to_bits(),
            "{info:?} at {now}"
        );
        assert_eq!(
            packed.rate(now).map(f64::to_bits),
            info.history.rate(now).map(f64::to_bits),
            "{info:?} at {now}"
        );
    }

    #[test]
    fn packed_profit_of_empty_history_is_zero() {
        let empty = info("empty", 100, 50.0, &[], 2);
        assert_packed_profit_exact(&empty, ts(10));
        assert_eq!(ProfitInputs::of(&empty).profit(ts(10)), Profit::ZERO);
    }

    #[test]
    fn packed_profit_with_zero_cost() {
        assert_packed_profit_exact(&info("free", 100, 0.0, &[5, 9], 4), ts(40));
    }

    #[test]
    fn packed_profit_with_zero_size() {
        assert_packed_profit_exact(&info("weightless", 0, 75.5, &[5, 9], 4), ts(40));
    }

    #[test]
    fn packed_profit_with_now_before_last_reference() {
        let early = info("early", 300, 12.25, &[100, 250, 400], 3);
        assert_packed_profit_exact(&early, ts(300));
        assert_packed_profit_exact(&early, ts(50));
    }

    #[test]
    fn packed_profit_with_now_at_oldest_reference() {
        assert_packed_profit_exact(&info("hot", 17, 3.5, &[700], 4), ts(700));
        assert_packed_profit_exact(&info("hotter", 17, 3.5, &[700, 700], 4), ts(700));
    }

    #[test]
    fn prefilter_never_passes_an_entry_below_the_threshold() {
        let entry = info("edge", 333, 1_234.5, &[10, 70, 90], 4);
        let now = ts(1_000);
        let exact = entry.profit(now);
        let packed = ProfitInputs::of(&entry);
        // At the entry's own profit and a hair above it the filter must hold
        // back: only the exact comparison may decide there.
        let passes =
            |threshold: f64| packed.clearly_at_least(prefilter_bar(Profit::new(threshold)), now);
        assert!(!passes(exact.value()));
        assert!(!passes(exact.value() * (1.0 + 1e-12)));
        assert!(passes(exact.value() * 0.5));
        // Zero and subnormal thresholds fall through to the exact comparison.
        assert!(!passes(0.0));
        assert!(!passes(f64::MIN_POSITIVE / 4.0));
        // So does an entry whose weight overflows.
        let huge = info("huge", 1, f64::MAX, &[10, 20, 30], 4);
        assert!(!ProfitInputs::of(&huge).clearly_at_least(prefilter_bar(Profit::new(1e-9)), now));
    }

    use super::reference::HashMapRetainedStore;
    use proptest::prelude::*;

    /// One step of a generated store trace.
    #[derive(Debug, Clone)]
    struct StoreOp {
        /// 0–11 insert, 12–16 record a reference, 17–18 take, 19–22 purge,
        /// 23 clear.
        action: u8,
        /// Which query (a small id space, so keys recur).
        query: u8,
        /// Size of an inserted set; 0 exercises the size clamp.
        size: u64,
        /// Cost of an inserted set; 0 exercises the zero-cost path.
        cost: u64,
        /// Window `K` of an inserted history.
        k: usize,
        /// Reference offsets of an inserted history from `now − 50 ms`: some
        /// land after `now`, and an empty list makes an empty history.
        refs: Vec<u64>,
        /// Logical time advance before the step; 0 repeats the timestamp.
        advance_us: u64,
        /// Purge threshold: 0 zero, 1 an entry's exact profit, 2 that
        /// profit scaled by `factor`, 3 `factor · 10⁻⁴`.
        threshold: u8,
        factor: f64,
        pick: usize,
    }

    fn store_op_strategy() -> impl Strategy<Value = StoreOp> {
        (
            (0u8..24, 0u8..12, 0u64..3_000, 0u64..5_000),
            (
                1usize..5,
                proptest::collection::vec(0u64..100_000, 0..6),
                0u64..40_000,
            ),
            (0u8..4, 0.5f64..2.0, 0usize..64),
        )
            .prop_map(
                |(
                    (action, query, size, cost),
                    (k, refs, advance_us),
                    (threshold, factor, pick),
                )| {
                    StoreOp {
                        action,
                        query,
                        size: if size < 100 { 0 } else { size },
                        cost: if cost < 1_000 { 0 } else { cost },
                        k,
                        refs,
                        advance_us: if advance_us < 15_000 { 0 } else { advance_us },
                        threshold,
                        factor,
                        pick,
                    }
                },
            )
    }

    fn sorted_keys<'a>(infos: impl Iterator<Item = &'a RetainedInfo>) -> Vec<QueryKey> {
        let mut keys: Vec<QueryKey> = infos.map(|info| info.key.clone()).collect();
        keys.sort();
        keys
    }

    fn same_info(dense: Option<&RetainedInfo>, oracle: Option<&RetainedInfo>) -> bool {
        match (dense, oracle) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.key == b.key
                    && a.size_bytes == b.size_bytes
                    && a.cost.value().to_bits() == b.cost.value().to_bits()
                    && a.history == b.history
            }
            _ => false,
        }
    }

    /// The dense store's internal invariants: one slot per key, parallel
    /// vectors of equal length, and packed inputs that score every history
    /// exactly.
    fn check_layout(store: &RetainedStore, now: Timestamp) -> Result<(), String> {
        prop_assert_eq!(store.slots.len(), store.infos.len());
        prop_assert_eq!(store.inputs.len(), store.infos.len());
        for (slot, (info, inputs)) in store.infos.iter().zip(&store.inputs).enumerate() {
            prop_assert_eq!(store.slots.get(&info.key), Some(&slot));
            prop_assert_eq!(
                inputs.profit(now).value().to_bits(),
                info.profit(now).value().to_bits()
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dense_store_matches_hashmap_reference(
            ops in proptest::collection::vec(store_op_strategy(), 1..160),
            max_entries in 1usize..10,
        ) {
            let mut dense = RetainedStore::new(max_entries);
            let mut oracle = HashMapRetainedStore::new(max_entries);
            let mut now = 50_000u64;
            for op in &ops {
                now += op.advance_us;
                let ts = Timestamp::from_micros(now);
                let key = key_of(op);
                match op.action {
                    0..=11 => {
                        let mut history = ReferenceHistory::new(op.k);
                        for &offset in &op.refs {
                            history.record(Timestamp::from_micros(now - 50_000 + offset));
                        }
                        let info = RetainedInfo {
                            key: key.clone(),
                            size_bytes: op.size,
                            cost: ExecutionCost::from_blocks(op.cost),
                            history,
                        };
                        dense.insert(info.clone(), ts);
                        oracle.insert(info, ts);
                    }
                    12..=16 => {
                        prop_assert_eq!(
                            dense.record_reference(&key, ts),
                            oracle.record_reference(&key, ts)
                        );
                    }
                    17 | 18 => {
                        let (a, b) = (dense.take(&key), oracle.take(&key));
                        prop_assert!(same_info(a.as_ref(), b.as_ref()), "take diverged");
                    }
                    19..=22 => {
                        let keys = sorted_keys(oracle.iter());
                        let picked = (!keys.is_empty())
                            .then(|| oracle.get(&keys[op.pick % keys.len()]).expect("listed").profit(ts));
                        let threshold = match (op.threshold, picked) {
                            (1, Some(profit)) => profit,
                            (2, Some(profit)) => Profit::new(profit.value() * op.factor),
                            (3, _) => Profit::new(op.factor * 1e-4),
                            _ => Profit::ZERO,
                        };
                        prop_assert_eq!(
                            dense.purge_below(threshold, ts),
                            oracle.purge_below(threshold, ts),
                            "purge at {} diverged", threshold
                        );
                    }
                    _ => {
                        dense.clear();
                        oracle.clear();
                    }
                }

                let keys = sorted_keys(oracle.iter());
                prop_assert_eq!(&sorted_keys(dense.iter()), &keys);
                for key in &keys {
                    prop_assert!(same_info(dense.get(key), oracle.get(key)), "{} diverged", key);
                }
                prop_assert_eq!(dense.contains(&key), oracle.contains(&key));
                prop_assert_eq!(dense.len(), oracle.len());
                prop_assert_eq!(dense.is_empty(), oracle.is_empty());
                prop_assert_eq!(dense.metadata_bytes(), oracle.metadata_bytes());
                check_layout(&dense, ts)?;
                for bytes in [1u64, 500, 2_000, 10_000, u64::MAX] {
                    prop_assert_eq!(
                        dense.greedy_pack(bytes, ts).value().to_bits(),
                        oracle.greedy_pack(bytes, ts).value().to_bits(),
                        "greedy packing of {} bytes diverged", bytes
                    );
                }
            }
        }
    }

    fn key_of(op: &StoreOp) -> QueryKey {
        QueryKey::new(format!("retained-query-{}", op.query))
    }
}
