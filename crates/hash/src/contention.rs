//! Contention measurement: the property unique-permutation hashing is
//! built for.
//!
//! The cited claim: unique-permutation hash functions "yield the minimal
//! possible contention, as they probe each location with the same
//! probability regardless of which locations are currently occupied."
//! This module loads tables to a target occupancy and records the
//! distribution of probes-to-insert, so the strategies can be compared
//! quantitatively (see the `unique_perm_hashing` example).

use crate::tables::ProbeTable;

/// Probe-count distribution over a batch of inserts.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionStats {
    /// `histogram[p−1]` = inserts that needed exactly `p` probes.
    pub histogram: Vec<u64>,
    /// Total inserts measured.
    pub inserts: u64,
    /// Sum of probes across all inserts.
    pub total_probes: u64,
}

impl ContentionStats {
    /// Average probes per insert.
    pub fn mean_probes(&self) -> f64 {
        self.total_probes as f64 / self.inserts as f64
    }

    /// Largest probe count observed.
    pub fn worst_case(&self) -> usize {
        self.histogram
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |p| p + 1)
    }

    /// Fraction of inserts that needed more than `p` probes.
    pub fn tail_fraction(&self, p: usize) -> f64 {
        let tail: u64 = self.histogram.iter().skip(p).sum();
        tail as f64 / self.inserts as f64
    }
}

/// Measures insert contention: repeatedly fills a fresh table from
/// `make_table` with `fill` pseudo-random keys (derived from `trial` and
/// `seed`), recording the probes each insert needed, over `trials`
/// independent fills.
///
/// # Panics
/// Panics if `fill` exceeds the table capacity.
pub fn measure_insert_contention<T: ProbeTable>(
    mut make_table: impl FnMut() -> T,
    fill: usize,
    trials: u64,
    seed: u64,
) -> ContentionStats {
    let capacity = make_table().capacity();
    assert!(fill <= capacity, "cannot fill {fill} of {capacity}");
    let mut histogram = vec![0u64; capacity];
    let mut inserts = 0u64;
    let mut total_probes = 0u64;
    for trial in 0..trials {
        let mut table = make_table();
        let mut inserted = 0usize;
        let mut key = crate::mix64(seed ^ (trial << 32));
        while inserted < fill {
            key = crate::mix64(key);
            if let Some(probes) = table.insert(key) {
                histogram[probes - 1] += 1;
                total_probes += probes as u64;
                inserts += 1;
                inserted += 1;
            }
        }
    }
    ContentionStats {
        histogram,
        inserts,
        total_probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{LinearProbeTable, UniquePermTable};

    #[test]
    fn stats_accounting_is_consistent() {
        let stats = measure_insert_contention(|| UniquePermTable::new(8), 6, 10, 42);
        assert_eq!(stats.inserts, 60);
        assert_eq!(stats.histogram.iter().sum::<u64>(), 60);
        assert!(stats.mean_probes() >= 1.0);
        assert!(stats.worst_case() <= 8);
        assert_eq!(stats.tail_fraction(8), 0.0);
    }

    #[test]
    fn empty_table_inserts_in_one_probe() {
        let stats = measure_insert_contention(|| UniquePermTable::new(8), 1, 50, 7);
        assert_eq!(stats.histogram[0], 50, "first insert never collides");
        assert!((stats.mean_probes() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contention_grows_with_load() {
        let low = measure_insert_contention(|| UniquePermTable::new(16), 4, 40, 1);
        let high = measure_insert_contention(|| UniquePermTable::new(16), 15, 40, 1);
        assert!(high.mean_probes() > low.mean_probes());
    }

    #[test]
    fn unique_perm_beats_linear_probing_tail_at_high_load() {
        // Linear probing clusters: once runs form, inserts hit long
        // chains. Unique-permutation probing has no clustering, so its
        // tail (many-probe inserts) is lighter at high load.
        let fill = 15;
        let trials = 300;
        let up = measure_insert_contention(|| UniquePermTable::new(16), fill, trials, 3);
        let lp = measure_insert_contention(|| LinearProbeTable::new(16), fill, trials, 3);
        assert!(
            up.tail_fraction(8) < lp.tail_fraction(8),
            "unique-perm tail {} vs linear tail {}",
            up.tail_fraction(8),
            lp.tail_fraction(8)
        );
    }

    #[test]
    #[should_panic(expected = "cannot fill")]
    fn overfill_rejected() {
        measure_insert_contention(|| UniquePermTable::new(4), 5, 1, 0);
    }
}
