//! Frozen inputs: the benchmark's own seed-driven generator.
//!
//! Rows, delete lists and the foreground operation stream are derived from
//! `--seed` with splitmix64 and Fisher–Yates shuffles written here, not
//! with `bd-workload` or `vendor/rand`: an edit to either of those must not
//! be able to move the baseline. Every workload folds what it generated
//! into an FNV-1a hash (`inputs_fnv`) so two runs can prove they measured
//! the same inputs.

use bd_btree::Key;
use bd_core::Tuple;

/// splitmix64: a 64-bit state, one multiply-xorshift round per draw.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`) by multiply-shift; the bias is
    /// below 2^-40 for every `n` this benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Fisher–Yates shuffle, in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over 64-bit words, the `inputs_fnv` fingerprint.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The paper's table shape (§4.1): every attribute is an independent
/// random permutation of `0, 10, 20, ..` — duplicate-free, with the odd
/// values and everything from `10 * n_rows` up left free for fresh keys.
pub fn rows(seed: u64, n_rows: usize, n_attrs: usize) -> Vec<Tuple> {
    let columns: Vec<Vec<Key>> = (0..n_attrs)
        .map(|a| {
            let mut col: Vec<Key> = (0..n_rows as Key).map(|v| v * 10).collect();
            SplitMix64::new(seed ^ (a as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F))
                .shuffle(&mut col);
            col
        })
        .collect();
    (0..n_rows)
        .map(|i| Tuple::new(columns.iter().map(|c| c[i]).collect()))
        .collect()
}

/// The delete list `D`: `share` of the rows' A values, sampled without
/// replacement, in random (unsorted) order.
pub fn delete_set(seed: u64, rows: &[Tuple], share: f64) -> Vec<Key> {
    let mut keys: Vec<Key> = rows.iter().map(|t| t.attr(0)).collect();
    SplitMix64::new(seed ^ 0xD1B5_4A32_D192_ED03).shuffle(&mut keys);
    keys.truncate((rows.len() as f64 * share).round() as usize);
    keys
}

/// A row no generated row collides with on any attribute: generated values
/// are multiples of 10 below `10 * n_rows`.
pub fn fresh_row(n_rows: usize, n_attrs: usize, i: usize) -> Tuple {
    let base = (n_rows + i) as Key * 10;
    Tuple::new((0..n_attrs as Key).map(|a| base + a * 2).collect())
}

/// One pre-generated foreground operation of the `live15` client.
#[derive(Clone, Debug)]
pub enum FgOp {
    /// Point read of an A value the table was built with.
    Read(Key),
    /// Range scan `lo..=hi` over A.
    Scan(Key, Key),
    /// Insert of the `i`-th fresh row.
    Insert(usize),
}

/// Key-space width of one range scan (about `SCAN_WIDTH / 10` rows).
pub const SCAN_WIDTH: Key = 1000;

/// The closed-loop client's operation stream: mix 6 : 2 : 2 point read /
/// range scan / fresh-key insert. The client walks it from the start and
/// stops when the delete ends, so `n` only has to be more than it can use.
pub fn fg_ops(seed: u64, n_rows: usize, n: usize) -> Vec<FgOp> {
    let mut rng = SplitMix64::new(seed ^ 0x2545_F491_4F6C_DD1D);
    let span = 10 * n_rows as Key;
    let mut next_insert = 0;
    (0..n)
        .map(|_| match rng.below(10) {
            0..=5 => FgOp::Read(rng.below(n_rows as u64) * 10),
            6..=7 => {
                let lo = rng.below(span - SCAN_WIDTH);
                FgOp::Scan(lo, lo + SCAN_WIDTH)
            }
            _ => {
                next_insert += 1;
                FgOp::Insert(next_insert - 1)
            }
        })
        .collect()
}

/// Fingerprint of a workload's generated inputs.
pub fn fingerprint(rows: &[Tuple], d: &[Key], ops: &[FgOp]) -> u64 {
    let mut h = Fnv::new();
    h.word(rows.len() as u64);
    for t in rows {
        h.words(t.attrs.iter().copied());
    }
    h.word(d.len() as u64);
    h.words(d.iter().copied());
    h.word(ops.len() as u64);
    for op in ops {
        match *op {
            FgOp::Read(k) => h.words([1, k]),
            FgOp::Scan(lo, hi) => h.words([2, lo, hi]),
            FgOp::Insert(i) => h.words([3, i as u64]),
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let fnv = |seed| {
            let rows = rows(seed, 500, 4);
            let d = delete_set(seed, &rows, 0.1);
            fingerprint(&rows, &d, &fg_ops(seed, 500, 100))
        };
        assert_eq!(fnv(42), fnv(42));
        assert_ne!(fnv(42), fnv(43));
    }

    #[test]
    fn every_attribute_is_a_permutation_and_d_a_sample_of_a() {
        let rows = rows(7, 300, 3);
        for a in 0..3 {
            let mut col: Vec<Key> = rows.iter().map(|t| t.attr(a)).collect();
            col.sort_unstable();
            assert!(col.iter().enumerate().all(|(i, &v)| v == i as Key * 10));
        }
        let mut d = delete_set(7, &rows, 0.15);
        assert_eq!(d.len(), 45);
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 45, "D holds no key twice");
        assert!(d.iter().all(|k| k % 10 == 0 && *k < 3000));
    }

    #[test]
    fn fresh_rows_collide_with_nothing() {
        let generated = rows(1, 100, 4);
        let fresh: Vec<Tuple> = (0..50).map(|i| fresh_row(100, 4, i)).collect();
        for a in 0..4 {
            let mut seen: std::collections::HashSet<Key> =
                generated.iter().map(|t| t.attr(a)).collect();
            assert!(fresh.iter().all(|t| seen.insert(t.attr(a))));
        }
    }
}
