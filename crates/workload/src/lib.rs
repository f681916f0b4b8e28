#![warn(missing_docs)]

//! Synthetic workloads reproducing the paper's benchmark environment
//! (§4.1).
//!
//! "The database consisted of one table R with eleven attributes A, B, ...,
//! K. In all experiments, table R has initially 1,000,000 tuples, each of
//! size 512 bytes. The first 10 attributes are random integers and the last
//! attribute (i.e., K) is a string field containing garbage data for
//! padding. Each attribute is free of duplicates. ... we generate a table D
//! with random A values" deleting 5–20 % of the records.
//!
//! [`TableSpec`] builds that table (optionally physically sorted by one
//! attribute — "table R is sorted according to attribute A" in Experiment
//! 5); [`Workload::delete_set`] draws the delete list `D`. The default
//! scale is 1/10 of the paper's (100,000 rows) with every ratio preserved.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use bd_core::{Database, DbResult, IndexDef, Schema, TableId, Tuple};

use bd_btree::Key;

/// Shape of the synthetic table `R`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSpec {
    /// Number of rows.
    pub n_rows: usize,
    /// Number of integer attributes (paper: 10).
    pub n_attrs: usize,
    /// Record size in bytes including padding (paper: 512).
    pub record_len: usize,
    /// RNG seed (the workload is fully deterministic).
    pub seed: u64,
    /// Physically sort the table by this attribute (Experiment 5's
    /// clustered layout).
    pub cluster_by: Option<usize>,
}

impl TableSpec {
    /// Default reproduction scale: 100,000 rows (1/10 of the paper, all
    /// ratios preserved).
    pub fn paper_scaled() -> Self {
        TableSpec {
            n_rows: 100_000,
            n_attrs: 10,
            record_len: 512,
            seed: 42,
            cluster_by: None,
        }
    }

    /// A small spec for tests.
    pub fn tiny(n_rows: usize) -> Self {
        TableSpec {
            n_rows,
            n_attrs: 4,
            record_len: 64,
            seed: 7,
            cluster_by: None,
        }
    }

    /// Override the number of rows.
    pub fn with_rows(mut self, n: usize) -> Self {
        self.n_rows = n;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Cluster the table by `attr`.
    pub fn clustered_by(mut self, attr: usize) -> Self {
        self.cluster_by = Some(attr);
        self
    }

    /// The matching schema.
    pub fn schema(&self) -> Schema {
        Schema::new(self.n_attrs, self.record_len)
    }

    /// Generate the rows: each attribute is an independent random
    /// permutation of `0..n_rows` scaled by 10 (duplicate-free, as in the
    /// paper), deterministically derived from `seed`.
    pub fn generate_rows(&self) -> Vec<Tuple> {
        let mut columns: Vec<Vec<Key>> = Vec::with_capacity(self.n_attrs);
        for a in 0..self.n_attrs {
            let mut rng = StdRng::seed_from_u64(self.seed ^ (a as u64).wrapping_mul(0x9E37_79B9));
            let mut col: Vec<Key> = (0..self.n_rows as Key).map(|v| v * 10).collect();
            col.shuffle(&mut rng);
            columns.push(col);
        }
        let mut rows: Vec<Tuple> = (0..self.n_rows)
            .map(|i| Tuple::new(columns.iter().map(|c| c[i]).collect()))
            .collect();
        if let Some(attr) = self.cluster_by {
            rows.sort_by_key(|t| t.attr(attr));
        }
        rows
    }

    /// Build the table in `db`: bulk-append the rows to a fresh heap.
    /// Indices are attached afterwards with [`Workload::attach_index`] so
    /// each starts as a freshly bulk-loaded contiguous tree, as in the
    /// paper's setup.
    pub fn build(&self, db: &mut Database) -> DbResult<Workload> {
        let tid = db.create_table("R", self.schema());
        let rows = self.generate_rows();
        let mut a_values = Vec::with_capacity(rows.len());
        for row in &rows {
            db.insert(tid, row)?;
            a_values.push(row.attr(0));
        }
        Ok(Workload {
            spec: *self,
            tid,
            a_values,
        })
    }
}

/// A built table plus everything needed to derive delete sets.
pub struct Workload {
    /// The spec that produced it.
    pub spec: TableSpec,
    /// Table id in the database.
    pub tid: TableId,
    /// Attribute-A value of every row (delete sets are drawn from these).
    pub a_values: Vec<Key>,
}

impl Workload {
    /// Attach an index on `attr`. The clustered flag is set automatically
    /// when the table layout is sorted by that attribute.
    pub fn attach_index(&self, db: &mut Database, def: IndexDef) -> DbResult<()> {
        let def = if self.spec.cluster_by == Some(def.attr) {
            def.clustered()
        } else {
            def
        };
        db.create_index(self.tid, def)
    }

    /// Draw the delete list `D`: `fraction` of the rows' A values, sampled
    /// without replacement, in random order (the *unsorted* D the
    /// `not sorted/trad` series consumes).
    pub fn delete_set(&self, fraction: f64, seed: u64) -> Vec<Key> {
        assert!((0.0..=1.0).contains(&fraction));
        let n = ((self.a_values.len() as f64) * fraction).round() as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..self.a_values.len()).collect();
        idx.shuffle(&mut rng);
        idx.truncate(n);
        idx.into_iter().map(|i| self.a_values[i]).collect()
    }

    /// Draw a delete list of A values that match *no* rows (for
    /// no-op/robustness tests): odd values never occur (generated values
    /// are multiples of 10).
    pub fn missing_keys(&self, n: usize, seed: u64) -> Vec<Key> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| rng.gen_range(0..self.a_values.len() as Key * 10) | 1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_core::DatabaseConfig;

    fn db() -> Database {
        Database::new(DatabaseConfig::with_total_memory(2 << 20))
    }

    #[test]
    fn rows_are_duplicate_free_per_attribute() {
        let spec = TableSpec::tiny(500);
        let rows = spec.generate_rows();
        for a in 0..spec.n_attrs {
            let mut vals: Vec<Key> = rows.iter().map(|r| r.attr(a)).collect();
            vals.sort_unstable();
            vals.dedup();
            assert_eq!(vals.len(), 500, "attribute {a} has duplicates");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TableSpec::tiny(200).generate_rows();
        let b = TableSpec::tiny(200).generate_rows();
        assert_eq!(a, b);
        let c = TableSpec::tiny(200).with_seed(9).generate_rows();
        assert_ne!(a, c);
    }

    #[test]
    fn clustered_layout_is_sorted_by_attr() {
        let rows = TableSpec::tiny(300).clustered_by(1).generate_rows();
        assert!(rows.windows(2).all(|w| w[0].attr(1) < w[1].attr(1)));
    }

    #[test]
    fn build_and_attach_marks_clustered() {
        let mut d = db();
        let w = TableSpec::tiny(200).clustered_by(0).build(&mut d).unwrap();
        w.attach_index(&mut d, IndexDef::secondary(0).unique())
            .unwrap();
        w.attach_index(&mut d, IndexDef::secondary(1)).unwrap();
        let t = d.table(w.tid).unwrap();
        assert!(t.index_on(0).unwrap().def.clustered);
        assert!(!t.index_on(1).unwrap().def.clustered);
        d.check_consistency(w.tid).unwrap();
    }

    #[test]
    fn delete_set_size_and_membership() {
        let mut d = db();
        let w = TableSpec::tiny(1000).build(&mut d).unwrap();
        let set = w.delete_set(0.15, 1);
        assert_eq!(set.len(), 150);
        let all: std::collections::HashSet<Key> = w.a_values.iter().copied().collect();
        assert!(set.iter().all(|k| all.contains(k)));
        // No duplicates in D.
        let uniq: std::collections::HashSet<Key> = set.iter().copied().collect();
        assert_eq!(uniq.len(), set.len());
        // Unsorted (overwhelmingly likely for 150 random draws).
        assert!(set.windows(2).any(|w| w[0] > w[1]));
    }

    #[test]
    fn missing_keys_match_nothing() {
        let mut d = db();
        let w = TableSpec::tiny(500).build(&mut d).unwrap();
        let all: std::collections::HashSet<Key> = w.a_values.iter().copied().collect();
        for k in w.missing_keys(100, 3) {
            assert!(!all.contains(&k));
        }
    }
}
