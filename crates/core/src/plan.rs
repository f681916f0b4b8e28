//! Delete plans: the logical `D ⋈̄ I_A ⋈̄ R ⋈̄ I_B ⋈̄ I_C` shape with the
//! three degrees of freedom §2.1 names: ⋈̄ *method*, ⋈̄ *order*, and
//! primary ⋈̄ *predicate*.

use crate::catalog::Table;
use crate::tuple::attr_name;

/// How one downstream index `⋈̄` is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMethod {
    /// Sort the projected `(key, rid)` list and merge it into the leaf
    /// chain (Fig. 3). `presort: false` when the index is clustered — "an
    /// order on RID implies an order on B" — so the list arrives sorted.
    SortMerge {
        /// Whether the projected list needs sorting first.
        presort: bool,
    },
    /// Probe an in-memory RID hash set during a full leaf scan (Fig. 4,
    /// classic hash). Requires the RID set to fit the workspace.
    ClassicHash,
    /// Range-partition the list so each partition's RID set fits the
    /// workspace (the executor sizes partitions from its sort budget), then
    /// probe partition by partition over the matching leaf ranges (Fig. 5).
    PartitionedHash,
}

/// How the base-table `⋈̄` is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableMethod {
    /// Merge the RID-sorted list against the heap's page order (Fig. 3).
    /// `presort: false` when the probe index is clustered — "the result of
    /// the first ⋈̄ operation is already sorted by RID".
    Merge {
        /// Whether the RID list needs sorting first.
        presort: bool,
    },
    /// Scan all heap pages, probing each record's RID (Fig. 4).
    HashProbe,
}

/// One downstream index step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStep {
    /// Attribute whose index is processed.
    pub attr: usize,
    /// Chosen ⋈̄ method.
    pub method: IndexMethod,
}

/// A complete vertical bulk-delete plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeletePlan {
    /// The attribute the `DELETE ... WHERE attr IN (D)` predicate names;
    /// its index is the first ⋈̄ (key predicate).
    pub probe_attr: usize,
    /// Base-table step.
    pub table: TableMethod,
    /// Downstream index steps, in execution order (unique indices first,
    /// per §3.1.3).
    pub index_steps: Vec<IndexStep>,
}

impl DeletePlan {
    /// EXPLAIN-style rendering of the plan DAG.
    pub fn render(&self, table: &Table) -> String {
        let mut out = String::new();
        let a = attr_name(self.probe_attr);
        out.push_str(&format!("bulk delete plan for {}:\n", table.name));
        out.push_str(&format!("  sort(D) -> bd[sort/merge, key] I_{a}\n"));
        match self.table {
            TableMethod::Merge { presort: true } => {
                out.push_str("  -> sort(RID) -> bd[merge, rid] R\n");
            }
            TableMethod::Merge { presort: false } => {
                out.push_str(&format!(
                    "  -> bd[merge, rid] R          (I_{a} clustered: RID sort elided)\n"
                ));
            }
            TableMethod::HashProbe => {
                out.push_str("  -> build hash(RID) -> bd[hash probe, rid] R\n");
            }
        }
        for step in &self.index_steps {
            let n = attr_name(step.attr);
            let unique = table
                .index_on(step.attr)
                .map(|i| i.def.unique)
                .unwrap_or(false);
            let tag = if unique {
                " (unique, processed early)"
            } else {
                ""
            };
            match step.method {
                IndexMethod::SortMerge { presort: true } => out.push_str(&format!(
                    "  -> project({n},RID) -> sort({n}) -> bd[sort/merge, key+rid] I_{n}{tag}\n"
                )),
                IndexMethod::SortMerge { presort: false } => out.push_str(&format!(
                    "  -> project({n},RID) -> bd[merge, key+rid] I_{n}{tag}   (clustered: sort elided)\n"
                )),
                IndexMethod::ClassicHash => out.push_str(&format!(
                    "  -> bd[hash probe, rid] I_{n}{tag}   (shared RID hash table)\n"
                )),
                IndexMethod::PartitionedHash => out.push_str(&format!(
                    "  -> project({n},RID) -> range-partition -> bd[hash probe, rid] I_{n}{tag}\n"
                )),
            }
        }
        out
    }
}
