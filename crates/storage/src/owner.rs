//! Structure ownership: who does a page belong to?
//!
//! The paper's vertical strategies work "one storage structure at a time"
//! (§3), and media recovery wants the same granularity: a torn page should
//! condemn exactly the structure that owns it, not every B-tree in the
//! database. This module supplies the two pieces the rest of the workspace
//! threads through its allocation paths:
//!
//! * [`StructureId`] — the name of a storage structure. It used to live in
//!   `bd-wal` (the log needs it for `Progress`/`StructureDone` records), but
//!   allocation happens far below the WAL, so the type now lives here at the
//!   bottom of the dependency graph and is re-exported upward.
//! * [`PageCatalog`] — the persistent page → owner map kept by
//!   [`SimDisk`](crate::SimDisk). Every `allocate`/`allocate_contiguous`
//!   records an owner, frees move pages to the free set, and the WAL
//!   checkpoints a snapshot of the whole map so recovery can classify torn
//!   pages by lookup instead of by walking heap page lists and hash chains.
//!
//! Allocation in the simulated disk grows a dense page vector (so the
//! catalog is a dense vector indexed by page id), but freed pages *are*
//! recycled: once the maintenance daemon has zeroed a free page
//! ([`SimDisk::reclaim_page`](crate::SimDisk::reclaim_page)), the allocator
//! hands it out again via [`PageCatalog::set_owner`] before extending the
//! file.

use crate::disk::PageId;

/// A storage structure processed by a bulk delete, and — since every page
/// has an owner — the tag the page catalog records at allocation time.
///
/// [`StructureId::tag`] is the one variant↔tag mapping, shared by the
/// catalog snapshot and the WAL (pinned by `bd-wal`'s
/// `wire_format_is_stable_across_versions`): Probe=0, Table=1, Index=2,
/// Hash=3, Temp=4, Lsm=6. Tag 5 named the retired R-tree's pages; it stays
/// unassigned, so both decoders reject it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructureId {
    /// The probe index (`I_A`). This is a *phase role*, not a page owner:
    /// the probe index's pages are tagged [`StructureId::Index`] with its
    /// attribute, and the WAL maps damage to `Index(probe_attr)` back onto
    /// the probe phase.
    Probe,
    /// The base table (`R`): heap pages.
    Table,
    /// A B-tree index, by attribute number.
    Index(u16),
    /// A hash index, by attribute number (wire tag 3; decoders predating it
    /// reject the tag instead of misreading the record).
    Hash(u16),
    /// Scratch pages (external-sort spill segments). Never rebuilt: a torn
    /// temp page is healed and skipped, its contents are transient.
    Temp,
    /// An LSM table's run pages, table-scoped like [`StructureId::index_of`]
    /// (wire tag 6; decoders predating it reject the tag instead of
    /// misreading the record). Outside the WAL bulk-delete phase set — LSM
    /// deletes are tombstone writes purged by compaction, not logged phases.
    Lsm(u16),
}

impl std::fmt::Display for StructureId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StructureId::Probe => write!(f, "probe"),
            StructureId::Table => write!(f, "table"),
            StructureId::Index(a) if *a >= 256 => write!(f, "index({}.{})", a >> 8, a & 0xFF),
            StructureId::Index(a) => write!(f, "index({a})"),
            StructureId::Hash(a) if *a >= 256 => write!(f, "hash({}.{})", a >> 8, a & 0xFF),
            StructureId::Hash(a) => write!(f, "hash({a})"),
            StructureId::Temp => write!(f, "temp"),
            StructureId::Lsm(a) if *a >= 256 => write!(f, "lsm({}.{})", a >> 8, a & 0xFF),
            StructureId::Lsm(a) => write!(f, "lsm({a})"),
        }
    }
}

/// Catalog wire tag for a free page (no owner).
const TAG_FREE: u8 = 0xFF;

impl StructureId {
    /// One-byte wire tag, shared by the catalog snapshot and the WAL.
    pub fn tag(self) -> u8 {
        match self {
            StructureId::Probe => 0,
            StructureId::Table => 1,
            StructureId::Index(_) => 2,
            StructureId::Hash(_) => 3,
            StructureId::Temp => 4,
            StructureId::Lsm(_) => 6,
        }
    }

    /// Attribute payload, for the variants that carry one.
    pub fn attr(self) -> Option<u16> {
        match self {
            StructureId::Index(a) | StructureId::Hash(a) | StructureId::Lsm(a) => Some(a),
            _ => None,
        }
    }

    /// Whether the variant tagged `tag` carries an attribute payload. The
    /// WAL writes the attribute only for these, so a tag-only variant is one
    /// byte there; the catalog writes a zero attribute for it.
    pub fn tag_has_attr(tag: u8) -> bool {
        StructureId::from_tag(tag, 0).is_some_and(|s| s.attr().is_some())
    }

    /// The variant tagged `tag` with payload `attr` (ignored by tag-only
    /// variants); `None` for an unknown tag.
    pub fn from_tag(tag: u8, attr: u16) -> Option<StructureId> {
        Some(match tag {
            0 => StructureId::Probe,
            1 => StructureId::Table,
            2 => StructureId::Index(attr),
            3 => StructureId::Hash(attr),
            4 => StructureId::Temp,
            6 => StructureId::Lsm(attr),
            _ => return None,
        })
    }

    /// Page-owner tag for table `table`'s B-tree index on `attr`.
    ///
    /// Owner tags are **table-scoped**: the `u16` payload packs the table
    /// id into the high byte and the attribute into the low byte, so two
    /// tables' indices on the same attribute never share a tag. Without
    /// the scope, media recovery's `free_owned(Index(attr))` would free
    /// *every* table's index pages on that attribute — a rebuild of one
    /// table's damaged index would silently condemn the others. Table 0's
    /// tags equal the plain attribute (the scope is zero), so single-table
    /// databases are unchanged. Panics in debug builds past 256 tables or
    /// 256 attributes.
    pub fn index_of(table: usize, attr: usize) -> StructureId {
        StructureId::Index(Self::scope(table, attr))
    }

    /// Page-owner tag for table `table`'s hash index on `attr` (same
    /// scoping as [`StructureId::index_of`]).
    pub fn hash_of(table: usize, attr: usize) -> StructureId {
        StructureId::Hash(Self::scope(table, attr))
    }

    /// Page-owner tag for table `table`'s LSM run pages (same scoping as
    /// [`StructureId::index_of`]; the attribute slot is zero — an LSM
    /// table owns one page set covering all its runs).
    pub fn lsm_of(table: usize) -> StructureId {
        StructureId::Lsm(Self::scope(table, 0))
    }

    fn scope(table: usize, attr: usize) -> u16 {
        debug_assert!(
            table < 256 && attr < 256,
            "table-scoped owner tag overflow: table {table}, attr {attr}"
        );
        ((table as u16) << 8) | attr as u16
    }

    /// `(table, attr)` of a table-scoped [`StructureId::Index`] or
    /// [`StructureId::Hash`] owner tag; `None` for every other variant.
    pub fn scoped_parts(self) -> Option<(usize, usize)> {
        match self {
            StructureId::Index(v) | StructureId::Hash(v) => {
                Some(((v >> 8) as usize, (v & 0xFF) as usize))
            }
            _ => None,
        }
    }
}

/// The persistent page → owner map, maintained on every allocate/free.
///
/// Invariants (checked by `bd-core::audit::audit_catalog`):
/// * every allocated page has exactly one owner slot;
/// * every page reachable from a structure (tree child pointers, hash
///   chains, heap page list) is owned by that structure;
/// * every *free* page is unreachable from every structure.
///
/// The converse — owned but unreachable — is allowed: leaf compaction and
/// base-node packing abandon whole page sets without freeing them, and a
/// collapsed root stays tagged. Such stale pages at worst trigger a rebuild
/// of the structure that really did own them, which is still
/// structure-precise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageCatalog {
    owners: Vec<Option<StructureId>>,
    free: usize,
}

impl PageCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        PageCatalog::default()
    }

    /// Record `n` pages starting at `first` as freshly allocated to `owner`.
    pub fn note_alloc(&mut self, first: PageId, n: usize, owner: StructureId) {
        let end = first as usize + n;
        if self.owners.len() < end {
            self.owners.resize(end, None);
        }
        for slot in &mut self.owners[first as usize..end] {
            debug_assert!(slot.is_none(), "page allocated twice");
            *slot = Some(owner);
        }
    }

    /// Move a page to the free set. Freeing a free page is a no-op.
    pub fn free(&mut self, pid: PageId) {
        if let Some(slot) = self.owners.get_mut(pid as usize) {
            if slot.take().is_some() {
                self.free += 1;
            }
        }
    }

    /// Force the owner of `pid`, reclaiming it from the free set if needed.
    ///
    /// Recovery uses this to reconcile the catalog with reality: a crash can
    /// lose the cached parent-patch write that detached a page while the
    /// catalog free (durable disk metadata) survived, leaving a page that is
    /// free by catalog but still reachable from its structure. Re-owning it
    /// restores the "free ⇒ unreachable" invariant.
    pub fn set_owner(&mut self, pid: PageId, owner: StructureId) {
        let idx = pid as usize;
        if self.owners.len() <= idx {
            self.owners.resize(idx + 1, None);
        } else if self.owners[idx].is_none() {
            self.free = self.free.saturating_sub(1);
        }
        self.owners[idx] = Some(owner);
    }

    /// The owner of `pid`, or `None` if the page is free (or was never
    /// allocated).
    pub fn owner(&self, pid: PageId) -> Option<StructureId> {
        self.owners.get(pid as usize).copied().flatten()
    }

    /// Every page currently owned by `owner`, ascending.
    pub fn pages_of(&self, owner: StructureId) -> Vec<PageId> {
        self.owners
            .iter()
            .enumerate()
            .filter(|(_, o)| **o == Some(owner))
            .map(|(pid, _)| pid as PageId)
            .collect()
    }

    /// Every explicitly freed page, ascending (pages past the allocation
    /// frontier are not listed).
    pub fn free_pages(&self) -> Vec<PageId> {
        self.owners
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_none())
            .map(|(pid, _)| pid as PageId)
            .collect()
    }

    /// Number of pages the catalog has seen allocated (the allocation
    /// frontier; includes since-freed pages).
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// True when no page was ever allocated.
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// Number of freed pages.
    pub fn n_free(&self) -> usize {
        self.free
    }

    /// Serialize for the WAL's checkpoint snapshot: page count, then one
    /// `(tag, attr)` pair per page (tag `0xFF` = free).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.owners.len() as u32).to_le_bytes());
        for owner in &self.owners {
            match owner {
                Some(o) => {
                    out.push(o.tag());
                    out.extend_from_slice(&o.attr().unwrap_or(0).to_le_bytes());
                }
                None => {
                    out.push(TAG_FREE);
                    out.extend_from_slice(&0u16.to_le_bytes());
                }
            }
        }
    }

    /// Decode a snapshot produced by [`PageCatalog::encode`]. Returns `None`
    /// on a truncated buffer or an unknown owner tag (the caller maps this
    /// to its corrupt-log error).
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<PageCatalog> {
        let need = |pos: usize, n: usize| buf.len() >= pos + n;
        if !need(*pos, 4) {
            return None;
        }
        let n = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().unwrap()) as usize;
        *pos += 4;
        let mut owners = Vec::with_capacity(n);
        let mut free = 0;
        for _ in 0..n {
            if !need(*pos, 3) {
                return None;
            }
            let tag = buf[*pos];
            let attr = u16::from_le_bytes(buf[*pos + 1..*pos + 3].try_into().unwrap());
            *pos += 3;
            if tag == TAG_FREE {
                owners.push(None);
                free += 1;
            } else {
                owners.push(Some(StructureId::from_tag(tag, attr)?));
            }
        }
        Some(PageCatalog { owners, free })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_owner_lookup() {
        let mut c = PageCatalog::new();
        c.note_alloc(0, 3, StructureId::Table);
        c.note_alloc(3, 2, StructureId::Index(7));
        assert_eq!(c.owner(0), Some(StructureId::Table));
        assert_eq!(c.owner(4), Some(StructureId::Index(7)));
        assert_eq!(c.owner(9), None);
        assert_eq!(c.len(), 5);
        c.free(1);
        assert_eq!(c.owner(1), None);
        assert_eq!(c.n_free(), 1);
        c.free(1); // double free is a no-op
        assert_eq!(c.n_free(), 1);
        assert_eq!(c.pages_of(StructureId::Table), vec![0, 2]);
        assert_eq!(c.free_pages(), vec![1]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut c = PageCatalog::new();
        c.note_alloc(0, 2, StructureId::Table);
        c.note_alloc(2, 1, StructureId::Hash(3));
        c.note_alloc(3, 1, StructureId::Temp);
        c.note_alloc(4, 1, StructureId::Index(9));
        c.note_alloc(5, 2, StructureId::lsm_of(1));
        c.free(0);
        let mut buf = Vec::new();
        c.encode(&mut buf);
        let mut pos = 0;
        let back = PageCatalog::decode(&buf, &mut pos).expect("roundtrip");
        assert_eq!(pos, buf.len());
        assert_eq!(back, c);
    }

    #[test]
    fn decode_rejects_truncation_and_unknown_tags() {
        let mut c = PageCatalog::new();
        c.note_alloc(0, 2, StructureId::Index(1));
        let mut buf = Vec::new();
        c.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(
                PageCatalog::decode(&buf[..cut], &mut pos).is_none(),
                "cut at {cut} must fail"
            );
        }
        for tag in [5, 42] {
            // 5 is the retired R-tree's tag; 42 was never assigned.
            let mut bad = buf.clone();
            bad[4] = tag;
            let mut pos = 0;
            assert!(PageCatalog::decode(&bad, &mut pos).is_none(), "tag {tag}");
        }
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(StructureId::Probe.to_string(), "probe");
        assert_eq!(StructureId::Index(5).to_string(), "index(5)");
        assert_eq!(StructureId::Hash(2).to_string(), "hash(2)");
        assert_eq!(StructureId::Lsm(4).to_string(), "lsm(4)");
        assert_eq!(StructureId::lsm_of(2).to_string(), "lsm(2.0)");
    }

    #[test]
    fn lsm_tag_is_pinned_and_scoped() {
        // Wire tag 6 is pinned: a catalog of one Lsm page encodes as
        // count=1, tag 6, attr little-endian.
        let mut c = PageCatalog::new();
        c.note_alloc(0, 1, StructureId::Lsm(0x0203));
        let mut buf = Vec::new();
        c.encode(&mut buf);
        assert_eq!(buf, vec![1, 0, 0, 0, 6, 0x03, 0x02]);
        // Truncation anywhere and unknown tags still fail after the new
        // variant (tag 7 stays unknown).
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(PageCatalog::decode(&buf[..cut], &mut pos).is_none());
        }
        let mut bad = buf.clone();
        bad[4] = 7;
        let mut pos = 0;
        assert!(PageCatalog::decode(&bad, &mut pos).is_none());
        // lsm_of packs the table id like index_of/hash_of, but Lsm owners
        // are not "scoped parts" structures for media recovery.
        assert_eq!(StructureId::lsm_of(3), StructureId::Lsm(3 << 8));
        assert_eq!(StructureId::lsm_of(3).scoped_parts(), None);
    }
}
