//! Reorganization during bulk deletion (paper §2.3).
//!
//! Four policies are offered:
//!
//! * [`ReorgPolicy::None`] — leave emptied leaves attached (baseline for the
//!   ablation);
//! * [`ReorgPolicy::FreeAtEmpty`] — detach a leaf only when it becomes
//!   completely empty. This is the paper's configuration ("we only
//!   reorganize and garbage collect an index page if it is totally empty",
//!   following Johnson & Shasha \[9]); inner levels are patched after the
//!   leaf pass, exactly as §2.3 describes ("the inner nodes of the B+-tree
//!   can be updated and reorganized after ... the leaf pages are
//!   processed");
//! * [`ReorgPolicy::CompactLeaves`] — additionally rewrite the whole leaf
//!   level densely left-packed onto a fresh contiguous extent and rebuild
//!   the inner levels bottom-up (§2.3's "shift all entries to the left" +
//!   level-wise inner rebuild);
//! * [`ReorgPolicy::BaseNodePack`] — free-at-empty plus the incremental
//!   base-node reorganization of [`IncrementalPacker`], in place.
//!
//! Leaf *merging* is deliberately not offered: the paper cites Johnson &
//! Shasha's conclusion "that leaf pages should not be merged after
//! deletions".

use std::collections::HashSet;

use bd_storage::{PageId, StorageResult};

use crate::bulk_load::bulk_load;
use crate::node::{NodeMut, NodeRef};
use crate::scan::LeafScan;
use crate::tree::BTree;

/// Leaf reorganization policy applied by the bulk delete operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReorgPolicy {
    /// Leave emptied leaves in place.
    None,
    /// Detach completely empty leaves and patch the inner levels (paper
    /// default).
    #[default]
    FreeAtEmpty,
    /// Free-at-empty plus a dense left-packed rebuild of the leaf level and
    /// all inner levels onto a fresh contiguous extent (§2.3's "contiguous
    /// storage area", implemented as a full rewrite).
    CompactLeaves,
    /// Free-at-empty plus §2.3's *incremental* base-node reorganization:
    /// subtree by subtree, leaf entries are shifted left in place within
    /// each base node's children and the base node is rebuilt, without
    /// allocating a new extent.
    BaseNodePack,
}

/// Remove `freed` children from the inner levels, bottom-up, unlinking and
/// cascading frees of inner nodes that lose all children; finally collapse
/// a keyless root chain.
pub(crate) fn patch_parents(tree: &mut BTree, freed: &HashSet<PageId>) -> StorageResult<()> {
    patch_parents_from(tree, freed, 1)
}

/// As [`patch_parents`], but `freed` contains nodes of level
/// `start_level - 1` (1 = freed leaves, 2 = freed level-1 inner nodes, …).
pub(crate) fn patch_parents_from(
    tree: &mut BTree,
    freed: &HashSet<PageId>,
    start_level: usize,
) -> StorageResult<()> {
    if freed.is_empty() || tree.height() <= start_level {
        // Freed nodes at or above the root level can only mean an emptied
        // tree; the bulk path handles that before calling here.
        if freed.contains(&tree.root_page()) {
            let (new_root, mut w) = tree.pool().new_page(tree.owner(), 0)?;
            NodeMut::init(&mut w[..], crate::node::NodeKind::Leaf);
            drop(w);
            tree.install_root(new_root, 1);
            tree.set_leaf_extent(Some((new_root, 1)));
        }
        return Ok(());
    }
    let mut freed = freed.clone();
    for level in start_level..tree.height() {
        if freed.is_empty() {
            break;
        }
        let mut next_freed: HashSet<PageId> = HashSet::new();
        let mut prev: Option<PageId> = None;
        let mut cur = Some(tree.leftmost_of_level(level)?);
        while let Some(pid) = cur {
            let mut w = tree.pool().pin_write(pid)?;
            let mut node = NodeMut::new(&mut w[..]);
            // Drop separator entries whose child was freed.
            let mut i = 0;
            while i < node.as_ref().nkeys() {
                if freed.contains(&node.as_ref().inner_child(i + 1)) {
                    node.inner_remove_entry(i);
                } else {
                    i += 1;
                }
            }
            // Handle a freed child0 by promoting the first entry's child.
            if freed.contains(&node.as_ref().inner_child(0)) {
                if node.as_ref().nkeys() > 0 {
                    let (_, c1) = node.inner_remove_entry(0);
                    node.inner_set_child(0, c1);
                } else {
                    // Node lost every child: free it in turn.
                    next_freed.insert(pid);
                }
            }
            let next = node.as_ref().right_sibling();
            let is_freed = next_freed.contains(&pid);
            drop(w);
            if is_freed {
                if let Some(pv) = prev {
                    let mut pw = tree.pool().pin_write(pv)?;
                    NodeMut::new(&mut pw[..]).set_right_sibling(next);
                }
                tree.stats_mut().inners_freed += 1;
                tree.pool().free_page(pid);
            } else {
                prev = Some(pid);
            }
            cur = next;
        }
        freed = next_freed;
    }

    // The root itself lost every child: the tree is empty.
    if freed.contains(&tree.root_page()) {
        let (new_root, mut w) = tree.pool().new_page(tree.owner(), 0)?;
        NodeMut::init(&mut w[..], crate::node::NodeKind::Leaf);
        drop(w);
        tree.install_root(new_root, 1);
        tree.set_leaf_extent(Some((new_root, 1)));
        return Ok(());
    }

    // Collapse keyless inner roots.
    loop {
        if tree.height() == 1 {
            break;
        }
        let r = tree.pool().pin_read(tree.root_page())?;
        let node = NodeRef::new(&r[..]);
        if node.kind() == crate::node::NodeKind::Inner && node.nkeys() == 0 {
            let only = node.inner_child(0);
            drop(r);
            let h = tree.height() - 1;
            tree.install_root(only, h);
        } else {
            break;
        }
    }
    Ok(())
}

/// Post-pass hook run by every bulk delete after its leaf pass and parent
/// patching. [`ReorgPolicy::BaseNodePack`] drives an
/// [`IncrementalPacker`] through one whole pass.
pub(crate) fn post_pass(tree: &mut BTree, policy: ReorgPolicy) -> StorageResult<()> {
    match policy {
        ReorgPolicy::CompactLeaves => compact_leaves(tree, 1.0),
        ReorgPolicy::BaseNodePack => IncrementalPacker::new().step(tree, usize::MAX).map(|_| ()),
        ReorgPolicy::None | ReorgPolicy::FreeAtEmpty => Ok(()),
    }
}

/// Progress of one [`IncrementalPacker::step`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackProgress {
    /// Base subtrees packed by this step.
    pub subtrees: usize,
    /// Leaf and base pages freed by this step.
    pub pages_freed: usize,
    /// True once the pass has walked off the right edge of the base level.
    pub done: bool,
}

/// §2.3 base-node reorganization, in place and resumable. For every
/// level-1 node (the "base nodes", whose subtrees are single-level and
/// therefore bounded by one node's fanout — they fit in memory), the live
/// leaf entries are shifted "to the left, beyond base node delimiters"
/// *within that subtree's own pages*, the emptied trailing leaves are
/// freed, and the base node's separators are rebuilt. The maintenance
/// daemon drives it in paced steps *between* foreground phases;
/// [`ReorgPolicy::BaseNodePack`] drives one whole pass after a bulk delete.
///
/// Each [`IncrementalPacker::step`] packs up to `max_subtrees` base
/// subtrees, calling [`bd_storage::pacer::checkpoint`] between subtrees
/// with no pin held. The tree is left fully consistent after **every**
/// subtree: kept leaves are rewritten in place (the subtree's first child
/// keeps its id, so the incoming sibling pointer stays valid), the last
/// kept leaf is linked to the next subtree's first child, and an emptied
/// subtree is removed from its parents immediately. The end of a step or a
/// cancel therefore leaves a consistent prefix packed, and the pass resumes
/// behind a key cursor — foreground inserts into the already-packed prefix
/// are simply left for the next pass.
#[derive(Debug, Default)]
pub struct IncrementalPacker {
    /// Largest entry packed so far; the next step resumes at the base
    /// subtree to its right. `None` = pass not started.
    cursor: Option<crate::node::Sep>,
    done: bool,
}

impl IncrementalPacker {
    /// A packer positioned at the start of a fresh pass.
    pub fn new() -> Self {
        IncrementalPacker::default()
    }

    /// True once [`IncrementalPacker::step`] has completed the pass.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Rewind to the start of a fresh pass.
    pub fn reset(&mut self) {
        self.cursor = None;
        self.done = false;
    }

    /// Locate the next base node to pack. `None` when the pass is over.
    fn resume_base(&self, tree: &BTree) -> StorageResult<Option<PageId>> {
        match self.cursor {
            None => Ok(Some(tree.leftmost_of_level(1)?)),
            Some(cur) => {
                // The subtree containing the cursor was already packed;
                // resume at its right sibling.
                let (_, path) = tree.descend(cur)?;
                let base = path.last().expect("height >= 2").0;
                let next = {
                    let r = tree.pool().pin_read(base)?;
                    NodeRef::new(&r[..]).right_sibling()
                };
                skip_freed_bases(tree, next)
            }
        }
    }

    /// Pack up to `max_subtrees` base subtrees, resuming where the previous
    /// step stopped. Returns what was done and whether the pass finished.
    pub fn step(&mut self, tree: &mut BTree, max_subtrees: usize) -> StorageResult<PackProgress> {
        let mut progress = PackProgress::default();
        if self.done {
            progress.done = true;
            return Ok(progress);
        }
        if tree.height() < 2 {
            // Nothing to pack: a root leaf has no base level.
            self.done = true;
            progress.done = true;
            return Ok(progress);
        }
        let leaf_cap = tree.config().leaf_cap;
        let mut cur = self.resume_base(tree)?;
        while let Some(base) = cur {
            if progress.subtrees >= max_subtrees {
                return Ok(progress);
            }
            // Pause point between subtrees, tree consistent, no pin held.
            bd_storage::pacer::checkpoint()?;
            let (children, next_base) = {
                let r = tree.pool().pin_read(base)?;
                let node = NodeRef::new(&r[..]);
                let children: Vec<PageId> =
                    (0..=node.nkeys()).map(|i| node.inner_child(i)).collect();
                (children, node.right_sibling())
            };
            // First child of the next subtree: the leaf the packed chain
            // must continue into.
            let succ_leaf = match next_base {
                Some(nb) => {
                    let r = tree.pool().pin_read(nb)?;
                    Some(NodeRef::new(&r[..]).inner_child(0))
                }
                None => None,
            };
            let mut entries = Vec::new();
            for &leaf in &children {
                let r = tree.pool().pin_read(leaf)?;
                let node = NodeRef::new(&r[..]);
                for i in 0..node.nkeys() {
                    entries.push(node.leaf_entry(i));
                }
            }
            if entries.is_empty() {
                // Whole subtree empty: free it and detach it from its
                // parents right away (lazy chain semantics, as with
                // free-at-empty: the freed pages stay readable until a
                // later pass has rewritten the chains around them and the
                // daemon reclaims them).
                tree.stats_mut().leaves_freed += children.len() as u64;
                for &leaf in &children {
                    tree.pool().free_page(leaf);
                }
                tree.pool().free_page(base);
                progress.pages_freed += children.len() + 1;
                let mut freed = HashSet::new();
                freed.insert(base);
                patch_parents_from(tree, &freed, 2)?;
                if tree.height() < 2 {
                    // The tree collapsed to a root leaf; the pass is over.
                    break;
                }
            } else {
                let kept = entries.len().div_ceil(leaf_cap).min(children.len());
                let mut seps: Vec<(crate::node::Sep, PageId)> = Vec::with_capacity(kept);
                for (i, chunk) in entries.chunks(leaf_cap.max(1)).enumerate() {
                    let pid = children[i];
                    let mut w = tree.pool().pin_write(pid)?;
                    let mut node = NodeMut::new(&mut w[..]);
                    node.leaf_set_entries(chunk);
                    let next = if i + 1 < kept {
                        Some(children[i + 1])
                    } else {
                        succ_leaf
                    };
                    node.set_right_sibling(next);
                    seps.push((chunk[0], pid));
                }
                tree.stats_mut().leaves_freed += (children.len() - kept) as u64;
                for &leaf in &children[kept..] {
                    tree.pool().free_page(leaf);
                }
                progress.pages_freed += children.len() - kept;
                let inner_seps: Vec<(crate::node::Sep, u32)> =
                    seps[1..].iter().map(|&(s, c)| (s, c)).collect();
                let mut w = tree.pool().pin_write(base)?;
                NodeMut::new(&mut w[..]).inner_set_entries(seps[0].1, &inner_seps);
                drop(w);
                // Entries moved across leaf boundaries: no more confident
                // chained prefetch over a fixed extent.
                tree.set_leaf_extent(None);
                self.cursor = Some(*entries.last().expect("non-empty"));
            }
            progress.subtrees += 1;
            cur = skip_freed_bases(tree, next_base)?;
        }
        self.done = true;
        progress.done = true;
        Ok(progress)
    }
}

/// First catalog-owned base at or to the right of `cur`. Emptied subtrees
/// are detached from their parents but stay lazily chained at level 1, so
/// both resume-by-cursor and the in-step walk can land on a freed base;
/// following it would re-free its pages (and, once the cursor sits left of
/// a run of empty subtrees, never advance past them).
/// Looks up one owner per visited page; it copies no catalog.
fn skip_freed_bases(tree: &BTree, mut cur: Option<PageId>) -> StorageResult<Option<PageId>> {
    while let Some(pid) = cur {
        if tree.pool().with_disk(|d| d.catalog().owner(pid)).is_some() {
            return Ok(Some(pid));
        }
        let r = tree.pool().pin_read(pid)?;
        cur = NodeRef::new(&r[..]).right_sibling();
    }
    Ok(None)
}

/// Unlink catalog-free nodes from every inner-level sibling chain
/// (levels 1 and up). Free-at-empty and the incremental packer detach
/// nodes from their *parents* but leave them in the singly linked level
/// chains; before the maintenance daemon may zero and recycle a freed
/// page, every such lazy reference must be gone — an all-zero page decodes
/// as an empty leaf whose right sibling is page 0. Returns the number of
/// unlinked nodes. Paced: checkpoints between nodes.
pub fn sweep_detached_inners(tree: &BTree) -> StorageResult<usize> {
    let catalog = tree.pool().catalog();
    let mut unlinked = 0;
    for level in 1..tree.height() {
        let mut prev: Option<PageId> = None;
        let mut cur = Some(tree.leftmost_of_level(level)?);
        while let Some(pid) = cur {
            bd_storage::pacer::checkpoint()?;
            let next = {
                let r = tree.pool().pin_read(pid)?;
                NodeRef::new(&r[..]).right_sibling()
            };
            if catalog.owner(pid).is_none() {
                if let Some(pv) = prev {
                    let mut w = tree.pool().pin_write(pv)?;
                    NodeMut::new(&mut w[..]).set_right_sibling(next);
                }
                unlinked += 1;
            } else {
                prev = Some(pid);
            }
            cur = next;
        }
    }
    Ok(unlinked)
}

/// §2.3 compaction: rewrite every live entry into a dense, contiguous,
/// left-packed leaf extent and rebuild the inner levels bottom-up.
pub(crate) fn compact_leaves(tree: &mut BTree, fill: f64) -> StorageResult<()> {
    let entries: Vec<_> = LeafScan::new(tree)?.collect();
    let rebuilt = bulk_load(
        tree.pool().clone(),
        tree.config(),
        &entries,
        fill,
        tree.owner(),
    )?;
    let root = rebuilt.root_page();
    let height = rebuilt.height();
    let extent = rebuilt.leaf_extent();
    tree.install_root(root, height);
    tree.set_len(entries.len());
    tree.set_leaf_extent(extent);
    Ok(())
}
