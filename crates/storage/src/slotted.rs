//! Slotted page layout for heap pages.
//!
//! Layout:
//!
//! ```text
//! 0..2   n_slots   (u16)  number of slot directory entries (incl. empty)
//! 2..4   free_end  (u16)  offset where the record area begins (grows down)
//! 4..    slot directory: per slot [offset u16][len u16]; len == 0 => empty
//! ...    free space
//! ...    records, packed from the page end downwards
//! ```
//!
//! Deleting a record only clears its slot (len = 0); record bytes stay until
//! [`SlottedPage::compact`] runs. Slot numbers are stable across unrelated
//! deletions, which is what keeps RIDs valid.

use crate::disk::PAGE_SIZE;
use crate::error::{StorageError, StorageResult};
use crate::page::{get_u16, put_u16};

const HDR: usize = 4;
const SLOT: usize = 4;

/// Mutable view of a page interpreted as a slotted page.
pub struct SlottedPage<'a> {
    buf: &'a mut [u8],
}

impl<'a> SlottedPage<'a> {
    /// Interpret an existing page (zeroed pages are valid empty slotted
    /// pages except `free_end`, which [`SlottedPage::init`] must set).
    pub fn new(buf: &'a mut [u8]) -> Self {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        SlottedPage { buf }
    }

    /// Format the page as an empty slotted page.
    pub fn init(buf: &'a mut [u8]) -> Self {
        let mut p = SlottedPage::new(buf);
        p.set_n_slots(0);
        p.set_free_end(PAGE_SIZE as u16);
        p
    }

    fn n_slots(&self) -> usize {
        get_u16(self.buf, 0) as usize
    }

    fn set_n_slots(&mut self, n: u16) {
        put_u16(self.buf, 0, n);
    }

    fn free_end(&self) -> usize {
        get_u16(self.buf, 2) as usize
    }

    fn set_free_end(&mut self, v: u16) {
        put_u16(self.buf, 2, v);
    }

    fn slot(&self, i: usize) -> (usize, usize) {
        let base = HDR + i * SLOT;
        (
            get_u16(self.buf, base) as usize,
            get_u16(self.buf, base + 2) as usize,
        )
    }

    fn set_slot(&mut self, i: usize, off: usize, len: usize) {
        let base = HDR + i * SLOT;
        put_u16(self.buf, base, off as u16);
        put_u16(self.buf, base + 2, len as u16);
    }

    /// Number of live (non-deleted) records.
    pub fn live_records(&self) -> usize {
        (0..self.n_slots()).filter(|&i| self.slot(i).1 != 0).count()
    }

    /// Number of slot directory entries, including empty ones.
    pub fn slot_count(&self) -> usize {
        self.n_slots()
    }

    /// Contiguous free bytes between the slot directory and the record area.
    pub fn contiguous_free(&self) -> usize {
        self.free_end() - (HDR + self.n_slots() * SLOT)
    }

    /// Free bytes available after a hypothetical compaction (counts holes
    /// left by deleted records).
    pub fn usable_free(&self) -> usize {
        read::usable_free(self.buf)
    }

    /// Largest record insertable into a fresh page.
    pub fn max_record_len() -> usize {
        PAGE_SIZE - HDR - SLOT
    }

    fn find_empty_slot(&self) -> Option<usize> {
        (0..self.n_slots()).find(|&i| self.slot(i).1 == 0)
    }

    /// Insert a record, reusing an empty slot if one exists. Returns the
    /// slot number. Compacts the page if fragmentation is the only obstacle.
    pub fn insert(&mut self, record: &[u8]) -> StorageResult<u16> {
        if record.is_empty() || record.len() > Self::max_record_len() {
            return Err(StorageError::RecordTooLarge {
                len: record.len(),
                max: Self::max_record_len(),
            });
        }
        let reuse = self.find_empty_slot();
        let dir_growth = if reuse.is_some() { 0 } else { SLOT };
        if record.len() + dir_growth > self.usable_free() {
            return Err(StorageError::PageFull);
        }
        if record.len() + dir_growth > self.contiguous_free() {
            self.compact();
        }
        let off = self.free_end() - record.len();
        self.buf[off..off + record.len()].copy_from_slice(record);
        self.set_free_end(off as u16);
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = self.n_slots();
                self.set_n_slots(s as u16 + 1);
                s
            }
        };
        self.set_slot(slot, off, record.len());
        Ok(slot as u16)
    }

    /// Read the record in `slot`.
    pub fn get(&self, slot: u16) -> StorageResult<&[u8]> {
        let i = slot as usize;
        if i >= self.n_slots() {
            return Err(StorageError::SlotOutOfBounds(crate::rid::Rid::new(0, slot)));
        }
        let (off, len) = self.slot(i);
        if len == 0 {
            return Err(StorageError::SlotEmpty(crate::rid::Rid::new(0, slot)));
        }
        Ok(&self.buf[off..off + len])
    }

    /// Delete the record in `slot`, returning its bytes.
    pub fn delete(&mut self, slot: u16) -> StorageResult<Vec<u8>> {
        let bytes = self.get(slot)?.to_vec();
        self.set_slot(slot as usize, 0, 0);
        Ok(bytes)
    }

    /// True if `slot` currently holds a record.
    pub fn is_live(&self, slot: u16) -> bool {
        let i = slot as usize;
        i < self.n_slots() && self.slot(i).1 != 0
    }

    /// Move all live records to the end of the page, eliminating holes.
    /// Slot numbers are unchanged.
    pub fn compact(&mut self) {
        let n = self.n_slots();
        let mut live: Vec<(usize, usize, usize)> = (0..n)
            .filter_map(|i| {
                let (off, len) = self.slot(i);
                (len != 0).then_some((i, off, len))
            })
            .collect();
        // Repack from the page end in descending offset order so moves never
        // overwrite bytes that are still needed.
        live.sort_by_key(|&(_, off, _)| std::cmp::Reverse(off));
        let mut end = PAGE_SIZE;
        for (i, off, len) in live {
            end -= len;
            self.buf.copy_within(off..off + len, end);
            self.set_slot(i, end, len);
        }
        self.set_free_end(end as u16);
    }

    /// Destroy every byte the page holds that no live record covers: zero
    /// each gap between the slot directory and the page end that no live
    /// record extent claims. Deleting a record only clears its slot entry,
    /// and [`SlottedPage::compact`] leaves stale images behind in vacated
    /// areas — after this pass the only record bytes on the page belong to
    /// live records. Returns how many (non-zero) bytes were zeroed.
    ///
    /// Deliberately **non-moving**: live records stay at their offsets, so
    /// the scrubbed image differs from the pre-scrub image only in dead
    /// bytes. A torn write of a scrub (half old, half new) therefore still
    /// yields a logically identical page — crash recovery just re-runs the
    /// scrub — whereas a torn compaction could leave a live record
    /// half-moved and unrecoverable.
    pub fn scrub(&mut self) -> usize {
        let n = self.n_slots();
        let mut live: Vec<(usize, usize)> = (0..n)
            .filter_map(|i| {
                let (off, len) = self.slot(i);
                (len != 0).then_some((off, len))
            })
            .collect();
        live.sort_unstable();
        let mut dirty = 0;
        let mut pos = HDR + n * SLOT;
        let mut zero_gap = |buf: &mut [u8], a: usize, b: usize| {
            if a < b {
                dirty += buf[a..b].iter().filter(|&&x| x != 0).count();
                buf[a..b].fill(0);
            }
        };
        for (off, len) in live {
            zero_gap(self.buf, pos, off.max(pos));
            pos = pos.max(off + len);
        }
        zero_gap(self.buf, pos, PAGE_SIZE);
        dirty
    }
}

/// Read-only access to a slotted page image (no `&mut` required).
pub mod read {
    use super::{HDR, PAGE_SIZE, SLOT};
    use crate::error::{StorageError, StorageResult};
    use crate::page::get_u16;
    use crate::rid::Rid;

    /// Number of slot directory entries, including empty ones.
    pub fn slot_count(buf: &[u8]) -> usize {
        get_u16(buf, 0) as usize
    }

    /// True if `slot` holds a record.
    pub fn is_live(buf: &[u8], slot: u16) -> bool {
        let i = slot as usize;
        i < slot_count(buf) && get_u16(buf, HDR + i * SLOT + 2) != 0
    }

    /// Record bytes in `slot`.
    pub fn get(buf: &[u8], slot: u16) -> StorageResult<&[u8]> {
        let i = slot as usize;
        if i >= slot_count(buf) {
            return Err(StorageError::SlotOutOfBounds(Rid::new(0, slot)));
        }
        let off = get_u16(buf, HDR + i * SLOT) as usize;
        let len = get_u16(buf, HDR + i * SLOT + 2) as usize;
        if len == 0 {
            return Err(StorageError::SlotEmpty(Rid::new(0, slot)));
        }
        Ok(&buf[off..off + len])
    }

    /// Number of live records on the page.
    pub fn live_records(buf: &[u8]) -> usize {
        (0..slot_count(buf) as u16)
            .filter(|&s| is_live(buf, s))
            .count()
    }

    /// Free bytes available after a hypothetical compaction (counts holes
    /// left by deleted records).
    pub fn usable_free(buf: &[u8]) -> usize {
        let n = slot_count(buf);
        let live: usize = (0..n)
            .map(|i| get_u16(buf, HDR + i * SLOT + 2) as usize)
            .sum();
        PAGE_SIZE - HDR - n * SLOT - live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::zeroed;

    #[test]
    fn read_module_matches_mut_view() {
        let mut buf = zeroed();
        let mut p = SlottedPage::init(&mut buf[..]);
        let a = p.insert(b"alpha").unwrap();
        let b = p.insert(b"beta").unwrap();
        p.delete(a).unwrap();
        assert_eq!(read::slot_count(&buf[..]), 2);
        assert!(!read::is_live(&buf[..], a));
        assert!(read::is_live(&buf[..], b));
        assert_eq!(read::get(&buf[..], b).unwrap(), b"beta");
        assert!(read::get(&buf[..], a).is_err());
        assert_eq!(read::live_records(&buf[..]), 1);
        // Two directory entries, one live 4-byte record.
        assert_eq!(read::usable_free(&buf[..]), PAGE_SIZE - HDR - 2 * SLOT - 4);
        assert_eq!(SlottedPage::new(&mut buf[..]).usable_free(), 4080);
    }

    #[test]
    fn insert_get_delete() {
        let mut buf = zeroed();
        let mut p = SlottedPage::init(&mut buf[..]);
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_ne!(a, b);
        assert_eq!(p.get(a).unwrap(), b"hello");
        assert_eq!(p.get(b).unwrap(), b"world!");
        assert_eq!(p.delete(a).unwrap(), b"hello");
        assert!(matches!(p.get(a), Err(StorageError::SlotEmpty(_))));
        assert_eq!(p.get(b).unwrap(), b"world!");
        assert_eq!(p.live_records(), 1);
    }

    #[test]
    fn deleted_slot_is_reused() {
        let mut buf = zeroed();
        let mut p = SlottedPage::init(&mut buf[..]);
        let a = p.insert(b"one").unwrap();
        let _b = p.insert(b"two").unwrap();
        p.delete(a).unwrap();
        let c = p.insert(b"three").unwrap();
        assert_eq!(c, a, "empty slot should be reused");
        assert_eq!(p.get(c).unwrap(), b"three");
    }

    #[test]
    fn fills_with_fixed_records_then_reports_full() {
        let mut buf = zeroed();
        let mut p = SlottedPage::init(&mut buf[..]);
        let rec = [0xABu8; 512];
        let mut n = 0;
        while p.insert(&rec).is_ok() {
            n += 1;
        }
        // 4096 bytes: header 4 + n*(4 slot + 512 record) => 7 records.
        assert_eq!(n, 7);
        assert!(matches!(p.insert(&rec), Err(StorageError::PageFull)));
    }

    #[test]
    fn compaction_recovers_holes() {
        let mut buf = zeroed();
        let mut p = SlottedPage::init(&mut buf[..]);
        let rec = [1u8; 512];
        let mut slots = Vec::new();
        while let Ok(s) = p.insert(&rec) {
            slots.push(s);
        }
        // Delete every other record, then a 1000-byte record only fits after
        // compaction (contiguous free is fragmented).
        for &s in slots.iter().step_by(2) {
            p.delete(s).unwrap();
        }
        let big = [2u8; 1000];
        let s = p.insert(&big).unwrap();
        assert_eq!(p.get(s).unwrap(), &big[..]);
        // Remaining odd-slot records survived compaction intact.
        for &s in slots.iter().skip(1).step_by(2) {
            assert_eq!(p.get(s).unwrap(), &rec[..]);
        }
    }

    #[test]
    fn scrub_destroys_deleted_record_bytes() {
        let mut buf = zeroed();
        let mut p = SlottedPage::init(&mut buf[..]);
        let secret = [0xEEu8; 64];
        let keeper = [0x11u8; 64];
        let s = p.insert(&secret).unwrap();
        let k = p.insert(&keeper).unwrap();
        p.delete(s).unwrap();
        // The deleted record's bytes are still physically on the page.
        assert!(buf.windows(64).any(|w| w == secret));
        let mut p = SlottedPage::new(&mut buf[..]);
        let zeroed_bytes = p.scrub();
        assert!(zeroed_bytes >= 64, "zeroed {zeroed_bytes}");
        assert!(
            !buf.windows(8).any(|w| w == &secret[..8]),
            "secret bytes survive scrub"
        );
        let p = SlottedPage::new(&mut buf[..]);
        assert_eq!(p.get(k).unwrap(), &keeper[..], "live record intact");
        assert_eq!(p.live_records(), 1);
        // Second scrub finds nothing left to zero.
        let mut p = SlottedPage::new(&mut buf[..]);
        assert_eq!(p.scrub(), 0);
    }

    #[test]
    fn scrub_zeroes_holes_without_moving_live_records() {
        let mut buf = zeroed();
        let mut p = SlottedPage::init(&mut buf[..]);
        let secret = [0xD7u8; 512];
        let mut slots = Vec::new();
        for _ in 0..7 {
            slots.push(p.insert(&secret).unwrap());
        }
        for &s in &slots[..6] {
            p.delete(s).unwrap();
        }
        let live = *slots.last().unwrap();
        let live_off = {
            let p = SlottedPage::new(&mut buf[..]);
            let rec = p.get(live).unwrap();
            rec.as_ptr() as usize
        };
        let mut p = SlottedPage::new(&mut buf[..]);
        p.scrub();
        let occurrences = buf.windows(16).filter(|w| *w == &secret[..16]).count();
        // Only the single live record's interior windows remain.
        assert!(occurrences <= 512 - 15, "stale copies remain");
        // Non-moving: the survivor is still at its original offset, and
        // every byte outside the directory and that extent is zero.
        let off = live_off - buf.as_ptr() as usize;
        assert_eq!(off, PAGE_SIZE - 7 * 512);
        let p = SlottedPage::new(&mut buf[..]);
        assert_eq!(p.get(live).unwrap(), &secret[..]);
        for (i, &b) in buf.iter().enumerate() {
            let in_dir = i < HDR + slots.len() * SLOT;
            let in_live = (off..off + 512).contains(&i);
            assert!(in_dir || in_live || b == 0, "byte {i} not scrubbed");
        }
    }

    #[test]
    fn oversized_record_rejected() {
        let mut buf = zeroed();
        let mut p = SlottedPage::init(&mut buf[..]);
        let too_big = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            p.insert(&too_big),
            Err(StorageError::RecordTooLarge { .. })
        ));
        assert!(matches!(
            p.insert(&[]),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn out_of_bounds_slot() {
        let mut buf = zeroed();
        let p = SlottedPage::init(&mut buf[..]);
        assert!(matches!(p.get(99), Err(StorageError::SlotOutOfBounds(_))));
    }
}
