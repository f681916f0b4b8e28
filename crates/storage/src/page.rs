//! Raw page buffer plus little-endian field accessors.
//!
//! Higher layers (slotted pages, B-tree nodes) define their layouts in terms
//! of these helpers so that all on-page encoding lives in one place.

use crate::disk::PAGE_SIZE;

/// An owned page-sized byte buffer.
pub type PageBuf = Box<[u8; PAGE_SIZE]>;

/// Allocate a zeroed page buffer.
pub fn zeroed() -> PageBuf {
    Box::new([0u8; PAGE_SIZE])
}

/// Checksum of an all-zero (freshly allocated) page.
pub(crate) const ZERO_PAGE_CK: u32 = checksum(&[0u8; PAGE_SIZE]);

/// Odd multiplier of the checksum's steps (2^64 / golden ratio).
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// One checksum step: absorb word `w` into state `h`. A bijection of `h`
/// for every `w` (xor, odd multiply and rotation each are). A multiply only
/// carries a difference upward; the rotation brings the top bits back down
/// so the next multiply spreads them too.
const fn absorb(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(MIX).rotate_left(31)
}

/// Start states of the checksum's four lanes (the first digits of pi):
/// distinct, so the same word weighs differently on each lane.
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// Checksum of a page image — the end-to-end integrity check the simulated
/// disk keeps per page to catch torn writes. `const` so the zero-page
/// checksum is a compile-time constant.
///
/// The image is read as little-endian 64-bit words dealt round-robin onto
/// four independent lanes of [`absorb`] steps, so four multiplies are in
/// flight at once instead of one per byte. Every lane step is a bijection
/// of the lane's state, and so is each step that folds a lane into the
/// result:
/// two images that differ within a single word always differ in the folded
/// 64-bit state, and only the final narrowing to `u32` can collide. The
/// length is folded in after the trailing bytes, so an image and the same
/// image plus trailing zeros differ too.
pub const fn checksum(data: &[u8]) -> u32 {
    let mut lanes = LANE_SEEDS;
    let (blocks, mut rest) = data.as_chunks::<32>();
    let mut i = 0;
    while i < blocks.len() {
        let (words, _) = blocks[i].as_chunks::<8>();
        lanes[0] = absorb(lanes[0], u64::from_le_bytes(words[0]));
        lanes[1] = absorb(lanes[1], u64::from_le_bytes(words[1]));
        lanes[2] = absorb(lanes[2], u64::from_le_bytes(words[2]));
        lanes[3] = absorb(lanes[3], u64::from_le_bytes(words[3]));
        i += 1;
    }
    // Fewer than 32 bytes are left: whole words onto lane 0, then the last
    // partial word, zero-extended, then the length.
    while let Some((word, after)) = rest.split_first_chunk::<8>() {
        lanes[0] = absorb(lanes[0], u64::from_le_bytes(*word));
        rest = after;
    }
    let mut tail = 0u64;
    let mut i = 0;
    while i < rest.len() {
        tail = (tail << 8) | rest[i] as u64;
        i += 1;
    }
    let mut h = absorb(lanes[0], tail);
    h = absorb(h, data.len() as u64);
    h = absorb(h, lanes[1]);
    h = absorb(h, lanes[2]);
    h = absorb(h, lanes[3]);
    h = absorb(h, h >> 29);
    (h ^ (h >> 32)) as u32
}

/// Read a `u16` at `off`.
#[inline]
pub fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

/// Write a `u16` at `off`.
#[inline]
pub fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Read a `u32` at `off`.
#[inline]
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Write a `u32` at `off`.
#[inline]
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Read a `u64` at `off`.
#[inline]
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Write a `u64` at `off`.
#[inline]
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The checksum as its documentation states it: word `i` goes to lane
    /// `i % 4` while a whole 32-byte block is left, to lane 0 after that.
    fn checksum_by_the_book(data: &[u8]) -> u32 {
        let mut lanes = LANE_SEEDS;
        let blocked = data.len() / 32 * 4;
        let mut words = data.chunks_exact(8);
        for (i, w) in words.by_ref().enumerate() {
            let lane = if i < blocked { i % 4 } else { 0 };
            lanes[lane] = absorb(lanes[lane], u64::from_le_bytes(w.try_into().unwrap()));
        }
        let tail = words
            .remainder()
            .iter()
            .fold(0u64, |t, &b| (t << 8) | b as u64);
        let folded = [tail, data.len() as u64, lanes[1], lanes[2], lanes[3]]
            .into_iter()
            .fold(lanes[0], absorb);
        let h = absorb(folded, folded >> 29);
        (h ^ (h >> 32)) as u32
    }

    /// A page with no two equal words.
    fn sample_page() -> PageBuf {
        let mut p = zeroed();
        for (i, b) in p.iter_mut().enumerate() {
            *b = (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[i % 4];
        }
        p
    }

    #[test]
    fn zero_page_constant_is_the_run_time_value() {
        assert_eq!(ZERO_PAGE_CK, checksum(std::hint::black_box(&zeroed()[..])));
        assert_eq!(ZERO_PAGE_CK, checksum_by_the_book(&zeroed()[..]));
    }

    #[test]
    fn every_single_bit_flip_changes_the_sum() {
        let mut p = sample_page();
        let clean = checksum(&p[..]);
        for at in 0..PAGE_SIZE {
            for bit in 0..8 {
                p[at] ^= 1 << bit;
                assert_ne!(checksum(&p[..]), clean, "byte {at} bit {bit}");
                p[at] ^= 1 << bit;
            }
        }
        assert_eq!(checksum(&p[..]), clean);
    }

    #[test]
    fn paired_flips_on_one_lane_do_not_cancel() {
        // Without the rotation in `absorb`, flipping bit 63 of two words of
        // one lane (32 bytes apart) cancels: a multiply never moves a
        // difference out of the top bit.
        let mut p = sample_page();
        let clean = checksum(&p[..]);
        for bit in 0..8 {
            for first in [7, 15, 4063] {
                p[first] ^= 1 << bit;
                p[first + 32] ^= 1 << bit;
                assert_ne!(checksum(&p[..]), clean, "bit {bit} of bytes {first}, +32");
                p[first] ^= 1 << bit;
                p[first + 32] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn half_page_tear_is_detected() {
        let intended = sample_page();
        let mut old = sample_page();
        old.reverse();
        let mut torn = intended.clone();
        torn[PAGE_SIZE / 2..].copy_from_slice(&old[PAGE_SIZE / 2..]);
        assert_ne!(checksum(&torn[..]), checksum(&intended[..]));
        assert_ne!(checksum(&torn[..]), checksum(&old[..]));
        // A tear that loses nothing is no corruption.
        torn[PAGE_SIZE / 2..].copy_from_slice(&intended[PAGE_SIZE / 2..]);
        assert_eq!(checksum(&torn[..]), checksum(&intended[..]));
    }

    #[test]
    fn lengths_off_the_word_and_block_grid() {
        let p = sample_page();
        for len in 0..=100 {
            let mut data = p[..len].to_vec();
            let sum = checksum(&data);
            assert_eq!(sum, checksum_by_the_book(&data), "len {len}");
            data.push(0);
            assert_ne!(checksum(&data), sum, "len {len}: trailing zero ignored");
            data[len] = 1;
            assert_ne!(checksum(&data), sum, "len {len}: last byte ignored");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_pages_detect_flips_and_tears(
            a in prop::collection::vec(any::<u8>(), PAGE_SIZE),
            b in prop::collection::vec(any::<u8>(), PAGE_SIZE),
            at in 0..PAGE_SIZE,
            bit in 0u8..8,
            len in 0..PAGE_SIZE,
        ) {
            let sum = checksum(&a);
            prop_assert_eq!(sum, checksum_by_the_book(&a));
            prop_assert_eq!(checksum(&a[..len]), checksum_by_the_book(&a[..len]));
            let mut flipped = a.clone();
            flipped[at] ^= 1 << bit;
            prop_assert_ne!(checksum(&flipped), sum);
            let mut torn = a.clone();
            torn[PAGE_SIZE / 2..].copy_from_slice(&b[PAGE_SIZE / 2..]);
            prop_assert_eq!(checksum(&torn) == sum, torn == a);
        }
    }

    #[test]
    fn field_roundtrips() {
        let mut p = zeroed();
        put_u16(&mut p[..], 0, 0xBEEF);
        put_u32(&mut p[..], 2, 0xDEAD_BEEF);
        put_u64(&mut p[..], 6, u64::MAX - 3);
        assert_eq!(get_u16(&p[..], 0), 0xBEEF);
        assert_eq!(get_u32(&p[..], 2), 0xDEAD_BEEF);
        assert_eq!(get_u64(&p[..], 6), u64::MAX - 3);
    }

    #[test]
    fn fields_do_not_bleed() {
        let mut p = zeroed();
        put_u64(&mut p[..], 8, u64::MAX);
        put_u16(&mut p[..], 16, 0);
        assert_eq!(get_u64(&p[..], 8), u64::MAX);
        assert_eq!(get_u16(&p[..], 16), 0);
        assert_eq!(get_u64(&p[..], 0), 0);
    }
}
