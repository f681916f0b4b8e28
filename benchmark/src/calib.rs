//! A fixed reference loop, timed beside every statement.
//!
//! The sandbox this benchmark runs in changes speed by a fifth for seconds
//! at a time (a neighbour on the same core), which no number of
//! repetitions inside a ten-second run averages out. The loop below does
//! what the engine's hot paths do — checksum and copy 4 KB pages picked at
//! random from a buffer larger than the caches — and none of the engine's
//! code, so the host's speed moves it as it moves a statement while a
//! change to the engine cannot move it at all.

use std::hint::black_box;
use std::time::Instant;

const PAGE: usize = 4096;
const PAGES: usize = 8192;
const TOUCHES: usize = 12_000;

thread_local! {
    /// The loop's buffer, touched once when first used so that no pass
    /// pays its page faults.
    static BUFFER: Vec<u8> = (0..PAGES * PAGE).map(|i| (i / 7) as u8).collect();
}

/// Host seconds of one pass of the reference loop.
pub fn pass() -> f64 {
    BUFFER.with(|buffer| {
        let mut scratch = [0u8; PAGE];
        let mut rng = crate::gen::SplitMix64::new(0xCA11B8A7E);
        let mut sum = 0u32;
        let start = Instant::now();
        for _ in 0..TOUCHES {
            let at = rng.below(PAGES as u64) as usize * PAGE;
            let page = &buffer[at..at + PAGE];
            for &b in page {
                sum = sum.wrapping_mul(31).wrapping_add(b as u32);
            }
            scratch.copy_from_slice(page);
            scratch[0] = sum as u8;
            black_box(&scratch);
        }
        black_box(sum);
        start.elapsed().as_secs_f64()
    })
}
