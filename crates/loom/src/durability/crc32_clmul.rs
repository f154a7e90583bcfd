//! Carry-less-multiply CRC32 kernel for x86_64.
//!
//! Computes the same CRC32 (IEEE 802.3, reflected) as the slice-by-8
//! tables in [`super::format`], 16 bytes per step, with the PCLMULQDQ
//! folding algorithm of Gopal et al., "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction" (Intel, 2009): fold four
//! 128-bit lanes 512 bits at a time, fold the lanes into one, fold the
//! remaining 16-byte blocks 128 bits at a time, then reduce the last 128
//! bits to 32 with a Barrett reduction. The constants below are that
//! paper's bit-reflected constants for the IEEE polynomial, so every
//! checksum already on disk or on the wire is unchanged.
//!
//! All of the checksum's `unsafe` lives here. The kernel runs only after
//! a runtime `is_x86_feature_detected!` check for `pclmulqdq` and
//! `sse4.1`; on other targets and CPUs [`fold`] consumes nothing and the
//! caller's table loop does all the work.

/// Folds the longest whole-16-byte-block prefix of `bytes` into the
/// running (pre-inversion) CRC `state`. Returns the new state and the
/// number of bytes consumed; the caller folds the rest, which is shorter
/// than 16 bytes — or all of `bytes` when the kernel cannot run.
#[cfg(target_arch = "x86_64")]
pub(super) fn fold(state: u32, bytes: &[u8]) -> (u32, usize) {
    let (blocks, _tail) = bytes.as_chunks::<16>();
    if blocks.is_empty() || !x86::available() {
        return (state, 0);
    }
    // SAFETY: `x86::available()` has just confirmed, through
    // `is_x86_feature_detected!`, that this CPU supports `pclmulqdq` and
    // `sse4.1` — the only features `fold_blocks` enables.
    let state = unsafe { x86::fold_blocks(state, blocks) };
    (state, blocks.len() * 16)
}

/// Without the x86_64 kernel every byte goes through the caller's table.
#[cfg(not(target_arch = "x86_64"))]
pub(super) fn fold(state: u32, _bytes: &[u8]) -> (u32, usize) {
    (state, 0)
}

/// Whether [`fold`] runs the carry-less-multiply kernel on this CPU.
#[cfg(test)]
pub(super) fn available() -> bool {
    fold(!0, &[0; 16]).1 == 16
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    // The paper's bit-reflected constants for the IEEE polynomial. Each
    // fold constant is a power of `x` modulo `P(x)`, reflected and
    // shifted left by one; the pair for one fold distance multiplies the
    // low and the high 64-bit half of a lane.
    /// Fold by 512 bits (four lanes), low half.
    const K1: i64 = 0x1_5444_2bd4;
    /// Fold by 512 bits (four lanes), high half.
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold by 128 bits (one lane), low half.
    const K3: i64 = 0x1_7519_97d0;
    /// Fold by 128 bits (one lane), high half.
    const K4: i64 = 0x0_ccaa_009e;
    /// Folds the low 32 of the last 64 bits onto the rest.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial `P(x)` itself, reflected, with its `x^32` term.
    const P_X: i64 = 0x1_db71_0641;
    /// Barrett constant `μ = floor(x^64 / P(x))`, reflected.
    const MU: i64 = 0x1_f701_1641;

    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Loads one 16-byte block.
    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, `_mm_loadu_si128` has no
        // alignment requirement, and its SSE2 instruction is part of the
        // x86_64 baseline, so it needs no runtime feature check.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Multiplies the 128-bit remainder `acc` forward by the distance the
    /// constant pair `k` encodes and adds the block found there.
    // SAFETY: a safe `#[target_feature]` fn; it is only called from
    // `fold_blocks`, which enables the same features and runs only after
    // `available()`'s `is_x86_feature_detected!("pclmulqdq")` check.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(acc: __m128i, k: __m128i, block: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), block)
    }

    /// The CRC state after folding `blocks` (at least one) into `state`.
    // SAFETY: callers must first confirm both enabled features through
    // `available()`'s `is_x86_feature_detected!("pclmulqdq")` and
    // `is_x86_feature_detected!("sse4.1")`; `super::fold` is the only
    // caller and does so.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold_blocks(state: u32, blocks: &[[u8; 16]]) -> u32 {
        let k1k2 = _mm_set_epi64x(K2, K1);
        let k3k4 = _mm_set_epi64x(K4, K3);
        let (first, mut rest) = blocks.split_first().expect("at least one block");
        let mut x = _mm_xor_si128(load(first), _mm_cvtsi32_si128(state as i32));

        if rest.len() >= 3 {
            // Four independent lanes keep four multiplies in flight.
            let (mut x1, mut x2, mut x3, mut x4) =
                (x, load(&rest[0]), load(&rest[1]), load(&rest[2]));
            let (quads, tail) = rest[3..].as_chunks::<4>();
            for q in quads {
                x1 = fold16(x1, k1k2, load(&q[0]));
                x2 = fold16(x2, k1k2, load(&q[1]));
                x3 = fold16(x3, k1k2, load(&q[2]));
                x4 = fold16(x4, k1k2, load(&q[3]));
            }
            x = fold16(fold16(fold16(x1, k3k4, x2), k3k4, x3), k3k4, x4);
            rest = tail;
        }
        for block in rest {
            x = fold16(x, k3k4, load(block));
        }

        // 128 → 64 bits: fold the low half onto the high half.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        // 64 → 32 + 32 bits.
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett reduction to the 32-bit remainder.
        let pmu = _mm_set_epi64x(MU, P_X);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), pmu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
    }
}
