//! CRC-32 (IEEE 802.3, reflected 0xEDB88320) — the checksum of every
//! frame header, frame body and checkpoint record. The workspace
//! carries no checksum dependency: the tables are built at compile
//! time, and the backend is a runtime check in the pattern of
//! `align::striped` and `phylo::lik_simd` — carry-less-multiply folding
//! for 64 bytes and up where the CPU has `pclmulqdq`, slice-by-8
//! everywhere else, for short inputs and for the tail. Same polynomial,
//! same bytes: which path ran never shows on the wire or in the log.

// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
// state after byte `b` followed by `k` zero bytes, which lets eight
// input bytes fold into the state with eight independent lookups
// (slice-by-8) instead of eight dependent ones.
const fn tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = tables();

/// Folds `data` into the raw (un-inverted) CRC state one byte at a
/// time: the tail of [`sliced`], and the oracle the tests compare both
/// faster paths against.
fn bytewise(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Folds `data` into the raw CRC state eight bytes per step: the
/// portable path.
fn sliced(mut c: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    bytewise(c, words.remainder())
}

/// Inputs shorter than this stay on the portable path: folding needs
/// four 16-byte lanes to start from.
const CLMUL_MIN: usize = 64;

/// Folds the whole 16-byte blocks of `data` (at least [`CLMUL_MIN`]
/// bytes) into the raw CRC state by carry-less multiplication — four
/// 128-bit lanes 64 bytes at a time, then one lane 16 bytes at a time,
/// then a Barrett reduction to 32 bits (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", bit-reflected
/// variant; the constants are x^n mod P for the fold distances).
/// Returns the state and the unfolded tail, under 16 bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn clmul(state: u32, data: &[u8]) -> (u32, &[u8]) {
    use std::arch::x86_64::*;
    let load = |b: &[u8]| {
        assert_eq!(b.len(), 16);
        // SAFETY: `b` is 16 readable bytes (asserted: a `chunks_exact(16)`
        // item, or a 16-byte range of a `chunks_exact(64)` item), and
        // `_mm_loadu_si128` reads exactly 16 bytes at any alignment.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    };
    let fold = |a: __m128i, b: __m128i, k: __m128i| {
        let lo = _mm_clmulepi64_si128::<0x00>(a, k);
        let hi = _mm_clmulepi64_si128::<0x11>(a, k);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    };
    let by_64 = _mm_set_epi64x(0x0001_c6e4_1596, 0x0001_5444_2bd4);
    let by_16 = _mm_set_epi64x(0x0000_ccaa_009e, 0x0001_7519_97d0);
    let mut quads = data.chunks_exact(64);
    let first = quads.next().expect("the caller checked CLMUL_MIN");
    let mut x = [0, 16, 32, 48].map(|at| load(&first[at..at + 16]));
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
    for q in &mut quads {
        for (lane, at) in x.iter_mut().zip([0, 16, 32, 48]) {
            *lane = fold(*lane, load(&q[at..at + 16]), by_64);
        }
    }
    let mut acc = fold(x[0], x[1], by_16);
    acc = fold(acc, x[2], by_16);
    acc = fold(acc, x[3], by_16);
    let mut blocks = quads.remainder().chunks_exact(16);
    for b in &mut blocks {
        acc = fold(acc, load(b), by_16);
    }
    // 128 → 64 bits, then Barrett: 64 → 32.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(acc, by_16),
        _mm_srli_si128::<8>(acc),
    );
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(
            _mm_and_si128(acc, low32),
            _mm_set_epi64x(0, 0x0001_63cd_6124),
        ),
        _mm_srli_si128::<4>(acc),
    );
    let poly_mu = _mm_set_epi64x(0x0001_f701_1641, 0x0001_db71_0641);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), poly_mu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), poly_mu);
    let c = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;
    (c, blocks.remainder())
}

/// Whether [`crc32`] folds long inputs by carry-less multiplication on
/// this CPU.
pub fn clmul_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// CRC-32 (IEEE) of `data`.
#[inline]
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN && clmul_available() {
        // SAFETY: `clmul_available` just confirmed both target features.
        let (c, tail) = unsafe { clmul(0xFFFF_FFFF, data) };
        return sliced(c, tail) ^ 0xFFFF_FFFF;
    }
    sliced(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use biodist_util::rng::{Rng, SplitMix64};

    fn oracle(data: &[u8]) -> u32 {
        bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// The portable path whatever the CPU: what a host without
    /// `pclmulqdq` computes.
    fn crc32_portable(data: &[u8]) -> u32 {
        sliced(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        for crc in [crc32, crc32_portable, oracle] {
            assert_eq!(crc(b""), 0x0000_0000);
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
        }
    }

    /// Carry-less multiply against slice-by-8 against the bytewise
    /// oracle: every length from empty through five 64-byte folds plus
    /// every 16-byte block count and tail, at every alignment of the
    /// slice start, then a megabyte of seeded random bytes. The portable
    /// path is called directly, so it is tested on every host.
    #[test]
    fn clmul_and_sliced_crc32_agree_with_the_bytewise_oracle() {
        if !clmul_available() {
            println!("skipped: no pclmulqdq (portable path still checked)");
        }
        let mut rng = SplitMix64::new(0x0C2C_0032);
        let backing: Vec<u8> = (0..320 + 16).map(|_| rng.next_u64() as u8).collect();
        for start in 0..16 {
            for len in 0..=320 {
                let data = &backing[start..start + len];
                let want = oracle(data);
                assert_eq!(
                    crc32_portable(data),
                    want,
                    "sliced: start {start} len {len}"
                );
                assert_eq!(crc32(data), want, "dispatched: start {start} len {len}");
            }
        }
        let big: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
        for data in [&big[..], &big[3..], &big[..big.len() - 5]] {
            assert_eq!(crc32_portable(data), oracle(data));
            assert_eq!(crc32(data), oracle(data));
        }
    }
}
