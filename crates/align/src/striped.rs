//! Farrar-style striped SIMD Smith–Waterman (score only, affine gaps).
//!
//! The DP runs over the striped query layout of [`QueryProfile`]: each
//! SIMD vector holds `width` query positions that are `seg_len` apart,
//! so the only intra-column dependency the vector loop cannot express —
//! the vertical gap state `F` — is deferred to a *lazy-F* correction
//! loop that terminates as soon as the carried `F` can no longer raise
//! any `H` (Farrar, Bioinformatics 2007). Scores are bit-identical to
//! [`crate::sw_score`]: the striped recurrence drops only `E`-after-`F`
//! gap openings, and any alignment using one can be reordered into an
//! equal-scoring `F`-after-`E` form that the recurrence does admit.
//!
//! # Adaptive lane width
//!
//! The fast path runs saturating `i16` lanes — 16 on AVX2, 8 on SSE2,
//! and 8 scalar-emulated lanes on any other target (the portable
//! fallback keeps the crate building everywhere). Saturating arithmetic
//! clamps instead of wrapping, so if the true score reaches
//! `i16::MAX` the reported maximum *equals* `i16::MAX`; that is the
//! saturation signal, and the subject is transparently rescored in
//! `i32` lanes, which are exact for everything the scalar kernel
//! handles. The `i16` path is exact for every score below `i16::MAX`.
//!
//! Backend selection is a runtime check (`is_x86_feature_detected!`) on
//! x86_64 and compile-time elsewhere; no feature flags are required.
//!
//! The SSE2 engine earns its place: on a 2-vCPU Xeon VM it scored
//! 1.8–2.9 Gcells/s against the portable engine's 0.22–0.36 (300 × 300
//! protein, profiled; AVX2 3.4–3.9). The likelihood kernels' SSE2
//! engine, which ran within 5 % of its portable one, was deleted.

use crate::profile::{QueryProfile, WIDTH_I32};
use biodist_bioseq::{GapPenalty, ScoringScheme, Sequence};
use std::cell::Cell;
use std::thread::LocalKey;

/// Which SIMD implementation the striped kernel dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// 256-bit AVX2 vectors: 16 × `i16` lanes.
    Avx2,
    /// 128-bit SSE2 vectors (x86_64 baseline): 8 × `i16` lanes.
    Sse2,
    /// Scalar-emulated 8 × `i16` lanes; compiles on every target.
    Portable,
}

impl SimdBackend {
    /// Lane count of the `i16` fast path.
    pub fn lanes_i16(self) -> usize {
        match self {
            SimdBackend::Avx2 => 16,
            SimdBackend::Sse2 | SimdBackend::Portable => 8,
        }
    }
}

/// Picks the widest backend the running CPU supports.
pub fn detect_backend() -> SimdBackend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdBackend::Avx2
        } else {
            SimdBackend::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdBackend::Portable
    }
}

/// Striped SIMD local-alignment score; convenience wrapper that builds
/// the query profile for a single pair. Batch callers should build the
/// profile once with [`QueryProfile::build`] and call
/// [`sw_score_striped_profiled`] per subject.
pub fn sw_score_striped(query: &Sequence, subject: &Sequence, scheme: &ScoringScheme) -> i32 {
    let profile = QueryProfile::build(query, &scheme.matrix);
    sw_score_striped_profiled(&profile, subject, &scheme.gap)
}

/// Striped SIMD local-alignment score against a prebuilt profile.
///
/// Returns exactly [`crate::sw_score`]`(query, subject, scheme)` for the
/// query the profile was built from, including after an `i16`-lane
/// saturation (the `i32` rescore path restores exactness).
pub fn sw_score_striped_profiled(
    profile: &QueryProfile,
    subject: &Sequence,
    gap: &GapPenalty,
) -> i32 {
    let sc = subject.codes();
    if profile.query_len() == 0 || sc.is_empty() {
        return 0;
    }
    let go16 = gap.open.min(i16::MAX as i32) as i16;
    let ge16 = gap.extend.min(i16::MAX as i32) as i16;
    let best16 = match profile.backend() {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => unsafe {
            // Safety: the profile's backend is only Avx2 when
            // `is_x86_feature_detected!("avx2")` held at build time.
            run_i16_avx2(profile, sc, go16, ge16)
        },
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Sse2 => run_i16::<sse2::S16>(profile, sc, go16, ge16),
        _ => run_i16::<P16>(profile, sc, go16, ge16),
    };
    if best16 < i16::MAX {
        return best16 as i32;
    }
    // Saturated (or genuinely equal to i16::MAX — indistinguishable, and
    // the rescore returns the same value in that case): rerun in i32.
    run_i32(profile, sc, gap.open, gap.extend)
}

/// The three rows a striped score runs over — `H` stored, `H` loaded
/// and `E`, one lane vector per stripe. Each engine keeps one set per
/// thread ([`LanesI16::rows`]), which a score takes and puts back:
/// scoring a subject allocates nothing once the rows are as long as the
/// query's stripes.
type Rows<V> = [Vec<V>; 3];

const fn no_rows<V>() -> Rows<V> {
    [Vec::new(), Vec::new(), Vec::new()]
}

/// Takes this thread's rows of `key`, each `seg_len` copies of `zero`.
fn take_rows<V: Copy>(key: &'static LocalKey<Cell<Rows<V>>>, seg_len: usize, zero: V) -> Rows<V> {
    let mut rows = key.take();
    for row in &mut rows {
        row.clear();
        row.resize(seg_len, zero);
    }
    rows
}

thread_local! {
    /// The `i32` rescore's rows.
    static ROWS_I32: Cell<Rows<[i32; WIDTH_I32]>> = const { Cell::new(no_rows()) };
}

/// Fixed-width `i16` lane bundle. All ops are saturating, so overflow
/// clamps at the type bounds instead of wrapping; the kernel relies on
/// that for its saturation-detection contract.
trait LanesI16: Copy + 'static {
    const WIDTH: usize;
    /// This engine's per-thread [`Rows`].
    fn rows() -> &'static LocalKey<Cell<Rows<Self>>>;
    fn zero() -> Self;
    fn splat(x: i16) -> Self;
    /// Loads `Self::WIDTH` lanes from the head of `src`.
    fn load(src: &[i16]) -> Self;
    fn adds(self, o: Self) -> Self;
    fn subs(self, o: Self) -> Self;
    fn max(self, o: Self) -> Self;
    /// Moves lane `l` to lane `l+1`; lane 0 becomes 0 (the local-
    /// alignment boundary, which can never raise an `H`).
    fn shift_up(self) -> Self;
    /// Whether any lane of `self` exceeds the same lane of `o`.
    fn any_gt(self, o: Self) -> bool;
    /// Horizontal maximum across lanes.
    fn hmax(self) -> i16;
}

/// The striped score loop, generic over the lane engine. Marked
/// `inline(always)` so that when instantiated inside a
/// `#[target_feature]` wrapper the lane ops compile with that feature.
#[inline(always)]
fn run_i16<V: LanesI16>(profile: &QueryProfile, subject: &[u8], go: i16, ge: i16) -> i16 {
    let seg_len = profile.seg_len();
    debug_assert_eq!(profile.width(), V::WIDTH);
    let (vgo, vge, zero) = (V::splat(go), V::splat(ge), V::zero());
    let mut rows = take_rows(V::rows(), seg_len, zero);
    // Sliced to one length so that the loops index without bounds checks.
    let [mut h_store, mut h_load, e] = rows.each_mut().map(|r| &mut r[..seg_len]);
    let mut vmax = zero;

    for &c in subject {
        let row = profile.row16(c);
        let mut vf = zero;
        // Diagonal feed for stripe 0: the previous column's last stripe,
        // lanes shifted up one (position p-1 sits one stripe "earlier",
        // wrapping into the next lane at stripe boundaries).
        let mut vh = h_store[seg_len - 1].shift_up();
        std::mem::swap(&mut h_store, &mut h_load);
        for s in 0..seg_len {
            vh = vh.adds(V::load(&row[s * V::WIDTH..]));
            vh = vh.max(e[s]).max(vf).max(zero);
            vmax = vmax.max(vh);
            h_store[s] = vh;
            let open = vh.subs(vgo);
            e[s] = e[s].subs(vge).max(open);
            vf = vf.subs(vge).max(open);
            vh = h_load[s];
        }
        // Lazy-F: carry F across the stripe wrap until it can no longer
        // beat opening a fresh gap from the (already corrected) H.
        //
        // The classic strict-`>` exit is exact only for open > extend:
        // with linear gaps (open == extend) a carry that just raised
        // H[s] yields a next-stripe candidate `F - e` that exactly TIES
        // `H'[s] - open`, and nothing else has propagated it — so in
        // that regime the loop must also keep going whenever it
        // actually raised an H.
        let linear = go == ge;
        'lazy: for _ in 0..V::WIDTH {
            vf = vf.shift_up();
            for s in 0..seg_len {
                let old = h_store[s];
                let vh = old.max(vf);
                h_store[s] = vh;
                vmax = vmax.max(vh);
                let raised_tie = linear && vf.any_gt(old);
                vf = vf.subs(vge);
                if !raised_tie && !vf.any_gt(vh.subs(vgo)) {
                    break 'lazy;
                }
            }
        }
    }
    V::rows().set(rows);
    vmax.hmax()
}

/// Exact `i32` rescore, striped over [`WIDTH_I32`] portable lanes. Same
/// recurrence as [`run_i16`]; plain arithmetic suffices because `i32`
/// scores cannot overflow for any input the scalar kernel handles.
fn run_i32(profile: &QueryProfile, subject: &[u8], go: i32, ge: i32) -> i32 {
    const W: usize = WIDTH_I32;
    type V = [i32; W];
    let seg_len = profile.seg_len32();
    let zero: V = [0; W];
    let mut rows = take_rows(&ROWS_I32, seg_len, zero);
    let [mut h_store, mut h_load, e] = rows.each_mut().map(|r| &mut r[..seg_len]);
    let mut vmax = zero;

    let vmaxw = |a: &mut V, b: V| {
        for l in 0..W {
            a[l] = a[l].max(b[l]);
        }
    };

    for &c in subject {
        let row = profile.row32(c);
        let mut vf = zero;
        let mut vh = {
            let last = h_store[seg_len - 1];
            let mut shifted = zero;
            shifted[1..].copy_from_slice(&last[..W - 1]);
            shifted
        };
        std::mem::swap(&mut h_store, &mut h_load);
        for s in 0..seg_len {
            for l in 0..W {
                // NEG_INF padding keeps saturation-free headroom: H ≥ 0
                // and profile ≥ NEG_INF, so the sum stays far from the
                // i32 bounds.
                vh[l] = (vh[l] + row[s * W + l]).max(e[s][l]).max(vf[l]).max(0);
            }
            vmaxw(&mut vmax, vh);
            h_store[s] = vh;
            for l in 0..W {
                let open = vh[l] - go;
                e[s][l] = (e[s][l] - ge).max(open);
                vf[l] = (vf[l] - ge).max(open);
            }
            vh = h_load[s];
        }
        // Same tie-aware exit as the i16 loop (see the comment there).
        let linear = go == ge;
        'lazy: for _ in 0..W {
            let mut shifted = zero;
            shifted[1..].copy_from_slice(&vf[..W - 1]);
            vf = shifted;
            for s in 0..seg_len {
                let mut raised_tie = false;
                for l in 0..W {
                    raised_tie |= linear && vf[l] > h_store[s][l];
                    h_store[s][l] = h_store[s][l].max(vf[l]);
                }
                vmaxw(&mut vmax, h_store[s]);
                let mut any = raised_tie;
                for l in 0..W {
                    vf[l] -= ge;
                    any |= vf[l] > h_store[s][l] - go;
                }
                if !any {
                    break 'lazy;
                }
            }
        }
    }
    ROWS_I32.set(rows);
    vmax.into_iter().max().expect("non-empty lanes")
}

/// Portable engine: 8 scalar-emulated `i16` lanes. The compiler's
/// autovectoriser handles these fixed-size array loops well, and the
/// type compiles on every target.
#[derive(Clone, Copy)]
struct P16([i16; 8]);

impl LanesI16 for P16 {
    const WIDTH: usize = 8;

    fn rows() -> &'static LocalKey<Cell<Rows<Self>>> {
        thread_local!(static ROWS: Cell<Rows<P16>> = const { Cell::new(no_rows()) });
        &ROWS
    }

    fn zero() -> Self {
        Self([0; 8])
    }

    fn splat(x: i16) -> Self {
        Self([x; 8])
    }

    fn load(src: &[i16]) -> Self {
        let mut v = [0i16; 8];
        v.copy_from_slice(&src[..8]);
        Self(v)
    }

    fn adds(self, o: Self) -> Self {
        Self(std::array::from_fn(|l| self.0[l].saturating_add(o.0[l])))
    }

    fn subs(self, o: Self) -> Self {
        Self(std::array::from_fn(|l| self.0[l].saturating_sub(o.0[l])))
    }

    fn max(self, o: Self) -> Self {
        Self(std::array::from_fn(|l| self.0[l].max(o.0[l])))
    }

    fn shift_up(self) -> Self {
        let mut v = [0i16; 8];
        v[1..].copy_from_slice(&self.0[..7]);
        Self(v)
    }

    fn any_gt(self, o: Self) -> bool {
        (0..8).any(|l| self.0[l] > o.0[l])
    }

    fn hmax(self) -> i16 {
        self.0.into_iter().max().expect("non-empty lanes")
    }
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    //! 128-bit engine. SSE2 is part of the x86_64 baseline, so these
    //! intrinsics are statically available — no runtime gate needed.
    use super::{no_rows, Cell, LanesI16, LocalKey, Rows};
    use std::arch::x86_64::*;

    #[derive(Clone, Copy)]
    pub(super) struct S16(__m128i);

    impl LanesI16 for S16 {
        const WIDTH: usize = 8;

        fn rows() -> &'static LocalKey<Cell<Rows<Self>>> {
            thread_local!(static ROWS: Cell<Rows<S16>> = const { Cell::new(no_rows()) });
            &ROWS
        }

        #[inline(always)]
        fn zero() -> Self {
            Self(unsafe { _mm_setzero_si128() })
        }

        #[inline(always)]
        fn splat(x: i16) -> Self {
            Self(unsafe { _mm_set1_epi16(x) })
        }

        #[inline(always)]
        fn load(src: &[i16]) -> Self {
            debug_assert!(src.len() >= 8);
            Self(unsafe { _mm_loadu_si128(src.as_ptr() as *const __m128i) })
        }

        #[inline(always)]
        fn adds(self, o: Self) -> Self {
            Self(unsafe { _mm_adds_epi16(self.0, o.0) })
        }

        #[inline(always)]
        fn subs(self, o: Self) -> Self {
            Self(unsafe { _mm_subs_epi16(self.0, o.0) })
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            Self(unsafe { _mm_max_epi16(self.0, o.0) })
        }

        #[inline(always)]
        fn shift_up(self) -> Self {
            Self(unsafe { _mm_slli_si128::<2>(self.0) })
        }

        #[inline(always)]
        fn any_gt(self, o: Self) -> bool {
            unsafe { _mm_movemask_epi8(_mm_cmpgt_epi16(self.0, o.0)) != 0 }
        }

        #[inline(always)]
        fn hmax(self) -> i16 {
            unsafe {
                let v = _mm_max_epi16(self.0, _mm_srli_si128::<8>(self.0));
                let v = _mm_max_epi16(v, _mm_srli_si128::<4>(v));
                let v = _mm_max_epi16(v, _mm_srli_si128::<2>(v));
                _mm_extract_epi16::<0>(v) as i16
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! 256-bit engine. Only reachable through the `target_feature`
    //! wrapper below, so every method assumes AVX2 is available.
    use super::{no_rows, Cell, LanesI16, LocalKey, Rows};
    use std::arch::x86_64::*;

    #[derive(Clone, Copy)]
    pub(super) struct A16(__m256i);

    impl LanesI16 for A16 {
        const WIDTH: usize = 16;

        fn rows() -> &'static LocalKey<Cell<Rows<Self>>> {
            thread_local!(static ROWS: Cell<Rows<A16>> = const { Cell::new(no_rows()) });
            &ROWS
        }

        #[inline(always)]
        fn zero() -> Self {
            Self(unsafe { _mm256_setzero_si256() })
        }

        #[inline(always)]
        fn splat(x: i16) -> Self {
            Self(unsafe { _mm256_set1_epi16(x) })
        }

        #[inline(always)]
        fn load(src: &[i16]) -> Self {
            debug_assert!(src.len() >= 16);
            Self(unsafe { _mm256_loadu_si256(src.as_ptr() as *const __m256i) })
        }

        #[inline(always)]
        fn adds(self, o: Self) -> Self {
            Self(unsafe { _mm256_adds_epi16(self.0, o.0) })
        }

        #[inline(always)]
        fn subs(self, o: Self) -> Self {
            Self(unsafe { _mm256_subs_epi16(self.0, o.0) })
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            Self(unsafe { _mm256_max_epi16(self.0, o.0) })
        }

        #[inline(always)]
        fn shift_up(self) -> Self {
            // _mm256_slli_si256 shifts within each 128-bit half; carry
            // the byte pair across the half boundary with a permute.
            unsafe {
                let carry = _mm256_permute2x128_si256::<0x08>(self.0, self.0);
                Self(_mm256_alignr_epi8::<14>(self.0, carry))
            }
        }

        #[inline(always)]
        fn any_gt(self, o: Self) -> bool {
            unsafe { _mm256_movemask_epi8(_mm256_cmpgt_epi16(self.0, o.0)) != 0 }
        }

        #[inline(always)]
        fn hmax(self) -> i16 {
            unsafe {
                let lo = _mm256_castsi256_si128(self.0);
                let hi = _mm256_extracti128_si256::<1>(self.0);
                let v = _mm_max_epi16(lo, hi);
                let v = _mm_max_epi16(v, _mm_srli_si128::<8>(v));
                let v = _mm_max_epi16(v, _mm_srli_si128::<4>(v));
                let v = _mm_max_epi16(v, _mm_srli_si128::<2>(v));
                _mm_extract_epi16::<0>(v) as i16
            }
        }
    }
}

/// AVX2 instantiation of the generic loop. The `target_feature`
/// attribute lets the inlined lane ops compile to real 256-bit code.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_i16_avx2(profile: &QueryProfile, subject: &[u8], go: i16, ge: i16) -> i16 {
    run_i16::<avx2::A16>(profile, subject, go, ge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw_score;
    use biodist_bioseq::{Alphabet, GapPenalty, ScoringMatrix};

    fn seq(alphabet: Alphabet, text: &str) -> Sequence {
        Sequence::from_text("s", "", alphabet, text).unwrap()
    }

    fn check(a: &Sequence, b: &Sequence, scheme: &ScoringScheme) {
        assert_eq!(
            sw_score_striped(a, b, scheme),
            sw_score(a, b, scheme),
            "striped != scalar for |q|={} |s|={}",
            a.len(),
            b.len()
        );
    }

    #[test]
    fn agrees_with_scalar_on_protein_pair() {
        let scheme = ScoringScheme::protein_default();
        let a = seq(Alphabet::Protein, "MKWVLLLNAGRSKWALEHMKWVLLLNAGRSKW");
        let b = seq(Alphabet::Protein, "GGMKWVLNAGRSKWPPMKWVL");
        check(&a, &b, &scheme);
    }

    #[test]
    fn agrees_on_empty_and_single_residue() {
        let scheme = ScoringScheme::dna_default();
        let e = Sequence::from_codes("e", Alphabet::Dna, vec![]);
        let a = seq(Alphabet::Dna, "A");
        let g = seq(Alphabet::Dna, "ACGT");
        for (x, y) in [(&e, &g), (&g, &e), (&e, &e), (&a, &g), (&g, &a), (&a, &a)] {
            check(x, y, &scheme);
        }
    }

    #[test]
    fn profile_reuse_matches_fresh_profiles() {
        let scheme = ScoringScheme::protein_default();
        let q = seq(Alphabet::Protein, "MKWVLLLNAGRSKWALEH");
        let profile = QueryProfile::build(&q, &scheme.matrix);
        for text in [
            "MKWVL",
            "GGGGGGG",
            "MKWVLLLNAGRSKWALEH",
            "HELAWKSRGANLLLVWKM",
        ] {
            let s = seq(Alphabet::Protein, text);
            assert_eq!(
                sw_score_striped_profiled(&profile, &s, &scheme.gap),
                sw_score(&q, &s, &scheme)
            );
        }
    }

    #[test]
    fn saturation_falls_back_to_i32_lanes() {
        // +40 per match over 1200 identical residues: true score 48_000
        // overflows i16 (max 32_767); the i16 pass must saturate and the
        // i32 rescore must restore the exact scalar score.
        let scheme = ScoringScheme {
            matrix: ScoringMatrix::match_mismatch(Alphabet::Dna, 40, -30),
            gap: GapPenalty::affine(20, 2),
        };
        let codes: Vec<u8> = (0..1200).map(|i| (i % 4) as u8).collect();
        let a = Sequence::from_codes("a", Alphabet::Dna, codes.clone());
        let b = Sequence::from_codes("b", Alphabet::Dna, codes);
        let expected = sw_score(&a, &b, &scheme);
        assert!(
            expected > i16::MAX as i32,
            "test must actually overflow i16"
        );
        assert_eq!(sw_score_striped(&a, &b, &scheme), expected);
    }

    #[test]
    fn every_supported_backend_matches_scalar() {
        let scheme = ScoringScheme::protein_default();
        let q = seq(Alphabet::Protein, "MKWVLLLNAGRSKWALEHMKWVLLLNAGRSKWALEH");
        let subjects = ["MKWVLNAGRSKW", "HELAWKSRGANLLLVWKM", "PPPPPPPP", "M"];
        let detected = detect_backend();
        for backend in [SimdBackend::Portable, SimdBackend::Sse2, SimdBackend::Avx2] {
            if backend.lanes_i16() > detected.lanes_i16() {
                continue; // CPU cannot run this engine
            }
            if backend == SimdBackend::Sse2 && cfg!(not(target_arch = "x86_64")) {
                continue;
            }
            let profile = QueryProfile::build_for_backend(&q, &scheme.matrix, backend);
            for text in subjects {
                let s = seq(Alphabet::Protein, text);
                assert_eq!(
                    sw_score_striped_profiled(&profile, &s, &scheme.gap),
                    sw_score(&q, &s, &scheme),
                    "{backend:?} disagrees on {text}"
                );
            }
        }
    }

    #[test]
    fn zero_open_gap_regime_agrees() {
        let scheme = ScoringScheme {
            matrix: ScoringMatrix::match_mismatch(Alphabet::Dna, 2, -1),
            gap: GapPenalty::affine(0, 0),
        };
        let a = seq(Alphabet::Dna, "ACGTACGTACGTAAAA");
        let b = seq(Alphabet::Dna, "TTACGTCGTACGAA");
        check(&a, &b, &scheme);
    }
}
