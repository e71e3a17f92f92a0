//! SIMD lane engines for the pruning-likelihood kernels.
//!
//! The likelihood engine stores partials in a lane-friendly SoA layout
//! — `values[cat][state][pattern]`, with the pattern axis padded to
//! [`PAD`] — so the four inner kernels below can process site patterns
//! in `f64` SIMD lanes across all four states, the same
//! vectorise-the-DP-recurrence move [`crate::lik`] borrowed from the
//! striped Smith–Waterman kernel in `biodist_align`.
//!
//! # Bit-identical dispatch
//!
//! Every kernel is *elementwise over patterns*: the value computed for
//! one pattern is a fixed dag of IEEE-754 `f64` mul/add/max operations
//! that does not depend on the lane width. AVX2 (4 lanes) and the
//! portable engine (4 compiler-vectorised lanes) therefore produce
//! **bit-identical** results — the parity suite pins this with
//! `to_bits` equality. FMA is deliberately not used: a fused
//! multiply-add rounds differently from mul-then-add and would break
//! the cross-backend contract.
//!
//! Backend selection is a runtime check (`is_x86_feature_detected!`)
//! on x86_64 and compile-time elsewhere; `BIODIST_LIK_BACKEND`
//! (`portable | avx2`) overrides detection, clamped to what the CPU
//! actually supports. There is no SSE2 engine: its 2 lanes ran within
//! 5 % of the portable engine's 4 (median of twelve `abl_likelihood
//! --smoke` runs on a 2-vCPU Xeon VM).

/// Pattern-axis padding of the SoA layout: every row is a multiple of
/// `PAD` doubles long, so the 4-lane engines walk it without a scalar
/// tail. Padding slots hold `0.0`, which is neutral for every kernel
/// (products stay zero, `max` ignores it against any positive partial).
pub const PAD: usize = 4;

/// Pattern count rounded up to the SoA row length.
pub fn padded(np: usize) -> usize {
    np.div_ceil(PAD) * PAD
}

/// A 4×4 transition matrix for one rate category.
pub type Mat4 = [[f64; 4]; 4];

/// Which implementation the likelihood engine dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LikBackend {
    /// 4 scalar-emulated `f64` lanes; compiles on every target.
    Portable,
    /// 256-bit AVX2 vectors: 4 × `f64` lanes.
    Avx2,
}

impl LikBackend {
    /// Stable name (used in metrics, benches and the env override).
    pub fn name(self) -> &'static str {
        match self {
            LikBackend::Portable => "portable",
            LikBackend::Avx2 => "avx2",
        }
    }

    /// Small stable index for wire stats and the `lik.backend` gauge.
    /// 0 and 2 named backends that no longer exist and are never reused.
    pub fn index(self) -> u8 {
        match self {
            LikBackend::Portable => 1,
            LikBackend::Avx2 => 3,
        }
    }

    /// Inverse of [`LikBackend::index`] (unknown values → `None`).
    pub fn from_index(i: u8) -> Option<Self> {
        match i {
            1 => Some(LikBackend::Portable),
            3 => Some(LikBackend::Avx2),
            _ => None,
        }
    }

    /// Parses the `BIODIST_LIK_BACKEND` spelling.
    pub fn parse(text: &str) -> Option<Self> {
        match text.trim().to_ascii_lowercase().as_str() {
            "portable" => Some(LikBackend::Portable),
            "avx2" => Some(LikBackend::Avx2),
            _ => None,
        }
    }

    /// Whether the running CPU can execute this backend.
    pub fn is_supported(self) -> bool {
        match self {
            LikBackend::Portable => true,
            #[cfg(target_arch = "x86_64")]
            LikBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest SIMD backend the running CPU supports.
    pub fn detect() -> Self {
        if LikBackend::Avx2.is_supported() {
            LikBackend::Avx2
        } else {
            LikBackend::Portable
        }
    }

    /// Detection plus the `BIODIST_LIK_BACKEND` override (requests the
    /// CPU cannot honour fall back to [`LikBackend::detect`]).
    pub fn select() -> Self {
        if let Ok(v) = std::env::var("BIODIST_LIK_BACKEND") {
            if let Some(b) = Self::parse(&v) {
                if b.is_supported() {
                    return b;
                }
            }
        }
        Self::detect()
    }

    /// Every backend the running CPU can execute (parity suites iterate
    /// this).
    pub fn supported() -> Vec<Self> {
        [LikBackend::Portable, LikBackend::Avx2]
            .into_iter()
            .filter(|b| b.is_supported())
            .collect()
    }
}

/// Fixed-width `f64` lane bundle. Plain (non-fused) IEEE arithmetic
/// only — see the module docs for why FMA is off the table.
trait LanesF64: Copy {
    const WIDTH: usize;
    fn splat(x: f64) -> Self;
    /// Loads `Self::WIDTH` lanes from the head of `src`.
    fn load(src: &[f64]) -> Self;
    /// Stores the lanes to the head of `dst`.
    fn store(self, dst: &mut [f64]);
    fn add(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn max(self, o: Self) -> Self;
}

// ------------------------------------------------------------- kernels

/// `dst[cat][s][·] (op)= Σ_j m[cat][s][j] · child[cat][j][·]` — the
/// Felsenstein node update: one child's conditional likelihoods pushed
/// through its transition matrix, multiplied into (or, for the first
/// child, assigned to) the parent's partials. The dot product is
/// associated left-to-right.
#[inline(always)]
fn product_into_g<V: LanesF64>(
    dst: &mut [f64],
    child: &[f64],
    mats: &[Mat4],
    npad: usize,
    assign: bool,
) {
    for (cat, pm) in mats.iter().enumerate() {
        let base = cat * 4 * npad;
        // Hoist the 16 matrix broadcasts out of the pattern loop.
        let m: [[V; 4]; 4] = std::array::from_fn(|s| std::array::from_fn(|j| V::splat(pm[s][j])));
        let mut i = 0;
        while i < npad {
            let c0 = V::load(&child[base + i..]);
            let c1 = V::load(&child[base + npad + i..]);
            let c2 = V::load(&child[base + 2 * npad + i..]);
            let c3 = V::load(&child[base + 3 * npad + i..]);
            for s in 0..4 {
                let dot = m[s][0]
                    .mul(c0)
                    .add(m[s][1].mul(c1))
                    .add(m[s][2].mul(c2))
                    .add(m[s][3].mul(c3));
                let slot = &mut dst[base + s * npad + i..];
                let out = if assign { dot } else { V::load(slot).mul(dot) };
                out.store(slot);
            }
            i += V::WIDTH;
        }
    }
}

/// `mx[·] = max over all `nrows` SoA rows` — the per-pattern magnitude
/// used by the hoisted scaling check.
#[inline(always)]
fn row_max_g<V: LanesF64>(vals: &[f64], nrows: usize, npad: usize, mx: &mut [f64]) {
    let mut i = 0;
    while i < npad {
        let mut m = V::load(&vals[i..]);
        for r in 1..nrows {
            m = m.max(V::load(&vals[r * npad + i..]));
        }
        m.store(&mut mx[i..]);
        i += V::WIDTH;
    }
}

/// `site[·] = Σ_cat prob · Σ_s π_s · root[cat][s][·]` — the root
/// likelihood reduction, leaving one per-pattern site likelihood.
#[inline(always)]
fn root_site_sums_g<V: LanesF64>(
    vals: &[f64],
    freqs: &[f64; 4],
    probs: &[f64],
    site: &mut [f64],
    npad: usize,
) {
    let f: [V; 4] = std::array::from_fn(|s| V::splat(freqs[s]));
    let mut i = 0;
    while i < npad {
        let mut acc = V::splat(0.0);
        for (cat, &prob) in probs.iter().enumerate() {
            let base = cat * 4 * npad;
            let dot = f[0]
                .mul(V::load(&vals[base + i..]))
                .add(f[1].mul(V::load(&vals[base + npad + i..])))
                .add(f[2].mul(V::load(&vals[base + 2 * npad + i..])))
                .add(f[3].mul(V::load(&vals[base + 3 * npad + i..])));
            acc = acc.add(V::splat(prob).mul(dot));
        }
        acc.store(&mut site[i..]);
        i += V::WIDTH;
    }
}

/// `site[·] = Σ_cat Σ_k ev[cat][k] · coef[cat][k][·]` — the
/// eigen-coefficient branch-length objective. `coef` holds per-pattern
/// spectral coefficients in the SoA layout (rows indexed `cat·4 + k`)
/// and `ev[cat][k] = prob_cat · e^{λ_k r_cat t}`, so evaluating a new
/// branch length is one weighted sweep instead of a matrix rebuild.
#[inline(always)]
fn coef_site_sums_g<V: LanesF64>(coef: &[f64], ev: &[[f64; 4]], site: &mut [f64], npad: usize) {
    let mut i = 0;
    while i < npad {
        let mut acc = V::splat(0.0);
        for (cat, e) in ev.iter().enumerate() {
            let base = cat * 4 * npad;
            let dot = V::splat(e[0])
                .mul(V::load(&coef[base + i..]))
                .add(V::splat(e[1]).mul(V::load(&coef[base + npad + i..])))
                .add(V::splat(e[2]).mul(V::load(&coef[base + 2 * npad + i..])))
                .add(V::splat(e[3]).mul(V::load(&coef[base + 3 * npad + i..])));
            acc = acc.add(dot);
        }
        acc.store(&mut site[i..]);
        i += V::WIDTH;
    }
}

/// Branch-free natural log for positive *normal* `f64` inputs (site
/// likelihoods after scaling always are). ~1e-15 relative accuracy via
/// the atanh series on a mantissa reduced into `[√½, √2)`.
///
/// Every backend applies this exact scalar dag elementwise, so `ln`
/// results are bit-identical across backends by construction; the win
/// over libm's `ln` is that the dag has no branches or table lookups,
/// so the compiler vectorises the [`ln_into`] loop.
#[inline(always)]
fn poly_ln(x: f64) -> f64 {
    const MANT_MASK: u64 = 0x000F_FFFF_FFFF_FFFF;
    const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;
    let bits = x.to_bits();
    let mut e = ((bits >> 52) as i64 - 1023) as f64;
    let mut m = f64::from_bits((bits & MANT_MASK) | ONE_BITS);
    // Halve mantissas above √2 so s stays small: |s| ≤ √2−1 over √2+1.
    let big = (m > std::f64::consts::SQRT_2) as u64;
    m = f64::from_bits(m.to_bits() - (big << 52));
    e += big as f64;
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    // ln m = 2s·(1 + s²/3 + s⁴/5 + … + s¹⁸/19); truncation ≤ 3e-17.
    let mut t = 1.0 / 19.0;
    t = t * s2 + 1.0 / 17.0;
    t = t * s2 + 1.0 / 15.0;
    t = t * s2 + 1.0 / 13.0;
    t = t * s2 + 1.0 / 11.0;
    t = t * s2 + 1.0 / 9.0;
    t = t * s2 + 1.0 / 7.0;
    t = t * s2 + 1.0 / 5.0;
    t = t * s2 + 1.0 / 3.0;
    t = t * s2 + 1.0;
    2.0 * s * t + e * std::f64::consts::LN_2
}

#[inline(always)]
fn ln_into_plain(site: &mut [f64]) {
    for x in site.iter_mut() {
        *x = poly_ln(*x);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn ln_into_avx2(site: &mut [f64]) {
    ln_into_plain(site)
}

/// Replaces each site likelihood with its natural log (`poly_ln`
/// elementwise — bit-identical across backends).
pub fn ln_into(backend: LikBackend, site: &mut [f64]) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        LikBackend::Avx2 => unsafe {
            // Safety: only selected when AVX2 was detected.
            ln_into_avx2(site)
        },
        _ => ln_into_plain(site),
    }
}

// ------------------------------------------------------------ dispatch

macro_rules! dispatch {
    ($backend:expr, $generic:ident, $avx2:ident, ($($arg:expr),*)) => {
        match $backend {
            #[cfg(target_arch = "x86_64")]
            LikBackend::Avx2 => unsafe {
                // Safety: the engine only selects Avx2 when
                // `is_x86_feature_detected!("avx2")` held.
                $avx2($($arg),*)
            },
            _ => $generic::<P4>($($arg),*),
        }
    };
}

/// `product_into_g` behind runtime backend dispatch.
pub fn product_into(
    backend: LikBackend,
    dst: &mut [f64],
    child: &[f64],
    mats: &[Mat4],
    npad: usize,
    assign: bool,
) {
    dispatch!(
        backend,
        product_into_g,
        product_into_avx2,
        (dst, child, mats, npad, assign)
    );
}

/// `row_max_g` behind runtime backend dispatch.
pub fn row_max(backend: LikBackend, vals: &[f64], nrows: usize, npad: usize, mx: &mut [f64]) {
    dispatch!(backend, row_max_g, row_max_avx2, (vals, nrows, npad, mx));
}

/// `root_site_sums_g` behind runtime backend dispatch.
pub fn root_site_sums(
    backend: LikBackend,
    vals: &[f64],
    freqs: &[f64; 4],
    probs: &[f64],
    site: &mut [f64],
    npad: usize,
) {
    dispatch!(
        backend,
        root_site_sums_g,
        root_site_sums_avx2,
        (vals, freqs, probs, site, npad)
    );
}

/// `coef_site_sums_g` behind runtime backend dispatch.
pub fn coef_site_sums(
    backend: LikBackend,
    coef: &[f64],
    ev: &[[f64; 4]],
    site: &mut [f64],
    npad: usize,
) {
    dispatch!(
        backend,
        coef_site_sums_g,
        coef_site_sums_avx2,
        (coef, ev, site, npad)
    );
}

// AVX2 instantiations. The `target_feature` attribute lets the inlined
// lane ops compile to real 256-bit code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn product_into_avx2(
    dst: &mut [f64],
    child: &[f64],
    mats: &[Mat4],
    npad: usize,
    assign: bool,
) {
    product_into_g::<avx2::A4>(dst, child, mats, npad, assign)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_max_avx2(vals: &[f64], nrows: usize, npad: usize, mx: &mut [f64]) {
    row_max_g::<avx2::A4>(vals, nrows, npad, mx)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn root_site_sums_avx2(
    vals: &[f64],
    freqs: &[f64; 4],
    probs: &[f64],
    site: &mut [f64],
    npad: usize,
) {
    root_site_sums_g::<avx2::A4>(vals, freqs, probs, site, npad)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn coef_site_sums_avx2(coef: &[f64], ev: &[[f64; 4]], site: &mut [f64], npad: usize) {
    coef_site_sums_g::<avx2::A4>(coef, ev, site, npad)
}

// ------------------------------------------------------------- engines

/// Portable engine: 4 scalar-emulated `f64` lanes. Fixed-size array
/// loops autovectorise well and compile on every target.
#[derive(Clone, Copy)]
struct P4([f64; 4]);

impl LanesF64 for P4 {
    const WIDTH: usize = 4;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        Self([x; 4])
    }

    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        let mut v = [0.0; 4];
        v.copy_from_slice(&src[..4]);
        Self(v)
    }

    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        dst[..4].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Self(std::array::from_fn(|l| self.0[l] + o.0[l]))
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        Self(std::array::from_fn(|l| self.0[l] * o.0[l]))
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        Self(std::array::from_fn(|l| self.0[l].max(o.0[l])))
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! 256-bit engine. Only reachable through the `target_feature`
    //! wrappers above, so every method assumes AVX2 is available.
    use super::LanesF64;
    use std::arch::x86_64::*;

    #[derive(Clone, Copy)]
    pub(super) struct A4(__m256d);

    impl LanesF64 for A4 {
        const WIDTH: usize = 4;

        #[inline(always)]
        fn splat(x: f64) -> Self {
            Self(unsafe { _mm256_set1_pd(x) })
        }

        #[inline(always)]
        fn load(src: &[f64]) -> Self {
            debug_assert!(src.len() >= 4);
            Self(unsafe { _mm256_loadu_pd(src.as_ptr()) })
        }

        #[inline(always)]
        fn store(self, dst: &mut [f64]) {
            debug_assert!(dst.len() >= 4);
            unsafe { _mm256_storeu_pd(dst.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            Self(unsafe { _mm256_add_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            Self(unsafe { _mm256_mul_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            Self(unsafe { _mm256_max_pd(self.0, o.0) })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_mats() -> Vec<Mat4> {
        vec![
            [
                [0.7, 0.1, 0.1, 0.1],
                [0.1, 0.7, 0.1, 0.1],
                [0.1, 0.1, 0.7, 0.1],
                [0.1, 0.1, 0.1, 0.7],
            ],
            [
                [0.4, 0.2, 0.2, 0.2],
                [0.2, 0.4, 0.2, 0.2],
                [0.2, 0.2, 0.4, 0.2],
                [0.2, 0.2, 0.2, 0.4],
            ],
        ]
    }

    fn demo_child(npad: usize, ncat: usize) -> Vec<f64> {
        (0..ncat * 4 * npad)
            .map(|i| ((i * 37 + 11) % 97) as f64 / 97.0)
            .collect()
    }

    #[test]
    fn padding_rounds_up_to_pad() {
        assert_eq!(padded(1), 4);
        assert_eq!(padded(4), 4);
        assert_eq!(padded(5), 8);
    }

    #[test]
    fn backends_produce_bit_identical_products() {
        let npad = padded(9);
        let mats = demo_mats();
        let child = demo_child(npad, mats.len());
        let mut outs = Vec::new();
        for b in LikBackend::supported() {
            let mut dst = vec![0.5; child.len()];
            product_into(b, &mut dst, &child, &mats, npad, false);
            outs.push((b, dst));
        }
        for pair in outs.windows(2) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&pair[0].1),
                bits(&pair[1].1),
                "{:?} vs {:?}",
                pair[0].0,
                pair[1].0
            );
        }
    }

    #[test]
    fn row_max_matches_scalar_reduction() {
        let npad = padded(6);
        let mats = demo_mats();
        let vals = demo_child(npad, mats.len());
        let nrows = mats.len() * 4;
        for b in LikBackend::supported() {
            let mut mx = vec![0.0; npad];
            row_max(b, &vals, nrows, npad, &mut mx);
            for pat in 0..npad {
                let expect = (0..nrows).map(|r| vals[r * npad + pat]).fold(0.0, f64::max);
                assert_eq!(mx[pat], expect, "{b:?} pattern {pat}");
            }
        }
    }

    #[test]
    fn poly_ln_matches_libm_and_backends_agree() {
        let vals: Vec<f64> = (1..400)
            .map(|i| {
                let x = i as f64 / 40.0;
                x * (10.0f64).powi((i % 7) - 3)
            })
            .chain([1e-160, 1e-80, 1.0, std::f64::consts::SQRT_2, 2.0, 1e80])
            .collect();
        let mut reference = vals.clone();
        ln_into_plain(&mut reference);
        for (x, r) in vals.iter().zip(reference.iter()) {
            let exact = x.ln();
            let tol = 1e-13 * exact.abs().max(1.0);
            assert!((r - exact).abs() < tol, "poly_ln({x}) = {r} vs {exact}");
        }
        for b in LikBackend::supported() {
            let mut out = vals.clone();
            ln_into(b, &mut out);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&reference), "{b:?} ln differs");
        }
    }

    #[test]
    fn env_spellings_parse() {
        assert_eq!(LikBackend::parse("AVX2"), Some(LikBackend::Avx2));
        assert_eq!(LikBackend::parse(" sse2 "), None);
        assert_eq!(LikBackend::parse("portable"), Some(LikBackend::Portable));
        assert_eq!(LikBackend::parse("scalar"), None);
        assert_eq!(LikBackend::parse("gpu"), None);
    }

    #[test]
    fn index_round_trips() {
        for b in [LikBackend::Portable, LikBackend::Avx2] {
            assert_eq!(LikBackend::from_index(b.index()), Some(b));
        }
        assert_eq!(LikBackend::from_index(0), None);
        assert_eq!(LikBackend::from_index(2), None);
        assert_eq!(LikBackend::from_index(9), None);
    }

    #[test]
    fn detection_is_always_supported() {
        assert!(LikBackend::detect().is_supported());
        assert!(LikBackend::select().is_supported());
        assert!(LikBackend::supported().contains(&LikBackend::Portable));
    }
}
