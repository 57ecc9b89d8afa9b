//! Int8 quantization primitives and integer convolution kernels.
//!
//! Symmetric linear quantization: a real value `v` is stored as
//! `q = clamp(round(v / scale), -127, 127)` and recovered as `q · scale`.
//! The range is deliberately `[-127, 127]` (not `-128`) so negation never
//! overflows and the representable grid is symmetric around zero — the
//! standard choice for weight quantization.
//!
//! The kernels here are integer twins of the f32 `im2col` + matmul pair
//! that powers every convolution in the stack: the compiled plan's int8
//! lowering in `sf-core` quantizes the activation plane with
//! [`quantize_i8`], unfolds it with [`im2col_i8_into`], multiplies with
//! [`matmul_i8_into`] into `i32` accumulators and dequantizes once per
//! output channel. Because `i32` addition is exact (no rounding), the
//! accumulator value is independent of summation order — int8 results are
//! bit-reproducible by construction, parallel or not, and any tiling of
//! the matmul gives the same integers.
//!
//! Both hot loops are built to be fast on the `x86_64` baseline (SSE2),
//! with no runtime CPU detection: [`matmul_i8_into`] runs a register-
//! blocked `pmaddwd` microkernel there (a scalar loop elsewhere), and
//! [`quantize_i8`] rounds without a libm call so it vectorizes. This
//! makes the int8 plan faster than the f32 plan, not only 4x smaller.

use crate::Conv2dSpec;

/// Minimum number of output elements before [`matmul_i8_into`] splits
/// rows across the worker pool; mirrors the f32 kernel's threshold.
const PARALLEL_THRESHOLD: usize = 64 * 1024;

/// i8 elements of `b` streamed per column block by the scalar kernel;
/// same cache-resident panel sizing rationale as the f32 kernel (i8 is
/// 4x denser, so the same element count is an even safer fit).
#[cfg(any(test, not(target_arch = "x86_64")))]
const MM_PANEL_ELEMS: usize = 1 << 16;

/// The symmetric scale mapping `[-max_abs, max_abs]` onto the int8 grid:
/// `max_abs / 127`, with an all-zero range degenerating to `1.0` so the
/// quantizer never divides by zero (every value is 0 either way).
pub fn symmetric_scale(max_abs: f32) -> f32 {
    if max_abs > 0.0 {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Largest absolute value in `src` (`0.0` for an empty slice).
pub fn max_abs(src: &[f32]) -> f32 {
    src.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// Quantizes `src` into `dst` with one shared `scale`:
/// `q = clamp(round(v · (1/scale)), -127, 127)`, rounding half away from
/// zero like `f32::round`. Infinities saturate; NaN maps to 0.
///
/// # Panics
///
/// Panics if the slices differ in length or `scale` is not positive.
pub fn quantize_i8(src: &[f32], scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize_i8 slice lengths differ");
    assert!(scale > 0.0, "quantize_i8 scale must be positive");
    let inv = 1.0 / scale;
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = round_clamp_i8(v * inv);
    }
}

/// `x.round().clamp(-127.0, 127.0) as i8` for every `x`, without the
/// per-element libm `round` call, so the loop vectorizes.
///
/// Clamping first is safe: rounding is monotone and ±127 are integers.
/// NaN survives the clamp and is mapped to 0 before truncating. The
/// truncated integer `t` and the remainder `c − t` are both exact for
/// `|c| ≤ 127`, so comparing the remainder with ±0.5 rounds half away
/// from zero exactly.
#[inline]
fn round_clamp_i8(x: f32) -> i8 {
    let c = x.clamp(-127.0, 127.0);
    let c = if c.is_nan() { 0.0 } else { c };
    // SAFETY: `c` is finite and within [-127, 127], so it truncates to
    // an i32 exactly. `as i32` would give the same value, but its
    // saturation checks make LLVM convert one lane at a time on SSE2.
    let t: i32 = unsafe { c.to_int_unchecked() };
    let frac = c - t as f32;
    (t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)) as i8
}

/// Dequantizes `src` into `dst`: `v = q · scale`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dequantize_i8(src: &[i8], scale: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "dequantize_i8 slice lengths differ");
    for (d, &q) in dst.iter_mut().zip(src) {
        *d = f32::from(q) * scale;
    }
}

/// Quantizes a row-major `[rows, cols]` matrix with one symmetric scale
/// per row — the per-output-channel weight quantization used for conv
/// weight matrices laid out `[out_c, patch]`. Returns `(q, scales)` with
/// `q.len() == src.len()` and `scales.len() == rows`.
///
/// # Panics
///
/// Panics if `src.len()` is not a multiple of `rows` (for `rows > 0`).
pub fn quantize_per_row(src: &[f32], rows: usize) -> (Vec<i8>, Vec<f32>) {
    if rows == 0 {
        assert!(src.is_empty(), "quantize_per_row: rows=0 with data");
        return (Vec::new(), Vec::new());
    }
    assert_eq!(src.len() % rows, 0, "quantize_per_row: ragged rows");
    let cols = src.len() / rows;
    let mut q = vec![0i8; src.len()];
    let mut scales = Vec::with_capacity(rows);
    for (qrow, row) in q.chunks_mut(cols).zip(src.chunks(cols)) {
        let scale = symmetric_scale(max_abs(row));
        quantize_i8(row, scale, qrow);
        scales.push(scale);
    }
    (q, scales)
}

/// The int8 twin of the f32 `im2col_into`: scatters one `CHW` image of
/// quantized activations into a pre-zeroed patch matrix whose rows have
/// length `row_stride`, writing this image's `OH·OW` columns at
/// `col_offset`. Padding taps are left untouched (zero-point is 0 under
/// symmetric quantization, so zeroed padding is exact).
#[allow(clippy::too_many_arguments)]
pub fn im2col_i8_into(
    src: &[i8],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    dst: &mut [i8],
    row_stride: usize,
    col_offset: usize,
) {
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let pad = spec.padding as isize;
    let stride = spec.stride;
    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ch * kh + ki) * kw + kj;
                let dst_row = &mut dst[row * row_stride + col_offset..][..oh * ow];
                for oy in 0..oh {
                    let iy = (oy * stride) as isize + ki as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src_base = (ch * h + iy as usize) * w;
                    let dst_base = oy * ow;
                    if stride == 1 {
                        // Same contiguous-span fast path as the f32 kernel.
                        let shift = kj as isize - pad;
                        let ox0 = (-shift).max(0) as usize;
                        let ox1 = ow.min((w as isize - shift).max(0) as usize);
                        if ox0 < ox1 {
                            let ix0 = (ox0 as isize + shift) as usize;
                            dst_row[dst_base + ox0..dst_base + ox1]
                                .copy_from_slice(&src[src_base + ix0..src_base + ix0 + ox1 - ox0]);
                        }
                    } else {
                        for ox in 0..ow {
                            let ix = (ox * stride) as isize + kj as isize - pad;
                            if ix >= 0 && ix < w as isize {
                                dst_row[dst_base + ox] = src[src_base + ix as usize];
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `out[m,n] += a[m,k] · b[k,n]` with `i8` operands widened into `i32`
/// accumulators. `out` must be zeroed (the kernel accumulates).
///
/// With `|a|, |b| ≤ 127` the per-element product is at most `16129`, so
/// the `i32` accumulator is exact up to `k ≈ 1.3e5` — far beyond any
/// patch length in this stack — and integer addition is associative, so
/// the result is bit-identical regardless of tiling or thread split.
///
/// On `x86_64` the rows run through an SSE2 `pmaddwd` microkernel (see
/// the `sse2` module); other targets use the scalar i-k-j loop.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` extent implies.
pub fn matmul_i8_into(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    assert!(
        a.len() >= m * k && b.len() >= k * n && out.len() >= m * n,
        "matmul_i8_into slice lengths too short for {m}x{k}x{n}"
    );
    let threads = sf_runtime::num_threads();
    if m * n < PARALLEL_THRESHOLD || threads <= 1 || m < 2 {
        mm_i8_kernel(a, b, out, 0..m, k, n);
        return;
    }
    let chunk = m.div_ceil(threads);
    sf_runtime::parallel_chunks_mut(out, chunk * n, |ci, rows_out| {
        let row0 = ci * chunk;
        let rows = rows_out.len() / n;
        mm_i8_kernel(a, b, rows_out, row0..row0 + rows, k, n);
    });
}

/// Rows `rows` of `a · b` accumulated into `out` (which holds exactly
/// those rows), through the fastest kernel this target has.
fn mm_i8_kernel(
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    rows: std::ops::Range<usize>,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    sse2::mm_i8_rows(a, b, out, rows, k, n);
    #[cfg(not(target_arch = "x86_64"))]
    mm_i8_rows(a, b, out, rows, k, n);
}

/// The scalar kernel: the portable path, and the reference the SIMD
/// kernel is tested against.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn mm_i8_rows(
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    rows: std::ops::Range<usize>,
    k: usize,
    n: usize,
) {
    // Column-tiled i-k-j, the integer twin of the f32 kernel's loop.
    let block = (MM_PANEL_ELEMS / k.max(1)).max(256).min(n.max(1));
    let base = rows.start;
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + block).min(n);
        for i in rows.clone() {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[(i - base) * n + j0..(i - base) * n + j1];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0 {
                    continue;
                }
                let av = i32::from(av);
                let brow = &b[p * n + j0..p * n + j1];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * i32::from(bv);
                }
            }
        }
        j0 = j1;
    }
}

/// The `x86_64` int8 matmul microkernel.
///
/// SSE2 has no 32-bit vector multiply, but `pmaddwd`
/// (`_mm_madd_epi16`) multiplies eight i16 pairs and adds each pair into
/// an i32 lane. The kernel feeds it two `k` rows at a time: rows `p` and
/// `p+1` of `b` are interleaved byte-wise (`_mm_unpacklo_epi8`) and
/// sign-extended to i16, so lane `j` holds `(b[p][j], b[p+1][j])`, and
/// each output row multiplies them by its broadcast weight pair
/// `(a[i][p], a[i][p+1])`. A tile of 4 rows × 8 columns keeps its eight
/// i32 accumulators in registers across the whole `k` loop. An odd last
/// `k` row pairs with zero.
///
/// SSE2 is part of every `x86_64` target, so no runtime detection is
/// needed. Integer accumulation is exact, so the result equals the
/// scalar kernel's bit for bit.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_cvtsi32_si128, _mm_loadl_epi64, _mm_loadu_si128,
        _mm_madd_epi16, _mm_setzero_si128, _mm_shuffle_epi32, _mm_srai_epi16, _mm_storeu_si128,
        _mm_unpackhi_epi8, _mm_unpacklo_epi8,
    };
    use std::ops::Range;

    /// Output rows per register tile.
    const MR: usize = 4;
    /// `k` pairs packed per pass; bounds the stack buffers below. Longer
    /// patches run in several passes, each adding into `out`.
    const KC_PAIRS: usize = 128;

    /// Rows `rows` of `a · b` added into `out` (which holds exactly those
    /// rows).
    pub(super) fn mm_i8_rows(
        a: &[i8],
        b: &[i8],
        out: &mut [i32],
        rows: Range<usize>,
        k: usize,
        n: usize,
    ) {
        assert!(
            a.len() >= rows.end * k && b.len() >= k * n && out.len() >= rows.len() * n,
            "mm_i8_rows slice lengths too short"
        );
        // Weight pairs of one row block, `[pair][MR]`, packed once per
        // block and pass and reused by every column tile.
        let mut apack = [0i32; KC_PAIRS * MR];
        let mut i0 = rows.start;
        while i0 < rows.end {
            let r = (rows.end - i0).min(MR);
            let orows = &mut out[(i0 - rows.start) * n..][..r * n];
            let mut p0 = 0;
            while p0 < k {
                let p1 = (p0 + 2 * KC_PAIRS).min(k);
                pack_pairs(&a[i0 * k..(i0 + r) * k], k, p0..p1, &mut apack);
                let panel = &b[p0 * n..p1 * n];
                let kc = p1 - p0;
                match r {
                    1 => row_block::<1>(&apack, panel, kc, n, orows),
                    2 => row_block::<2>(&apack, panel, kc, n, orows),
                    3 => row_block::<3>(&apack, panel, kc, n, orows),
                    _ => row_block::<4>(&apack, panel, kc, n, orows),
                }
                p0 = p1;
            }
            i0 += r;
        }
    }

    /// Packs `a[ri][p] | a[ri][p+1] << 16` (as i16 halves) for every pair
    /// of `cols` and row `ri` of `a` (row length `k`) into `apack[q·MR + ri]`;
    /// an odd last column pairs with 0, rows past `a` pack zeros.
    fn pack_pairs(a: &[i8], k: usize, cols: Range<usize>, apack: &mut [i32; KC_PAIRS * MR]) {
        let rows = a.len() / k;
        for (q, p) in cols.clone().step_by(2).enumerate() {
            for ri in 0..MR {
                apack[q * MR + ri] = if ri < rows {
                    let lo = i32::from(a[ri * k + p]) & 0xffff;
                    let hi = if p + 1 < cols.end {
                        i32::from(a[ri * k + p + 1])
                    } else {
                        0
                    };
                    lo | hi << 16
                } else {
                    0
                };
            }
        }
    }

    /// One row block (`R` rows) over one pass of `kc` rows of `b`
    /// (`panel`): 8-column tiles, then a 4-column tile, then the last
    /// `n % 4` columns through a zero-padded copy so they use the
    /// 4-column tile too.
    fn row_block<const R: usize>(
        apack: &[i32; KC_PAIRS * MR],
        panel: &[i8],
        kc: usize,
        n: usize,
        out: &mut [i32],
    ) {
        assert!(kc <= 2 * KC_PAIRS && panel.len() == kc * n && out.len() == R * n);
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: `apack` holds `KC_PAIRS · MR ≥ kc.div_ceil(2) · MR`
            // i32; for every `p < kc`, `panel[p·n + j ..][..8]` is in
            // bounds because `j + 8 ≤ n` and `panel.len() = kc · n`; for
            // every `ri < R`, `out[ri·n + j ..][..8]` is in bounds because
            // `out.len() = R · n`.
            unsafe {
                tile::<R, 8>(
                    apack.as_ptr(),
                    panel.as_ptr().add(j),
                    n,
                    kc,
                    out.as_mut_ptr().add(j),
                    n,
                )
            };
            j += 8;
        }
        if j + 4 <= n {
            // SAFETY: as above with 4 columns: `j + 4 ≤ n`.
            unsafe {
                tile::<R, 4>(
                    apack.as_ptr(),
                    panel.as_ptr().add(j),
                    n,
                    kc,
                    out.as_mut_ptr().add(j),
                    n,
                )
            };
            j += 4;
        }
        if j < n {
            let t = n - j;
            let mut strip = [0i8; 2 * KC_PAIRS * 4];
            for (dst, src) in strip.chunks_exact_mut(4).zip(panel.chunks_exact(n)) {
                dst[..t].copy_from_slice(&src[j..]);
            }
            let mut acc = [0i32; MR * 4];
            for ri in 0..R {
                acc[ri * 4..ri * 4 + t].copy_from_slice(&out[ri * n + j..(ri + 1) * n]);
            }
            // SAFETY: `strip` holds `2·KC_PAIRS ≥ kc` rows of 4 bytes and
            // `acc` holds `MR ≥ R` rows of 4 i32, both with stride 4.
            unsafe { tile::<R, 4>(apack.as_ptr(), strip.as_ptr(), 4, kc, acc.as_mut_ptr(), 4) };
            for ri in 0..R {
                out[ri * n + j..(ri + 1) * n].copy_from_slice(&acc[ri * 4..ri * 4 + t]);
            }
        }
    }

    /// Adds the `R × W` product of `kc` packed `k` rows into `out`
    /// (`W` is 8 or 4 columns).
    ///
    /// # Safety
    ///
    /// `apack` must be readable for `kc.div_ceil(2) · MR` i32; `b + p·ldb`
    /// readable for `W` bytes for every `p < kc`; `out + ri·ldo` readable
    /// and writable for `W` i32 for every `ri < R`.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn tile<const R: usize, const W: usize>(
        apack: *const i32,
        b: *const i8,
        ldb: usize,
        kc: usize,
        out: *mut i32,
        ldo: usize,
    ) {
        let halves = W / 4;
        let mut acc = [[_mm_setzero_si128(); 2]; R];
        for (ri, row) in acc.iter_mut().enumerate() {
            for (h, v) in row.iter_mut().take(halves).enumerate() {
                // SAFETY: `out + ri·ldo + 4h` lies in the caller's
                // `W`-wide row `ri` (`4h + 4 ≤ W`).
                *v = unsafe { _mm_loadu_si128(out.add(ri * ldo + 4 * h).cast()) };
            }
        }
        let pairs = kc / 2;
        for q in 0..pairs {
            // SAFETY: rows `2q` and `2q + 1 < kc` of `b`, and pair `q`
            // of `apack`, are readable per the caller's contract.
            let (b0, b1, w) = unsafe {
                (
                    load::<W>(b.add(2 * q * ldb)),
                    load::<W>(b.add((2 * q + 1) * ldb)),
                    _mm_loadu_si128(apack.add(q * MR).cast()),
                )
            };
            madd::<R, W>(&mut acc, _mm_unpacklo_epi8(b0, b1), w);
        }
        if kc % 2 == 1 {
            // SAFETY: row `kc − 1` of `b` and pair `kc / 2` of `apack`
            // are readable per the caller's contract.
            let (b0, w) = unsafe {
                (
                    load::<W>(b.add((kc - 1) * ldb)),
                    _mm_loadu_si128(apack.add(pairs * MR).cast()),
                )
            };
            madd::<R, W>(&mut acc, _mm_unpacklo_epi8(b0, _mm_setzero_si128()), w);
        }
        for (ri, row) in acc.iter().enumerate() {
            for (h, v) in row.iter().take(halves).enumerate() {
                // SAFETY: as for the loads above.
                unsafe { _mm_storeu_si128(out.add(ri * ldo + 4 * h).cast(), *v) };
            }
        }
    }

    /// Loads `W` (8 or 4) bytes into the low lanes of a vector.
    ///
    /// # Safety
    ///
    /// `p` must be readable for `W` bytes.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load<const W: usize>(p: *const i8) -> __m128i {
        if W == 8 {
            // SAFETY: `p` is readable for 8 bytes; the load is unaligned.
            unsafe { _mm_loadl_epi64(p.cast()) }
        } else {
            // SAFETY: `p` is readable for 4 bytes; the read is unaligned.
            _mm_cvtsi32_si128(unsafe { p.cast::<i32>().read_unaligned() })
        }
    }

    /// Sign-extends the interleaved byte pairs `x` to i16 and adds their
    /// products with each row's broadcast weight pair (lane `ri` of `w4`)
    /// into the accumulators.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn madd<const R: usize, const W: usize>(acc: &mut [[__m128i; 2]; R], x: __m128i, w4: __m128i) {
        // `unpack(x, x)` puts each byte in the high half of an i16 lane;
        // the arithmetic shift brings it down sign-extended.
        let lo = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(x, x));
        let hi = _mm_srai_epi16::<8>(_mm_unpackhi_epi8(x, x));
        let w = [
            _mm_shuffle_epi32::<0x00>(w4),
            _mm_shuffle_epi32::<0x55>(w4),
            _mm_shuffle_epi32::<0xaa>(w4),
            _mm_shuffle_epi32::<0xff>(w4),
        ];
        for (row, &wr) in acc.iter_mut().zip(&w) {
            row[0] = _mm_add_epi32(row[0], _mm_madd_epi16(lo, wr));
            if W == 8 {
                row[1] = _mm_add_epi32(row[1], _mm_madd_epi16(hi, wr));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> f32 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        ((*state % 2000) as f32 - 1000.0) / 500.0
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let mut state = 7u64;
        let src: Vec<f32> = (0..256).map(|_| xorshift(&mut state)).collect();
        let scale = symmetric_scale(max_abs(&src));
        let mut q = vec![0i8; src.len()];
        quantize_i8(&src, scale, &mut q);
        let mut back = vec![0.0f32; src.len()];
        dequantize_i8(&q, scale, &mut back);
        for (&v, &r) in src.iter().zip(&back) {
            assert!(
                (v - r).abs() <= scale / 2.0 + 1e-6,
                "{v} vs {r} (scale {scale})"
            );
        }
    }

    #[test]
    fn rounding_is_half_away_from_zero_and_saturating() {
        let mut q = [0i8; 5];
        quantize_i8(&[0.5, -0.5, 1.49, 400.0, -400.0], 1.0, &mut q);
        assert_eq!(q, [1, -1, 1, 127, -127]);
        assert_eq!(symmetric_scale(0.0), 1.0);
    }

    #[test]
    fn per_row_scales_are_independent() {
        let src = [1.0, -0.5, 0.0, 100.0, 50.0, -100.0];
        let (q, scales) = quantize_per_row(&src, 2);
        assert_eq!(scales.len(), 2);
        assert!((scales[0] - 1.0 / 127.0).abs() < 1e-9);
        assert!((scales[1] - 100.0 / 127.0).abs() < 1e-9);
        assert_eq!(q[0], 127);
        assert_eq!(q[3], 127);
        assert_eq!(q[5], -127);
    }

    #[test]
    fn i8_matmul_matches_naive_i32() {
        // Empty extents included: they must leave `out` untouched.
        for (m, k, n) in [(5, 7, 9), (0, 3, 4), (3, 0, 4), (3, 4, 0)] {
            let mut state = 3u64;
            let a: Vec<i8> = (0..m * k)
                .map(|_| (xorshift(&mut state) * 60.0) as i8)
                .collect();
            let b: Vec<i8> = (0..k * n)
                .map(|_| (xorshift(&mut state) * 60.0) as i8)
                .collect();
            let mut fast = vec![0i32; m * n];
            matmul_i8_into(&a, &b, &mut fast, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let want: i32 = (0..k)
                        .map(|p| i32::from(a[i * k + p]) * i32::from(b[p * n + j]))
                        .sum();
                    assert_eq!(fast[i * n + j], want, "{m}x{k}x{n}: ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn large_i8_matmul_parallel_path_is_exact() {
        // m*n crosses the parallel threshold; i32 accumulation is exact,
        // so the parallel result must equal the naive one bit-for-bit.
        let (m, k, n) = (128, 33, 512);
        let mut state = 11u64;
        let a: Vec<i8> = (0..m * k)
            .map(|_| (xorshift(&mut state) * 80.0) as i8)
            .collect();
        let b: Vec<i8> = (0..k * n)
            .map(|_| (xorshift(&mut state) * 80.0) as i8)
            .collect();
        let mut fast = vec![0i32; m * n];
        matmul_i8_into(&a, &b, &mut fast, m, k, n);
        let mut slow = vec![0i32; m * n];
        mm_i8_rows(&a, &b, &mut slow, 0..m, k, n);
        assert_eq!(fast, slow);
    }

    /// Every conv of the AU plan at the standard 96×32 resolution as
    /// `(out_c, in_c·k·k, OH·OW)`: the encoder convs and their 1×1 fusion
    /// convs, the decoder convs and the head. Includes the `n = 12` and
    /// `n = 3` deep-layer tails.
    const AU_CONV_SHAPES: [(usize, usize, usize); 17] = [
        (8, 27, 3072),
        (8, 9, 3072),
        (8, 8, 768),
        (12, 72, 768),
        (12, 12, 192),
        (16, 108, 192),
        (16, 16, 48),
        (24, 144, 48),
        (24, 24, 12),
        (32, 216, 12),
        (32, 32, 3),
        (24, 288, 12),
        (16, 216, 48),
        (12, 144, 192),
        (8, 108, 768),
        (8, 72, 3072),
        (1, 8, 3072),
    ];

    #[test]
    fn simd_kernel_equals_the_scalar_reference_bit_for_bit() {
        use crate::testkit::check_cases;
        let plan_cases = AU_CONV_SHAPES.len() as u64;
        check_cases(plan_cases + 48, |c| {
            let (m, k, n) = match AU_CONV_SHAPES.get(c.case as usize) {
                Some(&shape) => shape,
                None => {
                    let m = c.usize_in(1, 41);
                    let k = c.usize_in(1, 301);
                    // Half the cases are narrow, so every `n % 8` tail
                    // and the 4-column tile come up often.
                    let n = if c.case % 2 == 0 {
                        c.usize_in(1, 40)
                    } else {
                        c.usize_in(1, 3101)
                    };
                    (m, k, n)
                }
            };
            // Operands saturated at ±127 half the time, so the extreme
            // products and pair sums are exercised.
            let mut operand = |len: usize| -> Vec<i8> {
                (0..len)
                    .map(|_| match c.usize_in(0, 4) {
                        0 => 127,
                        1 => -127,
                        _ => (c.usize_in(0, 255) as i32 - 127) as i8,
                    })
                    .collect()
            };
            let a = operand(m * k);
            let b = operand(k * n);
            // The kernels accumulate into `out`: start from a nonzero
            // plane so the `+=` contract is checked too.
            let init: Vec<i32> = (0..m * n).map(|i| (i % 7) as i32 - 3).collect();
            let mut want = init.clone();
            mm_i8_rows(&a, &b, &mut want, 0..m, k, n);
            let mut got = init.clone();
            matmul_i8_into(&a, &b, &mut got, m, k, n);
            assert_eq!(got, want, "case {}: {m}x{k}x{n}", c.case);
            // The pool split hands each worker a row range that may
            // start at any row; run one split whatever the thread count.
            let split = c.usize_in(0, m + 1);
            let mut parts = init;
            let (top, bottom) = parts.split_at_mut(split * n);
            mm_i8_kernel(&a, &b, top, 0..split, k, n);
            mm_i8_kernel(&a, &b, bottom, split..m, k, n);
            assert_eq!(parts, want, "case {}: {m}x{k}x{n} split at {split}", c.case);
        });
    }

    #[test]
    fn quantizer_equals_round_then_clamp_on_a_sweep_of_bit_patterns() {
        let reference = |x: f32| x.round().clamp(-127.0, 127.0) as i8;
        let subnormal = f32::MIN_POSITIVE / 3.0;
        let edges = [
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            126.5,
            -126.5,
            127.5,
            -127.5,
            0.499_999_97,
            -0.499_999_97,
            0.0,
            -0.0,
            subnormal,
            -subnormal,
            f32::from_bits(1),
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
        ];
        let mut q = [0i8; 22];
        quantize_i8(&edges, 1.0, &mut q);
        assert_eq!(
            q,
            [
                1, -1, 2, -2, 3, -3, 127, -127, 127, -127, 0, 0, 0, 0, 0, 0, 0, 0, 127, -127, 127,
                -127
            ]
        );
        // Every 4099th bit pattern covers both signs, every exponent,
        // subnormals, infinities and many NaN payloads.
        let sweep: Vec<f32> = (0..=u32::MAX)
            .step_by(4099)
            .map(f32::from_bits)
            .chain(edges)
            .collect();
        let mut got = vec![0i8; sweep.len()];
        for scale in [1.0, 1.0 / 127.0, 0.37, 3.0, 1e-30, 1e30] {
            quantize_i8(&sweep, scale, &mut got);
            let inv = 1.0 / scale;
            for (&v, &g) in sweep.iter().zip(&got) {
                assert_eq!(
                    g,
                    reference(v * inv),
                    "v = {v:e} ({:#010x}) at scale {scale}",
                    v.to_bits()
                );
            }
        }
    }

    #[test]
    fn per_row_round_trip_error_is_bounded_by_each_rows_scale() {
        use crate::testkit::check_cases;
        check_cases(64, |c| {
            let rows = c.usize_in(1, 8);
            let cols = c.usize_in(1, 33);
            let mag = c.f32_in(0.05, 50.0);
            let mut src = c.rng().uniform(&[rows, cols], -mag, mag).data().to_vec();
            if c.case % 3 == 0 {
                // An all-zero row degenerates to scale 1.0 and must
                // round-trip exactly, independent of its neighbours.
                src[..cols].fill(0.0);
            }
            let (q, scales) = quantize_per_row(&src, rows);
            assert_eq!(scales.len(), rows);
            for r in 0..rows {
                let row = &src[r * cols..(r + 1) * cols];
                let mut back = vec![0.0f32; cols];
                dequantize_i8(&q[r * cols..(r + 1) * cols], scales[r], &mut back);
                let bound = scales[r] / 2.0 + scales[r] * 1e-5;
                for (&v, &rec) in row.iter().zip(&back) {
                    assert!(
                        (v - rec).abs() <= bound,
                        "case {}: row {r}: {v} vs {rec} (scale {})",
                        c.case,
                        scales[r]
                    );
                }
            }
        });
    }

    #[test]
    fn dequantized_i8_matmul_tracks_f32_within_accumulated_scale_bound() {
        use crate::testkit::check_cases;
        check_cases(48, |c| {
            let m = c.usize_in(1, 7);
            let k = c.usize_in(1, 17);
            let n = c.usize_in(1, 9);
            let wmag = c.f32_in(0.1, 4.0);
            let xmag = c.f32_in(0.1, 8.0);
            let w = c.rng().uniform(&[m, k], -wmag, wmag).data().to_vec();
            let x = c.rng().uniform(&[k, n], -xmag, xmag).data().to_vec();
            // The compiled plan's scale placement: weights per output row,
            // activations per tensor, i32 accumulation, dequantize with
            // the product of both scales.
            let (qw, wscales) = quantize_per_row(&w, m);
            let xscale = symmetric_scale(max_abs(&x));
            let mut qx = vec![0i8; x.len()];
            quantize_i8(&x, xscale, &mut qx);
            let mut acc = vec![0i32; m * n];
            matmul_i8_into(&qw, &qx, &mut acc, m, k, n);
            let xmax = f64::from(max_abs(&x));
            let xs = f64::from(xscale);
            for i in 0..m {
                let ws = f64::from(wscales[i]);
                let wmax_row = f64::from(max_abs(&w[i * k..(i + 1) * k]));
                // Per-term error ≤ |w|·|dx| + |x̂|·|dw| with |dx| ≤ xs/2,
                // |dw| ≤ ws/2 and |x̂| ≤ xmax + xs/2, accumulated over k.
                let bound = k as f64 * (wmax_row * xs / 2.0 + (xmax + xs / 2.0) * ws / 2.0) + 1e-4;
                for j in 0..n {
                    let exact: f64 = (0..k)
                        .map(|p| f64::from(w[i * k + p]) * f64::from(x[p * n + j]))
                        .sum();
                    let deq = f64::from(acc[i * n + j]) * ws * xs;
                    assert!(
                        (deq - exact).abs() <= bound,
                        "case {}: ({i},{j}) dequantized {deq} vs exact {exact} (bound {bound})",
                        c.case
                    );
                }
            }
        });
    }

    #[test]
    fn i8_im2col_matches_f32_im2col_on_quantized_input() {
        use crate::{im2col_into, Conv2dSpec};
        let (c, h, w, kh, kw) = (2, 5, 6, 3, 3);
        let spec = Conv2dSpec::same(3);
        let mut state = 19u64;
        let img: Vec<f32> = (0..c * h * w).map(|_| xorshift(&mut state)).collect();
        let scale = symmetric_scale(max_abs(&img));
        let mut qimg = vec![0i8; img.len()];
        quantize_i8(&img, scale, &mut qimg);
        let cols = h * w;
        // f32 unfold of the already-quantized (integer-valued) image...
        let fimg: Vec<f32> = qimg.iter().map(|&q| f32::from(q)).collect();
        let mut fcols = vec![0.0f32; c * kh * kw * cols];
        im2col_into(&fimg, c, h, w, kh, kw, spec, &mut fcols, cols, 0);
        // ...must equal the i8 unfold, element for element.
        let mut qcols = vec![0i8; c * kh * kw * cols];
        im2col_i8_into(&qimg, c, h, w, kh, kw, spec, &mut qcols, cols, 0);
        for (&f, &q) in fcols.iter().zip(&qcols) {
            assert_eq!(f, f32::from(q));
        }
    }

    #[test]
    fn strided_i8_im2col_matches_f32() {
        use crate::im2col_into;
        let (c, h, w, kh, kw) = (1, 6, 6, 2, 2);
        let spec = Conv2dSpec {
            stride: 2,
            padding: 0,
        };
        let qimg: Vec<i8> = (0..c * h * w).map(|i| (i as i8).wrapping_sub(17)).collect();
        let fimg: Vec<f32> = qimg.iter().map(|&q| f32::from(q)).collect();
        let oh = spec.out_size(h, kh);
        let ow = spec.out_size(w, kw);
        let cols = oh * ow;
        let mut fcols = vec![0.0f32; c * kh * kw * cols];
        im2col_into(&fimg, c, h, w, kh, kw, spec, &mut fcols, cols, 0);
        let mut qcols = vec![0i8; c * kh * kw * cols];
        im2col_i8_into(&qimg, c, h, w, kh, kw, spec, &mut qcols, cols, 0);
        for (&f, &q) in fcols.iter().zip(&qcols) {
            assert_eq!(f, f32::from(q));
        }
    }
}
