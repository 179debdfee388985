//! Per-row absmax int8 weight quantization for the decode fast path.
//!
//! [`KernelMode::QuantizedInt8`](crate::KernelMode) sessions quantize the
//! effective (LoRA-merged) projection weights once at session build:
//! every *output* row gets an f32 scale `s = absmax / 127`, the weights
//! are stored transposed (output-major, so each dot product streams one
//! contiguous row — half the memory traffic of f32), activations
//! are quantized per row on the fly, and the matmul accumulates in `i32`.
//! Integer addition is associative, so the accumulator vectorizes
//! *without* changing the result — the int8 path is exactly reproducible
//! at any lane width or thread count, unlike a reordered f32 sum. The
//! output is dequantized by the product of the two scales.
//!
//! Accuracy is gated, not assumed: a quantize→dequantize round-trip
//! proptest bounds the per-weight error at `scale / 2`, and the eval
//! harness pins int8 pass@k parity against f32 on the n=10 workload.

use crate::tensor::Matrix;

/// Round to the nearest integer via the `1.5 · 2²³` magic constant (two
/// adds, round-half-to-even) — `f32::round` is a libm call on baseline
/// x86-64 that would serialize every quantization sweep. Inputs are
/// pre-clamped to the i8 range, far inside the trick's valid domain.
#[inline]
fn round_fast(x: f32) -> f32 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    (x + MAGIC) - MAGIC
}

/// Maximum quantized magnitude (symmetric 8-bit levels; -128 is unused).
///
/// Quantized values live in `[-127, 127]` but are *stored* as `i16`: an
/// i16·i16 multiply-accumulate reduction is the packed multiply-add
/// (`pmaddwd`) idiom the autovectorizer recognizes on baseline x86-64,
/// which measures ~8× faster than any i8-loading form — and the values
/// are identical integers, so the results are bit-for-bit the same.
pub const QMAX: f32 = 127.0;

/// An int8 weight matrix stored output-major (transposed), with one f32
/// dequantization scale per output row.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    /// Output dimension (columns of the f32 weight this was built from).
    pub out_dim: usize,
    /// Input dimension (rows of the f32 weight).
    pub in_dim: usize,
    /// `out_dim` contiguous rows of `in_dim` quantized weights.
    pub data: Vec<i16>,
    /// Per-output-row dequantization scale (`absmax / 127`).
    pub scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes `w[in_dim, out_dim]` column-by-column: column `j` of `w`
    /// becomes row `j` of the int8 storage with scale
    /// `absmax(col j) / 127`. An all-zero column gets scale 0 and all-zero
    /// weights.
    pub fn quantize(w: &Matrix) -> QuantizedMatrix {
        let (in_dim, out_dim) = (w.rows, w.cols);
        let mut data = vec![0i16; in_dim * out_dim];
        let mut scales = vec![0.0f32; out_dim];
        for j in 0..out_dim {
            let mut absmax = 0.0f32;
            for r in 0..in_dim {
                absmax = absmax.max(w.data[r * out_dim + j].abs());
            }
            if absmax == 0.0 {
                continue;
            }
            let scale = absmax / QMAX;
            let inv = QMAX / absmax;
            let row = &mut data[j * in_dim..(j + 1) * in_dim];
            for (r, q) in row.iter_mut().enumerate() {
                *q = round_fast((w.data[r * out_dim + j] * inv).clamp(-QMAX, QMAX)) as i16;
            }
            scales[j] = scale;
        }
        QuantizedMatrix { out_dim, in_dim, data, scales }
    }

    /// Reconstructs the f32 weight (`[in_dim, out_dim]`, the original
    /// orientation). Each entry is within `scales[j] / 2` of the
    /// original — pinned by the round-trip proptest.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.in_dim, self.out_dim);
        for j in 0..self.out_dim {
            let s = self.scales[j];
            let row = &self.data[j * self.in_dim..(j + 1) * self.in_dim];
            for (r, &q) in row.iter().enumerate() {
                out.data[r * self.out_dim + j] = q as f32 * s;
            }
        }
        out
    }
}

/// Quantizes one f32 activation row into `out` (resized to match) and
/// returns its dequantization scale (`absmax / 127`; 0 for an all-zero
/// row, in which case `out` is all zeros).
pub fn quantize_row_into(x: &[f32], out: &mut Vec<i16>) -> f32 {
    out.clear();
    out.resize(x.len(), 0);
    let mut absmax = 0.0f32;
    for &v in x {
        absmax = absmax.max(v.abs());
    }
    if absmax == 0.0 {
        return 0.0;
    }
    let inv = QMAX / absmax;
    for (q, &v) in out.iter_mut().zip(x) {
        *q = round_fast((v * inv).clamp(-QMAX, QMAX)) as i16;
    }
    absmax / QMAX
}

/// 8-bit-range i16·i16 → i32 dot product over a *compile-time* width
/// (`K` must be a multiple of 8 — every dispatched width is).
///
/// The reduction is written as eight explicit i32 partial lanes with one
/// horizontal sum at the end — handing LLVM the packed multiply-add
/// (`pmaddwd`) shape directly instead of hoping it rediscovers it from a
/// serial chain. Measured ~4× faster than the single-accumulator form at
/// K = 128 and ~5× faster than any runtime trip count. Exact: integer
/// addition is associative and the lane sums cannot overflow
/// (|product| ≤ 127² = 16129, so even K = 512 stays far inside i32).
#[inline]
fn qdot_fixed<const K: usize>(x: &[i16], w: &[i16]) -> i32 {
    let x: &[i16; K] = x[..K].try_into().expect("dispatcher checked the width");
    let w: &[i16; K] = w[..K].try_into().expect("dispatcher checked the width");
    let mut lanes = [0i32; 8];
    for c in 0..K / 8 {
        for (l, acc) in lanes.iter_mut().enumerate() {
            *acc += x[c * 8 + l] as i32 * w[c * 8 + l] as i32;
        }
    }
    lanes.iter().sum()
}

/// Runtime-width fallback dot (non-standard `in_dim`s): fixed 16-wide
/// inner blocks recover some packed codegen, a scalar tail finishes.
#[inline]
fn qdot(x: &[i16], w: &[i16]) -> i32 {
    debug_assert_eq!(x.len(), w.len());
    let split = x.len() - x.len() % 16;
    let mut acc = 0i32;
    for (xs, ws) in x[..split].chunks_exact(16).zip(w[..split].chunks_exact(16)) {
        acc += qdot_fixed::<16>(xs, ws);
    }
    for (&xv, &wv) in x[split..].iter().zip(&w[split..]) {
        acc += xv as i32 * wv as i32;
    }
    acc
}

#[inline]
fn qmatvec_fixed<const K: usize>(xq: &[i16], x_scale: f32, w: &QuantizedMatrix, out: &mut [f32]) {
    for (j, o) in out.iter_mut().enumerate() {
        *o = x_scale * w.scales[j] * qdot_fixed::<K>(xq, &w.data[j * K..(j + 1) * K]) as f32;
    }
}

/// `out[j] = x_scale * scales[j] * Σ_k xq[k] · w[j][k]` for one quantized
/// activation row against every output row of `w`.
///
/// The shared dimension is dispatched once to a compile-time-width dot
/// ([`qdot_fixed`]) for the model shapes that occur in practice; every
/// width produces identical i32 sums, so the dispatch is invisible in the
/// output.
pub fn qmatvec_into(xq: &[i16], x_scale: f32, w: &QuantizedMatrix, out: &mut [f32]) {
    debug_assert_eq!(xq.len(), w.in_dim);
    debug_assert_eq!(out.len(), w.out_dim);
    match w.in_dim {
        8 => qmatvec_fixed::<8>(xq, x_scale, w, out),
        16 => qmatvec_fixed::<16>(xq, x_scale, w, out),
        24 => qmatvec_fixed::<24>(xq, x_scale, w, out),
        32 => qmatvec_fixed::<32>(xq, x_scale, w, out),
        48 => qmatvec_fixed::<48>(xq, x_scale, w, out),
        64 => qmatvec_fixed::<64>(xq, x_scale, w, out),
        96 => qmatvec_fixed::<96>(xq, x_scale, w, out),
        128 => qmatvec_fixed::<128>(xq, x_scale, w, out),
        192 => qmatvec_fixed::<192>(xq, x_scale, w, out),
        256 => qmatvec_fixed::<256>(xq, x_scale, w, out),
        384 => qmatvec_fixed::<384>(xq, x_scale, w, out),
        512 => qmatvec_fixed::<512>(xq, x_scale, w, out),
        _ => {
            for (j, o) in out.iter_mut().enumerate() {
                let wrow = &w.data[j * w.in_dim..(j + 1) * w.in_dim];
                *o = x_scale * w.scales[j] * qdot(xq, wrow) as f32;
            }
        }
    }
}

/// Quantized replacement for `matmul_into(a, W, out)` on the decode path:
/// each row of `a[m, in_dim]` is absmax-quantized into the `xq` scratch,
/// multiplied in i32 against the transposed int8 weights, and dequantized
/// into `out[m, out_dim]`.
pub fn qmatmul_rows_into(a: &Matrix, w: &QuantizedMatrix, out: &mut Matrix, xq: &mut Vec<i16>) {
    debug_assert_eq!(a.cols, w.in_dim);
    debug_assert_eq!((out.rows, out.cols), (a.rows, w.out_dim));
    for i in 0..a.rows {
        let x = &a.data[i * a.cols..(i + 1) * a.cols];
        let x_scale = quantize_row_into(x, xq);
        let orow = &mut out.data[i * w.out_dim..(i + 1) * w.out_dim];
        if x_scale == 0.0 {
            orow.fill(0.0);
        } else {
            qmatvec_into(xq, x_scale, w, orow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::kernels;
    use proptest::prelude::*;

    fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let data = (0..rows * cols)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 11) as f32 / (1u64 << 53) as f32) - 0.5
            })
            .collect();
        Matrix::new(rows, cols, data)
    }

    #[test]
    fn zero_matrix_quantizes_to_zero() {
        let q = QuantizedMatrix::quantize(&Matrix::zeros(5, 3));
        assert!(q.data.iter().all(|&v| v == 0));
        assert!(q.scales.iter().all(|&s| s == 0.0));
        assert_eq!(q.dequantize(), Matrix::zeros(5, 3));
    }

    #[test]
    fn quantized_storage_is_transposed() {
        // w[2,3]: column j of w becomes storage row j.
        let w = Matrix::new(2, 3, vec![1.0, 0.5, -0.25, -1.0, 0.25, 0.125]);
        let q = QuantizedMatrix::quantize(&w);
        assert_eq!((q.in_dim, q.out_dim), (2, 3));
        // column 0 is [1.0, -1.0]: absmax 1.0 → scale 1/127, quantized ±127
        assert_eq!(&q.data[0..2], &[127, -127]);
        assert!((q.scales[0] - 1.0 / 127.0).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Round trip: every reconstructed weight is within half a
        /// quantization step (`scale / 2`) of the original.
        #[test]
        fn quantize_dequantize_roundtrip_error_is_bounded(
            rows in 1usize..24, cols in 1usize..24, seed in 0u64..1_000,
        ) {
            let w = seeded(rows, cols, seed);
            let q = QuantizedMatrix::quantize(&w);
            let back = q.dequantize();
            for j in 0..cols {
                // f32 rounding in the scale arithmetic adds at most a few ulps
                let bound = q.scales[j] * 0.5 * (1.0 + 1e-4) + 1e-12;
                for r in 0..rows {
                    let err = (w.at(r, j) - back.at(r, j)).abs();
                    prop_assert!(
                        err <= bound,
                        "w[{r},{j}]: {} vs {} (err {err} > bound {bound})",
                        w.at(r, j), back.at(r, j)
                    );
                }
            }
        }

        /// The full quantized matmul (dynamic activation quantization +
        /// i32 accumulate + dequantize) stays close to the exact f32
        /// product.
        #[test]
        fn quantized_matmul_is_close_to_f32(
            m in 1usize..6, k in 1usize..48, n in 1usize..32, seed in 0u64..1_000,
        ) {
            let a = seeded(m, k, seed);
            let w = seeded(k, n, seed ^ 0xBEEF);
            let q = QuantizedMatrix::quantize(&w);
            let mut quantized = Matrix::zeros(m, n);
            let mut xq = Vec::new();
            qmatmul_rows_into(&a, &q, &mut quantized, &mut xq);
            let mut exact = Matrix::zeros(m, n);
            kernels::matmul_into(&a, &w, &mut exact);
            // Per-term error is ≤ (|w|·sa + |a|·sw + sa·sw)/2 with
            // s = absmax/127; bound the k-term sum generously.
            let amax = a.data.iter().fold(0.0f32, |x, v| x.max(v.abs()));
            let wmax = w.data.iter().fold(0.0f32, |x, v| x.max(v.abs()));
            let bound = (k as f32) * amax.max(1e-6) * wmax.max(1e-6) / 60.0 + 1e-6;
            for (qv, ev) in quantized.data.iter().zip(&exact.data) {
                prop_assert!((qv - ev).abs() <= bound, "{qv} vs {ev} (bound {bound})");
            }
        }

        /// The int8 path is exactly reproducible: two evaluations are
        /// bit-identical (i32 accumulation has no ordering freedom).
        #[test]
        fn quantized_matmul_is_deterministic(
            m in 1usize..5, k in 1usize..40, n in 1usize..24, seed in 0u64..1_000,
        ) {
            let a = seeded(m, k, seed);
            let q = QuantizedMatrix::quantize(&seeded(k, n, seed ^ 0xF00D));
            let mut out1 = Matrix::zeros(m, n);
            let mut out2 = Matrix::zeros(m, n);
            let mut xq = Vec::new();
            qmatmul_rows_into(&a, &q, &mut out1, &mut xq);
            qmatmul_rows_into(&a, &q, &mut out2, &mut xq);
            prop_assert_eq!(
                out1.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                out2.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
