//! Test-only oracles: the naive implementations the production paths are
//! pinned against.
//!
//! Each function here is the pre-optimization code, kept verbatim as a
//! specification rather than as a selectable runtime mode: the exact
//! register-tiled matmul core (every family's `matmul`/`matmul_tn`, and
//! `Blocked`'s `matmul_nt`) is property-tested bit-identical to the naive
//! triple loops, and the [`DecodeSession`](crate::DecodeSession) engine is
//! property-tested bit-identical to the per-token [`generate_legacy`]
//! loop. Nothing outside `cfg(test)` can reach them.

use crate::sampler::{sample_logits, SampleOptions};
use crate::tensor::{gelu_fwd, softmax_row_inplace, Matrix};
use crate::tokenizer::EOS;
use crate::transformer::{ln_row_into, vec_mat, TransformerLm};
use rand::Rng;

/// The naive matmul `out = a · b` (i-k-j with a zero-skip, exactly the
/// pre-optimization forward kernel).
pub(crate) fn matmul_reference(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    debug_assert_eq!(a.cols, b.rows);
    out.data.fill(0.0);
    for i in 0..a.rows {
        for k in 0..a.cols {
            let av = a.data[i * a.cols + k];
            if av == 0.0 {
                continue;
            }
            let brow = &b.data[k * b.cols..(k + 1) * b.cols];
            let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
            for (o, &x) in orow.iter_mut().zip(brow) {
                *o += av * x;
            }
        }
    }
}

/// The naive `out = a · bᵀ` (i-j-k dot products, the pre-optimization
/// kernel).
pub(crate) fn matmul_nt_reference(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    debug_assert_eq!(a.cols, b.cols);
    let (m, k, n) = (a.rows, a.cols, b.rows);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.data[i * k + kk] * b.data[j * k + kk];
            }
            out.data[i * n + j] = acc;
        }
    }
}

/// The naive `out = aᵀ · c` (j-c-r dot products over strided columns, the
/// pre-optimization backward kernel).
pub(crate) fn matmul_tn_reference(a: &Matrix, c: &Matrix, out: &mut Matrix) {
    debug_assert_eq!(a.rows, c.rows);
    let (r_rows, m, n) = (a.rows, a.cols, c.cols);
    for j in 0..m {
        for col in 0..n {
            let mut acc = 0.0f32;
            for r in 0..r_rows {
                acc += a.data[r * m + j] * c.data[r * n + col];
            }
            out.data[j * n + col] = acc;
        }
    }
}

/// The pre-engine generation loop: every token re-runs single-vector
/// products over a per-call KV cache, and every call re-merges weights.
///
/// Known (historical) wart, fixed in the engine path: when
/// `prompt.len() >= cfg.max_seq` the loop silently drops the forced tail
/// of the prompt and returns an empty completion.
pub(crate) fn generate_legacy<R: Rng>(
    lm: &TransformerLm,
    prompt: &[usize],
    max_new: usize,
    opts: &SampleOptions,
    rng: &mut R,
) -> Vec<usize> {
    let d = lm.cfg.d_model;
    let hs = lm.cfg.head_size();
    let nh = lm.cfg.n_heads;
    let scale = 1.0 / (hs as f32).sqrt();
    // Merged weights once per call (borrowed straight from the model
    // unless a LoRA adapter forces a merge copy).
    let w = lm.decode_weights();
    let n_layers = w.wq.len();

    let mut kcache: Vec<Vec<f32>> = vec![Vec::new(); n_layers];
    let mut vcache: Vec<Vec<f32>> = vec![Vec::new(); n_layers];
    let mut out = Vec::new();
    let mut logits = vec![0.0f32; lm.vocab_size()];
    let total_budget = (prompt.len() + max_new).min(lm.cfg.max_seq);
    for t in 0..total_budget {
        let id = if t < prompt.len() {
            prompt[t]
        } else {
            let next = sample_logits(&logits, opts, rng);
            if next == EOS {
                break;
            }
            out.push(next);
            next
        };
        // x = tok[id] + pos[t]
        let mut x: Vec<f32> =
            (0..d).map(|c| w.tok.data[id * d + c] + w.pos.data[t * d + c]).collect();
        for li in 0..n_layers {
            let xn = ln_vec(&x);
            let q = vec_mat(&xn, &w.wq[li]);
            let k = vec_mat(&xn, &w.wk[li]);
            let v = vec_mat(&xn, &w.wv[li]);
            kcache[li].extend_from_slice(&k);
            vcache[li].extend_from_slice(&v);
            let steps = kcache[li].len() / d;
            let mut merged = vec![0.0f32; d];
            for h in 0..nh {
                let qh = &q[h * hs..(h + 1) * hs];
                // scores over cached keys
                let mut scores = Vec::with_capacity(steps);
                for s in 0..steps {
                    let kh = &kcache[li][s * d + h * hs..s * d + (h + 1) * hs];
                    let dot: f32 = qh.iter().zip(kh).map(|(a, b)| a * b).sum();
                    scores.push(dot * scale);
                }
                softmax_row_inplace(&mut scores);
                for (s, w) in scores.iter().enumerate() {
                    let vh = &vcache[li][s * d + h * hs..s * d + (h + 1) * hs];
                    for (j, vx) in vh.iter().enumerate() {
                        merged[h * hs + j] += w * vx;
                    }
                }
            }
            let proj = vec_mat(&merged, &w.wo[li]);
            for (xi, p) in x.iter_mut().zip(&proj) {
                *xi += p;
            }
            let xn = ln_vec(&x);
            let mut h1 = vec_mat(&xn, &w.w1[li]);
            for v in h1.iter_mut() {
                *v = gelu_fwd(*v);
            }
            let h2 = vec_mat(&h1, &w.w2[li]);
            for (xi, p) in x.iter_mut().zip(&h2) {
                *xi += p;
            }
        }
        let xn = ln_vec(&x);
        logits = vec_mat(&xn, w.head);
    }
    out
}

/// Row layer norm into a fresh vector.
fn ln_vec(x: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    ln_row_into(x, &mut out);
    out
}
