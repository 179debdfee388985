//! Tape-based reverse-mode autograd over 2-D `f32` tensors.
//!
//! The design is define-by-run: a [`Graph`] is built per training step,
//! forward values are computed eagerly, and [`Graph::backward`] replays the
//! tape in reverse. Tensors are row-major `[rows, cols]` matrices; vectors
//! are `[1, n]`.
//!
//! # Kernel layout
//!
//! The matmul family (forward and backward) runs through the kernels in
//! [`kernels`], selected per graph by [`KernelMode`] (see
//! [`Graph::with_kernels`]). One exact register-tiled core accumulates
//! each output element in ascending shared-dimension order, and the
//! property tests pin it **bit-identical** on finite inputs to the naive
//! triple loops, which survive only as test-only oracles. Every family
//! runs it for `matmul` and `matmul_tn`, and the default `Blocked` family
//! for `matmul_nt` too. The `Simd` family trades exactness for per-lane
//! accumulators in `matmul_nt` and the softmax/layer-norm statistics
//! sweeps — still deterministic, no longer bit-identical; every trade is
//! documented on the kernel itself and in DESIGN.md. Softmax, layer norm,
//! and cross-entropy are fused into two sweeps per row (one read-only
//! statistics sweep, one write sweep).

/// A node id on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorId(usize);

/// Row-major matrix storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major data, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix from raw parts.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Matrix { rows, cols, data }
    }

    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Element access.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

/// Which kernel family the graph ops (and the decode engine) dispatch to.
///
/// Every family shares one exact, register-tiled f32 core for `matmul`
/// and `matmul_tn` (see [`kernels`]). It accumulates in the same
/// per-element order as the pre-optimization naive loops, which the
/// property tests keep as test-only oracles.
///
/// `Blocked` (the default) runs that core for `matmul_nt` too (after
/// transposing `b`) and keeps the scalar softmax/layer-norm sweeps:
/// **Blocked ≡ naive bit-for-bit on finite inputs**.
///
/// `Simd` differs only where a sequential f32 reduction forbids
/// vectorization: `matmul_nt` and the softmax/layer-norm statistics
/// sweeps use per-lane accumulators, and gelu/softmax use a polynomial
/// `exp` — deterministic, but no longer bit-identical; selecting `Simd`
/// is the opt-in for that trade.
///
/// `QuantizedInt8` quantizes the effective weights of a
/// [`DecodeSession`](crate::DecodeSession) to per-row absmax int8 (see
/// [`crate::quant`]); i32 accumulation is associative, so that path is
/// exactly reproducible, and a pass@k-parity test gates it against f32.
/// Outside the decode engine (training graphs), `QuantizedInt8` runs the
/// f32 `Simd` kernels — training weights are never quantized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// The exact family: bit-identical to the naive oracles.
    #[default]
    Blocked,
    /// Lane-split `matmul_nt` and row sweeps (exactness trades documented
    /// per kernel).
    Simd,
    /// Int8 weight-quantized decode; f32 `Simd` kernels elsewhere.
    QuantizedInt8,
}

impl KernelMode {
    /// The CLI/JSON name of the family (`blocked|simd|int8`).
    pub fn as_str(self) -> &'static str {
        match self {
            KernelMode::Blocked => "blocked",
            KernelMode::Simd => "simd",
            KernelMode::QuantizedInt8 => "int8",
        }
    }

    /// Whether graph softmax/layer-norm statistics use the lane-parallel
    /// (reordered, non-bit-identical) sweeps.
    pub(crate) fn lane_sweeps(self) -> bool {
        matches!(self, KernelMode::Simd | KernelMode::QuantizedInt8)
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for KernelMode {
    type Err = String;

    fn from_str(s: &str) -> Result<KernelMode, String> {
        match s {
            "blocked" => Ok(KernelMode::Blocked),
            "simd" => Ok(KernelMode::Simd),
            "int8" | "quantized-int8" => Ok(KernelMode::QuantizedInt8),
            other => Err(format!("unknown kernel mode `{other}` (expected blocked|simd|int8)")),
        }
    }
}

/// The matmul kernel family.
///
/// Shape conventions (all row-major):
///
/// * [`matmul_into`]: `out[m,n] = a[m,k] · b[k,n]`
/// * [`matmul_nt_into`]: `out[m,n] = a[m,k] · b[n,k]ᵀ`
/// * [`matmul_tn_into`]: `out[m,n] = a[r,m]ᵀ · c[r,n]`
///
/// One register-tiled i-k-j core computes all three. It accumulates each
/// output element as one chained f32 sum in ascending shared-dimension
/// order, so on finite inputs it agrees bit-for-bit with the naive
/// test-only oracles, and `matmul`/`matmul_tn` are the same kernels in
/// every [`KernelMode`]. Only `a · bᵀ` dispatches on the family:
/// `Blocked` transposes `b` and runs the exact core, while `Simd`/int8
/// run the lane-split [`matmul_nt_simd`], the one f32-matmul exactness
/// trade.
pub mod kernels {
    use super::{KernelMode, Matrix};

    /// f32 lanes the lane-split kernels and sweeps unroll to (one AVX2
    /// register; a multiple of the NEON width).
    pub const LANES: usize = 8;
    /// Width of the wide register tile: one output row × 32 columns, i.e.
    /// eight SSE vectors of accumulators held in registers across the
    /// whole shared-dimension loop. One broadcast of `a` feeds 32
    /// multiply-adds, and the 32 independent chains hide FP-add latency.
    const RT: usize = 32;
    /// Rows of the narrow tile that covers the `n % RT` column tail.
    /// Four rows reuse each loaded strip of `b` four times, so narrow
    /// outputs (the per-head `[T,T]·[T,20]`) keep eight chains live.
    const TR: usize = 4;
    /// Columns of the narrow tail tile (two SSE vectors).
    const TC: usize = 8;

    /// `out = a · b`: the exact tiled core, the same in every family.
    pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(a.cols, b.rows);
        debug_assert_eq!((out.rows, out.cols), (a.rows, b.cols));
        gemm::<false>(&a.data, a.rows, a.cols, &b.data, b.cols, &mut out.data);
    }

    /// `out = a · bᵀ`, dispatching on the kernel family. `Blocked`
    /// transposes `b` (O(n·k), into a buffer the size of `b`) and runs the
    /// exact core, so each element is the same ascending-k chained sum as
    /// a sequential dot product. The buffer is allocated per call: a
    /// per-thread buffer reused across calls ran no faster and raised the
    /// peak RSS of a quick-scale fine-tune + eval cell by about 25%.
    pub fn matmul_nt_into(mode: KernelMode, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(a.cols, b.cols);
        debug_assert_eq!((out.rows, out.cols), (a.rows, b.rows));
        if mode != KernelMode::Blocked {
            return matmul_nt_simd(a, b, out);
        }
        let k = b.cols;
        let mut bt = Vec::with_capacity(b.data.len());
        for kk in 0..k {
            bt.extend(b.data[kk..].iter().step_by(k).copied());
        }
        gemm::<false>(&a.data, a.rows, k, &bt, b.rows, &mut out.data);
    }

    /// `out = aᵀ · c`: the exact tiled core reading `a` column-wise in
    /// place (`a[r][i..i+TR]` is contiguous), the same in every family.
    pub fn matmul_tn_into(a: &Matrix, c: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(a.rows, c.rows);
        debug_assert_eq!((out.rows, out.cols), (a.cols, c.cols));
        gemm::<true>(&a.data, a.cols, a.rows, &c.data, c.cols, &mut out.data);
    }

    /// `out[m,n] = A · b[k,n]` where `A[i][kk]` is `a[i*k + kk]`, or
    /// `a[kk*m + i]` when `TRANS` (i.e. `a` holds `Aᵀ`).
    ///
    /// Columns below the last multiple of [`RT`] run one row at a time in
    /// [`RT`]-wide tiles; the remaining columns run in [`TR`]×[`TC`]
    /// tiles. A final tile that would overhang the matrix is shifted back
    /// to end at its last row or column instead: the overlap is computed
    /// twice with the same operations, hence the same bits. Every tile
    /// has a fixed width, so no shape falls into a dynamic-width loop.
    fn gemm<const TRANS: bool>(
        a: &[f32],
        m: usize,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        if n == 0 {
            return;
        }
        // Column strips outermost: a k×RT strip of `b` stays in L1
        // across every row of `a`.
        let wide = n - n % RT;
        for j0 in (0..wide).step_by(RT) {
            for i in 0..m {
                tile::<1, RT, TRANS>(a, m, k, i, b, n, j0, out);
            }
        }
        if wide == n {
            return;
        }
        if m < TR {
            for i in 0..m {
                tail_tiles::<1, TRANS>(a, m, k, i, b, n, wide, out);
            }
            return;
        }
        let mut i = 0;
        while i < m {
            let i0 = i.min(m - TR);
            tail_tiles::<TR, TRANS>(a, m, k, i0, b, n, wide, out);
            i = i0 + TR;
        }
    }

    /// Rows `i0..i0+R` of columns `from..n`, in [`TC`]-wide tiles (the
    /// last one shifted back to end at `n`), or one column at a time
    /// when the whole matrix is narrower than a tile.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn tail_tiles<const R: usize, const TRANS: bool>(
        a: &[f32],
        m: usize,
        k: usize,
        i0: usize,
        b: &[f32],
        n: usize,
        from: usize,
        out: &mut [f32],
    ) {
        if n < TC {
            for j in from..n {
                tile::<R, 1, TRANS>(a, m, k, i0, b, n, j, out);
            }
            return;
        }
        let mut j = from;
        while j < n {
            let j0 = j.min(n - TC);
            tile::<R, TC, TRANS>(a, m, k, i0, b, n, j0, out);
            j = j0 + TC;
        }
    }

    /// One `R`×`C` register tile: `out[i0+r][j0+c]` for `r < R`, `c < C`,
    /// each accumulated from `0.0` over ascending `kk` in a fixed-size
    /// `[[f32; C]; R]` that the compiler keeps in vector registers, and
    /// stored once at the end.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn tile<const R: usize, const C: usize, const TRANS: bool>(
        a: &[f32],
        m: usize,
        k: usize,
        i0: usize,
        b: &[f32],
        n: usize,
        j0: usize,
        out: &mut [f32],
    ) {
        let mut acc = [[0.0f32; C]; R];
        if TRANS {
            for (acol, brow) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
                let acol: &[f32; R] = acol[i0..i0 + R].try_into().expect("tile inside a");
                let brow: &[f32; C] = brow[j0..j0 + C].try_into().expect("tile inside b");
                for (acc, &av) in acc.iter_mut().zip(acol) {
                    for (t, &x) in acc.iter_mut().zip(brow) {
                        *t += av * x;
                    }
                }
            }
        } else {
            let rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * k..(i0 + r + 1) * k]);
            for (kk, brow) in b.chunks_exact(n).enumerate() {
                let brow: &[f32; C] = brow[j0..j0 + C].try_into().expect("tile inside b");
                for (acc, row) in acc.iter_mut().zip(&rows) {
                    let av = row[kk];
                    for (t, &x) in acc.iter_mut().zip(brow) {
                        *t += av * x;
                    }
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            out[(i0 + r) * n + j0..(i0 + r) * n + j0 + C].copy_from_slice(acc);
        }
    }

    /// Vectorized `a · bᵀ` — deterministic but **not** bit-identical to
    /// the exact [`matmul_nt_into`] path of `Blocked`.
    ///
    /// Each dot product accumulates into [`LANES`] independent per-lane
    /// partials over the shared dimension ([`dot_lanes`]), reduced in a
    /// fixed tree order. This is the one f32 matmul where `Simd` trades
    /// bit-exactness for speed; selecting [`KernelMode::Simd`] is the
    /// opt-in. Used for attention scores and the dA backward of `matmul`
    /// (including the vocab-wide logits dA).
    pub fn matmul_nt_simd(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(a.cols, b.cols);
        debug_assert_eq!((out.rows, out.cols), (a.rows, b.rows));
        let (m, k, n) = (a.rows, a.cols, b.rows);
        for j0 in (0..n).step_by(JT) {
            let jend = (j0 + JT).min(n);
            for i in 0..m {
                let arow = &a.data[i * k..(i + 1) * k];
                let orow = &mut out.data[i * n..(i + 1) * n];
                for (j, o) in orow.iter_mut().enumerate().take(jend).skip(j0) {
                    *o = dot_lanes(arow, &b.data[j * k..(j + 1) * k]);
                }
            }
        }
    }

    /// Rows of `b` reused per tile in [`matmul_nt_simd`].
    const JT: usize = 32;

    /// Lane-split f32 dot product with a fixed reduction tree.
    /// Deterministic; reordered relative to a sequential dot.
    #[inline]
    pub fn dot_lanes(x: &[f32], y: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len());
        let split = x.len() - x.len() % LANES;
        let mut lanes = [0.0f32; LANES];
        for (xs, ys) in x[..split].chunks_exact(LANES).zip(y[..split].chunks_exact(LANES)) {
            for l in 0..LANES {
                lanes[l] += xs[l] * ys[l];
            }
        }
        let mut tail = 0.0f32;
        for (xv, yv) in x[split..].iter().zip(&y[split..]) {
            tail += xv * yv;
        }
        ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
            + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]))
            + tail
    }

    // ---- lane-parallel row sweeps (Simd/int8 graph modes) ----

    /// Lane-parallel fused sum + sum-of-squares of a row (the layer-norm
    /// statistics sweep). Lane-splitting reorders the f32 additions:
    /// deterministic, not bit-identical to the scalar sweep.
    pub fn lane_sum_sumsq(row: &[f32]) -> (f32, f32) {
        let split = row.len() - row.len() % LANES;
        let mut s = [0.0f32; LANES];
        let mut q = [0.0f32; LANES];
        for ch in row[..split].chunks_exact(LANES) {
            for l in 0..LANES {
                s[l] += ch[l];
                q[l] += ch[l] * ch[l];
            }
        }
        let mut sum = ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
        let mut sumsq = ((q[0] + q[4]) + (q[2] + q[6])) + ((q[1] + q[5]) + (q[3] + q[7]));
        for &x in &row[split..] {
            sum += x;
            sumsq += x * x;
        }
        (sum, sumsq)
    }

    /// Lane-parallel row max. f32 max is order-independent on non-NaN
    /// inputs, so this matches a sequential max exactly.
    fn lane_max(row: &[f32]) -> f32 {
        let split = row.len() - row.len() % LANES;
        let mut m = [f32::NEG_INFINITY; LANES];
        for ch in row[..split].chunks_exact(LANES) {
            for l in 0..LANES {
                m[l] = m[l].max(ch[l]);
            }
        }
        let mut best = m.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        for &x in &row[split..] {
            best = best.max(x);
        }
        best
    }

    /// Vectorizable `exp`: Cephes-style range reduction (`x = n·ln2 + r`)
    /// and a degree-5 polynomial in `r`, built only from mul/add/clamp/
    /// convert so the autovectorizer emits packed code where a libm
    /// `exp` call would serialize the whole loop. Rounding to the nearest
    /// `n` uses the `1.5 · 2²³` magic-constant trick (two adds) because
    /// `f32::round` is also a libm call on baseline x86-64.
    ///
    /// Max relative error ≈ 2 ulp over the clamped domain `[-87, 88]`.
    /// Deterministic — a pure function of the input bits — but *not*
    /// bit-identical to libm `exp`; only the lane-sweep (Simd/int8)
    /// families opt in, and the decode path never calls it.
    #[inline]
    pub fn exp_approx(x: f32) -> f32 {
        const LOG2E: f32 = std::f32::consts::LOG2_E;
        const LN2_HI: f32 = 0.693_359_4;
        const LN2_LO: f32 = -2.121_944_4e-4;
        const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
        let x = x.clamp(-87.0, 88.0);
        let n = (x * LOG2E + MAGIC) - MAGIC;
        let r = x - n * LN2_HI - n * LN2_LO;
        let p = 1.987_569_1e-4f32;
        let p = p * r + 1.398_2e-3;
        let p = p * r + 8.333_452e-3;
        let p = p * r + 4.166_579_6e-2;
        let p = p * r + 1.666_666_5e-1;
        let p = p * r + 5.000_000_3e-1;
        let p = p * (r * r) + r + 1.0;
        let scale = f32::from_bits((((n as i32) + 127) << 23) as u32);
        p * scale
    }

    /// Vectorizable `tanh` on top of [`exp_approx`]:
    /// `tanh(x) = (e²ˣ − 1) / (e²ˣ + 1)`. The division is a packed
    /// `divps`; saturation falls out of `exp_approx`'s domain clamp.
    #[inline]
    pub fn tanh_approx(x: f32) -> f32 {
        let e = exp_approx(2.0 * x);
        (e - 1.0) / (e + 1.0)
    }

    /// Two-pass vectorized row softmax: exact lane max, then one fused
    /// sweep that writes `exp_approx(x − max)` back while lane-splitting
    /// the denominator sum (reordered *and* polynomial-exp — deterministic,
    /// not bit-identical to [`softmax_row_inplace`](super::softmax_row_inplace)'s
    /// online libm normalizer), then a scale sweep.
    pub fn softmax_row_inplace_lanes(row: &mut [f32]) {
        let max = lane_max(row);
        let split = row.len() - row.len() % LANES;
        let mut lanes = [0.0f32; LANES];
        for ch in row[..split].chunks_exact_mut(LANES) {
            for l in 0..LANES {
                let e = exp_approx(ch[l] - max);
                ch[l] = e;
                lanes[l] += e;
            }
        }
        let mut denom = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
            + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
        for x in &mut row[split..] {
            let e = exp_approx(*x - max);
            *x = e;
            denom += e;
        }
        let inv = 1.0 / denom;
        for x in row.iter_mut() {
            *x *= inv;
        }
    }
}

enum Op {
    Leaf,
    /// (a, b): C = A · B
    MatMul(TensorId, TensorId),
    /// (a, b): C = A · Bᵀ
    MatMulNt(TensorId, TensorId),
    Add(TensorId, TensorId),
    /// Adds a `[1, n]` row vector to every row.
    AddRow(TensorId, TensorId),
    Mul(TensorId, TensorId),
    Scale(TensorId, f32),
    Gelu(TensorId),
    /// Row-wise layer norm; caches (mean, rstd) per row.
    LayerNorm(TensorId, Vec<(f32, f32)>),
    /// Row-wise softmax with optional causal mask (applied in forward).
    Softmax(TensorId),
    /// Embedding gather: rows of `table` selected by `ids`.
    Gather(TensorId, Vec<usize>),
    /// Column slice [start, len) of the input.
    SliceCols(TensorId, usize, usize),
    /// First `rows` rows of the input.
    SliceRows(TensorId, usize),
    /// Horizontal concatenation of column blocks.
    ConcatCols(Vec<TensorId>),
    /// Weighted token cross-entropy; caches softmax probs.
    CrossEntropy {
        logits: TensorId,
        targets: Vec<usize>,
        weights: Vec<f32>,
        probs: Box<Matrix>,
    },
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    needs_grad: bool,
}

/// A single-use computation graph.
pub struct Graph {
    nodes: Vec<Node>,
    kernels: KernelMode,
}

impl Default for Graph {
    fn default() -> Graph {
        Graph::new()
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.nodes.len())
            .field("kernels", &self.kernels)
            .finish()
    }
}

/// Online (single-pass) max and exp-sum of a row: the streaming softmax
/// normalizer. Returns `(max, denom)` with `denom = Σ exp(x - max)`.
pub(crate) fn online_max_expsum(row: &[f32]) -> (f32, f32) {
    let mut max = f32::NEG_INFINITY;
    let mut denom = 0.0f32;
    for &x in row {
        if x > max {
            denom = denom * (max - x).exp() + 1.0;
            max = x;
        } else {
            denom += (x - max).exp();
        }
    }
    (max, denom)
}

/// Fused in-place row softmax: one read-only [`online_max_expsum`] sweep,
/// one write sweep fusing the exponential with the reciprocal scale.
///
/// This is the **single** softmax implementation shared by the graph op
/// ([`Graph::softmax`]) and the KV-cached decode path
/// (`pyranet_model::decode`), so the two can never drift apart — they are
/// bit-identical by construction, and the shared unit test pins the
/// numerics.
pub fn softmax_row_inplace(row: &mut [f32]) {
    let (max, denom) = online_max_expsum(row);
    let inv = 1.0 / denom;
    for x in row.iter_mut() {
        *x = (*x - max).exp() * inv;
    }
}

impl Graph {
    /// Creates an empty graph on the default ([`KernelMode::Blocked`])
    /// kernel family.
    pub fn new() -> Graph {
        Graph::with_kernels(KernelMode::default())
    }

    /// Creates an empty graph whose ops dispatch to `mode`'s kernels.
    pub fn with_kernels(mode: KernelMode) -> Graph {
        Graph { nodes: Vec::new(), kernels: mode }
    }

    /// The kernel family this graph dispatches to.
    pub fn kernels(&self) -> KernelMode {
        self.kernels
    }

    fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> TensorId {
        self.nodes.push(Node { value, grad: None, op, needs_grad });
        TensorId(self.nodes.len() - 1)
    }

    /// Adds a trainable leaf (gradient will be accumulated).
    pub fn param(&mut self, value: Matrix) -> TensorId {
        self.push(value, Op::Leaf, true)
    }

    /// Adds a constant leaf (no gradient).
    pub fn constant(&mut self, value: Matrix) -> TensorId {
        self.push(value, Op::Leaf, false)
    }

    /// The forward value of a node.
    pub fn value(&self, id: TensorId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// The accumulated gradient of a node (zero matrix if it never received
    /// gradient).
    pub fn grad(&self, id: TensorId) -> Matrix {
        let n = &self.nodes[id.0];
        n.grad.clone().unwrap_or_else(|| Matrix::zeros(n.value.rows, n.value.cols))
    }

    fn shape(&self, id: TensorId) -> (usize, usize) {
        let v = &self.nodes[id.0].value;
        (v.rows, v.cols)
    }

    fn needs(&self, id: TensorId) -> bool {
        self.nodes[id.0].needs_grad
    }

    // ---- ops ----

    /// `A · B`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ac, br, "matmul inner dims {ac} vs {br}");
        let mut out = Matrix::zeros(ar, bc);
        {
            let av = &self.nodes[a.0].value;
            let bv = &self.nodes[b.0].value;
            kernels::matmul_into(av, bv, &mut out);
        }
        let needs = self.needs(a) || self.needs(b);
        self.push(out, Op::MatMul(a, b), needs)
    }

    /// `A · Bᵀ`.
    pub fn matmul_nt(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ac, bc, "matmul_nt inner dims {ac} vs {bc}");
        let mut out = Matrix::zeros(ar, br);
        {
            let av = &self.nodes[a.0].value;
            let bv = &self.nodes[b.0].value;
            kernels::matmul_nt_into(self.kernels, av, bv, &mut out);
        }
        let needs = self.needs(a) || self.needs(b);
        self.push(out, Op::MatMulNt(a, b), needs)
    }

    /// Elementwise sum (same shape).
    pub fn add(&mut self, a: TensorId, b: TensorId) -> TensorId {
        assert_eq!(self.shape(a), self.shape(b), "add shape mismatch");
        let mut out = self.nodes[a.0].value.clone();
        for (o, x) in out.data.iter_mut().zip(&self.nodes[b.0].value.data) {
            *o += x;
        }
        let needs = self.needs(a) || self.needs(b);
        self.push(out, Op::Add(a, b), needs)
    }

    /// Adds row vector `row` (`[1, n]`) to every row of `a` (`[m, n]`).
    pub fn add_row(&mut self, a: TensorId, row: TensorId) -> TensorId {
        let (_, ac) = self.shape(a);
        let (rr, rc) = self.shape(row);
        assert_eq!((rr, rc), (1, ac), "add_row expects [1,{ac}], got [{rr},{rc}]");
        let mut out = self.nodes[a.0].value.clone();
        let rv = &self.nodes[row.0].value;
        for r in 0..out.rows {
            for c in 0..out.cols {
                out.data[r * out.cols + c] += rv.data[c];
            }
        }
        let needs = self.needs(a) || self.needs(row);
        self.push(out, Op::AddRow(a, row), needs)
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        assert_eq!(self.shape(a), self.shape(b), "mul shape mismatch");
        let mut out = self.nodes[a.0].value.clone();
        for (o, x) in out.data.iter_mut().zip(&self.nodes[b.0].value.data) {
            *o *= x;
        }
        let needs = self.needs(a) || self.needs(b);
        self.push(out, Op::Mul(a, b), needs)
    }

    /// Scalar multiply.
    pub fn scale(&mut self, a: TensorId, k: f32) -> TensorId {
        let mut out = self.nodes[a.0].value.clone();
        for o in out.data.iter_mut() {
            *o *= k;
        }
        let needs = self.needs(a);
        self.push(out, Op::Scale(a, k), needs)
    }

    /// GELU activation (tanh approximation). The lane-sweep families
    /// (Simd/int8) evaluate the inner tanh with the vectorizable
    /// [`kernels::tanh_approx`] instead of libm — the same ≈2-ulp,
    /// deterministic trade as their softmax sweeps.
    pub fn gelu(&mut self, a: TensorId) -> TensorId {
        let mut out = self.nodes[a.0].value.clone();
        if self.kernels.lane_sweeps() {
            for o in out.data.iter_mut() {
                *o = gelu_fwd_fast(*o);
            }
        } else {
            for o in out.data.iter_mut() {
                *o = gelu_fwd(*o);
            }
        }
        let needs = self.needs(a);
        self.push(out, Op::Gelu(a), needs)
    }

    /// Row-wise layer normalization (no affine; compose with `mul`/`add_row`
    /// for gain/bias). One statistics sweep (sum + sum-of-squares fused)
    /// and one write sweep per row. In the Simd/int8 kernel families the
    /// statistics sweep is the lane-parallel
    /// [`kernels::lane_sum_sumsq`] (deterministic, not bit-identical to
    /// the scalar sweep).
    pub fn layernorm(&mut self, a: TensorId) -> TensorId {
        let lane_sweeps = self.kernels.lane_sweeps();
        let v = &self.nodes[a.0].value;
        let mut out = Matrix::zeros(v.rows, v.cols);
        let mut stats = Vec::with_capacity(v.rows);
        let n = v.cols as f32;
        for r in 0..v.rows {
            let row = &v.data[r * v.cols..(r + 1) * v.cols];
            let (sum, sumsq) = if lane_sweeps {
                kernels::lane_sum_sumsq(row)
            } else {
                let (mut sum, mut sumsq) = (0.0f32, 0.0f32);
                for &x in row {
                    sum += x;
                    sumsq += x * x;
                }
                (sum, sumsq)
            };
            let mean = sum / n;
            let var = (sumsq / n - mean * mean).max(0.0);
            let rstd = 1.0 / (var + 1e-5).sqrt();
            for (o, &x) in out.data[r * v.cols..(r + 1) * v.cols].iter_mut().zip(row) {
                *o = (x - mean) * rstd;
            }
            stats.push((mean, rstd));
        }
        let needs = self.needs(a);
        self.push(out, Op::LayerNorm(a, stats), needs)
    }

    /// Row-wise softmax. `causal` masks column j > row i with -inf first
    /// (for square attention score matrices). Uses the online normalizer:
    /// one read-only sweep for (max, denom), one write sweep fusing the
    /// exponential with the reciprocal scale.
    pub fn softmax(&mut self, a: TensorId, causal: bool) -> TensorId {
        let lane_sweeps = self.kernels.lane_sweeps();
        let v = &self.nodes[a.0].value;
        let mut out = Matrix::zeros(v.rows, v.cols);
        for r in 0..v.rows {
            let limit = if causal { (r + 1).min(v.cols) } else { v.cols };
            let dst = &mut out.data[r * v.cols..r * v.cols + limit];
            dst.copy_from_slice(&v.data[r * v.cols..r * v.cols + limit]);
            if lane_sweeps {
                kernels::softmax_row_inplace_lanes(dst);
            } else {
                softmax_row_inplace(dst);
            }
            // masked entries stay exactly 0
        }
        let needs = self.needs(a);
        self.push(out, Op::Softmax(a), needs)
    }

    /// Gathers rows `ids` of `table` (embedding lookup).
    pub fn gather(&mut self, table: TensorId, ids: &[usize]) -> TensorId {
        let t = &self.nodes[table.0].value;
        let mut out = Matrix::zeros(ids.len(), t.cols);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < t.rows, "gather index {id} out of {}", t.rows);
            out.data[r * t.cols..(r + 1) * t.cols]
                .copy_from_slice(&t.data[id * t.cols..(id + 1) * t.cols]);
        }
        let needs = self.needs(table);
        self.push(out, Op::Gather(table, ids.to_vec()), needs)
    }

    /// Column slice `[start, start+len)`.
    pub fn slice_cols(&mut self, a: TensorId, start: usize, len: usize) -> TensorId {
        let v = &self.nodes[a.0].value;
        assert!(start + len <= v.cols, "slice beyond columns");
        let mut out = Matrix::zeros(v.rows, len);
        for r in 0..v.rows {
            out.data[r * len..(r + 1) * len]
                .copy_from_slice(&v.data[r * v.cols + start..r * v.cols + start + len]);
        }
        let needs = self.needs(a);
        self.push(out, Op::SliceCols(a, start, len), needs)
    }

    /// First `rows` rows of `a` (used to drop the final next-token row
    /// before the loss): an O(rows · cols) copy forward, a scatter into
    /// the leading rows backward.
    ///
    /// # Panics
    ///
    /// Panics when `rows` exceeds the row count of `a`.
    pub fn slice_rows(&mut self, a: TensorId, rows: usize) -> TensorId {
        let v = &self.nodes[a.0].value;
        assert!(rows <= v.rows, "slice beyond rows");
        if rows == v.rows {
            return a;
        }
        let cols = v.cols;
        let mut out = Matrix::zeros(rows, cols);
        out.data.copy_from_slice(&v.data[..rows * cols]);
        let needs = self.needs(a);
        self.push(out, Op::SliceRows(a, rows), needs)
    }

    /// Concatenates blocks horizontally (same row count).
    pub fn concat_cols(&mut self, parts: &[TensorId]) -> TensorId {
        assert!(!parts.is_empty());
        let rows = self.shape(parts[0]).0;
        let total: usize = parts.iter().map(|p| self.shape(*p).1).sum();
        let mut out = Matrix::zeros(rows, total);
        let mut off = 0;
        for &p in parts {
            let v = &self.nodes[p.0].value;
            assert_eq!(v.rows, rows, "concat_cols row mismatch");
            for r in 0..rows {
                out.data[r * total + off..r * total + off + v.cols]
                    .copy_from_slice(&v.data[r * v.cols..(r + 1) * v.cols]);
            }
            off += v.cols;
        }
        let needs = parts.iter().any(|p| self.needs(*p));
        self.push(out, Op::ConcatCols(parts.to_vec()), needs)
    }

    /// Per-row weighted cross-entropy over logits `[n, V]` against `targets`
    /// with per-row `weights`; returns a `[1,1]` scalar:
    /// `sum_i w_i * (-log softmax(logits_i)[t_i]) / sum_i w_i`.
    ///
    /// # Panics
    ///
    /// Panics when lengths disagree or all weights are zero.
    pub fn cross_entropy(
        &mut self,
        logits: TensorId,
        targets: &[usize],
        weights: &[f32],
    ) -> TensorId {
        let v = &self.nodes[logits.0].value;
        assert_eq!(v.rows, targets.len());
        assert_eq!(v.rows, weights.len());
        let wsum: f32 = weights.iter().sum();
        assert!(wsum > 0.0, "all-zero loss weights");
        let lane_sweeps = self.kernels.lane_sweeps();
        let mut probs = Matrix::zeros(v.rows, v.cols);
        let mut loss = 0.0f32;
        for r in 0..v.rows {
            let row = &v.data[r * v.cols..(r + 1) * v.cols];
            let prow = &mut probs.data[r * v.cols..(r + 1) * v.cols];
            if lane_sweeps {
                // The vocab-wide softmax is the single largest exp sink in
                // a train step (T·V calls per example); the lane sweep with
                // its polynomial exp vectorizes the whole row.
                prow.copy_from_slice(row);
                kernels::softmax_row_inplace_lanes(prow);
            } else {
                let (max, denom) = online_max_expsum(row);
                let inv = 1.0 / denom;
                for (o, &x) in prow.iter_mut().zip(row) {
                    *o = (x - max).exp() * inv;
                }
            }
            let p = prow[targets[r]].max(1e-12);
            loss -= weights[r] * p.ln();
        }
        loss /= wsum;
        let needs = self.needs(logits);
        self.push(
            Matrix::new(1, 1, vec![loss]),
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                weights: weights.to_vec(),
                probs: Box::new(probs),
            },
            needs,
        )
    }

    /// Runs the backward pass from `root` (must be `[1,1]`).
    ///
    /// # Panics
    ///
    /// Panics when `root` is not scalar.
    pub fn backward(&mut self, root: TensorId) {
        {
            let v = &self.nodes[root.0].value;
            assert_eq!((v.rows, v.cols), (1, 1), "backward root must be scalar");
        }
        self.nodes[root.0].grad = Some(Matrix::new(1, 1, vec![1.0]));
        for i in (0..=root.0).rev() {
            if self.nodes[i].grad.is_none() || !self.nodes[i].needs_grad {
                continue;
            }
            let grad = self.nodes[i].grad.take().expect("checked above");
            self.backprop_node(i, &grad);
            self.nodes[i].grad = Some(grad);
        }
    }

    fn accumulate(&mut self, id: TensorId, delta: Matrix) {
        if !self.nodes[id.0].needs_grad {
            return;
        }
        match &mut self.nodes[id.0].grad {
            Some(g) => {
                for (a, b) in g.data.iter_mut().zip(&delta.data) {
                    *a += b;
                }
            }
            None => self.nodes[id.0].grad = Some(delta),
        }
    }

    /// Computes the input deltas of node `i` under `grad` and accumulates
    /// them. Deltas are produced with only shared borrows of the tape (no
    /// operand clones) and applied afterwards.
    fn backprop_node(&mut self, i: usize, grad: &Matrix) {
        let mode = self.kernels;
        let mut deltas: Vec<(TensorId, Matrix)> = Vec::with_capacity(2);
        match &self.nodes[i].op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                let (a, b) = (*a, *b);
                let av = &self.nodes[a.0].value;
                let bv = &self.nodes[b.0].value;
                // dA = dC · Bᵀ
                if self.needs(a) {
                    let mut da = Matrix::zeros(av.rows, av.cols);
                    kernels::matmul_nt_into(mode, grad, bv, &mut da);
                    deltas.push((a, da));
                }
                // dB = Aᵀ · dC
                if self.needs(b) {
                    let mut db = Matrix::zeros(bv.rows, bv.cols);
                    kernels::matmul_tn_into(av, grad, &mut db);
                    deltas.push((b, db));
                }
            }
            Op::MatMulNt(a, b) => {
                let (a, b) = (*a, *b);
                let av = &self.nodes[a.0].value;
                let bv = &self.nodes[b.0].value;
                // C = A Bᵀ: dA = dC · B ; dB = dCᵀ · A
                if self.needs(a) {
                    let mut da = Matrix::zeros(av.rows, av.cols);
                    kernels::matmul_into(grad, bv, &mut da);
                    deltas.push((a, da));
                }
                if self.needs(b) {
                    let mut db = Matrix::zeros(bv.rows, bv.cols);
                    kernels::matmul_tn_into(grad, av, &mut db);
                    deltas.push((b, db));
                }
            }
            Op::Add(a, b) => {
                let (a, b) = (*a, *b);
                deltas.push((a, grad.clone()));
                deltas.push((b, grad.clone()));
            }
            Op::AddRow(a, row) => {
                let (a, row) = (*a, *row);
                deltas.push((a, grad.clone()));
                if self.needs(row) {
                    let mut dr = Matrix::zeros(1, grad.cols);
                    for r in 0..grad.rows {
                        for c in 0..grad.cols {
                            dr.data[c] += grad.data[r * grad.cols + c];
                        }
                    }
                    deltas.push((row, dr));
                }
            }
            Op::Mul(a, b) => {
                let (a, b) = (*a, *b);
                if self.needs(a) {
                    let bv = &self.nodes[b.0].value;
                    let mut da = grad.clone();
                    for (g, x) in da.data.iter_mut().zip(&bv.data) {
                        *g *= x;
                    }
                    deltas.push((a, da));
                }
                if self.needs(b) {
                    let av = &self.nodes[a.0].value;
                    let mut db = grad.clone();
                    for (g, x) in db.data.iter_mut().zip(&av.data) {
                        *g *= x;
                    }
                    deltas.push((b, db));
                }
            }
            Op::Scale(a, k) => {
                let (a, k) = (*a, *k);
                let mut da = grad.clone();
                for g in da.data.iter_mut() {
                    *g *= k;
                }
                deltas.push((a, da));
            }
            Op::Gelu(a) => {
                let a = *a;
                let av = &self.nodes[a.0].value;
                let mut da = grad.clone();
                if mode.lane_sweeps() {
                    for (g, &x) in da.data.iter_mut().zip(&av.data) {
                        *g *= gelu_bwd_fast(x);
                    }
                } else {
                    for (g, &x) in da.data.iter_mut().zip(&av.data) {
                        *g *= gelu_bwd(x);
                    }
                }
                deltas.push((a, da));
            }
            Op::LayerNorm(a, stats) => {
                let a = *a;
                let av = &self.nodes[a.0].value;
                let mut da = Matrix::zeros(av.rows, av.cols);
                let n = av.cols as f32;
                for (r, &(mean, rstd)) in stats.iter().enumerate() {
                    let xs = &av.data[r * av.cols..(r + 1) * av.cols];
                    let gs = &grad.data[r * av.cols..(r + 1) * av.cols];
                    let sum_g: f32 = gs.iter().sum();
                    let sum_gx: f32 = gs.iter().zip(xs).map(|(g, x)| g * (x - mean) * rstd).sum();
                    for c in 0..av.cols {
                        let xhat = (xs[c] - mean) * rstd;
                        da.data[r * av.cols + c] = rstd * (gs[c] - sum_g / n - xhat * sum_gx / n);
                    }
                }
                deltas.push((a, da));
            }
            Op::Softmax(a) => {
                let a = *a;
                let sv = &self.nodes[i].value;
                let mut da = Matrix::zeros(sv.rows, sv.cols);
                for r in 0..sv.rows {
                    let srow = &sv.data[r * sv.cols..(r + 1) * sv.cols];
                    let grow = &grad.data[r * sv.cols..(r + 1) * sv.cols];
                    let dot: f32 = srow.iter().zip(grow).map(|(s, g)| s * g).sum();
                    for c in 0..sv.cols {
                        da.data[r * sv.cols + c] = srow[c] * (grow[c] - dot);
                    }
                }
                deltas.push((a, da));
            }
            Op::Gather(table, ids) => {
                let table = *table;
                let (tr, tc) = self.shape(table);
                let mut dt = Matrix::zeros(tr, tc);
                for (r, id) in ids.iter().enumerate() {
                    for c in 0..tc {
                        dt.data[id * tc + c] += grad.data[r * tc + c];
                    }
                }
                deltas.push((table, dt));
            }
            Op::SliceCols(a, start, len) => {
                let (a, start, len) = (*a, *start, *len);
                let (ar, ac) = self.shape(a);
                let mut da = Matrix::zeros(ar, ac);
                for r in 0..ar {
                    for c in 0..len {
                        da.data[r * ac + start + c] = grad.data[r * len + c];
                    }
                }
                deltas.push((a, da));
            }
            Op::SliceRows(a, rows) => {
                let (a, rows) = (*a, *rows);
                let (ar, ac) = self.shape(a);
                let mut da = Matrix::zeros(ar, ac);
                da.data[..rows * ac].copy_from_slice(&grad.data);
                deltas.push((a, da));
            }
            Op::ConcatCols(parts) => {
                let mut off = 0;
                for p in parts.clone() {
                    let (pr, pc) = self.shape(p);
                    if self.needs(p) {
                        let mut dp = Matrix::zeros(pr, pc);
                        for r in 0..pr {
                            for c in 0..pc {
                                dp.data[r * pc + c] = grad.data[r * grad.cols + off + c];
                            }
                        }
                        deltas.push((p, dp));
                    }
                    off += pc;
                }
            }
            Op::CrossEntropy { logits, targets, weights, probs } => {
                let logits = *logits;
                let wsum: f32 = weights.iter().sum();
                let g0 = grad.data[0];
                let mut dl = Matrix::zeros(probs.rows, probs.cols);
                for r in 0..probs.rows {
                    let w = g0 * weights[r] / wsum;
                    let prow = &probs.data[r * probs.cols..(r + 1) * probs.cols];
                    let drow = &mut dl.data[r * probs.cols..(r + 1) * probs.cols];
                    for (d, &p) in drow.iter_mut().zip(prow) {
                        *d = w * p;
                    }
                    drow[targets[r]] -= w;
                }
                deltas.push((logits, dl));
            }
        }
        for (id, delta) in deltas {
            self.accumulate(id, delta);
        }
    }
}

/// GELU forward (tanh approximation) — shared by the graph op and the
/// KV-cached decode path.
pub(crate) fn gelu_fwd(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

fn gelu_bwd(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let inner = C * (x + 0.044715 * x * x * x);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// [`gelu_fwd`] with the vectorizable [`kernels::tanh_approx`] — the
/// lane-sweep (Simd/int8) graph families' activation. The decode path
/// always uses the libm [`gelu_fwd`], keeping f32 decode bit-identical
/// across families.
pub(crate) fn gelu_fwd_fast(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + kernels::tanh_approx(C * (x + 0.044715 * x * x * x)))
}

fn gelu_bwd_fast(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let inner = C * (x + 0.044715 * x * x * x);
    let t = kernels::tanh_approx(inner);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use proptest::prelude::*;

    /// Numerically checks d(loss)/d(param[idx]) for a scalar-producing
    /// closure rebuilt per evaluation.
    fn finite_diff<F>(param: &Matrix, idx: usize, f: F) -> f32
    where
        F: Fn(&Matrix) -> f32,
    {
        let eps = 1e-2f32;
        let mut plus = param.clone();
        plus.data[idx] += eps;
        let mut minus = param.clone();
        minus.data[idx] -= eps;
        (f(&plus) - f(&minus)) / (2.0 * eps)
    }

    fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
        // deterministic pseudo-random values in [-0.5, 0.5]
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
    fn shared_softmax_matches_graph_softmax_bitwise() {
        // `softmax_row_inplace` is the one softmax both the graph op and
        // the decode fast path use; pin that the graph op really routes
        // through it (bit-identical rows) and that it behaves.
        let m = seeded(5, 9, 42);
        let mut g = Graph::with_kernels(KernelMode::Blocked);
        let a = g.constant(m.clone());
        let s = g.softmax(a, false);
        let graph_rows = g.value(s).clone();
        for r in 0..m.rows {
            let mut row = m.data[r * m.cols..(r + 1) * m.cols].to_vec();
            softmax_row_inplace(&mut row);
            let graph_row = &graph_rows.data[r * m.cols..(r + 1) * m.cols];
            let ours: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
            let theirs: Vec<u32> = graph_row.iter().map(|x| x.to_bits()).collect();
            assert_eq!(ours, theirs, "row {r} diverged");
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn shared_softmax_handles_extreme_rows() {
        let mut row = vec![1000.0f32, 0.0, -1000.0];
        softmax_row_inplace(&mut row);
        assert!((row[0] - 1.0).abs() < 1e-6, "{row:?}");
        let mut single = vec![-3.5f32];
        softmax_row_inplace(&mut single);
        assert_eq!(single[0].to_bits(), 1.0f32.to_bits());
    }

    #[test]
    fn matmul_forward_correct() {
        let mut g = Graph::new();
        let a = g.constant(Matrix::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let b = g.constant(Matrix::new(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]));
        let c = g.matmul(a, b);
        assert_eq!(g.value(c).data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_nt_matches_matmul_with_transpose() {
        let a = seeded(3, 4, 1);
        let b = seeded(5, 4, 2);
        let mut bt = Matrix::zeros(4, 5);
        for r in 0..5 {
            for c in 0..4 {
                bt.data[c * 5 + r] = b.data[r * 4 + c];
            }
        }
        let mut g = Graph::new();
        let (ia, ib, ibt) = (g.constant(a), g.constant(b), g.constant(bt));
        let c1 = g.matmul_nt(ia, ib);
        let c2 = g.matmul(ia, ibt);
        for (x, y) in g.value(c1).data.iter().zip(&g.value(c2).data) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    /// One scalar loss used for gradient checking: weighted CE over a tiny
    /// two-layer network exercising most ops.
    fn loss_through_net(w1: &Matrix, w2: &Matrix) -> f32 {
        let mut g = Graph::new();
        let x = g.constant(seeded(4, 3, 7));
        let p1 = g.param(w1.clone());
        let p2 = g.param(w2.clone());
        let h = g.matmul(x, p1);
        let h = g.gelu(h);
        let h = g.layernorm(h);
        let logits = g.matmul(h, p2);
        let loss = g.cross_entropy(logits, &[0, 2, 1, 3], &[1.0, 0.5, 0.8, 0.2]);
        g.value(loss).data[0]
    }

    #[test]
    fn gradients_match_finite_differences() {
        let w1 = seeded(3, 5, 11);
        let w2 = seeded(5, 4, 13);
        // analytic gradients
        let mut g = Graph::new();
        let x = g.constant(seeded(4, 3, 7));
        let p1 = g.param(w1.clone());
        let p2 = g.param(w2.clone());
        let h = g.matmul(x, p1);
        let h = g.gelu(h);
        let h = g.layernorm(h);
        let logits = g.matmul(h, p2);
        let loss = g.cross_entropy(logits, &[0, 2, 1, 3], &[1.0, 0.5, 0.8, 0.2]);
        g.backward(loss);
        let g1 = g.grad(p1);
        let g2 = g.grad(p2);
        for idx in [0usize, 3, 7, 14] {
            let fd = finite_diff(&w1, idx, |w| loss_through_net(w, &w2));
            assert!(
                (g1.data[idx] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "w1[{idx}]: analytic {} vs fd {fd}",
                g1.data[idx]
            );
        }
        for idx in [0usize, 5, 11, 19] {
            let fd = finite_diff(&w2, idx, |w| loss_through_net(&w1, w));
            assert!(
                (g2.data[idx] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "w2[{idx}]: analytic {} vs fd {fd}",
                g2.data[idx]
            );
        }
    }

    #[test]
    fn attention_path_gradcheck() {
        // softmax(Q Kᵀ) V with causal mask, loss = weighted CE
        let wq = seeded(3, 3, 21);
        let run = |wq: &Matrix| -> (f32, Matrix) {
            let mut g = Graph::new();
            let x = g.constant(seeded(4, 3, 22));
            let pq = g.param(wq.clone());
            let q = g.matmul(x, pq);
            let scores = g.matmul_nt(q, x);
            let scaled = g.scale(scores, 0.5773);
            let attn = g.softmax(scaled, true);
            let ctx = g.matmul(attn, x);
            let loss = g.cross_entropy(ctx, &[0, 1, 2, 0], &[1.0, 1.0, 1.0, 1.0]);
            g.backward(loss);
            (g.value(loss).data[0], g.grad(pq))
        };
        let (_, analytic) = run(&wq);
        for idx in [0usize, 4, 8] {
            let fd = finite_diff(&wq, idx, |w| run(w).0);
            assert!(
                (analytic.data[idx] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "wq[{idx}]: analytic {} vs fd {fd}",
                analytic.data[idx]
            );
        }
    }

    #[test]
    fn gather_grad_scatters() {
        let table = seeded(5, 2, 31);
        let run = |t: &Matrix| -> (f32, Matrix) {
            let mut g = Graph::new();
            let pt = g.param(t.clone());
            let got = g.gather(pt, &[1, 3, 1]);
            let loss = g.cross_entropy(got, &[0, 1, 0], &[1.0, 1.0, 1.0]);
            g.backward(loss);
            (g.value(loss).data[0], g.grad(pt))
        };
        let (_, analytic) = run(&table);
        for idx in [2usize, 3, 6, 7] {
            let fd = finite_diff(&table, idx, |t| run(t).0);
            assert!((analytic.data[idx] - fd).abs() < 2e-2 * (1.0 + fd.abs()), "table[{idx}]");
        }
        // rows never gathered get zero grad
        assert_eq!(analytic.data[0], 0.0);
        assert_eq!(analytic.data[8], 0.0);
    }

    #[test]
    fn slice_concat_roundtrip_grads() {
        let w = seeded(2, 6, 41);
        let run = |w: &Matrix| -> (f32, Matrix) {
            let mut g = Graph::new();
            let pw = g.param(w.clone());
            let l = g.slice_cols(pw, 0, 3);
            let r = g.slice_cols(pw, 3, 3);
            let back = g.concat_cols(&[l, r]);
            let loss = g.cross_entropy(back, &[0, 5], &[1.0, 2.0]);
            g.backward(loss);
            (g.value(loss).data[0], g.grad(pw))
        };
        let (_, analytic) = run(&w);
        for idx in [0usize, 4, 9, 11] {
            let fd = finite_diff(&w, idx, |w| run(w).0);
            assert!((analytic.data[idx] - fd).abs() < 2e-2 * (1.0 + fd.abs()), "w[{idx}]");
        }
    }

    #[test]
    fn slice_rows_takes_prefix_and_scatters_grad() {
        let w = seeded(4, 3, 43);
        let run = |w: &Matrix| -> (f32, Matrix, Matrix) {
            let mut g = Graph::new();
            let pw = g.param(w.clone());
            let top = g.slice_rows(pw, 2);
            let loss = g.cross_entropy(top, &[0, 2], &[1.0, 1.0]);
            g.backward(loss);
            (g.value(loss).data[0], g.value(top).clone(), g.grad(pw))
        };
        let (_, top, analytic) = run(&w);
        assert_eq!(top.data, w.data[..6].to_vec(), "forward is the row prefix");
        for idx in [0usize, 2, 5] {
            let fd = finite_diff(&w, idx, |w| run(w).0);
            assert!((analytic.data[idx] - fd).abs() < 2e-2 * (1.0 + fd.abs()), "w[{idx}]");
        }
        // rows beyond the slice receive zero grad
        assert!(analytic.data[6..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn slice_rows_full_height_is_identity() {
        let mut g = Graph::new();
        let a = g.constant(seeded(3, 2, 44));
        let s = g.slice_rows(a, 3);
        assert_eq!(s, a);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_causal_masks() {
        let mut g = Graph::new();
        let a = g.constant(seeded(4, 4, 51));
        let s = g.softmax(a, true);
        let v = g.value(s);
        for r in 0..4 {
            let sum: f32 = (0..4).map(|c| v.at(r, c)).sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
            for c in (r + 1)..4 {
                assert_eq!(v.at(r, c), 0.0, "causal mask leak at [{r},{c}]");
            }
        }
    }

    #[test]
    fn weighted_ce_all_ones_equals_unweighted() {
        let logits = seeded(3, 4, 61);
        let mut g1 = Graph::new();
        let l1 = g1.constant(logits.clone());
        let c1 = g1.cross_entropy(l1, &[1, 2, 0], &[1.0, 1.0, 1.0]);
        let mut g2 = Graph::new();
        let l2 = g2.constant(logits);
        let c2 = g2.cross_entropy(l2, &[1, 2, 0], &[2.0, 2.0, 2.0]);
        // weights normalise out: scaling all weights equally changes nothing
        assert!((g1.value(c1).data[0] - g2.value(c2).data[0]).abs() < 1e-6);
    }

    #[test]
    fn weighted_ce_downweights_rows() {
        // Row 1 has a terrible prediction; downweighting it must reduce loss.
        let logits = Matrix::new(2, 2, vec![5.0, 0.0, 5.0, 0.0]);
        let mut g1 = Graph::new();
        let l1 = g1.constant(logits.clone());
        let full = g1.cross_entropy(l1, &[0, 1], &[1.0, 1.0]);
        let mut g2 = Graph::new();
        let l2 = g2.constant(logits);
        let down = g2.cross_entropy(l2, &[0, 1], &[1.0, 0.1]);
        assert!(g2.value(down).data[0] < g1.value(full).data[0]);
    }

    #[test]
    #[should_panic(expected = "all-zero loss weights")]
    fn zero_weights_panic() {
        let mut g = Graph::new();
        let l = g.constant(Matrix::zeros(1, 2));
        let _ = g.cross_entropy(l, &[0], &[0.0]);
    }

    #[test]
    fn layernorm_rows_are_standardised() {
        let mut g = Graph::new();
        let a = g.constant(seeded(3, 8, 71));
        let n = g.layernorm(a);
        let v = g.value(n);
        for r in 0..3 {
            let row: Vec<f32> = (0..8).map(|c| v.at(r, c)).collect();
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn constants_receive_no_grad() {
        let mut g = Graph::new();
        let c = g.constant(seeded(2, 2, 81));
        let p = g.param(seeded(2, 2, 82));
        let s = g.add(c, p);
        let loss = g.cross_entropy(s, &[0, 1], &[1.0, 1.0]);
        g.backward(loss);
        assert!(g.grad(c).data.iter().all(|&x| x == 0.0));
        assert!(g.grad(p).data.iter().any(|&x| x != 0.0));
    }

    #[test]
    #[should_panic(expected = "matrix shape mismatch")]
    fn bad_shape_panics() {
        let _ = Matrix::new(2, 2, vec![1.0; 3]);
    }

    // ---- exact-kernel vs naive-oracle equivalence ----
    //
    // The ranges reach the training shapes: m up to 64 covers every
    // row-tile tail, k up to 600 the vocab-wide contraction, and n up to
    // 600 the logits width and every column-tile tail.

    /// Like [`seeded`] but with ~3/4 of the entries forced to exact zero,
    /// so the naive kernel's zero-skip path is exercised.
    fn seeded_zero_heavy(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = seeded(rows, cols, seed);
        let mut x = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        for v in m.data.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 3 != 0 {
                *v = 0.0;
            }
        }
        m
    }

    /// Like [`seeded_zero_heavy`] with about half of the zeros negated,
    /// so `±0.0` products reach the accumulators.
    fn seeded_signed_zeros(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = seeded_zero_heavy(rows, cols, seed);
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for v in m.data.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if *v == 0.0 && x & 1 == 1 {
                *v = -0.0;
            }
        }
        m
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Forward matmul: the exact tiled kernel and the naive oracle
        /// agree bit-for-bit (same per-element accumulation order).
        #[test]
        fn blocked_matmul_is_bit_identical_to_reference(
            m in 1usize..65, k in 1usize..601, n in 1usize..601,
            seed in 0u64..1_000,
        ) {
            let a = seeded(m, k, seed);
            let b = seeded(k, n, seed ^ 0xABCD);
            let mut fast = Matrix::zeros(m, n);
            let mut naive = Matrix::zeros(m, n);
            kernels::matmul_into(&a, &b, &mut fast);
            oracle::matmul_reference(&a, &b, &mut naive);
            prop_assert_eq!(bits(&fast), bits(&naive));
        }

        /// `A · Bᵀ` (attention scores / dA of matmul) in the `Blocked`
        /// family: bit-identical.
        #[test]
        fn blocked_matmul_nt_is_bit_identical_to_reference(
            m in 1usize..65, k in 1usize..601, n in 1usize..601,
            seed in 0u64..1_000,
        ) {
            let a = seeded(m, k, seed);
            let b = seeded(n, k, seed ^ 0x1234);
            let mut fast = Matrix::zeros(m, n);
            let mut naive = Matrix::zeros(m, n);
            kernels::matmul_nt_into(KernelMode::Blocked, &a, &b, &mut fast);
            oracle::matmul_nt_reference(&a, &b, &mut naive);
            prop_assert_eq!(bits(&fast), bits(&naive));
        }

        /// `Aᵀ · C` (dB of both matmuls): bit-identical.
        #[test]
        fn blocked_matmul_tn_is_bit_identical_to_reference(
            r in 1usize..601, m in 1usize..65, n in 1usize..601,
            seed in 0u64..1_000,
        ) {
            let a = seeded(r, m, seed);
            let c = seeded(r, n, seed ^ 0x7777);
            let mut fast = Matrix::zeros(m, n);
            let mut naive = Matrix::zeros(m, n);
            kernels::matmul_tn_into(&a, &c, &mut fast);
            oracle::matmul_tn_reference(&a, &c, &mut naive);
            prop_assert_eq!(bits(&fast), bits(&naive));
        }

        /// Zero-heavy operands (where the naive forward kernel takes its
        /// skip path) still agree bit-for-bit.
        #[test]
        fn zero_heavy_matmul_is_bit_identical(
            m in 1usize..65, k in 1usize..601, n in 1usize..601,
            seed in 0u64..1_000,
        ) {
            let a = seeded_zero_heavy(m, k, seed ^ 0x5EED);
            let b = seeded(k, n, seed);
            let mut fast = Matrix::zeros(m, n);
            let mut naive = Matrix::zeros(m, n);
            kernels::matmul_into(&a, &b, &mut fast);
            oracle::matmul_reference(&a, &b, &mut naive);
            prop_assert_eq!(bits(&fast), bits(&naive));
        }

        // ---- the forward and tn kernels every family shares ----

        /// `Simd` runs the same exact forward matmul as `Blocked`. Signed
        /// zeros in both operands pin that the kernel's `+0.0` start and
        /// unskipped `±0.0` products give the oracle's bits.
        #[test]
        fn simd_matmul_is_bit_identical_to_blocked(
            m in 1usize..65, k in 1usize..601, n in 1usize..601,
            seed in 0u64..1_000,
        ) {
            let a = seeded_signed_zeros(m, k, seed);
            let b = seeded_signed_zeros(k, n, seed ^ 0xABCD);
            let mut fast = Matrix::zeros(m, n);
            let mut naive = Matrix::zeros(m, n);
            kernels::matmul_into(&a, &b, &mut fast);
            oracle::matmul_reference(&a, &b, &mut naive);
            prop_assert_eq!(bits(&fast), bits(&naive));
        }

        /// `Simd` runs the same exact `aᵀ · c` as `Blocked`; pinned with
        /// signed-zero operands.
        #[test]
        fn simd_matmul_tn_is_bit_identical_to_blocked(
            r in 1usize..601, m in 1usize..65, n in 1usize..601,
            seed in 0u64..1_000,
        ) {
            let a = seeded_signed_zeros(r, m, seed);
            let c = seeded_signed_zeros(r, n, seed ^ 0x7777);
            let mut fast = Matrix::zeros(m, n);
            let mut naive = Matrix::zeros(m, n);
            kernels::matmul_tn_into(&a, &c, &mut fast);
            oracle::matmul_tn_reference(&a, &c, &mut naive);
            prop_assert_eq!(bits(&fast), bits(&naive));
        }

        /// Simd `a · bᵀ` lane-splits its accumulators (the documented
        /// exactness trade): deterministic (two runs bit-identical) and
        /// numerically tight against the exact `Blocked` kernel.
        #[test]
        fn simd_matmul_nt_is_deterministic_and_close_to_blocked(
            m in 1usize..9, k in 1usize..70, n in 1usize..40,
            seed in 0u64..1_000,
        ) {
            let a = seeded(m, k, seed);
            let b = seeded(n, k, seed ^ 0x1234);
            let mut simd = Matrix::zeros(m, n);
            let mut again = Matrix::zeros(m, n);
            let mut blocked = Matrix::zeros(m, n);
            kernels::matmul_nt_into(KernelMode::Simd, &a, &b, &mut simd);
            kernels::matmul_nt_into(KernelMode::Simd, &a, &b, &mut again);
            kernels::matmul_nt_into(KernelMode::Blocked, &a, &b, &mut blocked);
            prop_assert_eq!(bits(&simd), bits(&again));
            for (s, r) in simd.data.iter().zip(&blocked.data) {
                prop_assert!((s - r).abs() <= 1e-4 * (1.0 + r.abs()), "{s} vs {r}");
            }
        }

        /// A Simd matmul→gelu→matmul→CE chain is exactly reproducible
        /// (same bits on every run) and tight against Blocked. It is *not*
        /// bit-identical: the lane-sweep families evaluate gelu's tanh and
        /// the cross-entropy softmax with the vectorizable polynomial
        /// [`kernels::exp_approx`], the documented ≈2-ulp Simd trade. The
        /// order-preserving matmul/tn kernels themselves stay pinned
        /// bit-identical by the dedicated tests above.
        #[test]
        fn simd_graph_is_deterministic_and_close_to_blocked(
            rows in 2usize..6, d in 2usize..10, v in 2usize..30,
            seed in 0u64..1_000,
        ) {
            let x = seeded(rows, d, seed);
            let w1 = seeded(d, d, seed ^ 3);
            let w2 = seeded(d, v, seed ^ 4);
            let run = |mode: KernelMode| {
                let mut g = Graph::with_kernels(mode);
                let xi = g.constant(x.clone());
                let p1 = g.param(w1.clone());
                let p2 = g.param(w2.clone());
                let h = g.matmul(xi, p1);
                let h = g.gelu(h);
                let logits = g.matmul(h, p2);
                let targets: Vec<usize> = (0..rows).map(|i| i % v).collect();
                let loss = g.cross_entropy(logits, &targets, &vec![1.0f32; rows]);
                g.backward(loss);
                (g.value(logits).clone(), g.value(loss).data[0], g.grad(p2).clone())
            };
            let (s_logits, s_loss, s_grad) = run(KernelMode::Simd);
            let (s_logits2, s_loss2, s_grad2) = run(KernelMode::Simd);
            prop_assert_eq!(
                s_logits.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                s_logits2.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            prop_assert_eq!(s_loss.to_bits(), s_loss2.to_bits());
            prop_assert_eq!(
                s_grad.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                s_grad2.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            let (b_logits, b_loss, b_grad) = run(KernelMode::Blocked);
            for (s, b) in s_logits.data.iter().zip(&b_logits.data) {
                prop_assert!((s - b).abs() <= 1e-4 * (1.0 + b.abs()), "logits {s} vs {b}");
            }
            prop_assert!((s_loss - b_loss).abs() <= 1e-4 * (1.0 + b_loss.abs()));
            for (s, b) in s_grad.data.iter().zip(&b_grad.data) {
                prop_assert!((s - b).abs() <= 1e-4 * (1.0 + b.abs()), "grad {s} vs {b}");
            }
        }

        /// Lane-parallel softmax: deterministic, rows sum to 1, and tight
        /// against the shared online-normalizer softmax.
        #[test]
        fn lane_softmax_is_close_to_shared_softmax(
            n in 1usize..40, seed in 0u64..1_000,
        ) {
            let m = seeded(1, n, seed);
            let mut lanes = m.data.clone();
            let mut again = m.data.clone();
            let mut shared = m.data.clone();
            kernels::softmax_row_inplace_lanes(&mut lanes);
            kernels::softmax_row_inplace_lanes(&mut again);
            softmax_row_inplace(&mut shared);
            prop_assert_eq!(
                lanes.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                again.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            let sum: f32 = lanes.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5, "sums to {sum}");
            for (l, s) in lanes.iter().zip(&shared) {
                prop_assert!((l - s).abs() <= 1e-6 + 1e-5 * s.abs(), "{l} vs {s}");
            }
        }

        /// Lane-parallel layer-norm statistics: tight against the scalar
        /// sweep.
        #[test]
        fn lane_sum_sumsq_is_close_to_scalar(
            n in 1usize..70, seed in 0u64..1_000,
        ) {
            let m = seeded(1, n, seed);
            let (sum, sumsq) = kernels::lane_sum_sumsq(&m.data);
            let ssum: f32 = m.data.iter().sum();
            let ssumsq: f32 = m.data.iter().map(|x| x * x).sum();
            prop_assert!((sum - ssum).abs() <= 1e-4 * (1.0 + ssum.abs()));
            prop_assert!((sumsq - ssumsq).abs() <= 1e-4 * (1.0 + ssumsq.abs()));
        }
    }

    #[test]
    fn kernel_mode_parses_and_displays() {
        for mode in [KernelMode::Blocked, KernelMode::Simd, KernelMode::QuantizedInt8] {
            assert_eq!(mode.as_str().parse::<KernelMode>().unwrap(), mode);
            assert_eq!(format!("{mode}"), mode.as_str());
        }
        assert_eq!("quantized-int8".parse::<KernelMode>().unwrap(), KernelMode::QuantizedInt8);
        assert!("avx512".parse::<KernelMode>().is_err());
        assert!("reference".parse::<KernelMode>().is_err());
    }
}
