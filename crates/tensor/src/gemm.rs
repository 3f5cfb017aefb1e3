//! Register-tiled dense kernels over row-major `f32` slices.
//!
//! The three products a fully connected layer needs — `agg-nn`'s `Dense`
//! calls all three, [`crate::Matrix::matmul`] the first:
//!
//! * [`matmul_acc`] — `out += a · b`, skipping terms whose `a` factor is zero
//!   (the forward pass, with `out` preloaded with the bias);
//! * [`matmul_tn_acc`] — `out += aᵀ · b` (the weight gradient, accumulated
//!   into whatever `out` already holds);
//! * [`matmul_nt`] — `out = a · bᵀ` (the input gradient).
//!
//! Each kernel holds a small block of outputs in registers and runs the
//! summation index innermost, so an operand row is loaded once per tile
//! instead of once per output row. **The order in which terms are added into
//! any one output element is exactly that of the plain triple loop** (the
//! summation index ascending, one rounding per multiply and per add, no fused
//! multiply-add), so results are bit-identical to the scalar form — the
//! training trajectories the determinism suites pin do not move. Rows left
//! over after the last full tile run as one-row tiles (the operand block is in
//! L1 by then), and every kernel is a no-op on an empty operand.
//!
//! The at most fifteen columns left over after the last full column tile of
//! [`matmul_acc`] and [`matmul_tn_acc`] run through the same tiles. The tiles
//! read a zero-padded copy of that edge of `b` (built on the stack, 64 rows at
//! a time, so a call allocates nothing), load and store only the real output
//! columns, and compute the padding lanes as scratch that is never stored.
//! Each real element still sees its terms in the same order, behind the same
//! zero-factor skip, with the same roundings.
//!
//! # Vector width
//!
//! Tiles are plain loops over fixed-size arrays — no intrinsics — that the
//! autovectoriser lowers to whatever width the enclosing function is compiled
//! for. Each kernel's tile loops are one `#[inline(always)]` function
//! (`matmul_acc_tiles`, `matmul_tn_acc_tiles`, `matmul_nt_tiles`) with two
//! instantiations: the baseline one (128-bit SSE2 on x86-64, the only one on
//! other targets) and, on x86-64, a `#[target_feature(enable = "avx2")]`
//! wrapper of the same body, which the public entry calls when
//! `is_x86_feature_detected!("avx2")` says the CPU has it. A vector lane is a
//! different *output element* (or, in `matmul_nt`, a different sample), never
//! a different term of one sum; Rust never lets the compiler reassociate a
//! float sum or contract a multiply and an add, and `fma` is not in the
//! feature list. So both instantiations add the same terms in the same order
//! with the same roundings, and the
//! `*_equals_the_scalar_loop_on_every_edge_shape` tests hold each of them to
//! the scalar loop bit for bit.
//!
//! The three dispatch calls are this module's only `unsafe` (the crate's one
//! other is the same call in `batch.rs`, for the order-statistic tiles); the
//! edge columns run inside the dispatched tiles and add none. Calling a
//! `#[target_feature]` function is undefined behaviour on a CPU without the
//! feature; each call sits directly under the runtime check for the one
//! feature its callee enables, and the callees are private to this module.
//! What the `unsafe` buys is measured: at `paper19`'s 25×256×384 layer the
//! weight-gradient kernel runs 2.4× faster and the whole per-worker gradient
//! 1.4× (`cargo bench -p agg-bench --bench nn_kernels`, groups `gemm_dispatch`
//! and `nn_engine_gradient`).

/// Output rows held by one register tile.
const TILE_ROWS: usize = 4;
/// Output columns held by one register tile (four 128-bit vectors, or two
/// 256-bit ones).
const TILE_COLS: usize = 16;
/// Rows of `a` that [`matmul_nt`] carries side by side (one 128-bit vector).
const LANES: usize = 4;
/// Rows of the zero-padded edge operand built at a time, on the stack (4 KiB).
const EDGE_ROWS: usize = 64;

/// A `TILE_COLS`-wide column panel of a row-major operand, standing for
/// summation indices `first..first + len`: the row for index `first + p` is
/// `data[p * stride + col..][..TILE_COLS]`.
#[derive(Clone, Copy)]
struct Panel<'a> {
    data: &'a [f32],
    stride: usize,
    col: usize,
    first: usize,
    len: usize,
}

impl Panel<'_> {
    #[inline(always)]
    fn row(&self, p: usize) -> &[f32; TILE_COLS] {
        self.data[p * self.stride + self.col..][..TILE_COLS]
            .try_into()
            .expect("slice has TILE_COLS elements")
    }
}

/// The output block a tile accumulates into: rows `i0..i0 + R` of the
/// row-major `[_, n]` output, columns `j0..j0 + cols` (`cols ≤ TILE_COLS`).
/// Only those columns are loaded and stored; the tile's other lanes are
/// scratch.
#[derive(Clone, Copy)]
struct Block {
    n: usize,
    i0: usize,
    j0: usize,
    cols: usize,
}

impl Block {
    #[inline(always)]
    fn load<const R: usize>(&self, out: &[f32]) -> [[f32; TILE_COLS]; R] {
        let mut acc = [[0.0f32; TILE_COLS]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            row[..self.cols].copy_from_slice(&out[(self.i0 + r) * self.n + self.j0..][..self.cols]);
        }
        acc
    }

    #[inline(always)]
    fn store<const R: usize>(&self, acc: &[[f32; TILE_COLS]; R], out: &mut [f32]) {
        for (r, row) in acc.iter().enumerate() {
            out[(self.i0 + r) * self.n + self.j0..][..self.cols].copy_from_slice(&row[..self.cols]);
        }
    }
}

/// Copies columns `col..col + cols` (`cols < TILE_COLS`) of rows
/// `p0..p0 + pad.len()` of the row-major `[_, stride]` operand `src` into
/// `pad`, zero past `cols` in every row: the edge operand the tiles read in
/// place of the ragged last column panel.
#[inline(always)]
fn pad_edge(
    src: &[f32],
    stride: usize,
    col: usize,
    cols: usize,
    p0: usize,
    pad: &mut [[f32; TILE_COLS]],
) {
    for (p, row) in pad.iter_mut().enumerate() {
        let start = (p0 + p) * stride + col;
        match src.get(start..start + TILE_COLS) {
            // A fixed-width select rather than a `cols`-long copy, which
            // would be a `memcpy` call per row.
            Some(window) => {
                for c in 0..TILE_COLS {
                    row[c] = if c < cols { window[c] } else { 0.0 };
                }
            }
            None => {
                *row = [0.0; TILE_COLS];
                row[..cols].copy_from_slice(&src[start..start + cols]);
            }
        }
    }
}

/// `out[i][j] += Σ_p a[i][p] · b[p][j]` for `a: [m, k]`, `b: [k, n]`,
/// `out: [m, n]`, with `p` ascending and every term whose `a[i][p] == 0.0`
/// skipped (so a zero activation never meets an infinite weight).
///
/// # Panics
///
/// Panics when a slice length disagrees with the given dimensions.
pub fn matmul_acc(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_acc: a is not [m, k]");
    assert_eq!(b.len(), k * n, "matmul_acc: b is not [k, n]");
    assert_eq!(out.len(), m * n, "matmul_acc: out is not [m, n]");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: avx2, the one feature `matmul_acc_tiles_avx2` enables, was
        // just detected on the running CPU.
        return unsafe { matmul_acc_tiles_avx2(a, b, out, m, k, n) };
    }
    matmul_acc_tiles(a, b, out, m, k, n)
}

/// [`matmul_acc_tiles`] compiled for 256-bit vectors.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_acc_tiles_avx2(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    matmul_acc_tiles(a, b, out, m, k, n)
}

/// All of [`matmul_acc`] after its shape checks, at the vector width of
/// whichever function it is inlined into. The `n % TILE_COLS` edge columns
/// run the same tiles over a zero-padded copy of `b`'s edge, `EDGE_ROWS`
/// rows of it at a time.
#[inline(always)]
fn matmul_acc_tiles(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let n_tiled = n - n % TILE_COLS;
    for j0 in (0..n_tiled).step_by(TILE_COLS) {
        let panel = Panel { data: b, stride: n, col: j0, first: 0, len: k };
        matmul_acc_panel(a, panel, out, m, k, Block { n, i0: 0, j0, cols: TILE_COLS });
    }
    let cols = n - n_tiled;
    if cols > 0 {
        let mut pad = [[0.0f32; TILE_COLS]; EDGE_ROWS];
        for first in (0..k).step_by(EDGE_ROWS) {
            let len = EDGE_ROWS.min(k - first);
            pad_edge(b, n, n_tiled, cols, first, &mut pad[..len]);
            let panel = Panel { data: pad.as_flattened(), stride: TILE_COLS, col: 0, first, len };
            matmul_acc_panel(a, panel, out, m, k, Block { n, i0: 0, j0: n_tiled, cols });
        }
    }
}

/// Every row tile of [`matmul_acc`] over one column panel, for the output
/// columns of `block` (whose `i0` is ignored).
#[inline(always)]
fn matmul_acc_panel(a: &[f32], panel: Panel, out: &mut [f32], m: usize, k: usize, block: Block) {
    let m_tiled = m - m % TILE_ROWS;
    for i0 in (0..m_tiled).step_by(TILE_ROWS) {
        matmul_acc_tile::<TILE_ROWS>(a, panel, out, k, Block { i0, ..block });
    }
    for i0 in m_tiled..m {
        matmul_acc_tile::<1>(a, panel, out, k, Block { i0, ..block });
    }
}

/// One `R × TILE_COLS` block of [`matmul_acc`], over the panel's terms.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `p` walks the panel and the `a` rows together
fn matmul_acc_tile<const R: usize>(
    a: &[f32],
    panel: Panel,
    out: &mut [f32],
    k: usize,
    block: Block,
) {
    let mut acc = block.load::<R>(out);
    let a_rows: [&[f32]; R] =
        std::array::from_fn(|r| &a[(block.i0 + r) * k + panel.first..][..panel.len]);
    for p in 0..panel.len {
        let b_row = panel.row(p);
        for r in 0..R {
            let av = a_rows[r][p];
            if av != 0.0 {
                for c in 0..TILE_COLS {
                    acc[r][c] += av * b_row[c];
                }
            }
        }
    }
    block.store(&acc, out);
}

/// `out[i][j] += Σ_s a[s][i] · b[s][j]` for `a: [batch, m]`, `b: [batch, n]`,
/// `out: [m, n]`, with `s` ascending and no term skipped. The sum starts from
/// the value `out` already holds, so repeated calls accumulate.
///
/// # Panics
///
/// Panics when a slice length disagrees with the given dimensions.
pub fn matmul_tn_acc(a: &[f32], b: &[f32], out: &mut [f32], batch: usize, m: usize, n: usize) {
    assert_eq!(a.len(), batch * m, "matmul_tn_acc: a is not [batch, m]");
    assert_eq!(b.len(), batch * n, "matmul_tn_acc: b is not [batch, n]");
    assert_eq!(out.len(), m * n, "matmul_tn_acc: out is not [m, n]");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: avx2, the one feature `matmul_tn_acc_tiles_avx2` enables,
        // was just detected on the running CPU.
        return unsafe { matmul_tn_acc_tiles_avx2(a, b, out, batch, m, n) };
    }
    matmul_tn_acc_tiles(a, b, out, batch, m, n)
}

/// [`matmul_tn_acc_tiles`] compiled for 256-bit vectors.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_tn_acc_tiles_avx2(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    batch: usize,
    m: usize,
    n: usize,
) {
    matmul_tn_acc_tiles(a, b, out, batch, m, n)
}

/// All of [`matmul_tn_acc`] after its shape checks, at the vector width of
/// whichever function it is inlined into. The `n % TILE_COLS` edge columns
/// run the same tiles over a zero-padded copy of `b`'s edge, `EDGE_ROWS`
/// samples of it at a time.
#[inline(always)]
fn matmul_tn_acc_tiles(a: &[f32], b: &[f32], out: &mut [f32], batch: usize, m: usize, n: usize) {
    let n_tiled = n - n % TILE_COLS;
    for j0 in (0..n_tiled).step_by(TILE_COLS) {
        let panel = Panel { data: b, stride: n, col: j0, first: 0, len: batch };
        matmul_tn_acc_panel(a, panel, out, m, Block { n, i0: 0, j0, cols: TILE_COLS });
    }
    let cols = n - n_tiled;
    if cols > 0 {
        let mut pad = [[0.0f32; TILE_COLS]; EDGE_ROWS];
        for first in (0..batch).step_by(EDGE_ROWS) {
            let len = EDGE_ROWS.min(batch - first);
            pad_edge(b, n, n_tiled, cols, first, &mut pad[..len]);
            let panel = Panel { data: pad.as_flattened(), stride: TILE_COLS, col: 0, first, len };
            matmul_tn_acc_panel(a, panel, out, m, Block { n, i0: 0, j0: n_tiled, cols });
        }
    }
}

/// Every row tile of [`matmul_tn_acc`] over one column panel, for the output
/// columns of `block` (whose `i0` is ignored).
#[inline(always)]
fn matmul_tn_acc_panel(a: &[f32], panel: Panel, out: &mut [f32], m: usize, block: Block) {
    let m_tiled = m - m % TILE_ROWS;
    for i0 in (0..m_tiled).step_by(TILE_ROWS) {
        matmul_tn_acc_tile::<TILE_ROWS>(a, panel, out, m, Block { i0, ..block });
    }
    for i0 in m_tiled..m {
        matmul_tn_acc_tile::<1>(a, panel, out, m, Block { i0, ..block });
    }
}

/// One `R × TILE_COLS` block of [`matmul_tn_acc`], over the panel's samples.
#[inline(always)]
fn matmul_tn_acc_tile<const R: usize>(
    a: &[f32],
    panel: Panel,
    out: &mut [f32],
    m: usize,
    block: Block,
) {
    let mut acc = block.load::<R>(out);
    for s in 0..panel.len {
        let a_vals: &[f32; R] =
            a[(panel.first + s) * m + block.i0..][..R].try_into().expect("slice has R elements");
        let b_row = panel.row(s);
        for r in 0..R {
            for c in 0..TILE_COLS {
                acc[r][c] += a_vals[r] * b_row[c];
            }
        }
    }
    block.store(&acc, out);
}

/// `out[s][i] = Σ_j b[i][j] · a[s][j]` for `a: [batch, n]`, `b: [m, n]`,
/// `out: [batch, m]`, each sum starting at `0.0` with `j` ascending.
///
/// The per-element chain over `j` stays sequential; what runs in parallel is
/// `LANES` rows of `a` at a time, read from a transposed, zero-padded copy
/// of `a` that is built in `scratch`. `scratch` is the caller's so that a
/// layer reuses one buffer across calls; its contents on entry are ignored.
///
/// # Panics
///
/// Panics when a slice length disagrees with the given dimensions.
pub fn matmul_nt(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    scratch: &mut Vec<f32>,
    batch: usize,
    m: usize,
    n: usize,
) {
    assert_eq!(a.len(), batch * n, "matmul_nt: a is not [batch, n]");
    assert_eq!(b.len(), m * n, "matmul_nt: b is not [m, n]");
    assert_eq!(out.len(), batch * m, "matmul_nt: out is not [batch, m]");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: avx2, the one feature `matmul_nt_tiles_avx2` enables, was
        // just detected on the running CPU.
        return unsafe { matmul_nt_tiles_avx2(a, b, out, scratch, batch, m, n) };
    }
    matmul_nt_tiles(a, b, out, scratch, batch, m, n)
}

/// [`matmul_nt_tiles`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_nt_tiles_avx2(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    scratch: &mut Vec<f32>,
    batch: usize,
    m: usize,
    n: usize,
) {
    matmul_nt_tiles(a, b, out, scratch, batch, m, n)
}

/// All of [`matmul_nt`] after its shape checks (its lanes run over samples, so it has no column edge), at
/// the vector width of whichever function it is inlined into.
#[inline(always)]
fn matmul_nt_tiles(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    scratch: &mut Vec<f32>,
    batch: usize,
    m: usize,
    n: usize,
) {
    let groups = batch.div_ceil(LANES);
    // scratch[(g * n + j) * LANES + l] = a[g * LANES + l][j], zero past `batch`.
    scratch.clear();
    scratch.resize(groups * n * LANES, 0.0);
    for s in 0..batch {
        let (g, l) = (s / LANES, s % LANES);
        for (j, &av) in a[s * n..(s + 1) * n].iter().enumerate() {
            scratch[(g * n + j) * LANES + l] = av;
        }
    }
    let m_tiled = m - m % TILE_ROWS;
    for g in 0..groups {
        let a_t = &scratch[g * n * LANES..(g + 1) * n * LANES];
        let s0 = g * LANES;
        let live = LANES.min(batch - s0);
        for i0 in (0..m_tiled).step_by(TILE_ROWS) {
            matmul_nt_tile::<TILE_ROWS>(a_t, b, out, m, n, s0, live, i0);
        }
        for i in m_tiled..m {
            matmul_nt_tile::<1>(a_t, b, out, m, n, s0, live, i);
        }
    }
}

/// `R` rows of `b` against one lane group of [`matmul_nt`]: `a_t` is the
/// group's `[n, LANES]` transposed block, `live` how many of its lanes are
/// real rows of `a` (the rest are padding and are not stored).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn matmul_nt_tile<const R: usize>(
    a_t: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    s0: usize,
    live: usize,
    i0: usize,
) {
    let mut acc = [[0.0f32; LANES]; R];
    let b_rows: [&[f32]; R] = std::array::from_fn(|r| &b[(i0 + r) * n..][..n]);
    for (j, a_col) in a_t.chunks_exact(LANES).enumerate() {
        for r in 0..R {
            let bv = b_rows[r][j];
            for l in 0..LANES {
                acc[r][l] += bv * a_col[l];
            }
        }
    }
    for l in 0..live {
        for r in 0..R {
            out[(s0 + l) * m + i0 + r] = acc[r][l];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain triple loops the kernels must equal bit for bit.
    mod scalar {
        pub fn matmul_acc(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
            for i in 0..m {
                for p in 0..k {
                    let av = a[i * k + p];
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        out[i * n + j] += av * b[p * n + j];
                    }
                }
            }
        }

        pub fn matmul_tn_acc(
            a: &[f32],
            b: &[f32],
            out: &mut [f32],
            batch: usize,
            m: usize,
            n: usize,
        ) {
            for s in 0..batch {
                for i in 0..m {
                    for j in 0..n {
                        out[i * n + j] += a[s * m + i] * b[s * n + j];
                    }
                }
            }
        }

        pub fn matmul_nt(a: &[f32], b: &[f32], out: &mut [f32], batch: usize, m: usize, n: usize) {
            for s in 0..batch {
                for i in 0..m {
                    let mut acc = 0.0;
                    for j in 0..n {
                        acc += b[i * n + j] * a[s * n + j];
                    }
                    out[s * m + i] = acc;
                }
            }
        }
    }

    /// Deterministic operands salted with the values that expose a changed
    /// order or a lost skip: exact zeros of both signs, infinities and NaN.
    fn operand(len: usize, seed: u32, specials: bool) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let pick = state >> 28;
                let value = (state >> 8) as f32 / (1u32 << 23) as f32 - 1.0;
                match pick {
                    0 | 1 => 0.0,
                    2 => -0.0,
                    3 if specials => f32::INFINITY,
                    4 if specials => f32::NEG_INFINITY,
                    5 if specials => f32::NAN,
                    6 => value * 1e30,
                    7 => value * 1e-30,
                    _ => value,
                }
            })
            .collect()
    }

    /// Bit equality, except that any NaN equals any NaN: which payload an
    /// operation on two NaNs returns is not something Rust pins down.
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (idx, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {idx} is {g:e} ({:#x}), scalar form gives {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// 70 runs `matmul_tn_acc`'s edge over two `EDGE_ROWS` chunks of samples.
    const ROWS: [usize; 9] = [0, 1, 2, 3, 4, 5, 9, 25, 70];
    const INNER: [usize; 5] = [0, 1, 3, 7, 33];
    const COLS: [usize; 8] = [0, 1, 10, 15, 16, 17, 33, 48];
    /// The layer shapes the repo benchmark's workloads run (batch, in, out).
    const ENGINE: [(usize, usize, usize); 7] = [
        (25, 256, 384),
        (25, 384, 10),
        (2, 256, 384),
        (2, 384, 10),
        (1, 384, 10),
        (8, 32, 96),
        (8, 96, 10),
    ];

    /// Every edge shape (first dimension from `ROWS`, second from `INNER`,
    /// third from `COLS`), then the engine's.
    fn shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for &r in &ROWS {
            for &i in &INNER {
                shapes.extend(COLS.iter().map(|&c| (r, i, c)));
            }
        }
        shapes.extend(ENGINE);
        shapes
    }

    /// The output's starting values for a case: ordinary operands, or every
    /// element `-0.0` (which a term must turn into `+0.0`, and which must
    /// survive where every term is skipped).
    fn start(len: usize, seed: u32, case: usize) -> Vec<f32> {
        if case < 2 {
            operand(len, seed ^ 0x9e37, false)
        } else {
            vec![-0.0; len]
        }
    }

    // Each sweep runs a shape twice: through the public entry, which on a CPU
    // with AVX2 executes the 256-bit instantiation of the tiles, and through
    // the tiles called directly from this (baseline-compiled) function. Both
    // must equal the scalar loop, so the two instantiations equal each other;
    // without AVX2 the comparison degenerates to baseline against baseline.

    #[test]
    fn matmul_acc_equals_the_scalar_loop_on_every_edge_shape() {
        for (case, specials) in [false, true, true].into_iter().enumerate() {
            for (m, k, n) in shapes() {
                let seed = (case + 3 * (m + 31 * (k + 37 * n))) as u32;
                let a = operand(m * k, seed, specials);
                let b = operand(k * n, seed ^ 0x5bd1, specials);
                let start = start(m * n, seed, case);
                let (mut got, mut base, mut want) = (start.clone(), start.clone(), start);
                matmul_acc(&a, &b, &mut got, m, k, n);
                matmul_acc_tiles(&a, &b, &mut base, m, k, n);
                scalar::matmul_acc(&a, &b, &mut want, m, k, n);
                assert_same_bits(&got, &want, &format!("matmul_acc {m}x{k}x{n} case {case}"));
                assert_same_bits(
                    &base,
                    &want,
                    &format!("matmul_acc_tiles {m}x{k}x{n} case {case}"),
                );
            }
        }
    }

    #[test]
    fn matmul_tn_acc_equals_the_scalar_loop_on_every_edge_shape() {
        for (case, specials) in [false, true, true].into_iter().enumerate() {
            for (batch, m, n) in shapes() {
                let seed = (case + 3 * (batch + 31 * (m + 37 * n))) as u32;
                let a = operand(batch * m, seed, specials);
                let b = operand(batch * n, seed ^ 0x5bd1, specials);
                let start = start(m * n, seed, case);
                let (mut got, mut base, mut want) = (start.clone(), start.clone(), start);
                // Twice: the second call starts from a non-trivial sum.
                for _ in 0..2 {
                    matmul_tn_acc(&a, &b, &mut got, batch, m, n);
                    matmul_tn_acc_tiles(&a, &b, &mut base, batch, m, n);
                    scalar::matmul_tn_acc(&a, &b, &mut want, batch, m, n);
                }
                let what = format!("{batch}x{m}x{n} case {case}");
                assert_same_bits(&got, &want, &format!("matmul_tn_acc {what}"));
                assert_same_bits(&base, &want, &format!("matmul_tn_acc_tiles {what}"));
            }
        }
    }

    #[test]
    fn matmul_nt_equals_the_scalar_loop_on_every_edge_shape() {
        let mut scratch = Vec::new();
        for (case, specials) in [false, true].into_iter().enumerate() {
            for (batch, m, n) in shapes() {
                let seed = (case + 2 * (batch + 31 * (m + 37 * n))) as u32;
                let a = operand(batch * n, seed, specials);
                let b = operand(m * n, seed ^ 0x5bd1, specials);
                // Stale output and scratch must both be overwritten.
                let mut got = vec![f32::NAN; batch * m];
                let mut base = vec![f32::NAN; batch * m];
                let mut want = vec![0.0; batch * m];
                matmul_nt(&a, &b, &mut got, &mut scratch, batch, m, n);
                matmul_nt_tiles(&a, &b, &mut base, &mut scratch, batch, m, n);
                scalar::matmul_nt(&a, &b, &mut want, batch, m, n);
                assert_same_bits(&got, &want, &format!("matmul_nt {batch}x{m}x{n}"));
                assert_same_bits(&base, &want, &format!("matmul_nt_tiles {batch}x{m}x{n}"));
            }
        }
    }

    #[test]
    fn zero_factor_skips_the_term() {
        // 0 · ∞ would be NaN; the forward kernel must never form it, in a
        // full tile and on the zero-padded edge alike.
        for n in [TILE_COLS, 3] {
            let a = vec![0.0, -0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.0];
            let b = vec![f32::INFINITY; 2 * n];
            let mut out = vec![0.5; 4 * n];
            matmul_acc(&a, &b, &mut out, 4, 2, n);
            let want: Vec<f32> =
                [0.5, f32::INFINITY, f32::INFINITY, 0.5].iter().flat_map(|&v| vec![v; n]).collect();
            assert_eq!(out, want);
        }
    }

    #[test]
    #[should_panic(expected = "matmul_acc: b is not [k, n]")]
    fn mismatched_lengths_panic() {
        matmul_acc(&[0.0; 6], &[0.0; 5], &mut [0.0; 4], 2, 3, 2);
    }
}
