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
//! L1 by then), leftover columns run the same order in scalar form, and every
//! kernel is a no-op on an empty operand.
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
//! The at most fifteen leftover columns stay in the public entry at baseline
//! width: a 256-bit copy of a loop that short only pays its set-up (measured
//! 1.6–2× slower at the ten-column output layer).
//!
//! The three dispatch calls are this module's only `unsafe` (the crate's one
//! other is the same call in `batch.rs`, for the order-statistic tiles). Calling a
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
    let n_tiled = n - n % TILE_COLS;
    if n_tiled < n {
        for i in 0..m {
            let out_edge = &mut out[i * n + n_tiled..(i + 1) * n];
            for (p, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_edge = &b[p * n + n_tiled..(p + 1) * n];
                for (o, &bv) in out_edge.iter_mut().zip(b_edge) {
                    *o += av * bv;
                }
            }
        }
    }
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

/// The register-tiled columns of [`matmul_acc`] (`0..n − n % TILE_COLS`), at
/// the vector width of whichever function it is inlined into.
#[inline(always)]
fn matmul_acc_tiles(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let m_tiled = m - m % TILE_ROWS;
    for j0 in (0..n - n % TILE_COLS).step_by(TILE_COLS) {
        for i0 in (0..m_tiled).step_by(TILE_ROWS) {
            matmul_acc_tile::<TILE_ROWS>(a, b, out, k, n, i0, j0);
        }
        for i in m_tiled..m {
            matmul_acc_tile::<1>(a, b, out, k, n, i, j0);
        }
    }
}

/// One `R × TILE_COLS` block of [`matmul_acc`] at output offset `(i0, j0)`.
#[inline(always)]
fn matmul_acc_tile<const R: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    i0: usize,
    j0: usize,
) {
    let mut acc = [[0.0f32; TILE_COLS]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&out[(i0 + r) * n + j0..][..TILE_COLS]);
    }
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * k..][..k]);
    for p in 0..k {
        let b_row: &[f32; TILE_COLS] =
            b[p * n + j0..][..TILE_COLS].try_into().expect("slice has TILE_COLS elements");
        for r in 0..R {
            let av = a_rows[r][p];
            if av != 0.0 {
                for c in 0..TILE_COLS {
                    acc[r][c] += av * b_row[c];
                }
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[(i0 + r) * n + j0..][..TILE_COLS].copy_from_slice(row);
    }
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
    let n_tiled = n - n % TILE_COLS;
    if n_tiled < n {
        for s in 0..batch {
            let b_edge = &b[s * n + n_tiled..(s + 1) * n];
            for (i, &av) in a[s * m..(s + 1) * m].iter().enumerate() {
                let out_edge = &mut out[i * n + n_tiled..(i + 1) * n];
                for (o, &bv) in out_edge.iter_mut().zip(b_edge) {
                    *o += av * bv;
                }
            }
        }
    }
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

/// The register-tiled columns of [`matmul_tn_acc`] (`0..n − n % TILE_COLS`),
/// at the vector width of whichever function it is inlined into.
#[inline(always)]
fn matmul_tn_acc_tiles(a: &[f32], b: &[f32], out: &mut [f32], batch: usize, m: usize, n: usize) {
    let m_tiled = m - m % TILE_ROWS;
    for j0 in (0..n - n % TILE_COLS).step_by(TILE_COLS) {
        for i0 in (0..m_tiled).step_by(TILE_ROWS) {
            matmul_tn_acc_tile::<TILE_ROWS>(a, b, out, batch, m, n, i0, j0);
        }
        for i in m_tiled..m {
            matmul_tn_acc_tile::<1>(a, b, out, batch, m, n, i, j0);
        }
    }
}

/// One `R × TILE_COLS` block of [`matmul_tn_acc`] at output offset `(i0, j0)`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn matmul_tn_acc_tile<const R: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    batch: usize,
    m: usize,
    n: usize,
    i0: usize,
    j0: usize,
) {
    let mut acc = [[0.0f32; TILE_COLS]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&out[(i0 + r) * n + j0..][..TILE_COLS]);
    }
    for s in 0..batch {
        let a_vals: &[f32; R] = a[s * m + i0..][..R].try_into().expect("slice has R elements");
        let b_row: &[f32; TILE_COLS] =
            b[s * n + j0..][..TILE_COLS].try_into().expect("slice has TILE_COLS elements");
        for r in 0..R {
            for c in 0..TILE_COLS {
                acc[r][c] += a_vals[r] * b_row[c];
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[(i0 + r) * n + j0..][..TILE_COLS].copy_from_slice(row);
    }
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

/// All of [`matmul_nt`] after its shape checks (it has no scalar edge), at
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

    const ROWS: [usize; 8] = [0, 1, 2, 3, 4, 5, 9, 25];
    const INNER: [usize; 5] = [0, 1, 3, 7, 33];
    const COLS: [usize; 8] = [0, 1, 10, 15, 16, 17, 33, 48];
    /// The layer shapes the repo benchmark's workloads run (batch, in, out).
    const ENGINE: [(usize, usize, usize); 4] =
        [(25, 256, 384), (25, 384, 10), (2, 256, 384), (8, 32, 96)];

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

    /// What a tiles-only call must leave behind: the scalar result on the
    /// tiled columns, the starting value on the edge columns.
    fn tiled_columns_of(want: &[f32], start: &[f32], n: usize) -> Vec<f32> {
        let n_tiled = n - n % TILE_COLS;
        (0..want.len()).map(|idx| if idx % n < n_tiled { want[idx] } else { start[idx] }).collect()
    }

    // Each sweep runs a shape twice: through the public entry, which on a CPU
    // with AVX2 executes the 256-bit instantiation of the tiles, and through
    // the tiles called directly from this (baseline-compiled) function. Both
    // must equal the scalar loop, so the two instantiations equal each other;
    // without AVX2 the comparison degenerates to baseline against baseline.

    #[test]
    fn matmul_acc_equals_the_scalar_loop_on_every_edge_shape() {
        for (case, specials) in [false, true].into_iter().enumerate() {
            for (m, k, n) in shapes() {
                let seed = (case + 2 * (m + 31 * (k + 37 * n))) as u32;
                let a = operand(m * k, seed, specials);
                let b = operand(k * n, seed ^ 0x5bd1, specials);
                let start = operand(m * n, seed ^ 0x9e37, false);
                let (mut got, mut base, mut want) = (start.clone(), start.clone(), start.clone());
                matmul_acc(&a, &b, &mut got, m, k, n);
                matmul_acc_tiles(&a, &b, &mut base, m, k, n);
                scalar::matmul_acc(&a, &b, &mut want, m, k, n);
                assert_same_bits(&got, &want, &format!("matmul_acc {m}x{k}x{n}"));
                let want_tiles = tiled_columns_of(&want, &start, n);
                assert_same_bits(&base, &want_tiles, &format!("matmul_acc_tiles {m}x{k}x{n}"));
            }
        }
    }

    #[test]
    fn matmul_tn_acc_equals_the_scalar_loop_on_every_edge_shape() {
        for (case, specials) in [false, true].into_iter().enumerate() {
            for (batch, m, n) in shapes() {
                let seed = (case + 2 * (batch + 31 * (m + 37 * n))) as u32;
                let a = operand(batch * m, seed, specials);
                let b = operand(batch * n, seed ^ 0x5bd1, specials);
                let start = operand(m * n, seed ^ 0x9e37, false);
                let (mut got, mut base, mut want) = (start.clone(), start.clone(), start.clone());
                // Twice: the second call starts from a non-trivial sum.
                for _ in 0..2 {
                    matmul_tn_acc(&a, &b, &mut got, batch, m, n);
                    matmul_tn_acc_tiles(&a, &b, &mut base, batch, m, n);
                    scalar::matmul_tn_acc(&a, &b, &mut want, batch, m, n);
                }
                assert_same_bits(&got, &want, &format!("matmul_tn_acc {batch}x{m}x{n}"));
                let want_tiles = tiled_columns_of(&want, &start, n);
                assert_same_bits(
                    &base,
                    &want_tiles,
                    &format!("matmul_tn_acc_tiles {batch}x{m}x{n}"),
                );
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
        // full tile and on the scalar edge alike.
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
