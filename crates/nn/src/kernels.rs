//! Cache-blocked, autovectorization-friendly matrix-product kernels.
//!
//! Three product shapes back the autograd engine: `A·B` (forward),
//! `Aᵀ·B` and `A·Bᵀ` (backward). They share one design:
//!
//! * **Register tiling.** The inner loops compute an output tile held in
//!   local accumulator arrays, so each loaded element of `A` and `B` is
//!   reused across the tile before going back to memory: `MR x NR` for
//!   `A·B` and `Aᵀ·B`, and for `A·Bᵀ` a 2-row x 4-column tile of dot
//!   products whose eight accumulators each hold eight lanes. The tile
//!   loops have constant trip counts over plain `f32` arrays, which LLVM
//!   autovectorizes to the SIMD width of the target — no `unsafe`, no
//!   explicit intrinsics (this crate forbids `unsafe_code`).
//! * **Column-block packing.** For `A·B` and `Aᵀ·B`, `B` columns are
//!   packed `NR` at a time into a contiguous `K x NR` scratch buffer, so
//!   the hot loop streams exactly one cache line per `k` regardless of
//!   the parent matrix stride. `A·Bᵀ` reads rows of both operands, which
//!   are contiguous already.
//! * **Deterministic accumulation.** Every output element accumulates
//!   its `k` (resp. `r`) terms in ascending order, the same order the
//!   naive reference uses, so the blocked kernels are bit-for-bit
//!   reproducible run to run. `A·Bᵀ` reassociates its dot products into
//!   eight fixed partial-sum lanes ([`dot8`]) — still a fixed order, just
//!   not the naive one, hence the documented 1e-5 agreement tolerance.
//!   Its 2x4 tile keeps each output's own lanes, tail and reduction
//!   tree, so it is bitwise equal to one `dot8` per output. Tiling that
//!   keeps each output's sums is allowed; reassociating them is not.
//! * **Shape-only parallel partitioning.** Large products split their
//!   *output rows* into fixed [`CHUNK_ROWS`]-row chunks dispatched via
//!   [`threads::par_chunks_mut`]. Chunks are derived from the problem
//!   shape alone and write disjoint rows, so results are bitwise
//!   identical for any `GENDT_THREADS` value (see [`crate::threads`]).
//!
//! The naive seed kernels are retained as `*_naive` methods on
//! [`Matrix`] and serve as the reference in property tests and
//! benchmarks.

use crate::matrix::Matrix;
use crate::threads;

// ---------------------------------------------------------------------
// Elementwise transcendentals
//
// `f32::exp` / `f32::tanh` are scalar libm calls, and the LSTM gate
// activations make ~L * B * 8H of them per generator forward — they
// rival the matrix products once those are blocked. The polynomial
// versions below are branchless straight-line arithmetic with no
// float-to-int cast, so the activation loops autovectorize like the
// matmul microkernels. They are pure f32 arithmetic: bitwise
// reproducible on every run, build, and thread count.
// ---------------------------------------------------------------------

/// Branchless `e^x` via Cephes-style range reduction: `x = n·ln2 + r`
/// with `|r| <= ln2/2`, a degree-6 minimax polynomial for `e^r`, and a
/// `2^n` scale built from exponent bits. Relative error ≤ ~2 ulp across
/// the clamped range; inputs are clamped to `[-87, 88]` where f32 `e^x`
/// is finite and normal.
pub(crate) fn fast_exp(x: f32) -> f32 {
    exp_with_scale(x, exp2i)
}

/// [`fast_exp`] with its `2^n` scale builder as a parameter, so the tests
/// can run it with the `f32 → i32` cast that [`exp2i`] replaced.
#[inline]
fn exp_with_scale(x: f32, pow2: impl Fn(f32) -> f32) -> f32 {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    // Written out in full: these are the exact hi/lo split of ln 2.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5 * 2^23: adding then subtracting rounds to the nearest integer
    // (magic-number trick, valid for |value| < 2^22) without a libm call.
    const ROUND: f32 = 12_582_912.0;
    let x = x.clamp(-87.0, 88.0);
    let n = (x * LOG2_E + ROUND) - ROUND;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // Cephes expf minimax coefficients.
    let mut p = 1.987_569_2e-4;
    p = p * r + 1.398_2e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 0.5;
    let poly = (p * r * r + r) + 1.0;
    poly * pow2(n)
}

/// `2^n` for an integral `n` in `[-126, 127]` (what the clamp in
/// [`fast_exp`] leaves), built from exponent bits without an `f32 → i32`
/// cast: `n + 127` is exact, adding `2^23` puts it in the low mantissa
/// bits, and the shift moves those into the exponent field. The result
/// is bit-identical to `((n as i32 + 127) << 23) as u32`, but it is pure
/// float and integer lane arithmetic, so loops over `fast_exp` vectorize
/// (the saturating `as` cast blocks that).
#[inline]
fn exp2i(n: f32) -> f32 {
    f32::from_bits(((n + 127.0) + 8_388_608.0).to_bits() << 23)
}

/// Numerically stable sigmoid on top of [`fast_exp`]: `1/(1 + e^-x)`.
/// The clamp inside `fast_exp` makes both tails well-behaved.
pub(crate) fn fast_sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + fast_exp(-x))
}

/// `tanh(x) = (e^2x - 1) / (e^2x + 1)` on top of [`fast_exp`].
/// Absolute error stays below ~1e-6; near zero the subtraction costs
/// relative precision but the absolute error is what training sees.
pub(crate) fn fast_tanh(x: f32) -> f32 {
    let t = fast_exp(2.0 * x);
    (t - 1.0) / (t + 1.0)
}

/// Output-tile rows held in registers by the microkernels.
pub(crate) const MR: usize = 4;
/// Output-tile columns held in registers by the microkernels.
///
/// The microkernels keep `MR` separate `[f32; NR]` accumulators as
/// distinct local variables (not a 2-D array indexed by a runtime row
/// number — LLVM demotes that to memory) so the constant-length column
/// loops vectorize to full SIMD width.
pub(crate) const NR: usize = 32;
/// Output rows per parallel task. Fixed by shape, never by thread count.
const CHUNK_ROWS: usize = 64;
/// Minimum multiply-add count before parallel dispatch pays for itself.
const PAR_FLOPS: usize = 1 << 21;

/// View an exactly `N`-long chunk (from `chunks_exact(N)` or an
/// `o..o + N` range) as a fixed-size array reference. Callers guarantee
/// the length, so the fallback arm is genuinely unreachable (kept
/// panic-free for the repo lint on this file).
#[inline]
fn as_array<const N: usize>(chunk: &[f32]) -> &[f32; N] {
    match chunk.try_into() {
        Ok(arr) => arr,
        Err(_) => unreachable!("chunk length is N by construction"),
    }
}

/// `A (m x k) · B (k x n)`; shapes pre-validated by the caller.
pub(crate) fn gemm_nn(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, kdim, n) = (a.rows, a.cols, b.cols);
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    if m > CHUNK_ROWS && m * kdim * n >= PAR_FLOPS {
        threads::par_chunks_mut(&mut out.data, CHUNK_ROWS * n, |ci, chunk| {
            let i0 = ci * CHUNK_ROWS;
            let rows = chunk.len() / n;
            nn_block(
                &a.data[i0 * kdim..(i0 + rows) * kdim],
                kdim,
                &b.data,
                n,
                chunk,
            );
        });
    } else {
        nn_block(&a.data, kdim, &b.data, n, &mut out.data);
    }
    out
}

/// `Aᵀ (m x r)ᵀ=(r x m) · B (r x n)` without materializing the
/// transpose; shapes pre-validated by the caller.
pub(crate) fn gemm_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let (rdim, m, n) = (a.rows, a.cols, b.cols);
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    if m > CHUNK_ROWS && m * rdim * n >= PAR_FLOPS {
        threads::par_chunks_mut(&mut out.data, CHUNK_ROWS * n, |ci, chunk| {
            tn_block(&a.data, m, rdim, ci * CHUNK_ROWS, &b.data, n, chunk);
        });
    } else {
        tn_block(&a.data, m, rdim, 0, &b.data, n, &mut out.data);
    }
    out
}

/// `A (m x k) · Bᵀ (n x k)ᵀ` without materializing the transpose;
/// shapes pre-validated by the caller.
pub(crate) fn gemm_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, kdim, n) = (a.rows, a.cols, b.rows);
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    if m > CHUNK_ROWS && m * kdim * n >= PAR_FLOPS {
        threads::par_chunks_mut(&mut out.data, CHUNK_ROWS * n, |ci, chunk| {
            let i0 = ci * CHUNK_ROWS;
            let rows = chunk.len() / n;
            nt_block(
                &a.data[i0 * kdim..(i0 + rows) * kdim],
                kdim,
                &b.data,
                n,
                chunk,
            );
        });
    } else {
        nt_block(&a.data, kdim, &b.data, n, &mut out.data);
    }
    out
}

/// Pack columns `j0..j0+jw` of row-major `b` (`n` columns wide) into a
/// `K x NR` buffer, zero-padding the last partial column block.
fn pack_b(b: &[f32], n: usize, kdim: usize, j0: usize, jw: usize, packed: &mut [f32]) {
    if jw == NR {
        for kk in 0..kdim {
            packed[kk * NR..kk * NR + NR].copy_from_slice(&b[kk * n + j0..kk * n + j0 + NR]);
        }
    } else {
        for kk in 0..kdim {
            let dst = &mut packed[kk * NR..(kk + 1) * NR];
            dst[..jw].copy_from_slice(&b[kk * n + j0..kk * n + j0 + jw]);
            dst[jw..].fill(0.0);
        }
    }
}

/// Four-row microkernel: `c_r += a_r[kk] * bp[kk * NR..]` for all `kk`,
/// accumulators held as four distinct register-resident arrays.
#[inline]
fn micro_4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], packed: &[f32]) -> [[f32; NR]; MR] {
    let mut c0 = [0.0f32; NR];
    let mut c1 = [0.0f32; NR];
    let mut c2 = [0.0f32; NR];
    let mut c3 = [0.0f32; NR];
    for (kk, bk) in packed.chunks_exact(NR).enumerate() {
        let bk: &[f32; NR] = as_array(bk);
        let x0 = a0[kk];
        let x1 = a1[kk];
        let x2 = a2[kk];
        let x3 = a3[kk];
        for j in 0..NR {
            c0[j] += x0 * bk[j];
            c1[j] += x1 * bk[j];
            c2[j] += x2 * bk[j];
            c3[j] += x3 * bk[j];
        }
    }
    [c0, c1, c2, c3]
}

/// Single-row microkernel for the `rows % MR` remainder.
#[inline]
fn micro_1(ar: &[f32], packed: &[f32]) -> [f32; NR] {
    let mut c = [0.0f32; NR];
    for (kk, bk) in packed.chunks_exact(NR).enumerate() {
        let bk: &[f32; NR] = as_array(bk);
        let x = ar[kk];
        for j in 0..NR {
            c[j] += x * bk[j];
        }
    }
    c
}

/// Single-row microkernel over four consecutive packed column blocks
/// (`quad`, four `kdim x NR` blocks): [`micro_1`] of each block, run in
/// one pass with the four blocks' accumulators independent, so every
/// output keeps its k-ascending sum bit for bit. A batch-1 product
/// (`A` of one row) has no rows to tile, and one block's two-register
/// accumulator chain leaves the FMA ports idle; four blocks give eight
/// independent chains.
#[inline]
fn micro_1x4(ar: &[f32], quad: &[f32]) -> [[f32; NR]; 4] {
    let block = quad.len() / 4;
    let (b01, b23) = quad.split_at(2 * block);
    let (b0, b1) = b01.split_at(block);
    let (b2, b3) = b23.split_at(block);
    let mut c0 = [0.0f32; NR];
    let mut c1 = [0.0f32; NR];
    let mut c2 = [0.0f32; NR];
    let mut c3 = [0.0f32; NR];
    let rows = b0
        .chunks_exact(NR)
        .zip(b1.chunks_exact(NR))
        .zip(b2.chunks_exact(NR).zip(b3.chunks_exact(NR)));
    for (&x, ((k0, k1), (k2, k3))) in ar.iter().zip(rows) {
        let k0: &[f32; NR] = as_array(k0);
        let k1: &[f32; NR] = as_array(k1);
        let k2: &[f32; NR] = as_array(k2);
        let k3: &[f32; NR] = as_array(k3);
        for j in 0..NR {
            c0[j] += x * k0[j];
            c1[j] += x * k1[j];
            c2[j] += x * k2[j];
            c3[j] += x * k3[j];
        }
    }
    [c0, c1, c2, c3]
}

/// Write one fully accumulated output-tile row: plain store, or a
/// single `+=` per element when `acc` is set. The accumulate form is
/// bitwise identical to materializing the product and adding it
/// elementwise afterwards, because each element's dot product is
/// complete before the one addition happens.
#[inline]
fn store_row(dst: &mut [f32], src: &[f32], acc: bool) {
    if acc {
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d += *s;
        }
    } else {
        dst.copy_from_slice(src);
    }
}

/// Blocked `A·B` over one horizontal slab of output rows. `packed` is
/// caller scratch of at least `kdim * NR` elements.
fn nn_block_ws(
    a: &[f32],
    kdim: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    packed: &mut [f32],
    acc: bool,
) {
    let packed = &mut packed[..kdim * NR];
    let mut j0 = 0;
    while j0 < n {
        let jw = NR.min(n - j0);
        pack_b(b, n, kdim, j0, jw, packed);
        nn_tiles(a, kdim, packed, n, j0, jw, out, acc);
        j0 += NR;
    }
}

/// Run the `MR x NR` microkernels for one packed column block against
/// every output row of the slab. Shared by the packing loop above and
/// the pre-packed kernel below, so the two are bitwise identical by
/// construction.
#[allow(clippy::too_many_arguments)]
fn nn_tiles(
    a: &[f32],
    kdim: usize,
    packed: &[f32],
    n: usize,
    j0: usize,
    jw: usize,
    out: &mut [f32],
    acc: bool,
) {
    let rows = out.len() / n;
    let mut i0 = 0;
    while i0 + MR <= rows {
        let tile = micro_4(
            &a[i0 * kdim..(i0 + 1) * kdim],
            &a[(i0 + 1) * kdim..(i0 + 2) * kdim],
            &a[(i0 + 2) * kdim..(i0 + 3) * kdim],
            &a[(i0 + 3) * kdim..(i0 + 4) * kdim],
            packed,
        );
        for (r, cr) in tile.iter().enumerate() {
            let o0 = (i0 + r) * n + j0;
            store_row(&mut out[o0..o0 + jw], &cr[..jw], acc);
        }
        i0 += MR;
    }
    for r in i0..rows {
        let c = micro_1(&a[r * kdim..(r + 1) * kdim], packed);
        let o0 = r * n + j0;
        store_row(&mut out[o0..o0 + jw], &c[..jw], acc);
    }
}

/// Blocked `A·B` with self-owned scratch (gemm_nn dispatch target).
fn nn_block(a: &[f32], kdim: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let mut packed = vec![0.0f32; kdim * NR];
    nn_block_ws(a, kdim, b, n, out, &mut packed, false);
}

/// Blocked `Aᵀ·B` over output rows `i0_glob..` of the full product.
/// Output rows are columns of `a`, so `a` cannot be pre-sliced; the
/// global row offset indexes into it instead.
///
/// `ws` is caller scratch of at least [`tn_ws_len`]`(rows, rdim)`
/// elements, split into the `B` column pack and a contiguous transpose
/// of this slab's `A` columns. Packing `A` once up front replaces the
/// strided column gather that used to sit inside the tile loops and was
/// this kernel's bottleneck; the microkernels then run on contiguous
/// rows exactly as in the `nn` case. Accumulation order per element is
/// unchanged (`rr` ascending), so results stay bit-for-bit identical.
#[allow(clippy::too_many_arguments)]
fn tn_block_ws(
    a: &[f32],
    m: usize,
    rdim: usize,
    i0_glob: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    ws: &mut [f32],
    acc: bool,
) {
    let rows = out.len() / n;
    if rdim == 0 {
        if acc {
            for o in out.iter_mut() {
                *o += 0.0;
            }
        } else {
            out.fill(0.0);
        }
        return;
    }
    let (packed_b, packed_a) = ws[..rdim * NR + rows * rdim].split_at_mut(rdim * NR);
    for (r, dst) in packed_a.chunks_exact_mut(rdim).enumerate() {
        let col = i0_glob + r;
        for (rr, d) in dst.iter_mut().enumerate() {
            *d = a[rr * m + col];
        }
    }
    let mut j0 = 0;
    while j0 < n {
        let jw = NR.min(n - j0);
        pack_b(b, n, rdim, j0, jw, packed_b);
        let mut i0 = 0;
        while i0 + MR <= rows {
            let tile = micro_4(
                &packed_a[i0 * rdim..(i0 + 1) * rdim],
                &packed_a[(i0 + 1) * rdim..(i0 + 2) * rdim],
                &packed_a[(i0 + 2) * rdim..(i0 + 3) * rdim],
                &packed_a[(i0 + 3) * rdim..(i0 + 4) * rdim],
                packed_b,
            );
            for (r, cr) in tile.iter().enumerate() {
                let o0 = (i0 + r) * n + j0;
                store_row(&mut out[o0..o0 + jw], &cr[..jw], acc);
            }
            i0 += MR;
        }
        for r in i0..rows {
            let c = micro_1(&packed_a[r * rdim..(r + 1) * rdim], packed_b);
            let o0 = r * n + j0;
            store_row(&mut out[o0..o0 + jw], &c[..jw], acc);
        }
        j0 += NR;
    }
}

/// Blocked `Aᵀ·B` with self-owned scratch (gemm_tn dispatch target).
fn tn_block(
    a: &[f32],
    m: usize,
    rdim: usize,
    i0_glob: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let rows = out.len() / n;
    let mut ws = vec![0.0f32; tn_ws_len(rows, rdim)];
    tn_block_ws(a, m, rdim, i0_glob, b, n, out, &mut ws, false);
}

/// `A·Bᵀ` over one horizontal slab of output rows: row-row dot products
/// with [`dot8`]'s eight fixed partial-sum lanes. Output rows go two at
/// a time and columns four at a time through [`lanes_2x4`], which loads
/// each 8-float chunk of the two `A` rows and four `B` rows once for all
/// eight outputs of the tile; every output then gets the same tail and
/// reduction tree as [`dot8`] via [`reduce8`], so the result is bitwise
/// equal to one `dot8` per output. Leftover rows and columns run on
/// `dot8` itself.
fn nt_block_ws(a: &[f32], kdim: usize, b: &[f32], n: usize, out: &mut [f32], acc: bool) {
    let rows = out.len() / n;
    let full = kdim - kdim % 8;
    let a_row = |i: usize| &a[i * kdim..(i + 1) * kdim];
    let b_row = |j: usize| &b[j * kdim..(j + 1) * kdim];
    let put = |o: &mut f32, v: f32| {
        if acc {
            *o += v;
        } else {
            *o = v;
        }
    };
    let mut i = 0;
    while i + 2 <= rows {
        let ar = [a_row(i), a_row(i + 1)];
        let (o0, o1) = out[i * n..(i + 2) * n].split_at_mut(n);
        let mut j = 0;
        while j + 4 <= n {
            let br = [b_row(j), b_row(j + 1), b_row(j + 2), b_row(j + 3)];
            let tile = lanes_2x4(ar, br, full);
            for (r, orow) in [&mut *o0, &mut *o1].into_iter().enumerate() {
                for c in 0..4 {
                    let v = reduce8(&tile[r][c], &ar[r][full..], &br[c][full..]);
                    put(&mut orow[j + c], v);
                }
            }
            j += 4;
        }
        for j in j..n {
            put(&mut o0[j], dot8(ar[0], b_row(j)));
            put(&mut o1[j], dot8(ar[1], b_row(j)));
        }
        i += 2;
    }
    if i < rows {
        for (j, o) in out[i * n..(i + 1) * n].iter_mut().enumerate() {
            put(o, dot8(a_row(i), b_row(j)));
        }
    }
}

/// `A·Bᵀ` slab kernel (gemm_nt dispatch target).
fn nt_block(a: &[f32], kdim: usize, b: &[f32], n: usize, out: &mut [f32]) {
    nt_block_ws(a, kdim, b, n, out, false);
}

/// Scratch length `gemm_nn_into` needs for `A (m x k) · B (k x n)`.
pub(crate) fn nn_ws_len(kdim: usize) -> usize {
    kdim * NR
}

/// Length of the whole-matrix column pack of a `kdim x n` `B`:
/// `ceil(n/NR)` consecutive `kdim x NR` blocks (last one zero-padded),
/// each exactly what [`pack_b`] produces for its column range.
pub(crate) fn packed_b_len(kdim: usize, n: usize) -> usize {
    n.div_ceil(NR) * kdim * NR
}

/// Pack every `NR`-column block of `b` into `dst` (length
/// [`packed_b_len`]). The plan executor caches this per parameter and
/// refreshes it once per store version, hoisting the per-call pack out
/// of every GEMM that reads the parameter as its right operand.
pub(crate) fn pack_b_full(b: &Matrix, dst: &mut [f32]) {
    let (kdim, n) = (b.rows, b.cols);
    debug_assert_eq!(dst.len(), packed_b_len(kdim, n), "pack_b_full length");
    if kdim == 0 {
        return;
    }
    let mut j0 = 0;
    for block in dst.chunks_exact_mut(kdim * NR) {
        let jw = NR.min(n - j0);
        pack_b(&b.data, n, kdim, j0, jw, block);
        j0 += NR;
    }
}

/// `A·B` into a pre-shaped output where `b_packed` is the whole-matrix
/// column pack from [`pack_b_full`] of a `a.cols x n` matrix. Bitwise
/// identical to [`gemm_nn_into`]: the microkernels consume exactly the
/// bytes [`pack_b`] would produce, in the same order, via the shared
/// [`nn_tiles`] slab loop. Never allocates, at any thread count.
pub(crate) fn gemm_nn_packed_into(
    a: &Matrix,
    b_packed: &[f32],
    n: usize,
    out: &mut Matrix,
    acc: bool,
) {
    let (m, kdim) = (a.rows, a.cols);
    debug_assert_eq!((out.rows, out.cols), (m, n), "gemm_nn_packed_into shape");
    debug_assert_eq!(b_packed.len(), packed_b_len(kdim, n), "packed B length");
    if m == 0 || n == 0 {
        return;
    }
    if kdim == 0 {
        // k = 0 product is all zeros; `acc` adds 0.0 per element, which
        // matches the microkernels' zero-accumulator stores bitwise.
        if acc {
            for o in out.data.iter_mut() {
                *o += 0.0;
            }
        } else {
            out.data.fill(0.0);
        }
        return;
    }
    if m > CHUNK_ROWS && m * kdim * n >= PAR_FLOPS && threads::num_threads() > 1 {
        threads::par_chunks_mut(&mut out.data, CHUNK_ROWS * n, |ci, chunk| {
            let i0 = ci * CHUNK_ROWS;
            let rows = chunk.len() / n;
            packed_slab(
                &a.data[i0 * kdim..(i0 + rows) * kdim],
                kdim,
                b_packed,
                n,
                chunk,
                acc,
            );
        });
    } else {
        packed_slab(&a.data, kdim, b_packed, n, &mut out.data, acc);
    }
}

/// One horizontal output slab of the pre-packed product: walk the packed
/// column blocks, reusing [`nn_tiles`]. A single-row slab (the LSTM,
/// ResGen and head products at batch 1) runs [`micro_1x4`] over four
/// column blocks per pass first, then the remaining blocks as usual;
/// either way each output is [`micro_1`]'s sum.
fn packed_slab(a: &[f32], kdim: usize, b_packed: &[f32], n: usize, out: &mut [f32], acc: bool) {
    let mut j0 = 0;
    let mut b_packed = b_packed;
    if out.len() == n {
        let mut quads = b_packed.chunks_exact(4 * kdim * NR);
        for quad in &mut quads {
            for c in micro_1x4(a, quad) {
                let jw = NR.min(n - j0);
                store_row(&mut out[j0..j0 + jw], &c[..jw], acc);
                j0 += NR;
            }
        }
        b_packed = quads.remainder();
    }
    for block in b_packed.chunks_exact(kdim * NR) {
        let jw = NR.min(n - j0);
        nn_tiles(a, kdim, block, n, j0, jw, out, acc);
        j0 += NR;
    }
}

/// Scratch length `gemm_tn_into` needs for `Aᵀ (r x m)ᵀ · B (r x n)`:
/// the `B` column pack plus the contiguous transpose of `A`'s columns.
pub(crate) fn tn_ws_len(m: usize, rdim: usize) -> usize {
    rdim * NR + m * rdim
}

/// Fold a fully materialized product into `out` (multi-thread fallback
/// for the `_into` kernels): plain copy, or one `+=` per element.
fn fold(out: &mut Matrix, res: &Matrix, acc: bool) {
    if acc {
        for (o, r) in out.data.iter_mut().zip(res.data.iter()) {
            *o += *r;
        }
    } else {
        out.data.copy_from_slice(&res.data);
    }
}

/// `A·B` into a pre-shaped output using caller scratch (`ws` at least
/// [`nn_ws_len`]`(a.cols)`); with `acc`, adds the product elementwise.
///
/// Bitwise identical to [`gemm_nn`] (+ `add_assign` when `acc`). At one
/// worker this never allocates; the multi-thread dispatch falls back to
/// the allocating kernel, whose chunked result is bitwise identical by
/// the determinism contract.
pub(crate) fn gemm_nn_into(a: &Matrix, b: &Matrix, out: &mut Matrix, ws: &mut [f32], acc: bool) {
    let (m, kdim, n) = (a.rows, a.cols, b.cols);
    debug_assert_eq!((out.rows, out.cols), (m, n), "gemm_nn_into shape");
    if m == 0 || n == 0 {
        return;
    }
    if m > CHUNK_ROWS && m * kdim * n >= PAR_FLOPS && threads::num_threads() > 1 {
        let res = gemm_nn(a, b); // plan-lint: allow-alloc (multi-thread fallback)
        fold(out, &res, acc);
        return;
    }
    nn_block_ws(&a.data, kdim, &b.data, n, &mut out.data, ws, acc);
}

/// `Aᵀ·B` into a pre-shaped output using caller scratch (`ws` at least
/// [`tn_ws_len`]`(a.cols, a.rows)`); with `acc`, adds the product.
pub(crate) fn gemm_tn_into(a: &Matrix, b: &Matrix, out: &mut Matrix, ws: &mut [f32], acc: bool) {
    let (rdim, m, n) = (a.rows, a.cols, b.cols);
    debug_assert_eq!((out.rows, out.cols), (m, n), "gemm_tn_into shape");
    if m == 0 || n == 0 {
        return;
    }
    if m > CHUNK_ROWS && m * rdim * n >= PAR_FLOPS && threads::num_threads() > 1 {
        let res = gemm_tn(a, b); // plan-lint: allow-alloc (multi-thread fallback)
        fold(out, &res, acc);
        return;
    }
    tn_block_ws(&a.data, m, rdim, 0, &b.data, n, &mut out.data, ws, acc);
}

/// `A·Bᵀ` into a pre-shaped output (no scratch needed); with `acc`,
/// adds the product elementwise.
pub(crate) fn gemm_nt_into(a: &Matrix, b: &Matrix, out: &mut Matrix, acc: bool) {
    let (m, kdim, n) = (a.rows, a.cols, b.rows);
    debug_assert_eq!((out.rows, out.cols), (m, n), "gemm_nt_into shape");
    if m == 0 || n == 0 {
        return;
    }
    if m > CHUNK_ROWS && m * kdim * n >= PAR_FLOPS && threads::num_threads() > 1 {
        let res = gemm_nt(a, b); // plan-lint: allow-alloc (multi-thread fallback)
        fold(out, &res, acc);
        return;
    }
    nt_block_ws(&a.data, kdim, &b.data, n, &mut out.data, acc);
}

/// Dot product with eight independent partial sums and a fixed
/// reduction tree: deterministic run-to-run, reassociated relative to a
/// left-to-right sum (agreement with the naive kernel is ~1e-5
/// relative).
#[inline]
fn dot8(x: &[f32], y: &[f32]) -> f32 {
    let mut p = [0.0f32; 8];
    let xc = x.chunks_exact(8);
    let yc = y.chunks_exact(8);
    let tail_x = xc.remainder();
    let tail_y = yc.remainder();
    for (xs, ys) in xc.zip(yc) {
        for l in 0..8 {
            p[l] += xs[l] * ys[l];
        }
    }
    reduce8(&p, tail_x, tail_y)
}

/// [`dot8`]'s lane sums for a 2-row × 4-column tile: `p[r][c][l]` adds
/// `a[r][o + l] * b[c][o + l]` over the 8-float chunks `o < full` in
/// ascending order, exactly as `dot8` does for the pair `(a[r], b[c])`.
/// The eight accumulators are distinct locals (see [`NR`]) and fill 8 of
/// AVX2's 16 vector registers, leaving room for the six chunk loads; a
/// 4×4 tile would spill there.
#[inline]
fn lanes_2x4(a: [&[f32]; 2], b: [&[f32]; 4], full: usize) -> [[[f32; 8]; 4]; 2] {
    let mut p00 = [0.0f32; 8];
    let mut p01 = [0.0f32; 8];
    let mut p02 = [0.0f32; 8];
    let mut p03 = [0.0f32; 8];
    let mut p10 = [0.0f32; 8];
    let mut p11 = [0.0f32; 8];
    let mut p12 = [0.0f32; 8];
    let mut p13 = [0.0f32; 8];
    for o in (0..full).step_by(8) {
        let (x0, x1) = (lane8(a[0], o), lane8(a[1], o));
        let (y0, y1, y2, y3) = (
            lane8(b[0], o),
            lane8(b[1], o),
            lane8(b[2], o),
            lane8(b[3], o),
        );
        for l in 0..8 {
            p00[l] += x0[l] * y0[l];
            p01[l] += x0[l] * y1[l];
            p02[l] += x0[l] * y2[l];
            p03[l] += x0[l] * y3[l];
            p10[l] += x1[l] * y0[l];
            p11[l] += x1[l] * y1[l];
            p12[l] += x1[l] * y2[l];
            p13[l] += x1[l] * y3[l];
        }
    }
    [[p00, p01, p02, p03], [p10, p11, p12, p13]]
}

/// Finish one [`dot8`]: the sequential tail over the `k % 8` leftover
/// products, then the fixed reduction tree over the eight lanes.
#[inline]
fn reduce8(p: &[f32; 8], tail_x: &[f32], tail_y: &[f32]) -> f32 {
    let mut tail = 0.0f32;
    for (a, b) in tail_x.iter().zip(tail_y.iter()) {
        tail += a * b;
    }
    (((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))) + tail
}

/// `s[o..o + 8]` as a fixed-size array reference.
#[inline]
fn lane8(s: &[f32], o: usize) -> &[f32; 8] {
    as_array(&s[o..o + 8])
}

#[cfg(test)]
mod tests {
    use crate::matrix::Matrix;
    use crate::threads;
    use gendt_rng::Rng;

    /// The `2^n` scale `fast_exp` used to build with a saturating cast,
    /// which kept the activation loops scalar.
    fn exp2i_cast(n: f32) -> f32 {
        f32::from_bits(((n as i32 + 127) << 23) as u32)
    }

    #[test]
    fn cast_free_exp_is_bit_identical_to_the_cast() {
        for n in -126..=127 {
            let n = n as f32;
            let (got, want) = (super::exp2i(n), exp2i_cast(n));
            assert_eq!(got.to_bits(), want.to_bits(), "2^{n}");
        }
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            -f32::from_bits(0x007f_ffff),
            f32::MAX,
            f32::MIN,
            -1e9,
            1e9,
        ];
        // The clamp edges and their neighbours on both sides.
        for edge in [-87.0f32, 88.0] {
            xs.extend([edge, edge.next_down(), edge.next_up()]);
        }
        let mut x = -100.0f32;
        while x <= 100.0 {
            xs.push(x);
            x += 1e-3;
        }
        for x in xs {
            let want = super::exp_with_scale(x, exp2i_cast);
            assert_eq!(super::fast_exp(x).to_bits(), want.to_bits(), "e^{x}");
        }
    }

    #[test]
    fn fast_transcendentals_match_libm() {
        let mut x = -87.0f32;
        while x <= 88.0 {
            let rel = (super::fast_exp(x) - x.exp()).abs() / x.exp();
            assert!(rel <= 5e-7, "fast_exp({x}) off by {rel:e} relative");
            x += 0.137;
        }
        let mut x = -20.0f32;
        while x <= 20.0 {
            let ds = (super::fast_sigmoid(x) - (1.0 / (1.0 + (-x as f64).exp())) as f32).abs();
            assert!(ds <= 2e-6, "fast_sigmoid({x}) off by {ds:e}");
            let dt = (super::fast_tanh(x) - x.tanh()).abs();
            assert!(dt <= 2e-6, "fast_tanh({x}) off by {dt:e}");
            x += 0.0173;
        }
        // Saturation behaves: no NaN/inf at the extremes.
        for x in [-1e9f32, -100.0, 100.0, 1e9] {
            assert!(super::fast_exp(x).is_finite());
            assert!((0.0..=1.0).contains(&super::fast_sigmoid(x)));
            assert!((-1.0..=1.0).contains(&super::fast_tanh(x)));
        }
    }

    fn rand_mat(rng: &mut Rng, r: usize, c: usize) -> Matrix {
        Matrix::from_vec(
            r,
            c,
            (0..r * c).map(|_| rng.uniform(-2.0, 2.0) as f32).collect(),
        )
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32, ctx: &str) {
        assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
        for (i, (x, y)) in a.data.iter().zip(b.data.iter()).enumerate() {
            let scale = 1.0f32.max(x.abs()).max(y.abs());
            assert!((x - y).abs() <= tol * scale, "{ctx}: elem {i}: {x} vs {y}");
        }
    }

    /// Shapes covering empty, 1-row/1-col, sub-tile, exact-tile, and
    /// beyond-tile cases for every dimension.
    const DIMS: [usize; 6] = [0, 1, 3, 16, 17, 33];

    #[test]
    fn blocked_kernels_match_naive_across_shape_grid() {
        let mut rng = Rng::seed_from(42);
        for &m in &DIMS {
            for &k in &DIMS {
                for &n in &DIMS {
                    let a = rand_mat(&mut rng, m, k);
                    let b = rand_mat(&mut rng, k, n);
                    assert_close(
                        &a.matmul(&b),
                        &a.matmul_naive(&b),
                        1e-5,
                        &format!("nn {m}x{k}x{n}"),
                    );
                    let at = rand_mat(&mut rng, k, m);
                    assert_close(
                        &at.matmul_tn(&b),
                        &at.matmul_tn_naive(&b),
                        1e-5,
                        &format!("tn {m}x{k}x{n}"),
                    );
                    let bt = rand_mat(&mut rng, n, k);
                    assert_close(
                        &a.matmul_nt(&bt),
                        &a.matmul_nt_naive(&bt),
                        1e-5,
                        &format!("nt {m}x{k}x{n}"),
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_nn_and_tn_are_bitwise_equal_to_naive() {
        // Same per-element accumulation order as the reference: results
        // must agree exactly, not just to tolerance (no zeros in the
        // inputs, so the reference's skip-zero branch never fires).
        let mut rng = Rng::seed_from(7);
        for (m, k, n) in [(5, 9, 13), (64, 100, 32), (130, 67, 70)] {
            let a = rand_mat(&mut rng, m, k);
            let b = rand_mat(&mut rng, k, n);
            assert_eq!(a.matmul(&b).data, a.matmul_naive(&b).data, "nn {m}x{k}x{n}");
            let at = rand_mat(&mut rng, k, m);
            assert_eq!(
                at.matmul_tn(&b).data,
                at.matmul_tn_naive(&b).data,
                "tn {m}x{k}x{n}"
            );
        }
    }

    /// A batch-1 product through the pre-packed kernel, which takes four
    /// column blocks per pass, equals `micro_1` run block by block, bit
    /// for bit, stored and accumulated, at widths that leave 0 to 3
    /// blocks after the last group of four and a partial last block.
    #[test]
    fn single_row_packed_product_equals_micro_1_per_block() {
        use super::NR;
        let mut rng = Rng::seed_from(41);
        for k in [0, 1, 7, 100] {
            for n in [1, 31, 33, 100, 129, 200, 257, 300] {
                let a = rand_mat(&mut rng, 1, k);
                let b = rand_mat(&mut rng, k, n);
                let base = rand_mat(&mut rng, 1, n);
                let mut packed = vec![0.0f32; super::packed_b_len(k, n)];
                super::pack_b_full(&b, &mut packed);
                for acc in [false, true] {
                    let mut want = base.clone();
                    for (blk, j0) in (0..n).step_by(NR).enumerate() {
                        let jw = NR.min(n - j0);
                        let c = super::micro_1(&a.data, &packed[blk * k * NR..(blk + 1) * k * NR]);
                        super::store_row(&mut want.data[j0..j0 + jw], &c[..jw], acc);
                    }
                    let mut got = base.clone();
                    super::gemm_nn_packed_into(&a, &packed, n, &mut got, acc);
                    let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "k {k} n {n} acc {acc}");
                }
            }
        }
    }

    #[test]
    fn into_variants_match_allocating_kernels_bitwise() {
        // Both store and accumulate forms, against gemm + add_assign.
        // Thread count is irrelevant: every path is bitwise identical
        // by the determinism contract, including the multi-thread
        // fallback inside the _into kernels.
        let mut rng = Rng::seed_from(23);
        for (m, k, n) in [(5, 9, 13), (64, 100, 32), (130, 67, 70)] {
            let a = rand_mat(&mut rng, m, k);
            let b = rand_mat(&mut rng, k, n);
            let at = rand_mat(&mut rng, k, m);
            let bt = rand_mat(&mut rng, n, k);
            let base = rand_mat(&mut rng, m, n);
            let mut ws = vec![0.0f32; super::nn_ws_len(k).max(super::tn_ws_len(m, k))];

            let mut out = Matrix::zeros(m, n);
            super::gemm_nn_into(&a, &b, &mut out, &mut ws, false);
            assert_eq!(out.data, super::gemm_nn(&a, &b).data, "nn into {m}x{k}x{n}");
            let mut acc = base.clone();
            super::gemm_nn_into(&a, &b, &mut acc, &mut ws, true);
            let mut refr = base.clone();
            refr.add_assign(&super::gemm_nn(&a, &b));
            assert_eq!(acc.data, refr.data, "nn acc {m}x{k}x{n}");

            let mut out = Matrix::zeros(m, n);
            super::gemm_tn_into(&at, &b, &mut out, &mut ws, false);
            assert_eq!(
                out.data,
                super::gemm_tn(&at, &b).data,
                "tn into {m}x{k}x{n}"
            );
            let mut acc = base.clone();
            super::gemm_tn_into(&at, &b, &mut acc, &mut ws, true);
            let mut refr = base.clone();
            refr.add_assign(&super::gemm_tn(&at, &b));
            assert_eq!(acc.data, refr.data, "tn acc {m}x{k}x{n}");

            let mut out = Matrix::zeros(m, n);
            super::gemm_nt_into(&a, &bt, &mut out, false);
            assert_eq!(
                out.data,
                super::gemm_nt(&a, &bt).data,
                "nt into {m}x{k}x{n}"
            );
            let mut acc = base.clone();
            super::gemm_nt_into(&a, &bt, &mut acc, true);
            let mut refr = base.clone();
            refr.add_assign(&super::gemm_nt(&a, &bt));
            assert_eq!(acc.data, refr.data, "nt acc {m}x{k}x{n}");
        }
    }

    /// The row-at-a-time `A·Bᵀ` loop the 2×4 tile replaced: one `dot8`
    /// per output, stored or added.
    fn nt_rowwise(a: &Matrix, b: &Matrix, out: &mut Matrix, acc: bool) {
        let (kdim, n) = (a.cols, b.rows);
        for i in 0..a.rows {
            let arow = &a.data[i * kdim..(i + 1) * kdim];
            for (j, o) in out.data[i * n..(i + 1) * n].iter_mut().enumerate() {
                let v = super::dot8(arow, &b.data[j * kdim..(j + 1) * kdim]);
                if acc {
                    *o += v;
                } else {
                    *o = v;
                }
            }
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn tiled_nt_is_bitwise_equal_to_rowwise_dot8() {
        // Row counts hit the 2-row tile, its leftover row and the 64-row
        // parallel chunks; column counts the 4-column tile and leftover
        // columns; k the empty, sub-chunk, exact-chunk and tail cases.
        let mut rng = Rng::seed_from(13);
        for nthreads in [1, 4] {
            threads::set_num_threads(nthreads);
            for m in [1, 2, 3, 5, 64, 65, 130] {
                for n in [1, 3, 4, 5, 100] {
                    for k in [0, 1, 7, 8, 9, 400] {
                        let ctx = format!("nt {m}x{k}·({n}x{k})ᵀ, {nthreads} threads");
                        let a = rand_mat(&mut rng, m, k);
                        let b = rand_mat(&mut rng, n, k);
                        let base = rand_mat(&mut rng, m, n);
                        let mut want = Matrix::zeros(m, n);
                        nt_rowwise(&a, &b, &mut want, false);
                        assert_eq!(bits(&super::gemm_nt(&a, &b)), bits(&want), "{ctx}");
                        let mut got = base.clone();
                        super::gemm_nt_into(&a, &b, &mut got, false);
                        assert_eq!(bits(&got), bits(&want), "{ctx} into");
                        let mut want = base.clone();
                        nt_rowwise(&a, &b, &mut want, true);
                        let mut got = base.clone();
                        super::gemm_nt_into(&a, &b, &mut got, true);
                        assert_eq!(bits(&got), bits(&want), "{ctx} acc");
                    }
                }
            }
        }
        threads::set_num_threads(1);
    }

    #[test]
    fn parallel_dispatch_is_bitwise_identical_to_single_thread() {
        // All three products sized to cross the parallel threshold
        // (output rows > 64 and > 2^21 multiply-adds).
        let mut rng = Rng::seed_from(11);
        let a = rand_mat(&mut rng, 200, 128);
        let b = rand_mat(&mut rng, 128, 120);
        let at = rand_mat(&mut rng, 300, 128);
        let bt2 = rand_mat(&mut rng, 300, 100);
        let bt = rand_mat(&mut rng, 120, 128);
        threads::set_num_threads(1);
        let nn1 = a.matmul(&b);
        let tn1 = at.matmul_tn(&bt2);
        let nt1 = a.matmul_nt(&bt);
        threads::set_num_threads(4);
        let nn4 = a.matmul(&b);
        let tn4 = at.matmul_tn(&bt2);
        let nt4 = a.matmul_nt(&bt);
        threads::set_num_threads(1);
        assert_eq!(nn1.data, nn4.data);
        assert_eq!(tn1.data, tn4.data);
        assert_eq!(nt1.data, nt4.data);
    }
}
