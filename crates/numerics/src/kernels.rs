//! Shared low-level floating-point kernels for the inference hot path.
//!
//! Every distance or matrix-product computation that must agree **bit-for-bit**
//! between the per-item and batched prediction paths lives here, so there is a
//! single accumulation order in the whole workspace. The rule that makes this
//! work: `f64` addition is not associative, so two code paths only produce
//! identical bits if they add the same terms in the same order. Both the
//! per-item estimators (`predict_one`) and the batched ones (`predict_batch`)
//! call these kernels, which makes the bit-identity contract of
//! `aerorem-ml`'s `Regressor::predict_batch` hold by construction.

/// Number of independent accumulator lanes in the unrolled distance kernels.
///
/// Eight f64 lanes fill two AVX2 registers (or one AVX-512 register) and,
/// more importantly on any hardware, give the out-of-order core eight
/// independent add chains instead of one loop-carried dependency.
const LANES: usize = 8;

/// The fixed lane-combination tree shared by every kernel in this module:
/// `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) + tail`.
///
/// Because every accumulator starts at `+0.0` and every term is
/// non-negative (`d*d` or `|d|`), adding an all-zero lane group is
/// bit-preserving — so for inputs shorter than [`LANES`] the result is
/// bit-identical to the plain sequential tail sum. That property is what
/// lets dimension-specific fast paths and zero-padded queries coexist with
/// the generic path without splitting the bit-identity contract.
#[inline(always)]
fn combine(s: [f64; LANES], tail: f64) -> f64 {
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7])) + tail
}

/// Squared Euclidean distance between two equal-length slices.
///
/// The loop is unrolled eight-wide with independent accumulators combined
/// by the fixed tree in `combine`, which lets the compiler keep eight
/// add chains in flight instead of serializing on a single accumulator.
/// The accumulation order is a pure function of the input length, so every
/// caller sees the same bits for the same inputs — and for `len < 8`
/// (including the ubiquitous 3-D position case) the result is bit-identical
/// to the plain sequential sum, since the unrolled body never runs and the
/// zero lanes vanish bit-exactly under `combine`.
///
/// # Panics
///
/// Panics in debug builds if the slices differ in length; in release builds a
/// longer `b` is silently truncated to `a`'s length.
#[must_use]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let chunks_a = a.chunks_exact(LANES);
    let chunks_b = b.chunks_exact(LANES);
    let tail: f64 = chunks_a
        .remainder()
        .iter()
        .zip(chunks_b.remainder())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum();
    let mut s = [0.0f64; LANES];
    for (ca, cb) in chunks_a.zip(chunks_b) {
        for l in 0..LANES {
            let d = ca[l] - cb[l];
            s[l] += d * d;
        }
    }
    combine(s, tail)
}

/// Taxicab (L1 / Manhattan) distance between two equal-length slices.
///
/// Same eight-lane unroll and `combine` tree as [`sq_euclidean`], with
/// `|x - y|` terms; the same zero-lane argument makes `len < 8` inputs
/// bit-identical to the sequential `|x - y|` sum, so the kNN `p = 1` fast
/// path can adopt this kernel without changing results in 3-D.
///
/// # Panics
///
/// Panics in debug builds if the slices differ in length; in release builds a
/// longer `b` is silently truncated to `a`'s length.
#[must_use]
pub fn taxicab(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let chunks_a = a.chunks_exact(LANES);
    let chunks_b = b.chunks_exact(LANES);
    let tail: f64 = chunks_a
        .remainder()
        .iter()
        .zip(chunks_b.remainder())
        .map(|(x, y)| (x - y).abs())
        .sum();
    let mut s = [0.0f64; LANES];
    for (ca, cb) in chunks_a.zip(chunks_b) {
        for l in 0..LANES {
            s[l] += (ca[l] - cb[l]).abs();
        }
    }
    combine(s, tail)
}

/// Points per block in [`sq_euclidean_cols_into`]: big enough that the
/// per-block bookkeeping amortizes, small enough that the block's
/// accumulators (`(LANES + 1) × BLOCK` f64s ≈ 9 KB) live on the stack and
/// in L1.
const COL_BLOCK: usize = 128;

/// Squared Euclidean distances from `query` to a contiguous range of points
/// stored **dimension-major** (SoA): `cols[d * n_points + j]` is coordinate
/// `d` of point `j`. Writes the distance for points `lo..hi` into `out`
/// (so `out.len() == hi - lo`).
///
/// This is the streaming form of [`sq_euclidean`] for the KD-tree's leaf
/// scans: the inner loops run over the *point* index, which is contiguous
/// in each column, so the kernel reads memory strictly forward and
/// vectorizes over points instead of dimensions. Per point it accumulates
/// exactly the scalar kernel's terms in exactly the scalar kernel's order
/// (eight-lane groups into per-lane accumulators, remainder dimensions
/// sequentially, combined by the same `combine` tree), so
/// `out[j - lo]` is bit-identical to `sq_euclidean(point_j, query)`.
///
/// # Panics
///
/// Panics if `cols.len()` is not `query.len() * n_points`, if
/// `lo > hi || hi > n_points`, or if `out.len() != hi - lo`.
pub fn sq_euclidean_cols_into(
    cols: &[f64],
    n_points: usize,
    query: &[f64],
    lo: usize,
    hi: usize,
    out: &mut [f64],
) {
    let dim = query.len();
    assert_eq!(cols.len(), dim * n_points, "SoA buffer must be dim * n_points");
    assert!(lo <= hi && hi <= n_points, "point range out of bounds");
    assert_eq!(out.len(), hi - lo, "out length must match the point range");
    let full = dim - dim % LANES;
    let mut base = lo;
    for out_block in out.chunks_mut(COL_BLOCK) {
        let bn = out_block.len();
        let mut lanes = [[0.0f64; COL_BLOCK]; LANES];
        for d0 in (0..full).step_by(LANES) {
            for l in 0..LANES {
                let q = query[d0 + l];
                let col = &cols[(d0 + l) * n_points + base..(d0 + l) * n_points + base + bn];
                let acc = &mut lanes[l];
                for (jj, &c) in col.iter().enumerate() {
                    let d = c - q;
                    acc[jj] += d * d;
                }
            }
        }
        let mut tail = [0.0f64; COL_BLOCK];
        for d in full..dim {
            let q = query[d];
            let col = &cols[d * n_points + base..d * n_points + base + bn];
            for (jj, &c) in col.iter().enumerate() {
                let d = c - q;
                tail[jj] += d * d;
            }
        }
        for (jj, o) in out_block.iter_mut().enumerate() {
            let s: [f64; LANES] = std::array::from_fn(|l| lanes[l][jj]);
            *o = combine(s, tail[jj]);
        }
        base += bn;
    }
}

/// Cache-blocked matrix multiply on flat row-major slices: `out = a · b`.
///
/// `a` is `m × k`, `b` is `k × n`, `out` is `m × n`; all row-major. The loop
/// order is i-k-j with the `k` dimension tiled, so each `b` panel is reused
/// across all rows of `a` while it is hot in cache and the innermost loop
/// streams contiguously over a `b` row and an `out` row.
///
/// Each `out[i][j]` is accumulated from `0.0` in strictly ascending `k` —
/// exactly the order of the textbook dot product
/// `a_row.iter().zip(b_col).map(|(x, y)| x * y).sum()` — so results are
/// bit-identical to a naive row-times-column product. This is what lets the
/// MLP's batched forward pass (`aerorem-ml`) match its per-sample forward
/// pass exactly.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m × k`, `k × n`, and `m × n`.
pub fn matmul_ikj_into(a: &[f64], m: usize, k_dim: usize, b: &[f64], n: usize, out: &mut [f64]) {
    assert_eq!(a.len(), m * k_dim, "lhs length must be m * k");
    assert_eq!(b.len(), k_dim * n, "rhs length must be k * n");
    assert_eq!(out.len(), m * n, "out length must be m * n");
    // Tile size chosen so a KB×n panel of `b` (n up to a few hundred) stays
    // resident in L1/L2 while every row of `a` streams over it.
    const KB: usize = 64;
    out.fill(0.0);
    let mut k0 = 0;
    while k0 < k_dim {
        let k1 = (k0 + KB).min(k_dim);
        for (a_row, out_row) in a.chunks_exact(k_dim).zip(out.chunks_exact_mut(n)) {
            for (kk, &aik) in a_row[k0..k1].iter().enumerate() {
                let b_row = &b[(k0 + kk) * n..(k0 + kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bv;
                }
            }
        }
        k0 = k1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_sq(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }

    #[test]
    fn sq_euclidean_matches_naive_within_tolerance() {
        for len in 0..20 {
            let a: Vec<f64> = (0..len).map(|i| (i as f64).sin() * 3.0).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64).cos() - 0.5).collect();
            let got = sq_euclidean(&a, &b);
            let want = naive_sq(&a, &b);
            assert!((got - want).abs() < 1e-12 * (1.0 + want), "len {len}");
        }
    }

    #[test]
    fn sq_euclidean_exact_for_small_integers() {
        assert_eq!(sq_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_euclidean(&[], &[]), 0.0);
        assert_eq!(sq_euclidean(&[1.0; 8], &[1.0; 8]), 0.0);
    }

    #[test]
    fn short_inputs_match_the_sequential_sum_bits() {
        // For len < 8 the unrolled body never runs; the zero lanes must
        // vanish bit-exactly so fast paths and zero-padding stay coherent.
        for len in 0..8 {
            let a: Vec<f64> = (0..len).map(|i| (i as f64).sin() * 7.3 + 0.1).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64).cos() * 2.9 - 1.4).collect();
            assert_eq!(sq_euclidean(&a, &b), naive_sq(&a, &b), "sq len {len}");
            let naive_l1: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
            assert_eq!(taxicab(&a, &b), naive_l1, "l1 len {len}");
        }
    }

    #[test]
    fn zero_padding_is_bit_transparent() {
        // Padding both operands with zero dimensions up to a lane multiple
        // must not change a single bit (the kNN brute backend relies on it).
        let a = [1.25, -3.5, 0.75];
        let b = [0.5, 2.0, -1.0];
        let mut ap = a.to_vec();
        let mut bp = b.to_vec();
        ap.resize(8, 0.0);
        bp.resize(8, 0.0);
        assert_eq!(sq_euclidean(&a, &b), sq_euclidean(&ap, &bp));
        assert_eq!(taxicab(&a, &b), taxicab(&ap, &bp));
    }

    #[test]
    fn taxicab_exact_for_small_integers() {
        assert_eq!(taxicab(&[0.0, 0.0], &[3.0, -4.0]), 7.0);
        assert_eq!(taxicab(&[], &[]), 0.0);
        let a: Vec<f64> = (0..19).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..19).map(|i| (i as f64) - 2.0).collect();
        assert_eq!(taxicab(&a, &b), 38.0);
    }

    #[test]
    fn cols_kernel_matches_scalar_kernel_bits() {
        // Dimension-major scan must reproduce the row kernel bit-for-bit,
        // across lane boundaries, block boundaries, and sub-ranges.
        for &(dim, n) in &[(1usize, 7usize), (3, 300), (5, 129), (8, 64), (11, 257)] {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|j| (0..dim).map(|d| ((j * dim + d) as f64).sin() * 9.0).collect())
                .collect();
            let mut cols = vec![0.0; dim * n];
            for (j, row) in rows.iter().enumerate() {
                for (d, &v) in row.iter().enumerate() {
                    cols[d * n + j] = v;
                }
            }
            let query: Vec<f64> = (0..dim).map(|d| (d as f64).cos() * 4.0).collect();
            for &(lo, hi) in &[(0usize, n), (0, 1.min(n)), (n / 3, n - n / 4)] {
                let mut out = vec![0.0; hi - lo];
                sq_euclidean_cols_into(&cols, n, &query, lo, hi, &mut out);
                for (jj, &got) in out.iter().enumerate() {
                    let want = sq_euclidean(&query, &rows[lo + jj]);
                    assert_eq!(got, want, "dim {dim} n {n} point {}", lo + jj);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out length")]
    fn cols_kernel_rejects_bad_out_length() {
        let mut out = vec![0.0; 3];
        sq_euclidean_cols_into(&[0.0; 8], 4, &[0.0, 0.0], 0, 4, &mut out);
    }

    #[test]
    fn sq_euclidean_is_deterministic() {
        let a: Vec<f64> = (0..13).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let b: Vec<f64> = (0..13).map(|i| (i as f64).sqrt()).collect();
        assert_eq!(sq_euclidean(&a, &b), sq_euclidean(&a, &b));
    }

    #[test]
    fn matmul_ikj_matches_dot_product_bits() {
        // Sizes straddling the k-tile boundary.
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 5, 4), (7, 64, 3), (2, 65, 130)] {
            let a: Vec<f64> = (0..m * k).map(|i| 0.5 + (i as f64).sin()).collect();
            let b: Vec<f64> = (0..k * n).map(|i| 0.5 + (i as f64).cos()).collect();
            let mut out = vec![0.0; m * n];
            matmul_ikj_into(&a, m, k, &b, n, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let want: f64 = (0..k).map(|kk| a[i * k + kk] * b[kk * n + j]).sum();
                    assert_eq!(out[i * n + j], want, "({i},{j}) of {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lhs length")]
    fn matmul_ikj_rejects_bad_lengths() {
        let mut out = vec![0.0; 4];
        matmul_ikj_into(&[1.0; 3], 2, 2, &[1.0; 4], 2, &mut out);
    }
}
