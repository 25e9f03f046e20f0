//! Compressed sparse row (CSR) matrices.
//!
//! # SIMD layout notes
//!
//! The planning hot path (`bpr-pomdp`'s fused τ-operator) runs two
//! kernels per tree node: a transposed SpMV (belief prediction) and a
//! fused row gather-and-scale (observation posterior). Both have
//! `*_unchecked` variants that skip the `Result`-returning dimension
//! validation (`debug_assert!`ed instead — the workspace forbids
//! `unsafe`, so "unchecked" here means "no `Result` plumbing", all
//! slice accesses stay bounds-checked by the compiler and the inner
//! loops are written as slice zips so those checks vectorize away).
//!
//! High-fill rows additionally carry a *dense mirror*: rows whose fill
//! ratio reaches [`CsrMatrix::DENSE_ROW_MIN_FILL`] (on matrices of at
//! least [`CsrMatrix::DENSE_ROW_MIN_COLS`] columns, opted in via
//! [`CsrMatrix::enable_dense_rows`]) are stored a second time as
//! contiguous value lanes padded to a multiple of 8 so consecutive
//! rows start on 64-byte boundaries. On those rows the indirect
//! `y[col[k]] += v·x` scatter becomes a contiguous `y[j] += d[j]·x`
//! axpy and the gather-scale becomes an elementwise product — both
//! autovectorize. Reductions (`row_scaled` sums) stay a single scalar
//! accumulator in ascending column order: the dense mirror only adds
//! `+0.0` terms at padded positions, which is bitwise inert because
//! every stored value is `> 0` (enforced at mirror build time) and the
//! inputs are non-negative (debug-asserted) — so results are
//! bit-identical to the sparse path.
//!
//! Which matrices carry mirrors is the caller's choice. `bpr-pomdp`
//! mirrors both sides of every distinct observation matrix: the
//! observation-major transpose `Q_aᵀ`, whose rows feed the
//! gather-scale, and the state-major `Q_a` itself, whose rows feed the
//! transposed SpMV `γ = Q_aᵀ · pred` that yields every branch mass of a
//! tree node in one pass. On the paper's EMN model (15 states, 129
//! observations) the state-major rows are mostly full, so that SpMV is
//! 15 contiguous axpys of length 129 instead of ~1 600 indirect
//! scatters.

use crate::Error;

/// A sparse matrix in compressed sparse row format.
///
/// The matrix is immutable once built; construct it from triplets with
/// [`CsrMatrix::from_triplets`] (duplicate entries are summed) or from a
/// dense row-major slice with [`CsrMatrix::from_dense`].
///
/// # Examples
///
/// ```
/// use bpr_linalg::CsrMatrix;
///
/// # fn main() -> Result<(), bpr_linalg::Error> {
/// let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])?;
/// assert_eq!(m.nnz(), 3);
/// assert_eq!(m.get(0, 2), 2.0);
/// assert_eq!(m.get(1, 0), 0.0);
/// let y = m.matvec(&[1.0, 1.0, 1.0])?;
/// assert_eq!(y, vec![3.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    /// `row_ptr[i]..row_ptr[i + 1]` indexes the entries of row `i`.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
    /// Padded dense mirrors of high-fill rows (see module docs); an
    /// acceleration structure, never part of the matrix's identity.
    dense: Option<DenseRows>,
}

/// Equality is over the logical matrix only — whether a dense-row
/// mirror has been enabled does not affect it.
impl PartialEq for CsrMatrix {
    fn eq(&self, other: &CsrMatrix) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.values == other.values
    }
}

/// Contiguous padded storage for the dense mirrors of high-fill rows.
#[derive(Debug, Clone)]
struct DenseRows {
    /// Row stride: `ncols` rounded up to a multiple of
    /// [`CsrMatrix::DENSE_ROW_LANE`], so every mirrored row starts
    /// lane-aligned.
    stride: usize,
    /// Per-row offset into `values`, or [`NO_DENSE_ROW`].
    offsets: Vec<u32>,
    values: Vec<f64>,
}

/// Sentinel in [`DenseRows::offsets`] for rows without a mirror.
const NO_DENSE_ROW: u32 = u32::MAX;

impl CsrMatrix {
    /// Creates a matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate `(row, col)` pairs are summed; exact zeros are kept out
    /// of the structure. Triplets may be in any order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] if any triplet lies outside
    /// `nrows x ncols`, and [`Error::NotFinite`] if any value is NaN or
    /// infinite.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<CsrMatrix, Error> {
        for &(r, c, v) in triplets {
            if r >= nrows || c >= ncols {
                return Err(Error::IndexOutOfBounds {
                    row: r,
                    col: c,
                    nrows,
                    ncols,
                });
            }
            if !v.is_finite() {
                return Err(Error::NotFinite {
                    what: "matrix triplet value",
                });
            }
        }
        // Sort triplet indices by (row, col); equal keys end up adjacent
        // so duplicates can be merged in a single pass.
        let mut order: Vec<usize> = (0..triplets.len()).collect();
        order.sort_unstable_by_key(|&i| (triplets[i].0, triplets[i].1));

        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        let mut cur_row = 0usize;
        for &i in &order {
            let (r, c, v) = triplets[i];
            while cur_row < r {
                row_ptr.push(col_idx.len());
                cur_row += 1;
            }
            if let (Some(&last_c), true) = (col_idx.last(), row_ptr.len() == r + 1) {
                if last_c == c && !values.is_empty() && col_idx.len() > row_ptr[r] {
                    *values.last_mut().expect("nonempty") += v;
                    continue;
                }
            }
            col_idx.push(c);
            values.push(v);
        }
        while cur_row < nrows {
            row_ptr.push(col_idx.len());
            cur_row += 1;
        }
        debug_assert_eq!(row_ptr.len(), nrows + 1);

        // Drop exact zeros produced by cancellation.
        let mut m = CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
            dense: None,
        };
        m.prune_zeros();
        Ok(m)
    }

    /// Creates a matrix from a dense row-major slice.
    ///
    /// Entries with absolute value `0.0` are not stored.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `data.len() != nrows * ncols`.
    pub fn from_dense(nrows: usize, ncols: usize, data: &[f64]) -> Result<CsrMatrix, Error> {
        if data.len() != nrows * ncols {
            return Err(Error::DimensionMismatch {
                expected: nrows * ncols,
                actual: data.len(),
                what: "dense data length",
            });
        }
        let mut triplets = Vec::new();
        for r in 0..nrows {
            for c in 0..ncols {
                let v = data[r * ncols + c];
                if v != 0.0 {
                    triplets.push((r, c, v));
                }
            }
        }
        CsrMatrix::from_triplets(nrows, ncols, &triplets)
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> CsrMatrix {
        let triplets: Vec<_> = (0..n).map(|i| (i, i, 1.0)).collect();
        CsrMatrix::from_triplets(n, n, &triplets).expect("identity triplets are in bounds")
    }

    /// Creates an `nrows x ncols` matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> CsrMatrix {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
            dense: None,
        }
    }

    fn prune_zeros(&mut self) {
        // Structure is about to change; any dense mirror is stale.
        self.dense = None;
        if !self.values.contains(&0.0) {
            return;
        }
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::with_capacity(self.col_idx.len());
        let mut values = Vec::with_capacity(self.values.len());
        row_ptr.push(0);
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                if self.values[k] != 0.0 {
                    col_idx.push(self.col_idx[k]);
                    values.push(self.values[k]);
                }
            }
            row_ptr.push(col_idx.len());
        }
        self.row_ptr = row_ptr;
        self.col_idx = col_idx;
        self.values = values;
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of explicitly stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the entry at `(row, col)`, or `0.0` if it is not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.nrows && col < self.ncols, "index out of bounds");
        for k in self.row_ptr[row]..self.row_ptr[row + 1] {
            if self.col_idx[k] == col {
                return self.values[k];
            }
        }
        0.0
    }

    /// Iterates over the stored `(col, value)` pairs of one row, in
    /// ascending column order.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.nrows()`.
    pub fn row(&self, row: usize) -> RowIter<'_> {
        assert!(row < self.nrows, "row out of bounds");
        RowIter {
            matrix: self,
            pos: self.row_ptr[row],
            end: self.row_ptr[row + 1],
        }
    }

    /// The stored column indices (ascending) and values of one row, as
    /// two parallel slices of the CSR arrays — the row's support,
    /// without copying it.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.nrows()`.
    pub fn row_slice(&self, row: usize) -> (&[usize], &[f64]) {
        assert!(row < self.nrows, "row out of bounds");
        let (s, e) = (self.row_ptr[row], self.row_ptr[row + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Computes `y = self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `x.len() != self.ncols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, Error> {
        let mut y = vec![0.0; self.nrows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// Computes `y = self * x`, writing into a caller-provided buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `x.len() != self.ncols()`
    /// or `y.len() != self.nrows()`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), Error> {
        if x.len() != self.ncols {
            return Err(Error::DimensionMismatch {
                expected: self.ncols,
                actual: x.len(),
                what: "matvec input",
            });
        }
        if y.len() != self.nrows {
            return Err(Error::DimensionMismatch {
                expected: self.nrows,
                actual: y.len(),
                what: "matvec output",
            });
        }
        for (r, out) in y.iter_mut().enumerate() {
            let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
            // Single accumulator in ascending column order — the
            // summation order is part of the bit-identity contract.
            let mut acc = 0.0;
            for (&c, &v) in self.col_idx[s..e].iter().zip(&self.values[s..e]) {
                acc += v * x[c];
            }
            *out = acc;
        }
        Ok(())
    }

    /// Computes `y = selfᵀ * x` (equivalently `xᵀ · self`).
    ///
    /// This is the kernel of the belief propagation step
    /// `π'(s) ∝ Σ_{s'} p(s|s',a) π(s')`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `x.len() != self.nrows()`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Result<Vec<f64>, Error> {
        let mut y = vec![0.0; self.ncols];
        self.matvec_transpose_into(x, &mut y)?;
        Ok(y)
    }

    /// Computes `y = selfᵀ * x`, writing into a caller-provided buffer.
    ///
    /// Bit-identical to [`CsrMatrix::matvec_transpose`] (same traversal
    /// and accumulation order); the buffer variant exists so hot loops
    /// can reuse scratch instead of allocating per call.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `x.len() != self.nrows()`
    /// or `y.len() != self.ncols()`.
    pub fn matvec_transpose_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), Error> {
        if x.len() != self.nrows {
            return Err(Error::DimensionMismatch {
                expected: self.nrows,
                actual: x.len(),
                what: "transpose matvec input",
            });
        }
        if y.len() != self.ncols {
            return Err(Error::DimensionMismatch {
                expected: self.ncols,
                actual: y.len(),
                what: "transpose matvec output",
            });
        }
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
            for (&c, &v) in self.col_idx[s..e].iter().zip(&self.values[s..e]) {
                y[c] += v * xr;
            }
        }
        Ok(())
    }

    /// [`CsrMatrix::matvec_transpose_into`] without the `Result`
    /// plumbing, for validated hot loops: dimensions are
    /// `debug_assert!`ed, and rows with a dense mirror (see
    /// [`CsrMatrix::enable_dense_rows`]) use a contiguous axpy instead
    /// of the indirect scatter.
    ///
    /// Bit-identical to the checked variant **provided `x` is
    /// non-negative with no `-0.0` entries** (debug-asserted): the
    /// mirror's padded positions contribute `+0.0`, which cannot flip
    /// the sign bit of a non-negative accumulation.
    pub fn matvec_transpose_into_unchecked(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.nrows, "transpose matvec input length");
        debug_assert_eq!(y.len(), self.ncols, "transpose matvec output length");
        debug_assert!(
            x.iter().all(|&v| v > 0.0 || v.to_bits() == 0),
            "unchecked transpose matvec requires non-negative input without -0.0"
        );
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            if let Some(d) = self.dense_row(r) {
                for (yj, &vj) in y.iter_mut().zip(d) {
                    *yj += vj * xr;
                }
            } else {
                let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
                for (&c, &v) in self.col_idx[s..e].iter().zip(&self.values[s..e]) {
                    y[c] += v * xr;
                }
            }
        }
    }

    /// Fused row gather-and-scale: writes `out[c] = self[row, c] * x[c]`
    /// for every stored entry of `row` (zero elsewhere) and returns the
    /// sum of those products, accumulated in ascending column order.
    ///
    /// This is the diagonal-scale half of a fused posterior operator
    /// `τ = diag(row) ∘ M`: apply `M` once with
    /// [`CsrMatrix::matvec_transpose_into`], then this per row. Since
    /// the skipped columns contribute exactly `+0.0` and every product
    /// here is a plain `v * x[c]`, the returned sum equals a dense
    /// left-to-right sum over `out` bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] if `row >= self.nrows()` and
    /// [`Error::DimensionMismatch`] if `x` or `out` is not `ncols` long.
    pub fn row_scaled_into(&self, row: usize, x: &[f64], out: &mut [f64]) -> Result<f64, Error> {
        if row >= self.nrows {
            return Err(Error::IndexOutOfBounds {
                row,
                col: 0,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        if x.len() != self.ncols {
            return Err(Error::DimensionMismatch {
                expected: self.ncols,
                actual: x.len(),
                what: "row_scaled input",
            });
        }
        if out.len() != self.ncols {
            return Err(Error::DimensionMismatch {
                expected: self.ncols,
                actual: out.len(),
                what: "row_scaled output",
            });
        }
        out.fill(0.0);
        let (s, e) = (self.row_ptr[row], self.row_ptr[row + 1]);
        let mut acc = 0.0;
        for (&c, &v) in self.col_idx[s..e].iter().zip(&self.values[s..e]) {
            let t = v * x[c];
            out[c] = t;
            acc += t;
        }
        Ok(acc)
    }

    /// [`CsrMatrix::row_scaled_into`] without the `Result` plumbing,
    /// for validated hot loops: bounds are `debug_assert!`ed, and rows
    /// with a dense mirror split into a vectorizable elementwise
    /// product followed by a scalar left-to-right sum (the short-row
    /// sparse tail keeps the original fused scalar loop).
    ///
    /// Bit-identical to the checked variant **provided `x` is
    /// non-negative with no `-0.0` entries** (debug-asserted): the sum
    /// then only ever adds `+0.0` at positions the sparse path skips.
    pub fn row_scaled_into_unchecked(&self, row: usize, x: &[f64], out: &mut [f64]) -> f64 {
        debug_assert!(row < self.nrows, "row_scaled row out of bounds");
        debug_assert_eq!(x.len(), self.ncols, "row_scaled input length");
        debug_assert_eq!(out.len(), self.ncols, "row_scaled output length");
        debug_assert!(
            x.iter().all(|&v| v > 0.0 || v.to_bits() == 0),
            "unchecked row_scaled requires non-negative input without -0.0"
        );
        if let Some(d) = self.dense_row(row) {
            for ((o, &vj), &xj) in out.iter_mut().zip(d).zip(x) {
                *o = vj * xj;
            }
            let mut acc = 0.0;
            for &t in out.iter() {
                acc += t;
            }
            acc
        } else {
            out.fill(0.0);
            let (s, e) = (self.row_ptr[row], self.row_ptr[row + 1]);
            let mut acc = 0.0;
            for (&c, &v) in self.col_idx[s..e].iter().zip(&self.values[s..e]) {
                let t = v * x[c];
                out[c] = t;
                acc += t;
            }
            acc
        }
    }

    /// Minimum fill ratio (`nnz / ncols`) for a row to get a dense
    /// mirror under [`CsrMatrix::enable_dense_rows`].
    pub const DENSE_ROW_MIN_FILL: f64 = 0.5;

    /// Minimum column count for dense mirrors to be considered at all —
    /// below this the scalar sparse loop wins regardless of fill.
    pub const DENSE_ROW_MIN_COLS: usize = 16;

    /// Lane width the dense mirrors pad to (f64 elements).
    pub const DENSE_ROW_LANE: usize = 8;

    /// Builds padded dense mirrors for high-fill rows, used by the
    /// `*_unchecked` kernels (see module docs for the layout and the
    /// bit-identity argument). A no-op unless every stored value is
    /// strictly positive — the `+0.0`-padding argument needs a
    /// non-negative accumulation domain — and at least one row clears
    /// the fill threshold. Any mutation drops the mirror.
    pub fn enable_dense_rows(&mut self) {
        self.dense = None;
        if self.ncols < CsrMatrix::DENSE_ROW_MIN_COLS || self.values.iter().any(|&v| v <= 0.0) {
            return;
        }
        let lane = CsrMatrix::DENSE_ROW_LANE;
        let stride = self.ncols.div_ceil(lane) * lane;
        let min_nnz = (CsrMatrix::DENSE_ROW_MIN_FILL * self.ncols as f64).ceil() as usize;
        let mut offsets = vec![NO_DENSE_ROW; self.nrows];
        let mut values = Vec::new();
        for (r, offset) in offsets.iter_mut().enumerate() {
            let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
            if e - s < min_nnz || values.len() + stride > NO_DENSE_ROW as usize {
                continue;
            }
            let start = values.len();
            *offset = start as u32;
            values.resize(start + stride, 0.0);
            for (&c, &v) in self.col_idx[s..e].iter().zip(&self.values[s..e]) {
                values[start + c] = v;
            }
        }
        if !values.is_empty() {
            self.dense = Some(DenseRows {
                stride,
                offsets,
                values,
            });
        }
    }

    /// Whether [`CsrMatrix::enable_dense_rows`] produced any mirrors.
    pub fn has_dense_rows(&self) -> bool {
        self.dense.is_some()
    }

    /// The dense mirror of `row` (length `ncols`), if it has one.
    fn dense_row(&self, row: usize) -> Option<&[f64]> {
        let d = self.dense.as_ref()?;
        let off = d.offsets[row];
        if off == NO_DENSE_ROW {
            return None;
        }
        let off = off as usize;
        debug_assert!(d.stride >= self.ncols);
        Some(&d.values[off..off + self.ncols])
    }

    /// Whether `self` and `other` are the same matrix bit for bit:
    /// dimensions, structure, and every stored value's
    /// [`f64::to_bits`]. Stricter than `==`, which compares values as
    /// floats (`-0.0 == 0.0`); like `==`, it ignores dense mirrors.
    pub fn identical(&self, other: &CsrMatrix) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Returns the explicit transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                triplets.push((self.col_idx[k], r, self.values[k]));
            }
        }
        CsrMatrix::from_triplets(self.ncols, self.nrows, &triplets)
            .expect("transposed triplets are in bounds")
    }

    /// Sum of the stored entries of each row.
    ///
    /// For a stochastic matrix every row sum is `1.0`.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|r| self.row(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Returns a copy with every entry multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> CsrMatrix {
        let mut m = self.clone();
        for v in &mut m.values {
            *v *= factor;
        }
        m.prune_zeros();
        m
    }

    /// Converts to a dense row-major `Vec` (for tests and tiny models).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows * self.ncols];
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                d[r * self.ncols + self.col_idx[k]] = self.values[k];
            }
        }
        d
    }

    /// True if every row sums to `1.0 ± tol` and all entries are in
    /// `[0, 1 + tol]` — i.e. the matrix is (row-)stochastic.
    pub fn is_stochastic(&self, tol: f64) -> bool {
        self.values.iter().all(|&v| (-tol..=1.0 + tol).contains(&v))
            && self.row_sums().iter().all(|&s| (s - 1.0).abs() <= tol)
    }
}

/// Iterator over the `(column, value)` pairs of a single matrix row.
///
/// Produced by [`CsrMatrix::row`].
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    matrix: &'a CsrMatrix,
    pos: usize,
    end: usize,
}

impl Iterator for RowIter<'_> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        if self.pos >= self.end {
            return None;
        }
        let item = (self.matrix.col_idx[self.pos], self.matrix.values[self.pos]);
        self.pos += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.pos;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_roundtrip_dense() {
        let dense = [1.0, 0.0, 2.0, 0.0, 0.0, -3.0];
        let m = CsrMatrix::from_dense(2, 3, &dense).unwrap();
        assert_eq!(m.to_dense(), dense.to_vec());
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(1, 2, &[(0, 1, 0.5), (0, 1, 0.25), (0, 0, 1.0)]).unwrap();
        assert_eq!(m.get(0, 1), 0.75);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn cancelled_duplicates_are_pruned() {
        let m = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0), (0, 0, -1.0)]).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn out_of_bounds_triplet_is_rejected() {
        let err = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, Error::IndexOutOfBounds { row: 2, .. }));
    }

    #[test]
    fn non_finite_triplet_is_rejected() {
        let err = CsrMatrix::from_triplets(1, 1, &[(0, 0, f64::NAN)]).unwrap_err();
        assert!(matches!(err, Error::NotFinite { .. }));
    }

    #[test]
    fn matvec_matches_dense() {
        let m = CsrMatrix::from_dense(2, 3, &[1.0, 2.0, 0.0, 0.0, -1.0, 4.0]).unwrap();
        let y = m.matvec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![5.0, 10.0]);
    }

    #[test]
    fn matvec_dimension_mismatch() {
        let m = CsrMatrix::identity(2);
        assert!(matches!(
            m.matvec(&[1.0]),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_matvec_agrees_with_explicit_transpose() {
        let m = CsrMatrix::from_dense(2, 3, &[1.0, 2.0, 0.0, 0.5, 0.0, 4.0]).unwrap();
        let x = [3.0, -1.0];
        let via_kernel = m.matvec_transpose(&x).unwrap();
        let via_transpose = m.transpose().matvec(&x).unwrap();
        assert_eq!(via_kernel, via_transpose);
    }

    #[test]
    fn identity_is_stochastic() {
        assert!(CsrMatrix::identity(4).is_stochastic(1e-12));
    }

    #[test]
    fn row_slice_matches_the_row_iterator() {
        let m = CsrMatrix::from_triplets(3, 4, &[(0, 3, 1.0), (0, 1, 2.0), (2, 0, 3.0)]).unwrap();
        for r in 0..3 {
            let (cols, vals) = m.row_slice(r);
            let pairs: Vec<(usize, f64)> = cols.iter().copied().zip(vals.iter().copied()).collect();
            assert_eq!(pairs, m.row(r).collect::<Vec<_>>(), "row {r}");
        }
        assert_eq!(m.row_slice(1), (&[][..], &[][..]));
    }

    #[test]
    fn row_iterator_is_sorted_and_exact() {
        let m = CsrMatrix::from_triplets(1, 4, &[(0, 3, 1.0), (0, 1, 2.0), (0, 0, 3.0)]).unwrap();
        let row: Vec<_> = m.row(0).collect();
        assert_eq!(row, vec![(0, 3.0), (1, 2.0), (3, 1.0)]);
        assert_eq!(m.row(0).len(), 3);
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = CsrMatrix::zeros(3, 2);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.matvec(&[1.0, 1.0]).unwrap(), vec![0.0; 3]);
    }

    #[test]
    fn scaled_multiplies_entries() {
        let m = CsrMatrix::identity(2).scaled(2.5);
        assert_eq!(m.get(0, 0), 2.5);
        assert_eq!(m.get(1, 1), 2.5);
    }

    /// A 20-column stochastic-ish matrix with one dense row (every
    /// column) and several sparse rows, all values strictly positive.
    fn mixed_fill_matrix() -> CsrMatrix {
        let mut triplets = Vec::new();
        for c in 0..20 {
            triplets.push((0, c, 0.01 + c as f64 * 0.003));
        }
        triplets.extend([
            (1, 3, 0.9),
            (1, 17, 0.1),
            (2, 0, 1.0),
            (3, 5, 0.4),
            (3, 6, 0.6),
        ]);
        CsrMatrix::from_triplets(4, 20, &triplets).unwrap()
    }

    #[test]
    fn dense_mirrors_only_cover_high_fill_positive_rows() {
        let mut m = mixed_fill_matrix();
        assert!(!m.has_dense_rows());
        m.enable_dense_rows();
        assert!(m.has_dense_rows());
        assert!(m.dense_row(0).is_some());
        assert!(m.dense_row(1).is_none(), "2/20 fill must stay sparse");

        // Matrices with any non-positive value refuse mirrors.
        let mut neg = CsrMatrix::from_triplets(
            1,
            20,
            &(0..20)
                .map(|c| (0usize, c, if c == 7 { -1.0 } else { 1.0 }))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        neg.enable_dense_rows();
        assert!(!neg.has_dense_rows());

        // Narrow matrices refuse mirrors regardless of fill.
        let mut narrow = CsrMatrix::from_dense(1, 2, &[0.5, 0.5]).unwrap();
        narrow.enable_dense_rows();
        assert!(!narrow.has_dense_rows());
    }

    #[test]
    fn equality_ignores_dense_mirrors() {
        let plain = mixed_fill_matrix();
        let mut mirrored = mixed_fill_matrix();
        mirrored.enable_dense_rows();
        assert_eq!(plain, mirrored);
    }

    #[test]
    fn identical_compares_value_bits_not_floats() {
        let m = mixed_fill_matrix();
        let mut mirrored = mixed_fill_matrix();
        mirrored.enable_dense_rows();
        assert!(m.identical(&mirrored), "mirrors are not part of identity");

        // The builders prune stored zeros, so a signed stored zero can
        // only be made by hand: `==` calls the two equal, `identical`
        // does not.
        let signed_zero = |v: f64| CsrMatrix {
            nrows: 1,
            ncols: 2,
            row_ptr: vec![0, 2],
            col_idx: vec![0, 1],
            values: vec![1.0, v],
            dense: None,
        };
        assert_eq!(signed_zero(0.0), signed_zero(-0.0));
        assert!(!signed_zero(0.0).identical(&signed_zero(-0.0)));
        assert!(signed_zero(-0.0).identical(&signed_zero(-0.0)));

        let one = CsrMatrix::from_dense(1, 2, &[0.5, 0.5]).unwrap();
        let ulp =
            CsrMatrix::from_dense(1, 2, &[0.5, f64::from_bits(0.5f64.to_bits() + 1)]).unwrap();
        assert!(!one.identical(&ulp));
        let moved = CsrMatrix::from_dense(2, 1, &[0.5, 0.5]).unwrap();
        assert!(!one.identical(&moved), "same values, other shape");
    }

    #[test]
    fn unchecked_transpose_matvec_is_bit_identical() {
        let mut m = mixed_fill_matrix();
        let x: Vec<f64> = (0..4).map(|i| 0.1 + 0.2 * i as f64).collect();
        let mut reference = vec![0.0; 20];
        m.matvec_transpose_into(&x, &mut reference).unwrap();
        let mut fast = vec![1.0; 20];
        m.matvec_transpose_into_unchecked(&x, &mut fast);
        assert!(reference
            .iter()
            .zip(&fast)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        m.enable_dense_rows();
        m.matvec_transpose_into_unchecked(&x, &mut fast);
        assert!(reference
            .iter()
            .zip(&fast)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // Zero entries in x (exactly +0.0) are skipped identically.
        let x0 = [0.0, 0.3, 0.0, 0.7];
        m.matvec_transpose_into(&x0, &mut reference).unwrap();
        m.matvec_transpose_into_unchecked(&x0, &mut fast);
        assert!(reference
            .iter()
            .zip(&fast)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn unchecked_row_scaled_is_bit_identical() {
        let mut m = mixed_fill_matrix();
        let x: Vec<f64> = (0..20)
            .map(|c| if c % 3 == 0 { 0.0 } else { 0.05 * c as f64 })
            .collect();
        let mut reference = vec![0.0; 20];
        let mut fast = vec![2.0; 20];
        for row in 0..4 {
            let acc_ref = m.row_scaled_into(row, &x, &mut reference).unwrap();
            let acc = m.row_scaled_into_unchecked(row, &x, &mut fast);
            assert_eq!(acc_ref.to_bits(), acc.to_bits(), "row {row}");
            assert!(reference
                .iter()
                .zip(&fast)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        m.enable_dense_rows();
        for row in 0..4 {
            let acc_ref = m.row_scaled_into(row, &x, &mut reference).unwrap();
            let acc = m.row_scaled_into_unchecked(row, &x, &mut fast);
            assert_eq!(acc_ref.to_bits(), acc.to_bits(), "row {row} (dense mirror)");
            assert!(reference
                .iter()
                .zip(&fast)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn mutation_drops_dense_mirrors() {
        let mut m = mixed_fill_matrix();
        m.enable_dense_rows();
        assert!(m.has_dense_rows());
        let scaled = m.scaled(2.0);
        assert!(!scaled.has_dense_rows());
    }

    #[test]
    fn row_sums_of_stochastic_matrix() {
        let m = CsrMatrix::from_dense(2, 2, &[0.25, 0.75, 1.0, 0.0]).unwrap();
        let sums = m.row_sums();
        assert!((sums[0] - 1.0).abs() < 1e-12);
        assert!((sums[1] - 1.0).abs() < 1e-12);
        assert!(m.is_stochastic(1e-12));
    }
}
