#pragma once
// Compressed sparse row matrices and SpMV — the substrate for HPCG, minikab
// and the COSA smoother models. Real implementations with exact operation
// counting.

#include "kern/counters.hpp"

#include <span>
#include <vector>

namespace armstice::kern {

struct Triplet {
    long row = 0;
    long col = 0;
    double val = 0;
};

class CsrMatrix {
public:
    CsrMatrix() = default;
    /// Build from (unsorted, possibly duplicate) triplets; duplicates sum.
    CsrMatrix(long rows, long cols, std::vector<Triplet> entries);

    [[nodiscard]] long rows() const { return rows_; }
    [[nodiscard]] long cols() const { return cols_; }
    [[nodiscard]] long nnz() const { return static_cast<long>(vals_.size()); }

    [[nodiscard]] std::span<const long> row_ptr() const { return row_ptr_; }
    [[nodiscard]] std::span<const int> col_idx() const { return col_idx_; }
    [[nodiscard]] std::span<const double> vals() const { return vals_; }

    /// y = A*x. Exact counts: 2*nnz flops; matrix traffic 12 B/nnz (8 B
    /// value + 4 B column index) + row pointers + vector traffic.
    /// Bit-identical at every par::jobs() value.
    void spmv(std::span<const double> x, std::span<double> y,
              OpCounts* counts = nullptr) const;

    /// Diagonal entry of each row (zero when absent).
    [[nodiscard]] std::vector<double> diagonal() const;

    /// In-place symmetric Gauss-Seidel sweep (forward then backward) for
    /// x <- SymGS(A, r, x): the HPCG smoother. Requires nonzero diagonals.
    void symgs(std::span<const double> r, std::span<double> x,
               OpCounts* counts = nullptr) const;

    /// Analytic per-SpMV counts used by the skeletons.
    [[nodiscard]] double spmv_flops() const { return 2.0 * static_cast<double>(nnz()); }
    [[nodiscard]] double spmv_bytes() const;

private:
    void add_spmv_counts(OpCounts* counts) const;

    long rows_ = 0;
    long cols_ = 0;
    std::vector<long> row_ptr_;
    std::vector<int> col_idx_;
    std::vector<double> vals_;
};

/// 3D Poisson operator on an nx x ny x nz grid with a 27-point stencil
/// (the HPCG matrix: diagonal 26, off-diagonals -1, Dirichlet boundary).
CsrMatrix poisson27(int nx, int ny, int nz);

/// 7-point Laplacian variant (COSA/OpenSBLI-style smoother tests).
CsrMatrix poisson7(int nx, int ny, int nz);

/// Random SPD matrix: diagonally dominant with `extra` off-diagonals per row
/// (used by property tests and the minikab reference at laptop scale).
CsrMatrix random_spd(long n, int extra, unsigned long seed);

} // namespace armstice::kern
