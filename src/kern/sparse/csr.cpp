#include "kern/sparse/csr.hpp"

#include "kern/par.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace armstice::kern {

CsrMatrix::CsrMatrix(long rows, long cols, std::vector<Triplet> entries)
    : rows_(rows), cols_(cols) {
    ARMSTICE_CHECK(rows >= 0 && cols >= 0, "negative matrix shape");
    // Column indices are stored as int (8 B value + 4 B index is the 12 B/nnz
    // traffic the counts and the cost model price); reject shapes that the
    // narrowing below would silently corrupt.
    ARMSTICE_CHECK(cols <= static_cast<long>(std::numeric_limits<int>::max()),
                   "matrix has more columns than the int column-index storage holds");
    ARMSTICE_CHECK(entries.size() <=
                       static_cast<std::size_t>(std::numeric_limits<int>::max()),
                   "more triplets than the int-indexed nnz storage holds");
    for (const auto& t : entries) {
        ARMSTICE_CHECK(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols,
                       "triplet out of range");
    }
    std::sort(entries.begin(), entries.end(), [](const Triplet& a, const Triplet& b) {
        return a.row != b.row ? a.row < b.row : a.col < b.col;
    });
    row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
    col_idx_.reserve(entries.size());
    vals_.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size();) {
        std::size_t j = i;
        double sum = 0.0;
        while (j < entries.size() && entries[j].row == entries[i].row &&
               entries[j].col == entries[i].col) {
            sum += entries[j].val;
            ++j;
        }
        col_idx_.push_back(static_cast<int>(entries[i].col));
        vals_.push_back(sum);
        ++row_ptr_[static_cast<std::size_t>(entries[i].row) + 1];
        i = j;
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
        row_ptr_[r + 1] += row_ptr_[r];
    }
}

void CsrMatrix::spmv(std::span<const double> x, std::span<double> y,
                     OpCounts* counts) const {
    ARMSTICE_CHECK(x.size() == static_cast<std::size_t>(cols_), "spmv x size");
    ARMSTICE_CHECK(y.size() == static_cast<std::size_t>(rows_), "spmv y size");
    // Row-block parallel: each row's dot product is accumulated serially in
    // column order by exactly one task, so y is bit-identical at any jobs.
    par::parallel_for(rows_, [&](par::Range rows) {
        for (long i = rows.begin; i < rows.end; ++i) {
            double sum = 0.0;
            for (long k = row_ptr_[static_cast<std::size_t>(i)];
                 k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
                sum += vals_[static_cast<std::size_t>(k)] *
                       x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
            }
            y[static_cast<std::size_t>(i)] = sum;
        }
    });
    if (counts) add_spmv_counts(counts);
}

void CsrMatrix::add_spmv_counts(OpCounts* counts) const {
    counts->flops += spmv_flops();
    counts->bytes_read += 12.0 * static_cast<double>(nnz()) +
                          8.0 * static_cast<double>(rows_) +  // row ptrs
                          8.0 * static_cast<double>(rows_);   // x (gathered, ~1 touch/row amortised)
    counts->bytes_written += 8.0 * static_cast<double>(rows_);
}

double CsrMatrix::spmv_bytes() const {
    return 12.0 * static_cast<double>(nnz()) + 24.0 * static_cast<double>(rows_);
}

std::vector<double> CsrMatrix::diagonal() const {
    std::vector<double> d(static_cast<std::size_t>(rows_), 0.0);
    for (long i = 0; i < rows_; ++i) {
        for (long k = row_ptr_[static_cast<std::size_t>(i)];
             k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
            if (col_idx_[static_cast<std::size_t>(k)] == i) {
                d[static_cast<std::size_t>(i)] = vals_[static_cast<std::size_t>(k)];
            }
        }
    }
    return d;
}

void CsrMatrix::symgs(std::span<const double> r, std::span<double> x,
                      OpCounts* counts) const {
    ARMSTICE_CHECK(rows_ == cols_, "symgs needs a square matrix");
    ARMSTICE_CHECK(r.size() == static_cast<std::size_t>(rows_), "symgs r size");
    ARMSTICE_CHECK(x.size() == static_cast<std::size_t>(rows_), "symgs x size");

    auto sweep_row = [&](long i) {
        double sum = r[static_cast<std::size_t>(i)];
        double diag = 0.0;
        for (long k = row_ptr_[static_cast<std::size_t>(i)];
             k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
            const long j = col_idx_[static_cast<std::size_t>(k)];
            const double v = vals_[static_cast<std::size_t>(k)];
            if (j == i) {
                diag = v;
            } else {
                sum -= v * x[static_cast<std::size_t>(j)];
            }
        }
        ARMSTICE_CHECK(diag != 0.0, "symgs requires nonzero diagonal");
        x[static_cast<std::size_t>(i)] = sum / diag;
    };

    for (long i = 0; i < rows_; ++i) sweep_row(i);          // forward
    for (long i = rows_ - 1; i >= 0; --i) sweep_row(i);     // backward
    if (counts) {
        counts->flops += 4.0 * static_cast<double>(nnz());  // two sweeps x 2nnz
        counts->bytes_read += 2.0 * (12.0 * static_cast<double>(nnz()) +
                                     16.0 * static_cast<double>(rows_));
        counts->bytes_written += 2.0 * 8.0 * static_cast<double>(rows_);
    }
}

namespace {

CsrMatrix poisson_stencil(int nx, int ny, int nz, bool full27) {
    ARMSTICE_CHECK(nx >= 1 && ny >= 1 && nz >= 1, "bad grid");
    const long n = static_cast<long>(nx) * ny * nz;
    std::vector<Triplet> trip;
    trip.reserve(static_cast<std::size_t>(n) * (full27 ? 27 : 7));
    auto id = [&](int x, int y, int z) {
        return (static_cast<long>(z) * ny + y) * nx + x;
    };
    for (int z = 0; z < nz; ++z) {
        for (int y = 0; y < ny; ++y) {
            for (int x = 0; x < nx; ++x) {
                const long row = id(x, y, z);
                for (int dz = -1; dz <= 1; ++dz) {
                    for (int dy = -1; dy <= 1; ++dy) {
                        for (int dx = -1; dx <= 1; ++dx) {
                            if (!full27 && std::abs(dx) + std::abs(dy) + std::abs(dz) > 1) {
                                continue;
                            }
                            const int xx = x + dx, yy = y + dy, zz = z + dz;
                            if (xx < 0 || xx >= nx || yy < 0 || yy >= ny || zz < 0 ||
                                zz >= nz) {
                                continue;
                            }
                            const long col = id(xx, yy, zz);
                            const bool diag = (row == col);
                            const double v = full27 ? (diag ? 26.0 : -1.0)
                                                    : (diag ? 6.0 : -1.0);
                            trip.push_back({row, col, v});
                        }
                    }
                }
            }
        }
    }
    return CsrMatrix(n, n, std::move(trip));
}

} // namespace

CsrMatrix poisson27(int nx, int ny, int nz) { return poisson_stencil(nx, ny, nz, true); }
CsrMatrix poisson7(int nx, int ny, int nz) { return poisson_stencil(nx, ny, nz, false); }

CsrMatrix random_spd(long n, int extra, unsigned long seed) {
    ARMSTICE_CHECK(n >= 1 && extra >= 0, "bad random_spd shape");
    util::Rng rng(seed);
    std::vector<Triplet> trip;
    trip.reserve(static_cast<std::size_t>(n) * (1 + 2 * extra));
    // Symmetric off-diagonals, then a dominant diagonal.
    std::vector<double> rowsum(static_cast<std::size_t>(n), 0.0);
    for (long i = 0; i < n; ++i) {
        for (int e = 0; e < extra; ++e) {
            const long j = static_cast<long>(rng.next_below(static_cast<std::uint64_t>(n)));
            if (j == i) continue;
            const double v = -rng.uniform(0.1, 1.0);
            trip.push_back({i, j, v});
            trip.push_back({j, i, v});
            rowsum[static_cast<std::size_t>(i)] += std::abs(v);
            rowsum[static_cast<std::size_t>(j)] += std::abs(v);
        }
    }
    for (long i = 0; i < n; ++i) {
        trip.push_back({i, i, rowsum[static_cast<std::size_t>(i)] + 1.0});
    }
    return CsrMatrix(n, n, std::move(trip));
}

} // namespace armstice::kern
