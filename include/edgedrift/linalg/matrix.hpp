// Dense row-major matrix type used throughout edgedrift.
//
// The library deliberately carries its own small linear-algebra substrate
// instead of depending on Eigen/BLAS: the paper's target is a
// microcontroller-class device where the entire numeric kernel must be
// auditable and allocation-free on the hot path. Matrix is the storage and
// shape layer; compute kernels live in gemm.hpp / solve.hpp / updates.hpp.
//
// Since the tiered-numerics refactor the storage layer is precision-generic:
// MatrixT<T> carries the shape/ownership logic once, and the library
// instantiates it for double (the exact reference tier) and float (the f32
// scoring tier). The quantized tier keeps its int8 payload in tiles of its
// own (linalg/quant.hpp). `Matrix` remains the double alias every existing
// call site uses.
//
// All heap blocks are 64-byte aligned (AlignedAllocator below): one cache
// line, and wide enough for any current SIMD vector, so the f32/int8 kernels
// can assume aligned row starts when rows are padded and never split a
// vector across lines on the common unpadded shapes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <span>
#include <vector>

#include "edgedrift/util/assert.hpp"

namespace edgedrift::util {
class Rng;
}

namespace edgedrift::linalg {

/// Alignment of every Matrix heap block (ring pages included): one cache
/// line, and a superset of any SIMD vector alignment the kernel layer uses.
inline constexpr std::size_t kMatrixAlignment = 64;

/// Minimal std::allocator replacement handing out kMatrixAlignment-aligned
/// blocks via the aligned operator new, which does not route through the
/// plain one: the allocation-counting test hooks replace both forms, and
/// aligned new/delete stay paired.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kMatrixAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kMatrixAlignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// 64-byte-aligned grow-only vector — also the storage of the quantized
/// replica's scale arrays and the workspaces' typed scratch.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// True when `p` sits on a kMatrixAlignment boundary (debug asserts).
inline bool is_matrix_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kMatrixAlignment == 0;
}

/// Dense row-major matrix over scalar type T.
template <typename T>
class MatrixT {
 public:
  using value_type = T;

  /// Empty 0x0 matrix.
  MatrixT() = default;

  /// rows x cols matrix, zero-initialized.
  MatrixT(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{}) {
    assert_aligned();
  }

  /// rows x cols matrix with every element set to `fill`.
  MatrixT(std::size_t rows, std::size_t cols, T fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    assert_aligned();
  }

  /// Builds from nested initializer lists: Matrix{{1,2},{3,4}}.
  MatrixT(std::initializer_list<std::initializer_list<T>> init) {
    rows_ = init.size();
    cols_ = rows_ == 0 ? 0 : init.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
      EDGEDRIFT_ASSERT(row.size() == cols_, "ragged initializer list");
      data_.insert(data_.end(), row.begin(), row.end());
    }
    assert_aligned();
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) {
    EDGEDRIFT_DASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  T operator()(std::size_t r, std::size_t c) const {
    EDGEDRIFT_DASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Mutable view of row r.
  std::span<T> row(std::size_t r) {
    EDGEDRIFT_DASSERT(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  /// Const view of row r.
  std::span<const T> row(std::size_t r) const {
    EDGEDRIFT_DASSERT(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  /// Flat view over all elements in row-major order.
  std::span<T> flat() { return {data_.data(), data_.size()}; }
  std::span<const T> flat() const { return {data_.data(), data_.size()}; }

  /// Resizes to rows x cols, zeroing all content. Grow-only on the heap:
  /// shrinking or re-sizing within the high-water capacity never
  /// reallocates, so workspace matrices stay allocation-free across
  /// varying batch shapes.
  void resize_zero(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    const std::size_t n = rows * cols;
    // Grow-only: once a workspace matrix has reached its high-water
    // capacity, repeat batches of any size up to it must not touch the heap
    // (the batch scoring loop relies on this; pinned by
    // tests/test_allocation_free.cpp). vector::resize never reallocates
    // when n <= capacity; assign() makes no such guarantee, so it is only
    // used on genuine growth.
    if (n <= data_.capacity()) {
      data_.resize(n);
      std::fill(data_.begin(), data_.end(), T{});
    } else {
      data_.assign(n, T{});
    }
    assert_aligned();
  }

  /// resize_zero without the zeroing pass: element values are unspecified
  /// until written. For outputs a kernel fully overwrites (the GEMM entry
  /// points), skipping the memset keeps the hot path from writing every
  /// workspace byte twice. Same grow-only allocation guarantee.
  void resize_discard(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    // Newly exposed elements keep whatever value the storage held (zero
    // only on genuine growth, where vector::resize value-initializes).
    data_.resize(rows * cols);
    assert_aligned();
  }

  /// Sets every element to `value`.
  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Copies `src` (length cols()) into row r.
  void set_row(std::size_t r, std::span<const T> src) {
    EDGEDRIFT_ASSERT(r < rows_, "row index out of range");
    EDGEDRIFT_ASSERT(src.size() == cols_, "row length mismatch");
    std::copy(src.begin(), src.end(), data_.begin() + r * cols_);
  }

  /// Returns the transpose.
  MatrixT transposed() const {
    MatrixT out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) {
        out(c, r) = (*this)(r, c);
      }
    }
    return out;
  }

  /// Copies rows [begin, end) into a new matrix.
  MatrixT slice_rows(std::size_t begin, std::size_t end) const {
    EDGEDRIFT_ASSERT(begin <= end && end <= rows_, "slice_rows out of range");
    MatrixT out(end - begin, cols_);
    std::copy(data_.begin() + begin * cols_, data_.begin() + end * cols_,
              out.data_.begin());
    return out;
  }

  /// In-place element-wise operations.
  MatrixT& operator+=(const MatrixT& other) {
    EDGEDRIFT_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
                     "shape mismatch in +=");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
    return *this;
  }
  MatrixT& operator-=(const MatrixT& other) {
    EDGEDRIFT_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
                     "shape mismatch in -=");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
    return *this;
  }
  MatrixT& operator*=(T scalar) {
    for (auto& v : data_) v *= scalar;
    return *this;
  }

  friend MatrixT operator+(MatrixT lhs, const MatrixT& rhs) {
    return lhs += rhs;
  }
  friend MatrixT operator-(MatrixT lhs, const MatrixT& rhs) {
    return lhs -= rhs;
  }
  friend MatrixT operator*(MatrixT lhs, T scalar) { return lhs *= scalar; }
  friend MatrixT operator*(T scalar, MatrixT rhs) { return rhs *= scalar; }

  /// Max |a_ij - b_ij|; matrices must have identical shape.
  static double max_abs_diff(const MatrixT& a, const MatrixT& b) {
    EDGEDRIFT_ASSERT(a.rows_ == b.rows_ && a.cols_ == b.cols_,
                     "shape mismatch in max_abs_diff");
    double worst = 0.0;
    for (std::size_t i = 0; i < a.data_.size(); ++i) {
      const double d = static_cast<double>(a.data_[i]) -
                       static_cast<double>(b.data_[i]);
      const double mag = d < 0.0 ? -d : d;
      if (mag > worst) worst = mag;
    }
    return worst;
  }

  /// n x n identity.
  static MatrixT identity(std::size_t n) {
    MatrixT out(n, n);
    for (std::size_t i = 0; i < n; ++i) out(i, i) = T{1};
    return out;
  }

  /// rows x cols with iid U(lo, hi) entries drawn from `rng`. Defined in
  /// matrix.cpp (needs util::Rng); available for the explicitly
  /// instantiated scalar types below.
  static MatrixT random_uniform(std::size_t rows, std::size_t cols,
                                util::Rng& rng, double lo = -1.0,
                                double hi = 1.0);

  /// rows x cols with iid N(0, stddev^2) entries drawn from `rng`.
  static MatrixT random_gaussian(std::size_t rows, std::size_t cols,
                                 util::Rng& rng, double stddev = 1.0);

  /// Heap bytes held by this matrix (the Table 4 memory audit counts these).
  std::size_t memory_bytes() const { return data_.capacity() * sizeof(T); }

 private:
  void assert_aligned() const {
    EDGEDRIFT_DASSERT(data_.empty() || is_matrix_aligned(data_.data()),
                      "matrix storage lost its 64-byte alignment");
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedVector<T> data_;
};

/// The exact-tier (and default) matrix of the library.
using Matrix = MatrixT<double>;
/// f32 scoring-tier shadow storage.
using MatrixF32 = MatrixT<float>;

// Both scalars are instantiated once in matrix.cpp.
extern template class MatrixT<double>;
extern template class MatrixT<float>;

/// Non-owning const view of a contiguous row-major block — the zero-copy
/// operand for batch kernels reading rows straight out of a larger matrix
/// (a PipelineManager ring page, a chunk of a dataset). Converts implicitly
/// from MatrixT; the viewed storage must outlive the view.
template <typename T>
class ConstMatrixViewT {
 public:
  using value_type = T;

  ConstMatrixViewT(const MatrixT<T>& m)  // NOLINT(google-explicit-constructor)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()) {}

  /// Rows [row_begin, row_end) of m — contiguous by row-major layout.
  ConstMatrixViewT(const MatrixT<T>& m, std::size_t row_begin,
                   std::size_t row_end)
      : data_(m.data() + row_begin * m.cols()),
        rows_(row_end - row_begin),
        cols_(m.cols()) {
    EDGEDRIFT_DASSERT(row_begin <= row_end && row_end <= m.rows(),
                      "view row range out of bounds");
  }

  /// Rows [row_begin, row_end) of an existing view (chunk narrowing).
  ConstMatrixViewT(const ConstMatrixViewT& v, std::size_t row_begin,
                   std::size_t row_end)
      : data_(v.data_ + row_begin * v.cols_),
        rows_(row_end - row_begin),
        cols_(v.cols_) {
    EDGEDRIFT_DASSERT(row_begin <= row_end && row_end <= v.rows_,
                      "view row range out of bounds");
  }

  /// One contiguous row as a 1 x row.size() view.
  explicit ConstMatrixViewT(std::span<const T> row)
      : data_(row.data()), rows_(1), cols_(row.size()) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  const T* data() const { return data_; }

  T operator()(std::size_t r, std::size_t c) const {
    EDGEDRIFT_DASSERT(r < rows_ && c < cols_, "view index out of range");
    return data_[r * cols_ + c];
  }

  std::span<const T> row(std::size_t r) const {
    EDGEDRIFT_DASSERT(r < rows_, "view row index out of range");
    return {data_ + r * cols_, cols_};
  }

 private:
  const T* data_;
  std::size_t rows_;
  std::size_t cols_;
};

using ConstMatrixView = ConstMatrixViewT<double>;

}  // namespace edgedrift::linalg
