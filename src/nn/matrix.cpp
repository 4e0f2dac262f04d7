#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace hadas::nn {

void Matrix::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::scale(float s) {
  for (auto& x : data_) x *= s;
}

void Matrix::axpy(float s, const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix::axpy: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * other.data_[i];
}

Matrix Matrix::matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: shape mismatch");
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row_ptr(i);
    float* crow = c.row_ptr(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float aik = arow[k];
      if (aik == 0.0f) continue;
      const float* brow = b.row_ptr(k);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

namespace {

/// Four floats in one SIMD register (GCC/Clang vector extension: SSE2 on
/// x86-64, NEON on AArch64). Each lane is plain IEEE single precision, so a
/// vector add or multiply gives the same bits as the scalar one per lane.
typedef float f32x4 __attribute__((vector_size(16)));
constexpr std::size_t kWidth = 4;  // outputs per vector
constexpr std::size_t kRows = 4;   // rows of A per block

f32x4 load4(const float* p) {
  f32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Outputs C[i + r][j .. j+4) for r < R of C = A · B^T, from the row-major
/// transposed weights `bt` (K x ldb, column j of it is row j of B).
///
/// Every output keeps the order of an eight-lane dot product over k: lane l
/// sums the products with k ≡ l (mod 8), k below the last multiple of 8, in
/// ascending k from 0.0f; the lanes combine as ((0+4)+(1+5))+((2+6)+(3+7));
/// the k beyond the last multiple of 8 sum from 0.0f into a tail that is
/// added last. The result is therefore the same on every host and for any
/// blocking, and vectorising across outputs (not along k) needs no
/// horizontal reduction.
template <std::size_t R>
void nt_block(const float* a, std::size_t lda, const float* bt, std::size_t ldb,
              std::size_t kk, std::size_t j, f32x4* out) {
  const std::size_t k8 = kk - kk % 8;
  const auto lane = [&](std::size_t first, std::size_t end, std::size_t step,
                        f32x4* sum) {
    for (std::size_t r = 0; r < R; ++r) sum[r] = f32x4{};
    for (std::size_t k = first; k < end; k += step) {
      const f32x4 b = load4(bt + k * ldb + j);
      for (std::size_t r = 0; r < R; ++r) sum[r] += a[r * lda + k] * b;
    }
  };
  f32x4 lo[R], hi[R], left[R], right[R];
  lane(0, k8, 8, lo);
  lane(4, k8, 8, hi);
  for (std::size_t r = 0; r < R; ++r) left[r] = lo[r] + hi[r];
  lane(1, k8, 8, lo);
  lane(5, k8, 8, hi);
  for (std::size_t r = 0; r < R; ++r) left[r] = left[r] + (lo[r] + hi[r]);
  lane(2, k8, 8, lo);
  lane(6, k8, 8, hi);
  for (std::size_t r = 0; r < R; ++r) right[r] = lo[r] + hi[r];
  lane(3, k8, 8, lo);
  lane(7, k8, 8, hi);
  for (std::size_t r = 0; r < R; ++r) right[r] = right[r] + (lo[r] + hi[r]);
  lane(k8, kk, 1, lo);  // the tail
  for (std::size_t r = 0; r < R; ++r) out[r] = (left[r] + right[r]) + lo[r];
}

template <std::size_t R>
void nt_rows(const Matrix& a, std::size_t i, const std::vector<float>& bt,
             std::size_t ldb, Matrix& c) {
  f32x4 out[R];
  for (std::size_t j = 0; j < c.cols(); j += kWidth) {
    nt_block<R>(a.row_ptr(i), a.cols(), bt.data(), ldb, a.cols(), j, out);
    const std::size_t n = std::min(kWidth, c.cols() - j);
    for (std::size_t r = 0; r < R; ++r)
      std::memcpy(c.row_ptr(i + r) + j, &out[r], n * sizeof(float));
  }
}

}  // namespace

Matrix Matrix::matmul_nt(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) throw std::invalid_argument("matmul_nt: shape mismatch");
  Matrix c(a.rows(), b.rows());
  // B^T, its rows zero-padded to a whole number of vectors.
  const std::size_t kk = a.cols();
  const std::size_t ldb = (b.rows() + kWidth - 1) / kWidth * kWidth;
  std::vector<float> bt(kk * ldb, 0.0f);
  for (std::size_t j = 0; j < b.rows(); ++j)
    for (std::size_t k = 0; k < kk; ++k) bt[k * ldb + j] = b.at(j, k);
  std::size_t i = 0;
  for (; i + kRows <= a.rows(); i += kRows) nt_rows<kRows>(a, i, bt, ldb, c);
  for (; i < a.rows(); ++i) nt_rows<1>(a, i, bt, ldb, c);
  return c;
}

Matrix Matrix::matmul_tn(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) throw std::invalid_argument("matmul_tn: shape mismatch");
  Matrix c(a.cols(), b.cols());
  const std::size_t nj = b.cols();
  // Four rows of A^T at a time: each pass over a C row does four fused
  // multiply-adds, quartering the C-row memory traffic versus the old
  // one-row-at-a-time axpy loop.
  std::size_t k = 0;
  for (; k + 4 <= a.rows(); k += 4) {
    const float* a0 = a.row_ptr(k + 0);
    const float* a1 = a.row_ptr(k + 1);
    const float* a2 = a.row_ptr(k + 2);
    const float* a3 = a.row_ptr(k + 3);
    const float* b0 = b.row_ptr(k + 0);
    const float* b1 = b.row_ptr(k + 1);
    const float* b2 = b.row_ptr(k + 2);
    const float* b3 = b.row_ptr(k + 3);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float s0 = a0[i], s1 = a1[i], s2 = a2[i], s3 = a3[i];
      if (s0 == 0.0f && s1 == 0.0f && s2 == 0.0f && s3 == 0.0f) continue;
      float* HADAS_RESTRICT crow = c.row_ptr(i);
      for (std::size_t j = 0; j < nj; ++j)
        crow[j] += (s0 * b0[j] + s1 * b1[j]) + (s2 * b2[j] + s3 * b3[j]);
    }
  }
  for (; k < a.rows(); ++k) {
    const float* arow = a.row_ptr(k);
    const float* brow = b.row_ptr(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float aki = arow[i];
      if (aki == 0.0f) continue;
      float* HADAS_RESTRICT crow = c.row_ptr(i);
      for (std::size_t j = 0; j < nj; ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (float x : data_) acc += static_cast<double>(x) * x;
  return std::sqrt(acc);
}

}  // namespace hadas::nn
