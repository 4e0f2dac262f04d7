// Differential tests of the exit-head training fast paths: each one is
// compared bit for bit, on seeded inputs, against the plain code it replaced —
// the eight-lane dot product behind A·B^T, the separate NLL and KD passes
// joined by axpy, and the separate mask/accuracy/entropy/max-prob passes.
// Equal values are not enough: every front fingerprint depends on these bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/losses.hpp"
#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace {

using namespace hadas::nn;

Matrix random_matrix(std::size_t rows, std::size_t cols, hadas::util::Rng& rng,
                     double scale = 1.0) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = static_cast<float>(rng.normal(0.0, scale));
  return m;
}

void expect_same_bits(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint32_t g = 0, w = 0;
    std::memcpy(&g, &got.data()[i], sizeof g);
    std::memcpy(&w, &want.data()[i], sizeof w);
    ASSERT_EQ(g, w) << what << " element " << i << ": " << got.data()[i]
                    << " vs " << want.data()[i];
  }
}

void expect_same_bits(double got, double want, const char* what) {
  std::uint64_t g = 0, w = 0;
  std::memcpy(&g, &got, sizeof g);
  std::memcpy(&w, &want, sizeof w);
  EXPECT_EQ(g, w) << what << ": " << got << " vs " << want;
}

void expect_same_bits(const std::vector<double>& got, const std::vector<double>& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) expect_same_bits(got[i], want[i], what);
}

// ---------- A·B^T ----------

/// The eight-lane dot product matmul_nt used before the blocked kernel.
float dot8(const float* a, const float* b, std::size_t n) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  float acc4 = 0.0f, acc5 = 0.0f, acc6 = 0.0f, acc7 = 0.0f;
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    acc0 += a[k + 0] * b[k + 0];
    acc1 += a[k + 1] * b[k + 1];
    acc2 += a[k + 2] * b[k + 2];
    acc3 += a[k + 3] * b[k + 3];
    acc4 += a[k + 4] * b[k + 4];
    acc5 += a[k + 5] * b[k + 5];
    acc6 += a[k + 6] * b[k + 6];
    acc7 += a[k + 7] * b[k + 7];
  }
  float tail = 0.0f;
  for (; k < n; ++k) tail += a[k] * b[k];
  return (((acc0 + acc4) + (acc1 + acc5)) + ((acc2 + acc6) + (acc3 + acc7))) +
         tail;
}

Matrix reference_matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.rows(); ++j)
      c.at(i, j) = dot8(a.row_ptr(i), b.row_ptr(j), a.cols());
  return c;
}

TEST(NnFastPaths, BlockedMatmulNtMatchesTheDot8Loop) {
  hadas::util::Rng rng(0x6e7);
  // Rows not a multiple of the 4-row block, outputs not a multiple of the
  // 4-wide vector, inner sizes with and without a k % 8 tail, the production
  // shapes (64 or 500 rows, 32 features, 100 classes) and degenerate ones.
  const std::size_t rows[] = {1, 2, 3, 4, 5, 7, 61, 64, 500};
  const std::size_t inner[] = {1, 3, 5, 8, 9, 16, 24, 32, 37};
  const std::size_t outputs[] = {1, 3, 4, 6, 99, 100};
  for (std::size_t m : rows)
    for (std::size_t k : inner)
      for (std::size_t n : outputs) {
        const Matrix a = random_matrix(m, k, rng, 2.0);
        const Matrix b = random_matrix(n, k, rng, 0.5);
        expect_same_bits(Matrix::matmul_nt(a, b), reference_matmul_nt(a, b),
                         "matmul_nt");
      }
}

TEST(NnFastPaths, BlockedMatmulNtKeepsSignedZerosAndNonFinites) {
  // Every lane starts from +0.0f, so an all -0.0 product sum must come out
  // +0.0; an infinity or NaN in one input must land in the same outputs.
  Matrix a(5, 11, -0.0f);
  Matrix b(6, 11, 1.0f);
  a.at(1, 3) = std::numeric_limits<float>::infinity();
  b.at(2, 9) = std::numeric_limits<float>::quiet_NaN();
  a.at(4, 10) = -std::numeric_limits<float>::infinity();
  expect_same_bits(Matrix::matmul_nt(a, b), reference_matmul_nt(a, b),
                   "matmul_nt special values");
}

// ---------- A^T·B ----------

/// Plain i-j-k form of matmul_tn's arithmetic: rows of A in groups of four,
/// each group adding (a0·b0 + a1·b1) + (a2·b2 + a3·b3) unless all four a are
/// zero, then the leftover rows one at a time, skipping zero a.
Matrix reference_matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  const std::size_t k4 = a.rows() - a.rows() % 4;
  for (std::size_t i = 0; i < a.cols(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < k4; k += 4) {
        const float s0 = a.at(k, i), s1 = a.at(k + 1, i), s2 = a.at(k + 2, i),
                    s3 = a.at(k + 3, i);
        if (s0 == 0.0f && s1 == 0.0f && s2 == 0.0f && s3 == 0.0f) continue;
        acc += (s0 * b.at(k, j) + s1 * b.at(k + 1, j)) +
               (s2 * b.at(k + 2, j) + s3 * b.at(k + 3, j));
      }
      for (std::size_t k = k4; k < a.rows(); ++k)
        if (a.at(k, i) != 0.0f) acc += a.at(k, i) * b.at(k, j);
      c.at(i, j) = acc;
    }
  return c;
}

TEST(NnFastPaths, MatmulTnMatchesThePlainLoopIncludingItsZeroSkip) {
  hadas::util::Rng rng(0x7a);
  const std::size_t rows[] = {1, 3, 4, 5, 8, 61, 64};
  for (std::size_t m : rows)
    for (std::size_t k : {1, 7, 32})
      for (std::size_t n : {1, 5, 32}) {
        Matrix a = random_matrix(m, k, rng);
        Matrix b = random_matrix(m, n, rng);
        // ReLU-style zeros: whole columns of A (rows of A^T) are zero, so the
        // skip fires; a NaN in B under a skipped zero must not reach C.
        for (std::size_t r = 0; r < m; ++r) {
          a.at(r, 0) = 0.0f;
          if (r % 3 == 0) a.at(r, k - 1) = 0.0f;
        }
        b.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
        expect_same_bits(Matrix::matmul_tn(a, b), reference_matmul_tn(a, b),
                         "matmul_tn");
      }
}

// ---------- the hybrid loss ----------

/// nll_loss before the fused pass.
LossResult reference_nll(const Matrix& logits, const std::vector<std::int32_t>& labels) {
  LossResult res;
  res.dlogits = Matrix(logits.rows(), logits.cols());
  const double inv_n = 1.0 / static_cast<double>(logits.rows());
  double loss = 0.0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const auto label = static_cast<std::size_t>(labels[r]);
    const float* in = logits.row_ptr(r);
    float* g = res.dlogits.row_ptr(r);
    float mx = in[0];
    for (std::size_t c = 1; c < logits.cols(); ++c) mx = std::max(mx, in[c]);
    double total = 0.0;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      const double e = std::exp(static_cast<double>(in[c] - mx));
      g[c] = static_cast<float>(e);
      total += e;
    }
    loss -= static_cast<double>(in[label] - mx) - std::log(total);
    const auto scale = static_cast<float>(inv_n / total);
    for (std::size_t c = 0; c < logits.cols(); ++c) g[c] *= scale;
    g[label] -= static_cast<float>(inv_n);
  }
  res.loss = loss * inv_n;
  return res;
}

/// kd_loss_soft before the fused pass: its own max pass in double over the
/// scaled row, and its own gradient matrix.
LossResult reference_kd(const Matrix& student, const SoftTargets& soft,
                        const std::vector<std::size_t>& rows, std::size_t begin) {
  LossResult res;
  res.dlogits = Matrix(student.rows(), student.cols());
  const std::size_t ncols = student.cols();
  const double temperature = soft.temperature;
  const double inv_n = 1.0 / static_cast<double>(student.rows());
  const double inv_t = 1.0 / temperature;
  const double t2 = temperature * temperature;
  double loss = 0.0;
  std::vector<double> e(ncols);
  for (std::size_t r = 0; r < student.rows(); ++r) {
    const float* in = student.row_ptr(r);
    const float* p = soft.probs.row_ptr(rows[begin + r]);
    float* g = res.dlogits.row_ptr(r);
    double mx = static_cast<double>(in[0]) * inv_t;
    for (std::size_t c = 1; c < ncols; ++c)
      mx = std::max(mx, static_cast<double>(in[c]) * inv_t);
    double total = 0.0;
    for (std::size_t c = 0; c < ncols; ++c) {
      e[c] = std::exp(static_cast<double>(in[c]) * inv_t - mx);
      total += e[c];
    }
    const double shift = mx + std::log(total);
    const double inv_total = 1.0 / total;
    double p_dot_s = 0.0, p_sum = 0.0;
    for (std::size_t c = 0; c < ncols; ++c) {
      p_dot_s += static_cast<double>(p[c]) * (static_cast<double>(in[c]) * inv_t);
      p_sum += static_cast<double>(p[c]);
      g[c] = static_cast<float>((e[c] * inv_total - static_cast<double>(p[c])) *
                                temperature * inv_n);
    }
    loss += soft.row_plogp[rows[begin + r]] - (p_dot_s - shift * p_sum);
  }
  res.loss = loss * t2 * inv_n;
  return res;
}

TEST(NnFastPaths, HybridLossMatchesNllPlusKdPlusAxpy) {
  hadas::util::Rng rng(0x4b);
  const std::size_t n_train = 90, classes = 100;
  const Matrix teacher = random_matrix(n_train, classes, rng, 3.0);
  std::vector<std::size_t> order(n_train);
  for (std::size_t i = 0; i < n_train; ++i) order[i] = i;
  rng.shuffle(order);
  for (double temperature : {1.0, 3.0, 4.0}) {
    const SoftTargets soft = soften_teacher(teacher, temperature);
    for (double kd_weight : {1.0, 0.3, 0.0}) {
      for (std::size_t begin : {0, 64, 85}) {
        const std::size_t batch = std::min<std::size_t>(64, n_train - begin);
        // Large logits so some exps underflow; ties in the max on row 0.
        Matrix logits = random_matrix(batch, classes, rng, 6.0);
        logits.at(0, 7) = logits.at(0, 3) = 40.0f;
        std::vector<std::int32_t> labels(batch);
        for (auto& y : labels) y = static_cast<std::int32_t>(rng.uniform_index(classes));

        LossResult want = reference_nll(logits, labels);
        const LossResult kd = reference_kd(logits, soft, order, begin);
        want.dlogits.axpy(static_cast<float>(kd_weight), kd.dlogits);

        const HybridLoss got = hybrid_loss(logits, labels, &soft, order, begin, kd_weight);
        expect_same_bits(got.nll, want.loss, "nll");
        expect_same_bits(got.kd, kd.loss, "kd");
        expect_same_bits(got.dlogits, want.dlogits, "combined gradient");
      }
    }
  }
}

TEST(NnFastPaths, LossWrappersMatchTheirSeparatePasses) {
  hadas::util::Rng rng(0x4c);
  for (std::size_t classes : {2, 3, 10, 100}) {
    const Matrix logits = random_matrix(37, classes, rng, 4.0);
    const Matrix teacher = random_matrix(37, classes, rng, 4.0);
    std::vector<std::int32_t> labels(37);
    for (auto& y : labels) y = static_cast<std::int32_t>(rng.uniform_index(classes));

    // Without soft targets the hybrid loss is the NLL alone.
    const LossResult nll = reference_nll(logits, labels);
    const HybridLoss hybrid = hybrid_loss(logits, labels, nullptr, {}, 0, 1.0);
    expect_same_bits(hybrid.nll, nll.loss, "nll-only loss");
    expect_same_bits(hybrid.kd, 0.0, "nll-only kd");
    expect_same_bits(hybrid.dlogits, nll.dlogits, "nll-only gradient");
    const LossResult wrapped = nll_loss(logits, labels);
    expect_same_bits(wrapped.loss, nll.loss, "nll_loss");
    expect_same_bits(wrapped.dlogits, nll.dlogits, "nll_loss gradient");

    std::vector<std::size_t> identity(37);
    for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
    const LossResult kd = reference_kd(logits, soften_teacher(teacher, 4.0), identity, 0);
    const LossResult kd_wrapped = kd_loss(logits, teacher, 4.0);
    expect_same_bits(kd_wrapped.loss, kd.loss, "kd_loss");
    expect_same_bits(kd_wrapped.dlogits, kd.dlogits, "kd_loss gradient");
  }
}

TEST(NnFastPaths, HybridLossRejectsBadInputs) {
  hadas::util::Rng rng(0x4d);
  const Matrix logits = random_matrix(4, 5, rng);
  const SoftTargets soft = soften_teacher(random_matrix(6, 5, rng), 4.0);
  const std::vector<std::size_t> rows = {0, 1, 2, 3, 4, 5};
  EXPECT_THROW(hybrid_loss(logits, {0, 1, 2}, &soft, rows, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(hybrid_loss(logits, {0, 1, 2, 9}, &soft, rows, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(hybrid_loss(logits, {0, 1, 2, 3}, &soft, rows, 3, 1.0), std::invalid_argument);
  const SoftTargets narrow = soften_teacher(random_matrix(6, 4, rng), 4.0);
  EXPECT_THROW(hybrid_loss(logits, {0, 1, 2, 3}, &narrow, rows, 0, 1.0), std::invalid_argument);
}

// ---------- the exit record pass ----------

std::vector<bool> reference_correct_mask(const Matrix& logits,
                                         const std::vector<std::int32_t>& labels) {
  std::vector<bool> mask(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* row = logits.row_ptr(r);
    std::size_t arg = 0;
    for (std::size_t c = 1; c < logits.cols(); ++c)
      if (row[c] > row[arg]) arg = c;
    mask[r] = (arg == static_cast<std::size_t>(labels[r]));
  }
  return mask;
}

std::vector<double> reference_entropy(const Matrix& logits) {
  std::vector<double> out(logits.rows());
  const double log_n =
      std::log(static_cast<double>(std::max<std::size_t>(logits.cols(), 2)));
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row_ptr(r);
    double mx = in[0];
    for (std::size_t c = 1; c < logits.cols(); ++c)
      mx = std::max(mx, static_cast<double>(in[c]));
    double total = 0.0, weighted = 0.0;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      const double s = static_cast<double>(in[c]) - mx;
      const double e = std::exp(s);
      total += e;
      weighted += e * s;
    }
    out[r] = (std::log(total) - weighted / total) / log_n;
  }
  return out;
}

std::vector<double> reference_max_prob(const Matrix& logits) {
  std::vector<double> out(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row_ptr(r);
    double mx = in[0];
    for (std::size_t c = 1; c < logits.cols(); ++c)
      mx = std::max(mx, static_cast<double>(in[c]));
    double total = 0.0;
    for (std::size_t c = 0; c < logits.cols(); ++c)
      total += std::exp(static_cast<double>(in[c]) - mx);
    out[r] = 1.0 / total;
  }
  return out;
}

TEST(NnFastPaths, ScoreRowsMatchesTheSeparatePasses) {
  hadas::util::Rng rng(0x5c);
  for (std::size_t classes : {1, 2, 7, 100}) {
    Matrix logits = random_matrix(53, classes, rng, 3.0);
    // Tied maxima (the first index wins), signed zeros as the max, and a NaN
    // that is not the first element (both forms of the max skip it).
    logits.at(0, 0) = 2.0f;
    logits.at(0, classes - 1) = 2.0f;
    for (std::size_t c = 0; c < classes; ++c) logits.at(1, c) = -1.0f;
    logits.at(1, 0) = -0.0f;
    logits.at(1, classes - 1) = 0.0f;
    if (classes > 1) logits.at(2, 1) = std::numeric_limits<float>::quiet_NaN();
    std::vector<std::int32_t> labels(53);
    for (auto& y : labels) y = static_cast<std::int32_t>(rng.uniform_index(classes));
    labels[0] = static_cast<std::int32_t>(classes - 1);

    const RowScores got = score_rows(logits, labels);
    const std::vector<bool> mask = reference_correct_mask(logits, labels);
    EXPECT_EQ(got.correct, mask);
    std::size_t correct = 0;
    for (bool b : mask) correct += b ? 1 : 0;
    EXPECT_EQ(got.num_correct, correct);
    EXPECT_EQ(got.accuracy(), accuracy(logits, labels));
    expect_same_bits(got.entropy, reference_entropy(logits), "entropy");
    expect_same_bits(got.max_prob, reference_max_prob(logits), "max prob");
    // The single-purpose functions share the pass's helpers.
    EXPECT_EQ(correct_mask(logits, labels), mask);
    expect_same_bits(row_normalized_entropy(logits), reference_entropy(logits),
                     "row_normalized_entropy");
    expect_same_bits(row_max_prob(logits), reference_max_prob(logits), "row_max_prob");
  }
  EXPECT_THROW(score_rows(Matrix(3, 4), {0, 1}), std::invalid_argument);
}

}  // namespace
