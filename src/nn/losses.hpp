#pragma once

#include <cstdint>
#include <vector>

#include "nn/matrix.hpp"

namespace hadas::nn {

/// Result of a loss evaluation: scalar mean loss plus the gradient with
/// respect to the logits (already averaged over the batch).
struct LossResult {
  double loss = 0.0;
  Matrix dlogits;  // same shape as the logits
};

/// Row-wise log-softmax (numerically stable).
Matrix log_softmax(const Matrix& logits);

/// Row-wise softmax with a temperature.
Matrix softmax(const Matrix& logits, double temperature = 1.0);

/// Mean negative log-likelihood of the true labels under softmax(logits) —
/// the L_NLL term of HADAS eq. (4). `labels[i]` is the class of row i.
LossResult nll_loss(const Matrix& logits, const std::vector<std::int32_t>& labels);

/// Temperature-scaled knowledge-distillation loss — the L_KD term of HADAS
/// eq. (4): KL(softmax(teacher/T) || softmax(student/T)) * T^2, averaged over
/// the batch. The gradient is w.r.t. the *student* logits only (the teacher —
/// the backbone's final classifier — is frozen in HADAS).
LossResult kd_loss(const Matrix& student_logits, const Matrix& teacher_logits,
                   double temperature);

/// Precomputed softened teacher targets for the KD loss: softmax(teacher/T)
/// plus the per-row sum of p·log p (the teacher-entropy half of the KL term).
/// The teacher is frozen, so these are computed once per teacher (an exit
/// bank softens its teacher once for all its heads) instead of once per batch
/// per epoch — softmax is row-wise, so batch-gathered rows are identical to
/// per-batch recomputation.
struct SoftTargets {
  Matrix probs;                   // softmax(teacher / T), full training set
  std::vector<double> row_plogp;  // per-row Σ p·log p
  double temperature = 0.0;
};

SoftTargets soften_teacher(const Matrix& teacher_logits, double temperature);

/// The hybrid loss of HADAS eq. (4) over one minibatch, in one fused pass per
/// row: L_NLL, L_KD and the combined gradient g_NLL + float(kd_weight) * g_KD.
/// `soft` may be null (no KD: the gradient is g_NLL alone). Student row r is
/// matched with teacher row `rows[begin + r]`, so shuffled minibatches need no
/// gather of the teacher matrix. Bit-identical to nll_loss, a KD pass over the
/// same rows and Matrix::axpy run one after the other.
struct HybridLoss {
  double nll = 0.0;
  double kd = 0.0;  // 0 without soft targets
  Matrix dlogits;   // same shape as the logits, batch-averaged
};

HybridLoss hybrid_loss(const Matrix& logits, const std::vector<std::int32_t>& labels,
                       const SoftTargets* soft, const std::vector<std::size_t>& rows,
                       std::size_t begin, double kd_weight);

/// Fraction of rows whose argmax matches the label.
double accuracy(const Matrix& logits, const std::vector<std::int32_t>& labels);

/// Per-row correctness mask (1 = argmax matches label).
std::vector<bool> correct_mask(const Matrix& logits,
                               const std::vector<std::int32_t>& labels);

/// Per-row normalized entropy of softmax(logits), in [0,1]. Used by the
/// entropy-based runtime controller.
std::vector<double> row_normalized_entropy(const Matrix& logits);

/// Per-row max softmax probability. Used by the confidence controller.
std::vector<double> row_max_prob(const Matrix& logits);

/// Everything an exit record keeps of one split's logits, from one exp pass
/// per row: the correctness mask and count (as correct_mask/accuracy), the
/// normalized entropy and the max softmax probability, each bit-identical to
/// its single-purpose function above.
struct RowScores {
  std::vector<bool> correct;
  std::size_t num_correct = 0;
  std::vector<double> entropy;
  std::vector<double> max_prob;

  /// Fraction of correct rows (0 without rows), as accuracy() computes it.
  double accuracy() const {
    return correct.empty() ? 0.0
                           : static_cast<double>(num_correct) /
                                 static_cast<double>(correct.size());
  }
};

RowScores score_rows(const Matrix& logits, const std::vector<std::int32_t>& labels);

}  // namespace hadas::nn
