#include "nn/losses.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hadas::nn {

Matrix log_softmax(const Matrix& logits) {
  Matrix out(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row_ptr(r);
    float* o = out.row_ptr(r);
    float mx = in[0];
    for (std::size_t c = 1; c < logits.cols(); ++c) mx = std::max(mx, in[c]);
    double total = 0.0;
    for (std::size_t c = 0; c < logits.cols(); ++c)
      total += std::exp(static_cast<double>(in[c] - mx));
    const float lse = mx + static_cast<float>(std::log(total));
    for (std::size_t c = 0; c < logits.cols(); ++c) o[c] = in[c] - lse;
  }
  return out;
}

Matrix softmax(const Matrix& logits, double temperature) {
  if (temperature <= 0.0) throw std::invalid_argument("softmax: temperature <= 0");
  Matrix out(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row_ptr(r);
    float* o = out.row_ptr(r);
    double mx = in[0];
    for (std::size_t c = 1; c < logits.cols(); ++c)
      mx = std::max(mx, static_cast<double>(in[c]));
    double total = 0.0;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      const double e = std::exp((in[c] - mx) / temperature);
      o[c] = static_cast<float>(e);
      total += e;
    }
    const auto inv = static_cast<float>(1.0 / total);
    for (std::size_t c = 0; c < logits.cols(); ++c) o[c] *= inv;
  }
  return out;
}

namespace {

float row_max(const float* in, std::size_t n) {
  float mx = in[0];
  for (std::size_t c = 1; c < n; ++c) mx = std::max(mx, in[c]);
  return mx;
}

/// First index of the row maximum. The max it points at equals the
/// std::max chain over the row (also in double, and also with NaNs: both
/// skip a NaN unless it is the first element).
std::size_t row_argmax(const float* in, std::size_t n) {
  std::size_t arg = 0;
  for (std::size_t c = 1; c < n; ++c)
    if (in[c] > in[arg]) arg = c;
  return arg;
}

/// NLL half of one row: writes the batch-averaged gradient softmax − onehot
/// into g and returns (x_label − mx) − log Σ exp(x − mx), i.e. log p_label.
/// One exp pass serves the log-sum-exp and the softmax gradient.
double nll_row(const float* in, std::size_t n, float mx, std::size_t label,
               double inv_n, float* g) {
  double total = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    const double e = std::exp(static_cast<double>(in[c] - mx));
    g[c] = static_cast<float>(e);
    total += e;
  }
  const double log_p = static_cast<double>(in[label] - mx) - std::log(total);
  const auto scale = static_cast<float>(inv_n / total);
  for (std::size_t c = 0; c < n; ++c) g[c] *= scale;
  g[label] -= static_cast<float>(inv_n);
  return log_p;
}

/// KD half of one row against the softened teacher row p: hands each
/// element's gradient float((q − p)·T/n) to `emit` and returns the row's
/// KL(p || q) = Σ p·log p − Σ p·log q, with log q_c = x_c/T − (mx + log Σe).
/// `mx` is double(row max) / T: scaling by a positive constant is monotone
/// under rounding, so it equals the max of the scaled elements exactly.
template <class Emit>
double kd_row(const float* in, std::size_t n, double mx, const float* p,
              double plogp, double inv_t, double temperature, double inv_n,
              double* e, Emit emit) {
  double total = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    e[c] = std::exp(static_cast<double>(in[c]) * inv_t - mx);
    total += e[c];
  }
  const double shift = mx + std::log(total);
  const double inv_total = 1.0 / total;
  double p_dot_s = 0.0, p_sum = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    p_dot_s += static_cast<double>(p[c]) * (static_cast<double>(in[c]) * inv_t);
    p_sum += static_cast<double>(p[c]);
    emit(c, static_cast<float>((e[c] * inv_total - static_cast<double>(p[c])) *
                               temperature * inv_n));
  }
  return plogp - (p_dot_s - shift * p_sum);
}

/// The one loss kernel behind nll_loss, kd_loss and hybrid_loss. A null
/// `labels` drops the NLL term, a null `soft` the KD term; with both, each
/// gradient element is g_NLL + float(kd_weight) * g_KD, as Matrix::axpy adds.
HybridLoss loss_pass(const Matrix& logits, const std::vector<std::int32_t>* labels,
                     const SoftTargets* soft, const std::vector<std::size_t>* rows,
                     std::size_t begin, double kd_weight) {
  const std::size_t ncols = logits.cols();
  HybridLoss res;
  res.dlogits = Matrix(logits.rows(), ncols);
  const double inv_n = 1.0 / static_cast<double>(logits.rows());
  const double temperature = soft != nullptr ? soft->temperature : 1.0;
  const double inv_t = 1.0 / temperature;
  const auto weight = static_cast<float>(kd_weight);
  std::vector<double> e(soft != nullptr ? ncols : 0);  // softened student exps
  double nll = 0.0, kd = 0.0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row_ptr(r);
    float* g = res.dlogits.row_ptr(r);
    const float mx = row_max(in, ncols);
    if (labels != nullptr) {
      const auto label = static_cast<std::size_t>((*labels)[r]);
      if (label >= ncols) throw std::invalid_argument("nll_loss: bad label");
      nll -= nll_row(in, ncols, mx, label, inv_n, g);
    }
    if (soft == nullptr) continue;
    const std::size_t t = (*rows)[begin + r];
    const float* p = soft->probs.row_ptr(t);
    const double kd_mx = static_cast<double>(mx) * inv_t;
    if (labels != nullptr)
      kd += kd_row(in, ncols, kd_mx, p, soft->row_plogp[t], inv_t, temperature,
                   inv_n, e.data(),
                   [&](std::size_t c, float gk) { g[c] += weight * gk; });
    else
      kd += kd_row(in, ncols, kd_mx, p, soft->row_plogp[t], inv_t, temperature,
                   inv_n, e.data(), [&](std::size_t c, float gk) { g[c] = gk; });
  }
  res.nll = nll * inv_n;
  res.kd = kd * (temperature * temperature) * inv_n;
  return res;
}

}  // namespace

LossResult nll_loss(const Matrix& logits, const std::vector<std::int32_t>& labels) {
  if (labels.size() != logits.rows())
    throw std::invalid_argument("nll_loss: label count mismatch");
  HybridLoss res = loss_pass(logits, &labels, nullptr, nullptr, 0, 0.0);
  return {res.nll, std::move(res.dlogits)};
}

SoftTargets soften_teacher(const Matrix& teacher_logits, double temperature) {
  if (temperature <= 0.0)
    throw std::invalid_argument("soften_teacher: temperature <= 0");
  SoftTargets soft;
  soft.temperature = temperature;
  soft.probs = softmax(teacher_logits, temperature);
  soft.row_plogp.resize(teacher_logits.rows());
  for (std::size_t r = 0; r < teacher_logits.rows(); ++r) {
    const float* p = soft.probs.row_ptr(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < teacher_logits.cols(); ++c)
      if (p[c] > 0.0f)
        acc += static_cast<double>(p[c]) * std::log(static_cast<double>(p[c]));
    soft.row_plogp[r] = acc;
  }
  return soft;
}

HybridLoss hybrid_loss(const Matrix& logits, const std::vector<std::int32_t>& labels,
                       const SoftTargets* soft, const std::vector<std::size_t>& rows,
                       std::size_t begin, double kd_weight) {
  if (labels.size() != logits.rows())
    throw std::invalid_argument("hybrid_loss: label count mismatch");
  if (soft != nullptr) {
    if (logits.cols() != soft->probs.cols())
      throw std::invalid_argument("hybrid_loss: shape mismatch");
    if (begin + logits.rows() > rows.size())
      throw std::invalid_argument("hybrid_loss: row index range out of bounds");
    if (soft->temperature <= 0.0)
      throw std::invalid_argument("hybrid_loss: temperature <= 0");
  }
  return loss_pass(logits, &labels, soft, &rows, begin, kd_weight);
}

LossResult kd_loss(const Matrix& student_logits, const Matrix& teacher_logits,
                   double temperature) {
  if (student_logits.rows() != teacher_logits.rows() ||
      student_logits.cols() != teacher_logits.cols())
    throw std::invalid_argument("kd_loss: shape mismatch");
  const SoftTargets soft = soften_teacher(teacher_logits, temperature);
  std::vector<std::size_t> rows(student_logits.rows());
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  HybridLoss res = loss_pass(student_logits, nullptr, &soft, &rows, 0, 1.0);
  return {res.kd, std::move(res.dlogits)};
}

double accuracy(const Matrix& logits, const std::vector<std::int32_t>& labels) {
  const auto mask = correct_mask(logits, labels);
  if (mask.empty()) return 0.0;
  std::size_t correct = 0;
  for (bool b : mask) correct += b ? 1 : 0;
  return static_cast<double>(correct) / static_cast<double>(mask.size());
}

std::vector<bool> correct_mask(const Matrix& logits,
                               const std::vector<std::int32_t>& labels) {
  if (labels.size() != logits.rows())
    throw std::invalid_argument("correct_mask: label count mismatch");
  std::vector<bool> mask(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r)
    mask[r] = row_argmax(logits.row_ptr(r), logits.cols()) ==
              static_cast<std::size_t>(labels[r]);
  return mask;
}

namespace {

/// Σe and Σ e·s over a row, with s = x − mx and e = exp(s), mx the row max.
/// H = −Σ p·log p with p = e_c / Σe and log p_c = s_c − log Σe, so
/// H = log Σe − (Σ e·s) / Σe, and the max probability is exp(0)/Σe = 1/Σe:
/// one exp pass, no per-element log, no materialized probability matrix.
struct SoftmaxSums {
  double total = 0.0;
  double weighted = 0.0;
};

SoftmaxSums softmax_sums(const float* in, std::size_t n, double mx) {
  SoftmaxSums sums;
  for (std::size_t c = 0; c < n; ++c) {
    const double s = static_cast<double>(in[c]) - mx;
    const double e = std::exp(s);
    sums.total += e;
    sums.weighted += e * s;
  }
  return sums;
}

double log_classes(const Matrix& logits) {
  return std::log(static_cast<double>(std::max<std::size_t>(logits.cols(), 2)));
}

}  // namespace

std::vector<double> row_normalized_entropy(const Matrix& logits) {
  std::vector<double> out(logits.rows());
  const double log_n = log_classes(logits);
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row_ptr(r);
    const SoftmaxSums sums = softmax_sums(in, logits.cols(), in[row_argmax(in, logits.cols())]);
    out[r] = (std::log(sums.total) - sums.weighted / sums.total) / log_n;
  }
  return out;
}

std::vector<double> row_max_prob(const Matrix& logits) {
  std::vector<double> out(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row_ptr(r);
    out[r] = 1.0 / softmax_sums(in, logits.cols(), in[row_argmax(in, logits.cols())]).total;
  }
  return out;
}

RowScores score_rows(const Matrix& logits, const std::vector<std::int32_t>& labels) {
  if (labels.size() != logits.rows())
    throw std::invalid_argument("score_rows: label count mismatch");
  RowScores out;
  out.correct.resize(logits.rows());
  out.entropy.resize(logits.rows());
  out.max_prob.resize(logits.rows());
  const double log_n = log_classes(logits);
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row_ptr(r);
    const std::size_t arg = row_argmax(in, logits.cols());
    out.correct[r] = arg == static_cast<std::size_t>(labels[r]);
    out.num_correct += out.correct[r] ? 1 : 0;
    const SoftmaxSums sums = softmax_sums(in, logits.cols(), in[arg]);
    out.entropy[r] = (std::log(sums.total) - sums.weighted / sums.total) / log_n;
    out.max_prob[r] = 1.0 / sums.total;
  }
  return out;
}

}  // namespace hadas::nn
