#include "dynn/exit_bank.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/losses.hpp"
#include "util/mathutil.hpp"
#include "util/rng.hpp"

namespace hadas::dynn {

double tap_quality_multiplier(const supernet::LayerCost& tap,
                              double depth_fraction) {
  // Channel-richness bonus: relative to the channel count a balanced
  // backbone has at this compute fraction (~24 growing to ~216).
  const double t = hadas::util::clamp(depth_fraction, 0.0, 1.0);
  const double c_ref = 24.0 * std::pow(216.0 / 24.0, t);
  const double channel_term =
      0.25 * std::log2(static_cast<double>(tap.out_channels) / c_ref);
  // Spatial penalty: classification heads need globally-pooled, semantically
  // aggregated features; taps on large feature maps (early layers of
  // high-resolution backbones) are poor exit points regardless of their
  // compute fraction. ~14x14 and below is "head-ready"; every octave above
  // costs quality. This is the effect that makes the paper's a6 (288px)
  // gain little from early exiting while co-designed backbones gain a lot.
  constexpr double kHeadReadySize = 14.0;
  const double spatial_term =
      -0.22 * std::log2(std::max(static_cast<double>(tap.out_size),
                                 kHeadReadySize) /
                        kHeadReadySize);
  return hadas::util::clamp(1.0 + channel_term + spatial_term, 0.5, 1.4);
}

double effective_depth_fraction(double depth_fraction, int input_resolution) {
  const double t = hadas::util::clamp(depth_fraction, 0.0, 1.0);
  if (input_resolution <= 192) return t;
  const double stretch =
      1.0 + 1.2 * std::log2(static_cast<double>(input_resolution) / 192.0);
  return std::pow(t, stretch);
}

namespace {
struct TrainedHead {
  nn::MlpClassifier model;
  TrainedExit record;
};

/// Trains one head on `train` and records its behaviour on the val and test
/// splits. Fit runs without a validation set: nothing reads its per-epoch
/// accuracy, and the record below scores the final head on val itself.
TrainedHead train_head(const data::SyntheticTask& task,
                       const nn::FeatureDataset& train, std::size_t layer,
                       double depth_fraction, double separability,
                       const ExitBankConfig& config, const nn::SoftTargets* soft,
                       hadas::util::Rng& rng) {
  // Built before training, not after: the order of these allocations shapes
  // glibc's heap, and building them after the fit left the process's peak
  // RSS about 3 MB (8%) higher on a long serving run that follows.
  const nn::Matrix val_features =
      task.features(data::Split::kVal, depth_fraction, separability);
  const nn::Matrix test_features =
      task.features(data::Split::kTest, depth_fraction, separability);
  nn::MlpClassifier head(task.config().feature_dim, config.head_hidden,
                         task.config().num_classes, rng);
  nn::TrainConfig tc = config.train;
  tc.shuffle_seed = rng.next_u64();
  nn::Trainer(tc).fit(head, train, nn::FeatureDataset{}, soft);

  TrainedExit record;
  record.layer = layer;
  record.depth_fraction = depth_fraction;
  const nn::Matrix val_logits = head.forward(val_features);
  nn::RowScores val = nn::score_rows(val_logits, task.labels(data::Split::kVal));
  record.val_accuracy = val.accuracy();
  record.val_correct = std::move(val.correct);
  record.val_entropy = std::move(val.entropy);
  const nn::Matrix test_logits = head.forward(test_features);
  nn::RowScores test = nn::score_rows(test_logits, task.labels(data::Split::kTest));
  record.test_correct = std::move(test.correct);
  record.test_entropy = std::move(test.entropy);
  record.test_max_prob = std::move(test.max_prob);
  return {std::move(head), std::move(record)};
}
}  // namespace

ExitBank::ExitBank(const data::SyntheticTask& task,
                   const supernet::NetworkCost& cost, double separability,
                   const ExitBankConfig& config)
    : total_layers_(cost.num_mbconv_layers()),
      first_eligible_(ExitPlacement::kFirstEligible) {
  if (total_layers_ < first_eligible_ + 2)
    throw std::invalid_argument("ExitBank: backbone too shallow for exits");

  hadas::util::Rng rng(config.seed);

  // 1) Teacher: the backbone's final classifier at full depth, no KD.
  const nn::FeatureDataset teacher_train =
      task.dataset(data::Split::kTrain, 1.0, separability);
  TrainedHead teacher = train_head(task, teacher_train, total_layers_ - 1, 1.0,
                                   separability, config, nullptr, rng);
  final_ = std::move(teacher.record);
  // The teacher is frozen: soften its train logits once for every exit head.
  const bool use_kd = config.train.kd_weight > 0.0;
  const nn::SoftTargets soft =
      use_kd ? nn::soften_teacher(teacher.model.forward(teacher_train.features),
                                  config.train.kd_temperature)
             : nn::SoftTargets{};

  // 2) Every eligible exit position, shallow to deep, distilled from the
  //    teacher per eq. (4). The backbone (feature generator) stays frozen.
  //    Each tap's effective separability is scaled by its architecture
  //    quality (channel richness / downsampling at the tap).
  const std::size_t eligible = total_layers_ - 1 - first_eligible_;
  exits_.reserve(eligible);
  for (std::size_t i = 0; i < eligible; ++i) {
    const std::size_t layer = first_eligible_ + i;
    const double t = cost.depth_fraction(layer);
    const double t_eff = effective_depth_fraction(t, cost.input_resolution);
    const double tap_sep =
        separability * tap_quality_multiplier(cost.mbconv_layer(layer), t);
    const nn::FeatureDataset train =
        task.dataset(data::Split::kTrain, t_eff, tap_sep);
    exits_.push_back(train_head(task, train, layer, t_eff, tap_sep, config,
                                use_kd ? &soft : nullptr, rng)
                         .record);
  }
}

bool ExitBank::has_exit(std::size_t layer) const {
  return layer >= first_eligible_ && layer < first_eligible_ + exits_.size();
}

const TrainedExit& ExitBank::exit_at(std::size_t layer) const {
  if (!has_exit(layer)) throw std::out_of_range("ExitBank: ineligible layer");
  return exits_[layer - first_eligible_];
}

std::vector<std::size_t> ExitBank::eligible_layers() const {
  std::vector<std::size_t> out(exits_.size());
  for (std::size_t i = 0; i < exits_.size(); ++i) out[i] = first_eligible_ + i;
  return out;
}

double ExitBank::oracle_accuracy(
    const std::vector<std::size_t>& exit_layers) const {
  const std::size_t n = final_.val_correct.size();
  if (n == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t s = 0; s < n; ++s) {
    bool ok = final_.val_correct[s];
    for (std::size_t layer : exit_layers)
      if (!ok && exit_at(layer).val_correct[s]) ok = true;
    correct += ok ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace hadas::dynn
