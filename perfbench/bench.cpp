#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "dynn/exit_placement.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

void rotate_cpu(std::size_t k) {
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &mask)) cpus.push_back(c);
    return cpus;
  }();
  if (allowed.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(allowed[k % allowed.size()], &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0)
    throw std::runtime_error("rotate_cpu: sched_setaffinity failed");
}

bool another_fits(const std::vector<double>& samples, double budget) {
  if (samples.empty()) return true;
  double total = 0.0;
  for (double s : samples) total += s;
  return total + median(samples) <= budget;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::logic_error("quantile of no values");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void Fingerprint::mix_double(double d) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  mix(bits);
}

std::string Fingerprint::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

NnWork nn_work(const std::vector<std::size_t>& bank_layers,
               const hadas::data::DataConfig& data,
               const hadas::dynn::ExitBankConfig& bank) {
  const double d = static_cast<double>(data.feature_dim);
  const double c = static_cast<double>(data.num_classes);
  const double h = static_cast<double>(bank.head_hidden);
  const double n = static_cast<double>(data.train_size);
  const double epochs = static_cast<double>(bank.train.epochs);
  // Per-sample GEMM flops of one forward and one backward pass.
  const double fwd = h == 0.0 ? 2.0 * d * c : 2.0 * d * h + 2.0 * h * c;
  const double bwd = h == 0.0 ? 2.0 * d * c : 4.0 * h * c + 2.0 * d * h;
  // Training, validation after every epoch, then val + test logits.
  const double per_head =
      epochs * n * (fwd + bwd) + epochs * static_cast<double>(data.val_size) * fwd +
      static_cast<double>(data.val_size + data.test_size) * fwd;
  const std::size_t batches =
      (data.train_size + bank.train.batch_size - 1) / bank.train.batch_size;
  NnWork work;
  for (const std::size_t layers : bank_layers) {
    const std::size_t heads = layers - hadas::dynn::ExitPlacement::kFirstEligible;
    work.heads += heads;
    work.sgd_steps += heads * bank.train.epochs * batches;
    // Heads plus the teacher's logits over the training split.
    work.gemm_flop += static_cast<double>(heads) * per_head + n * fwd;
  }
  return work;
}

std::string exact(double d) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", d);
  return buf;
}

Recorder& Recorder::global() {
  static Recorder recorder;
  return recorder;
}

void Recorder::record(const char* name, Clock::time_point start,
                      Clock::time_point end) {
  events_.push_back(
      {name, "perfbench",
       std::chrono::duration<double, std::micro>(start - origin_).count(),
       std::chrono::duration<double, std::micro>(end - start).count(), 0});
}

Clock::time_point Recorder::begin_program_window() {
  hadas::obs::TraceSink& sink = hadas::obs::TraceSink::global();
  sink.clear();
  const Clock::time_point opened = Clock::now();
  sink.enable();
  hadas::obs::set_enabled(true);
  return opened;
}

void Recorder::end_program_window(Clock::time_point opened, bool keep) {
  hadas::obs::TraceSink& sink = hadas::obs::TraceSink::global();
  hadas::obs::set_enabled(false);
  sink.disable();
  if (!keep) {
    counted_only_ += sink.size();
    sink.clear();
    return;
  }
  const double offset_us =
      std::chrono::duration<double, std::micro>(opened - origin_).count();
  const Json trace = sink.to_json();
  for (const Json& event : trace.at("traceEvents").as_array())
    events_.push_back({event.at("name").as_string(), event.at("cat").as_string(),
                       offset_us + event.at("ts").as_number(),
                       event.at("dur").as_number(),
                       static_cast<std::uint32_t>(event.at("tid").as_index())});
  sink.clear();
}

Json Recorder::to_json() const {
  std::vector<Event> events = events_;
  std::stable_sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });
  Json::Array array;
  for (const Event& e : events) {
    Json entry;
    entry["name"] = e.name;
    entry["cat"] = e.cat;
    entry["ph"] = "X";
    entry["ts"] = e.ts_us;
    entry["dur"] = e.dur_us;
    entry["pid"] = 1;
    entry["tid"] = static_cast<std::size_t>(e.tid);
    array.push_back(std::move(entry));
  }
  Json json;
  json["traceEvents"] = Json(std::move(array));
  json["displayTimeUnit"] = "ms";
  return json;
}

Json span_breakdown(const Json& trace) {
  struct Open {
    std::string name;
    double end_us;
    double children_us;
  };
  struct Totals {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Totals> totals;
  std::map<std::size_t, std::vector<Open>> stacks;  // per track
  auto close = [&](std::vector<Open>& stack) {
    const Open& top = stack.back();
    totals[top.name].self_us -= top.children_us;
    stack.pop_back();
  };
  // Events arrive sorted by (start, longest first), so a span's children
  // follow it on its track before anything that starts after it ends.
  for (const Json& event : trace.at("traceEvents").as_array()) {
    const std::string& name = event.at("name").as_string();
    const double ts = event.at("ts").as_number();
    const double dur = event.at("dur").as_number();
    std::vector<Open>& stack = stacks[event.at("tid").as_index()];
    while (!stack.empty() && stack.back().end_us <= ts) close(stack);
    if (!stack.empty()) stack.back().children_us += dur;
    Totals& t = totals[name];
    ++t.count;
    t.total_us += dur;
    t.self_us += dur;
    stack.push_back({name, ts + dur, 0.0});
  }
  for (auto& [tid, stack] : stacks)
    while (!stack.empty()) close(stack);

  Json out;
  for (const auto& [name, t] : totals) {
    Json row;
    row["count"] = t.count;
    row["total_s"] = t.total_us * 1e-6;
    row["self_s"] = t.self_us * 1e-6;
    out[name] = std::move(row);
  }
  return out;
}

double span_seconds(const Json& trace, const std::string& name) {
  double total_us = 0.0;
  for (const Json& event : trace.at("traceEvents").as_array())
    if (event.at("name").as_string() == name)
      total_us += event.at("dur").as_number();
  return total_us * 1e-6;
}

void write_trace(const Json& trace, const Options& options) {
  std::ofstream(options.out_dir + "/trace-" + options.workload + "-seed" +
                std::to_string(options.seed) + ".json")
      << trace.dump() << "\n";
}

std::uint64_t counter_value(const std::string& name) {
  return hadas::obs::MetricsRegistry::global().counter(name).value();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const Json* reference_for(const Json* section, std::uint64_t instance) {
  if (section == nullptr) return nullptr;
  const std::string key = std::to_string(instance);
  if (!section->contains(key))
    throw std::runtime_error("reference.json has no record of instance " + key);
  return &section->at(key);
}

void fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

}  // namespace perfbench
