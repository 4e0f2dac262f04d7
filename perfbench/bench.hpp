#pragma once

// Shared pieces of the perfbench driver: wall-clock timing, layer spans
// recorded from outside the program around each call into a layer, robust
// statistics, bit-exact fingerprints and the record every workload fills.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/synthetic_task.hpp"
#include "dynn/exit_bank.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace perfbench {

using hadas::util::Json;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Version of the rule that turns --seed into workload inputs. Bump it
/// whenever the rule or a workload's problem size changes: reference.json
/// is only valid for the version it was recorded under.
inline constexpr const char* kInputSpec = "perfbench-inputs-1";

/// Distinct problem instances a seed can select (instance = seed mod this).
/// reference.json records the expected outputs of every one of them, so
/// every seed has a reference that no run being tested produced.
inline constexpr std::uint64_t kInstances = 20;

/// What the command line asked for.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Print the exact work record of one repetition instead of checking it
  /// (how reference.json is made).
  bool record = false;
  std::string scratch_dir;  ///< checkpoints and journals, wiped before use
  std::string out_dir;      ///< result and trace files

  /// Instance `j` of a group of `group` instances this seed selects; groups
  /// of consecutive seeds do not overlap until they wrap.
  std::uint64_t instance(std::size_t j = 0, std::size_t group = 1) const {
    return (seed * group + j) % kInstances;
  }
};

/// Everything one run reports. `work` is the exact work record of one
/// repetition: fronts and counts that must repeat bit for bit.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::pair<double, std::string>> metrics;
  Json work;
  Json detail;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Count one operation; a false `ok` makes it a failed one.
  void operation(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

/// The traced run's spans on one wall-clock time base: spans the benchmark
/// records around its calls into each layer, plus the program's own
/// wall-clock spans folded in from the global obs::TraceSink. (The sink
/// restarts its clock on every enable(), so each traced window is folded
/// in with its own offset.) Written out as Chrome trace JSON at the end.
class Recorder {
 public:
  static Recorder& global();

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  void record(const char* name, Clock::time_point start, Clock::time_point end);

  /// Runs `window` with the program's instrumentation on (obs::enabled and
  /// the global sink) and folds its wall-clock spans in. With `keep` false
  /// the program's events are only counted: a serving pass records one
  /// simulated-clock span per request, too many to keep.
  template <class F>
  void with_program_spans(F&& window, bool keep = true) {
    const Clock::time_point opened = begin_program_window();
    window();
    end_program_window(opened, keep);
  }

  /// Events recorded or folded in, plus program events only counted.
  std::size_t size() const { return events_.size() + counted_only_; }
  /// {"traceEvents": [...]} in the obs::TraceSink layout.
  Json to_json() const;

 private:
  struct Event {
    std::string name;
    std::string cat;
    double ts_us;
    double dur_us;
    std::uint32_t tid;
  };
  Clock::time_point begin_program_window();
  void end_program_window(Clock::time_point opened, bool keep);

  Clock::time_point origin_ = Clock::now();
  bool on_ = false;
  std::size_t counted_only_ = 0;
  std::vector<Event> events_;  // recorded from the benchmark's thread only
};

/// RAII timer around one call into a layer: adds the elapsed wall seconds
/// to `total` and, while the recorder is on, records a span named after the
/// layer metric (nesting gives the parent).
class LayerSpan {
 public:
  LayerSpan(const char* name, double& total)
      : name_(name), total_(total), t0_(Clock::now()) {}
  ~LayerSpan() {
    const Clock::time_point t1 = Clock::now();
    total_ += std::chrono::duration<double>(t1 - t0_).count();
    if (Recorder::global().on()) Recorder::global().record(name_, t0_, t1);
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  const char* name_;
  double& total_;
  Clock::time_point t0_;
};

/// Pins the calling thread to the `k`-th CPU (round robin) of those it was
/// allowed at start. Single-threaded workloads call it before each timed
/// repetition, so a run samples every CPU of a shared host instead of the
/// one the scheduler happened to keep it on (CPUs of a shared VM differ by
/// up to ~15% in speed). Never used before a thread pool is created.
void rotate_cpu(std::size_t k);

/// Untraced/traced repetitions a traced run alternates (medians of each).
inline constexpr int kTracedPairs = 3;

/// Whether another timed repetition fits in `budget` seconds: the next one,
/// at the median length so far, must still end within it. The first always
/// runs, so a run measures at least one repetition and at most `budget`
/// seconds unless one repetition alone is longer.
bool another_fits(const std::vector<double>& samples, double budget);

double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);

/// FNV-1a over 64-bit words; doubles enter by bit pattern, so equal
/// fingerprints mean bit-identical values.
class Fingerprint {
 public:
  void mix(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ULL;
  }
  void mix_double(double d);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Exit-head training work of a set of exit banks, computed from the
/// shapes: every bank trains a teacher plus one head per eligible exit.
struct NnWork {
  std::size_t heads = 0;
  std::size_t sgd_steps = 0;
  double gemm_flop = 0.0;  ///< forward, backward and evaluation GEMMs
};
NnWork nn_work(const std::vector<std::size_t>& bank_layers,
               const hadas::data::DataConfig& data,
               const hadas::dynn::ExitBankConfig& bank);

/// Exact text of a double, for work records compared bit for bit.
std::string exact(double d);

/// Per-span-name totals of a trace: count, total and self seconds (a span
/// minus the part of it that spans nested inside it cover).
Json span_breakdown(const Json& trace);

/// Sum of the durations (seconds) of the spans named `name` in `trace`.
double span_seconds(const Json& trace, const std::string& name);

/// Writes the traced run's spans next to the result file.
void write_trace(const Json& trace, const Options& options);

/// Value of a counter in the global metrics registry.
std::uint64_t counter_value(const std::string& name);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Delete and recreate a scratch directory.
void fresh_dir(const std::string& path);

/// The recorded work of `instance` in a workload's reference.json section;
/// null when there is no section (--record mode). Throws when the section
/// lacks the instance, because an unchecked output is not a correct one.
const Json* reference_for(const Json* section, std::uint64_t instance);

// Workloads. Each fills `out`; `reference` is the workload's section of
// reference.json, keyed by instance (null in --record mode).
void run_search(const Options& options, std::size_t threads,
                const Json* reference, Outcome& out);
void run_ioe_sweep(const Options& options, const Json* reference,
                   Outcome& out);
void run_serve_loopback(const Options& options, const Json* reference,
                        Outcome& out);

}  // namespace perfbench
