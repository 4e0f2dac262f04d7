#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/faults.hpp"
#include "hw/robust_eval.hpp"
#include "hw/thermal.hpp"
#include "runtime/serve/slo.hpp"
#include "util/durable/checkpoint_chain.hpp"
#include "util/json.hpp"

namespace hadas::runtime::serve {

/// Durable-envelope format tag of serve-journal snapshots.
inline constexpr const char* kServeJournalFormatTag = "hadas-serve-journal-v1";

/// Periodic durable snapshot of the serving run loop. When `path` is
/// non-empty, ServeSupervisor::run writes its complete mutable state (report
/// counters, SLO samples, queue, mode controller, per-lane health / thermal
/// / fault-clock state) through a rotating CheckpointChain every `every`
/// requests, and on startup resumes from the newest valid snapshot — a
/// killed serve run, restarted with the same configuration and trace, emits
/// a byte-identical ServeReport.
struct ServeJournalConfig {
  std::string path;        ///< empty = journaling off
  std::size_t every = 64;  ///< snapshot cadence in trace entries (>= 1)
  std::size_t keep = 3;    ///< rotated snapshots retained (>= 1)
  /// Test hook simulating an in-process kill: when non-zero, run() throws
  /// ServeInterruptedError immediately before serving trace entry with this
  /// index (nothing beyond the regular journal cadence is written first —
  /// exactly what a SIGKILL leaves behind). Clear it to resume.
  std::size_t stop_after_requests = 0;
  /// Sink for journal-recovery warnings (corrupt snapshot skipped).
  /// Empty = stderr.
  std::function<void(const std::string&)> warn;
};

/// Thrown by the `stop_after_requests` test hook; never by a real serve run.
class ServeInterruptedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Mutable per-lane state captured at a request boundary.
struct LaneSnapshot {
  bool alive = true;
  std::size_t served = 0;
  double clock_s = 0.0;
  double last_event_s = 0.0;
  double peak_temperature_c = 0.0;
  hw::DeviceHealth::State health;
  hw::ThermalModel::State thermal;
  hw::FaultInjector::State injector;
};

/// Everything ServeSupervisor::run mutates, captured at the boundary before
/// trace entry `next_index`. Restoring this and re-running entries
/// next_index..end reproduces the uninterrupted run's report bit for bit
/// (all doubles round-trip exactly through %.17g JSON).
struct ServeJournalSnapshot {
  /// Fingerprint of (placement, ladder, trace shape, serve config, lanes);
  /// resume refuses a snapshot whose fingerprint mismatches the run's.
  std::string fingerprint;
  std::size_t next_index = 0;

  // --- report counters accumulated so far ---
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t shed = 0;
  std::size_t shed_no_device = 0;
  std::size_t max_queue_depth = 0;
  std::size_t watchdog_fallbacks = 0;
  std::size_t transient_faults = 0;
  std::size_t nan_faults = 0;
  std::size_t overruns = 0;
  std::size_t failovers = 0;
  std::size_t devices_lost = 0;
  std::size_t degraded_entries = 0;
  std::size_t critical_entries = 0;
  std::size_t requests_degraded = 0;
  double makespan_s = 0.0;
  std::size_t deployment_samples = 0;
  std::map<std::size_t, std::size_t> exit_histogram;

  // --- deployment accumulators ---
  std::size_t correct = 0;
  double energy_sum_j = 0.0;
  double latency_sum_s = 0.0;
  SloTracker::State slo;

  // --- degraded-mode controller ---
  int mode = 0;
  double incident_ema = 0.0;
  std::size_t dwell = 0;

  // --- admission queue ---
  std::vector<double> outstanding;  ///< completion times, FIFO order
  double busy_until_s = 0.0;

  std::vector<LaneSnapshot> lanes;
};

util::Json to_json(const ServeJournalSnapshot& snapshot);
ServeJournalSnapshot journal_snapshot_from_json(const util::Json& json);

/// Decode one journal payload read out of `file`; every failure throws
/// util::durable::CheckpointCorruptError naming it.
ServeJournalSnapshot journal_snapshot_from_payload(const std::string& payload,
                                                   const std::string& file);

/// Rotate `chain` and durably write `snapshot` as the newest slot.
void save_journal(const hadas::util::durable::CheckpointChain& chain,
                  const ServeJournalSnapshot& snapshot);

/// A journal snapshot recovered from a rotating chain.
struct LoadedJournal {
  ServeJournalSnapshot snapshot;
  std::string file;
  std::size_t skipped = 0;
};

/// Newest chain slot that passes envelope + parse validation; rejected
/// newer slots are reported through `warn`. Returns nullopt when no slot
/// exists; throws util::durable::CheckpointCorruptError when every slot is
/// corrupt.
std::optional<LoadedJournal> load_journal(
    const hadas::util::durable::CheckpointChain& chain,
    const std::function<void(const std::string& warning)>& warn = {});

}  // namespace hadas::runtime::serve
