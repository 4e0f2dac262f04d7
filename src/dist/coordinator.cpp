#include "dist/coordinator.hpp"

#include <chrono>
#include <filesystem>
#include <iostream>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "dist/fork_transport.hpp"
#include "dist/metrics.hpp"
#include "dist/net_transport.hpp"
#include "dist/transport.hpp"
#include "dist/worker.hpp"
#include "obs/metrics.hpp"
#include "util/failpoint.hpp"

namespace hadas::dist {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

DistMetrics& dist_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static DistMetrics metrics{
      reg.counter("dist.workers_spawned_total"),
      reg.counter("dist.workers_restarted_total"),
      reg.counter("dist.workers_quarantined_total"),
      reg.counter("dist.heartbeat_misses_total"),
      reg.counter("dist.migrants_exchanged_total"),
      reg.gauge("dist.islands"),
      reg.histogram("dist.merge_seconds", obs::default_time_bounds()),
  };
  return metrics;
}

DistCoordinator::DistCoordinator(DistSpec spec, std::string workdir,
                                 DistOptions options)
    : spec_(std::move(spec)),
      workdir_(std::move(workdir)),
      options_(std::move(options)) {}

void DistCoordinator::say(const std::string& message) const {
  if (options_.log) {
    options_.log(message);
    return;
  }
  std::cerr << message << "\n";
}

bool DistCoordinator::run_islands_inline(
    const std::vector<std::size_t>& islands, bool failpoints_on) {
  const supernet::SearchSpace space = spec_space(spec_);
  const auto cancelled = [&] {
    return options_.cancel != nullptr &&
           options_.cancel->load(std::memory_order_relaxed);
  };
  // Round-major sweep: every pass runs each unfinished island's next round
  // when its inbound migrants are available. The least-advanced island is
  // always runnable (its ring sender has necessarily passed the boundary it
  // needs — or is in this very list, behind it, and runs first), so a pass
  // without progress can only mean corrupted state.
  while (true) {
    bool all_done = true;
    bool progressed = false;
    for (std::size_t island : islands) {
      if (cancelled()) return false;
      const IslandProgress progress = inspect_island(spec_, workdir_, island);
      if (progress.final_written) continue;
      all_done = false;
      if (progress.next_round >= round_count(spec_)) {
        write_island_final(spec_, workdir_, island, failpoints_on);
        progressed = true;
        continue;
      }
      if (!inbound_ready(space, spec_, workdir_, island, progress.next_round,
                         failpoints_on))
        continue;
      if (!run_island_round(spec_, workdir_, island, progress.next_round,
                            failpoints_on, options_.cancel))
        return false;
      progressed = true;
    }
    if (all_done) return true;
    if (!progressed)
      throw std::runtime_error(
          "dist: no island can make progress — inbound migrants unavailable "
          "and not regenerable from any checkpoint chain");
  }
}

DistReport DistCoordinator::run() {
  validate_spec(spec_);
  std::filesystem::create_directories(workdir_);

  // A workdir is one run: reject a spec that contradicts durable state left
  // by a previous invocation.
  if (!record_spec(spec_path(workdir_), spec_))
    throw std::invalid_argument(
        "dist: workdir '" + workdir_ +
        "' already holds a different spec — use a fresh workdir or rerun "
        "with the original parameters");

  DistReport report;
  report.islands = spec_.islands;
  DistMetrics& metrics = dist_metrics();
  metrics.islands.set(static_cast<double>(spec_.islands));

  const auto cancelled = [&] {
    return options_.cancel != nullptr &&
           options_.cancel->load(std::memory_order_relaxed);
  };

  if (!options_.spawn) {
    std::vector<std::size_t> all(spec_.islands);
    std::iota(all.begin(), all.end(), std::size_t{0});
    if (!run_islands_inline(all, /*failpoints_on=*/true)) {
      report.interrupted = true;
      return report;
    }
  } else {
    const auto log = [this](const std::string& message) { say(message); };
    std::unique_ptr<DistTransport> transport;
    if (options_.listen.has_value())
      transport =
          std::make_unique<NetTransport>(spec_, workdir_, options_, log);
    else
      transport =
          std::make_unique<ForkTransport>(spec_, workdir_, options_, log);
    SuperviseOutcome outcome = transport->supervise(report);
    if (outcome.interrupted) {
      report.interrupted = true;
      return report;
    }
    if (!outcome.salvage.empty()) {
      say("dist: salvaging " + std::to_string(outcome.salvage.size()) +
          " quarantined island(s) inline — the merged front is still exact, "
          "but this run had no worker-level parallelism for them");
      // Salvage runs with dist failpoints suppressed: the chaos schedule
      // that broke the workers must not also kill the last-resort recovery.
      if (!run_islands_inline(outcome.salvage, /*failpoints_on=*/false)) {
        report.interrupted = true;
        return report;
      }
    }
  }

  if (cancelled()) {
    report.interrupted = true;
    return report;
  }

  hadas::util::failpoint("dist.merge");
  const bool timed = obs::enabled();
  const auto t0 = timed ? Clock::now() : Clock::time_point();
  report.merged = merge_islands(spec_, workdir_);
  if (timed)
    metrics.merge_seconds.observe(
        std::chrono::duration<double>(Clock::now() - t0).count());

  // Count the migration traffic from the durable files themselves (the only
  // ground truth that survives worker crashes).
  for (std::size_t island = 0; island < spec_.islands; ++island) {
    for (std::size_t round = 0; round + 1 < round_count(spec_); ++round) {
      const std::string path = migrants_path(workdir_, island, round);
      const std::optional<std::string> payload = read_migrants_payload(path);
      if (!payload) continue;
      report.migrants_exchanged +=
          migrants_from_payload(*payload, path).genomes.size();
    }
  }
  metrics.migrants.inc(report.migrants_exchanged);
  return report;
}

}  // namespace hadas::dist
