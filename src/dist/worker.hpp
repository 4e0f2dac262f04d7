#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "dist/island.hpp"
#include "dist/net_transport.hpp"
#include "net/endpoint.hpp"
#include "util/strutil.hpp"

namespace hadas::dist {

/// What the island's durable state says about where to continue. Derived
/// entirely from on-disk inspection, so a respawned worker (or the salvage
/// path in the coordinator) needs no memory of the crashed process.
struct IslandProgress {
  bool final_written = false;  ///< valid island result file exists
  std::size_t next_round = 0;  ///< first round not yet checkpointed past
};

IslandProgress inspect_island(const DistSpec& spec, const std::string& workdir,
                              std::size_t island);

/// True when the inbound migrant file island `island` needs before `round`
/// is readable. Attempts a cross-process repair first: a missing/corrupt
/// file is regenerated from the *sender's* checkpoint chain when it already
/// holds the boundary (migrant sets are pure functions of checkpoints).
bool inbound_ready(const supernet::SearchSpace& space, const DistSpec& spec,
                   const std::string& workdir, std::size_t island,
                   std::size_t round, bool failpoints_on = true);

/// Run one island round: regenerate the previous round's outbound migrants
/// if a crash lost them, apply the inbound migrant set (rounds > 0), extend
/// the engine to the round's end generation (resuming from the chain), then
/// emit this round's migrants — or, after the last round, the island result
/// file. `failpoints_on` gates the dist.* failpoints so the coordinator's
/// salvage path cannot be killed by a worker-targeted chaos schedule.
/// Returns false when `cancel` interrupted the round (state checkpointed).
bool run_island_round(const DistSpec& spec, const std::string& workdir,
                      std::size_t island, std::size_t round,
                      bool failpoints_on,
                      const std::atomic<bool>* cancel = nullptr,
                      const std::function<void(std::size_t)>& on_generation = {});

/// Worker main loop (the `hadas worker` subcommand): refresh the heartbeat
/// file, inspect progress, wait for inbound migrants, run rounds until the
/// island result is durably written. Returns a kWorkerExit* code.
struct WorkerOptions {
  std::size_t poll_ms = 25;             ///< inbound-migrant poll interval
  std::size_t wait_timeout_ms = 120000; ///< give up waiting (exit 3)
  const std::atomic<bool>* cancel = nullptr;  ///< SIGINT/SIGTERM flag
};

int run_worker(const DistSpec& spec, const std::string& workdir,
               std::size_t island, const WorkerOptions& options = {});

/// `hadas worker --connect host:port --island I --state-dir DIR`.
struct NetWorkerConfig {
  util::HostPort connect;
  std::size_t island = 0;
  std::string state_dir;  ///< local checkpoints, artifacts, session journal
  std::size_t wait_timeout_ms = 600000;  ///< no progress at all -> exit 3
  std::size_t max_connect_attempts = 600;
  std::size_t max_handshake_failures = 50;
  /// Duplicate-ack heartbeat interval inside a round (0 = every generation).
  std::size_t beat_every_ms = 1000;
  std::size_t reconnect_backoff_ms = 20;
  const std::atomic<bool>* cancel = nullptr;
};

/// The remote end of one island: dials the coordinator, learns the DistSpec
/// from the WELCOME, and runs its island's rounds against a *local* state
/// directory — checkpoints, outbound migrants and the island result are
/// produced exactly as a shared-workdir worker would produce them, then
/// uploaded through the resumable stream (the coordinator persists them
/// verbatim, so the merged front is byte-identical). Inbound migrants
/// arrive as pushed kDistMigrants blobs and are written into the state
/// directory, where run_island_round finds them. The session journal in the
/// state directory makes every step resumable: a killed worker reconnects
/// with its durable read_seq, the stream replays, and no artifact is lost
/// or duplicated. A worker that already holds the spec keeps computing
/// rounds while partitioned — only migrant exchange stalls.
class NetWorker : private net::SessionDialer::App {
 public:
  /// `handler` selects the socket fabric (nullptr = real TCP sockets).
  NetWorker(net::SocketHandler* handler, NetWorkerConfig config);

  /// One cooperative pass: poll the network, then advance local island
  /// work. Returns true when anything progressed. Throws
  /// net::ProtocolError when the coordinator refused the session or the
  /// durable state of the two ends disagrees.
  bool step() { return dialer_.step(); }

  bool done() const { return dialer_.done(); }
  std::size_t reconnects() const { return dialer_.reconnects(); }
  bool spec_received() const { return spec_.has_value(); }

  /// Blocking loop; returns a kWorkerExit* code. Throws net::ConnectError
  /// after max_connect_attempts consecutive failed dials and
  /// net::ProtocolError on unrecoverable protocol disagreement.
  int run();

 private:
  using Clock = std::chrono::steady_clock;

  // net::SessionDialer::App: WELCOME tail = u32 fingerprint length |
  // fingerprint | spec JSON; app frames are pushed inbound migrants.
  std::string welcome_fingerprint(std::string_view tail) const override;
  void on_welcome(std::string_view tail) override;
  void apply(const net::Frame& frame) override;
  void write_app(util::JsonWriter& writer) const override;
  bool finished() const override { return final_sent_; }
  /// Island rounds and uploads, then an idle heartbeat.
  bool work() override;

  net::SocketHandler& handler();
  bool cancelled() const;
  void adopt_spec(const std::string& spec_json);
  bool work_step();
  void beat();

  NetWorkerConfig config_;
  std::unique_ptr<net::SocketHandler> owned_handler_;
  net::SocketHandler* handler_ = nullptr;
  net::SessionDialer dialer_;
  std::optional<DistSpec> spec_;
  std::optional<supernet::SearchSpace> space_;
  std::set<std::size_t> sent_;  ///< outbound migrant rounds already queued
  bool final_sent_ = false;
  std::string partial_;  ///< inbound chunk-run accumulator
  std::string partial_key_;
  Clock::time_point last_beat_{};
};

/// Convenience wrapper: construct a NetWorker over real TCP (or `handler`
/// when given) and run() it. net::ConnectError / net::ProtocolError
/// propagate to the caller (the CLI prints them and exits nonzero).
int run_net_worker(net::SocketHandler* handler, const NetWorkerConfig& config);

/// Atomically (tmp + rename) publish a monotonic heartbeat counter; the
/// coordinator declares the worker hung when the counter stops advancing.
void touch_heartbeat(const std::string& path, std::uint64_t counter);

/// The counter currently published at `path`, or nullopt when absent or
/// unreadable.
std::optional<std::uint64_t> read_heartbeat(const std::string& path);

}  // namespace hadas::dist
