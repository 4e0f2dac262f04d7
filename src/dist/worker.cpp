#include "dist/worker.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/serialize.hpp"
#include "net/session.hpp"
#include "util/durable/checkpoint_chain.hpp"
#include "util/durable/durable_file.hpp"
#include "util/failpoint.hpp"
#include "util/strutil.hpp"

namespace hadas::dist {

namespace {

bool cancelled(const std::atomic<bool>* cancel) {
  return cancel != nullptr && cancel->load(std::memory_order_relaxed);
}

/// Test hook: HADAS_DIST_HANG="<island>:<round>" freezes the worker
/// (without heartbeats) before running that round, so the coordinator's
/// hang watchdog can be exercised deterministically. Like HADAS_CHAOS it is
/// stripped from the environment on respawn.
bool should_hang(std::size_t island, std::size_t round) {
  const char* spec = std::getenv("HADAS_DIST_HANG");
  if (spec == nullptr || *spec == '\0') return false;
  const auto parts = util::split(spec, ':');
  if (parts.size() != 2) return false;
  try {
    return util::parse_size("HADAS_DIST_HANG island", parts[0]) == island &&
           util::parse_size("HADAS_DIST_HANG round", parts[1]) == round;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

IslandProgress inspect_island(const DistSpec& spec, const std::string& workdir,
                              std::size_t island) {
  IslandProgress progress;
  if (island_final_valid(final_path(workdir, island))) {
    progress.final_written = true;
    progress.next_round = round_count(spec);
    return progress;
  }
  const hadas::util::durable::CheckpointChain chain(
      chain_path(workdir, island),
      std::max<std::size_t>(1, spec.checkpoint_keep));
  const auto loaded = core::load_checkpoint_chain(chain);
  if (!loaded) return progress;  // nothing yet: start at round 0
  const std::size_t next_gen = loaded->checkpoint.next_generation;
  // A boundary checkpoint maps to the round starting there; a mid-round one
  // (graceful-shutdown save) maps to the round it interrupted.
  progress.next_round = next_gen >= spec.outer_generations
                            ? round_count(spec)
                            : next_gen / spec.migration_every;
  return progress;
}

bool inbound_ready(const supernet::SearchSpace& space, const DistSpec& spec,
                   const std::string& workdir, std::size_t island,
                   std::size_t round, bool failpoints_on) {
  if (round == 0 || spec.islands <= 1) return true;
  return ensure_migrants_file(space, spec, workdir,
                              inbound_neighbor(spec, island), round - 1,
                              failpoints_on);
}

bool run_island_round(const DistSpec& spec, const std::string& workdir,
                      std::size_t island, std::size_t round,
                      bool failpoints_on, const std::atomic<bool>* cancel,
                      const std::function<void(std::size_t)>& on_generation) {
  if (failpoints_on) hadas::util::failpoint("dist.worker.round.begin");
  const supernet::SearchSpace space = spec_space(spec);
  core::HadasConfig config = island_config(spec, workdir, island);
  config.outer_generations = round_end_generation(spec, round);
  config.cancel = cancel;
  config.on_generation = on_generation;

  core::WarmStart warm;
  if (round > 0 && spec.islands > 1) {
    // A crash between the boundary checkpoint and the migrant write lost
    // our previous outbound file; regenerate it before evolving on (it is a
    // pure function of the boundary checkpoint, so the bytes match what the
    // crashed process would have written).
    if (!ensure_migrants_file(space, spec, workdir, island, round - 1,
                              failpoints_on))
      throw std::runtime_error(
          "dist: island " + std::to_string(island) + " lost both round " +
          std::to_string(round - 1) +
          " boundary checkpoint and its migrant file");
    if (failpoints_on) hadas::util::failpoint("dist.migrate.read");
    const MigrantSet inbound = load_migrants_file(
        migrants_path(workdir, inbound_neighbor(spec, island), round - 1));
    warm.immigrants = inbound.genomes;
    warm.immigrants_at_generation = round * spec.migration_every;
  }

  core::HadasEngine engine(space, island_target(spec, island), config);
  const core::HadasResult result = engine.run(warm);
  if (result.interrupted) return false;
  if (failpoints_on) hadas::util::failpoint("dist.worker.round.end");

  if (round + 1 == round_count(spec)) {
    write_island_final(spec, workdir, island, failpoints_on);
  } else if (spec.islands > 1) {
    ensure_migrants_file(space, spec, workdir, island, round, failpoints_on);
  }
  return true;
}

void touch_heartbeat(const std::string& path, std::uint64_t counter) {
  hadas::util::failpoint("dist.heartbeat");
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << counter << "\n";
  }
  std::rename(tmp.c_str(), path.c_str());
}

std::optional<std::uint64_t> read_heartbeat(const std::string& path) {
  std::ifstream in(path);
  std::uint64_t counter = 0;
  if (!(in >> counter)) return std::nullopt;
  return counter;
}

int run_worker(const DistSpec& spec, const std::string& workdir,
               std::size_t island, const WorkerOptions& options) {
  hadas::util::failpoint("dist.worker.start");
  const supernet::SearchSpace space = spec_space(spec);
  const std::string hb = heartbeat_path(workdir, island);
  // Continue the previous incarnation's counter so the coordinator sees
  // strictly advancing beats across restarts.
  std::uint64_t beat = read_heartbeat(hb).value_or(0);
  touch_heartbeat(hb, ++beat);
  const auto poll =
      std::chrono::milliseconds(std::max<std::size_t>(1, options.poll_ms));

  while (true) {
    if (cancelled(options.cancel)) return kWorkerExitInterrupted;
    const IslandProgress progress = inspect_island(spec, workdir, island);
    if (progress.final_written) return kWorkerExitDone;
    if (progress.next_round >= round_count(spec)) {
      // The last round is checkpointed but the crash ate the result file.
      write_island_final(spec, workdir, island);
      continue;
    }

    // Wait — heartbeating — until the inbound migrants of this round exist.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options.wait_timeout_ms);
    while (!inbound_ready(space, spec, workdir, island, progress.next_round)) {
      if (cancelled(options.cancel)) return kWorkerExitInterrupted;
      if (std::chrono::steady_clock::now() > deadline)
        return kWorkerExitWaitTimeout;
      touch_heartbeat(hb, ++beat);
      std::this_thread::sleep_for(poll);
    }

    if (should_hang(island, progress.next_round)) {
      // Simulated hang: alive but silent. SIGKILL (the watchdog) ends it.
      while (!cancelled(options.cancel))
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return kWorkerExitInterrupted;
    }

    if (!run_island_round(
            spec, workdir, island, progress.next_round, /*failpoints_on=*/true,
            options.cancel, [&](std::size_t) { touch_heartbeat(hb, ++beat); }))
      return kWorkerExitInterrupted;
  }
}

namespace {

/// The fingerprint and spec JSON of a dist WELCOME tail.
std::pair<std::string_view, std::string_view> split_welcome(
    std::string_view tail) {
  if (tail.size() < 4)
    throw net::ProtocolError("NetWorker: malformed welcome frame");
  const std::uint32_t fp_len = net::get_u32(tail, 0);
  if (tail.size() < 4 + std::size_t{fp_len})
    throw net::ProtocolError("NetWorker: malformed welcome frame");
  return {tail.substr(4, fp_len), tail.substr(4 + fp_len)};
}

}  // namespace

NetWorker::NetWorker(net::SocketHandler* handler, NetWorkerConfig config)
    : config_(std::move(config)),
      owned_handler_(handler == nullptr
                         ? std::make_unique<net::TcpSocketHandler>()
                         : nullptr),
      handler_(handler != nullptr ? handler : owned_handler_.get()),
      dialer_(*handler_,
              net::DialerConfig{config_.connect,
                                dist_session_id(config_.island),
                                dist_session_path(config_.state_dir,
                                                  config_.island),
                                kDistSessionFormatTag, "NetWorker",
                                "coordinator", config_.max_connect_attempts,
                                config_.max_handshake_failures,
                                &dist_net_metrics().reconnects},
              *this) {
  if (config_.state_dir.empty())
    throw std::invalid_argument("NetWorker: a state directory is required");
  std::filesystem::create_directories(config_.state_dir);
  if (std::optional<util::Json> app = dialer_.restore()) {
    sent_ = rounds_from_json(app->at("sent"));
    final_sent_ = app->at("final_sent").as_bool();
    partial_ = app->at("partial").as_string();
    partial_key_ = app->at("partial_key").as_string();
  }
  // A spec durably adopted by a previous incarnation lets this worker keep
  // computing rounds while disconnected; only migrant exchange stalls.
  const std::string spec_file = spec_path(config_.state_dir);
  if (std::filesystem::exists(spec_file)) {
    try {
      DistSpec spec = load_spec(spec_file);
      if (!dialer_.fingerprint().empty() &&
          spec_fingerprint(spec) != dialer_.fingerprint())
        throw net::ProtocolError(
            "NetWorker: state dir '" + config_.state_dir +
            "' holds a spec that does not match its session journal — it "
            "mixes two runs; use a fresh state dir");
      validate_spec(spec);
      space_ = spec_space(spec);
      spec_ = std::move(spec);
    } catch (const util::durable::CheckpointCorruptError&) {
      // Unreadable local spec: the next WELCOME re-delivers it.
    }
  }
}

net::SocketHandler& NetWorker::handler() { return *handler_; }

bool NetWorker::cancelled() const {
  return config_.cancel != nullptr &&
         config_.cancel->load(std::memory_order_relaxed);
}

void NetWorker::write_app(util::JsonWriter& writer) const {
  writer.begin_object();
  writer.key("final_sent");
  writer.boolean(final_sent_);
  writer.key("partial");
  writer.string(partial_);
  writer.key("partial_key");
  writer.string(partial_key_);
  writer.key("sent");
  write_rounds(writer, sent_);
  writer.end_object();
}

void NetWorker::adopt_spec(const std::string& spec_json) {
  DistSpec spec = spec_from_json(util::Json::parse(spec_json));
  validate_spec(spec);
  if (config_.island >= spec.islands)
    throw net::ProtocolError(
        "NetWorker: island " + std::to_string(config_.island) +
        " out of range for the delivered spec (" +
        std::to_string(spec.islands) + " islands)");
  // Persist the spec so a respawn (and run_island_round's engine) sees the
  // exact topology the coordinator runs; reject a state dir from another run.
  if (!record_spec(spec_path(config_.state_dir), spec))
    throw net::ProtocolError(
        "NetWorker: state dir '" + config_.state_dir +
        "' already holds a different spec — use a fresh state dir");
  space_ = spec_space(spec);
  spec_ = std::move(spec);
}

std::string NetWorker::welcome_fingerprint(std::string_view tail) const {
  return std::string(split_welcome(tail).first);
}

void NetWorker::on_welcome(std::string_view tail) {
  const auto [fingerprint, spec_json] = split_welcome(tail);
  if (!spec_.has_value()) adopt_spec(std::string(spec_json));
  if (spec_fingerprint(*spec_) != fingerprint)
    throw net::ProtocolError(
        "NetWorker: local spec fingerprint " + spec_fingerprint(*spec_) +
        " does not match the coordinator's " + std::string(fingerprint));
}

void NetWorker::apply(const net::Frame& frame) {
  const DistChunk chunk = parse_dist_chunk(frame);
  if (chunk.type != net::FrameType::kDistMigrants)
    throw net::ProtocolError(std::string("NetWorker: unexpected app frame '") +
                             net::frame_type_name(chunk.type) + "'");
  if (chunk.island != inbound_neighbor(*spec_, config_.island))
    throw net::ProtocolError(
        "NetWorker: pushed migrants labelled island " +
        std::to_string(chunk.island) + " but island " +
        std::to_string(config_.island) + "'s inbound neighbor is " +
        std::to_string(inbound_neighbor(*spec_, config_.island)));
  const std::string key = dist_chunk_key(chunk);
  if (!partial_key_.empty() && partial_key_ != key)
    throw net::ProtocolError("NetWorker: interleaved chunk runs ('" +
                             partial_key_ + "' interrupted by '" + key + "')");
  if (!chunk.last) {
    partial_key_ = key;
    partial_ += chunk.bytes;
    return;
  }
  const std::string text = partial_ + chunk.bytes;
  partial_.clear();
  partial_key_.clear();
  const std::string path =
      migrants_path(config_.state_dir, chunk.island, chunk.round);
  const bool wrote = util::durable::DurableFile::write_idempotent(
      path, kMigrantsFormatTag, text);
  try {
    (void)load_migrants_file(path);
  } catch (const util::durable::CheckpointCorruptError& error) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    throw net::ProtocolError(
        std::string("NetWorker: malformed pushed migrant payload: ") +
        error.what());
  }
  dist_net_metrics().migrant_sets_received.inc();
  if (!wrote) dist_net_metrics().migrant_sets_replayed.inc();
}

void NetWorker::beat() {
  const auto now = Clock::now();
  if (config_.beat_every_ms > 0 &&
      now - last_beat_ < std::chrono::milliseconds(config_.beat_every_ms))
    return;
  last_beat_ = now;
  // A duplicate ack proves this island alive to the coordinator's watchdog
  // while the engine grinds through a round.
  dialer_.beat();
}

bool NetWorker::work() {
  const bool did = work_step();
  // An idle worker (waiting on inbound migrants) still beats: a partition
  // of *another* island must not make this one look silent to the watchdog.
  if (dialer_.online()) beat();
  return did;
}

bool NetWorker::work_step() {
  if (!spec_.has_value()) return false;
  const DistSpec& spec = *spec_;
  bool did = false;
  const IslandProgress progress =
      inspect_island(spec, config_.state_dir, config_.island);
  if (progress.final_written) {
    if (!final_sent_) {
      const std::string text = util::durable::DurableFile::read(
          final_path(config_.state_dir, config_.island),
          kIslandResultFormatTag);
      append_blob(dialer_.writer(), net::FrameType::kDistFinal,
                  config_.island, 0, text);
      final_sent_ = true;
      // Journal the queued upload before any pump can flush it.
      dialer_.save();
      did = true;
    }
  } else if (progress.next_round >= round_count(spec)) {
    write_island_final(spec, config_.state_dir, config_.island);
    did = true;
  } else if (inbound_ready(*space_, spec, config_.state_dir, config_.island,
                           progress.next_round)) {
    last_beat_ = Clock::now();
    if (!run_island_round(spec, config_.state_dir, config_.island,
                          progress.next_round, /*failpoints_on=*/true,
                          config_.cancel, [this](std::size_t) { beat(); }))
      return did;  // cancelled mid-round (state checkpointed)
    did = true;
  }
  if (spec.islands > 1) {
    bool queued = false;
    for (std::size_t round = 0; round + 1 < round_count(spec); ++round) {
      if (sent_.count(round) != 0) continue;
      const std::string path =
          migrants_path(config_.state_dir, config_.island, round);
      const std::optional<std::string> payload = read_migrants_payload(path);
      if (!payload) continue;
      append_blob(dialer_.writer(), net::FrameType::kDistMigrants,
                  config_.island, round, *payload);
      sent_.insert(round);
      dist_net_metrics().migrant_sets_sent.inc();
      queued = true;
    }
    if (queued) {
      dialer_.save();
      did = true;
    }
  }
  return did;
}

int NetWorker::run() {
  auto last_progress = Clock::now();
  while (!done()) {
    if (cancelled()) return kWorkerExitInterrupted;
    dialer_.throw_if_unreachable();
    const bool progress = step();
    if (done()) break;
    const auto now = Clock::now();
    if (progress) {
      last_progress = now;
    } else {
      if (now - last_progress >
          std::chrono::milliseconds(config_.wait_timeout_ms))
        return kWorkerExitWaitTimeout;
      handler().wait(static_cast<int>(
          std::max<std::size_t>(1, config_.reconnect_backoff_ms)));
    }
  }
  return kWorkerExitDone;
}

int run_net_worker(net::SocketHandler* handler, const NetWorkerConfig& config) {
  NetWorker worker(handler, config);
  return worker.run();
}

}  // namespace hadas::dist
