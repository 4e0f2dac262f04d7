#include "dist/net_transport.hpp"

#include <filesystem>

#include "dist/metrics.hpp"
#include "dist/worker.hpp"
#include "obs/metrics.hpp"
#include "util/durable/durable_file.hpp"
#include "util/failpoint.hpp"
#include "util/strutil.hpp"

namespace hadas::dist {

namespace {

std::size_t island_of(const std::string& id) {
  return *parse_dist_session_id(id);
}

}  // namespace

std::string dist_session_id(std::size_t island) {
  return "island-" + std::to_string(island);
}

std::optional<std::size_t> parse_dist_session_id(const std::string& id) {
  const std::string prefix = "island-";
  if (!util::starts_with(id, prefix)) return std::nullopt;
  try {
    return util::parse_size("dist session island", id.substr(prefix.size()));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string dist_session_path(const std::string& workdir, std::size_t island) {
  return workdir + "/session-" + dist_session_id(island) + ".json";
}

std::string spec_fingerprint(const DistSpec& spec) {
  return "spec-" +
         util::hex_u64(util::durable::crc64(spec_to_json(spec).dump(0)));
}

void append_blob(net::BackedWriter& writer, net::FrameType type,
                 std::size_t island, std::size_t round,
                 const std::string& text) {
  for (std::size_t at = 0;; at += kDistChunkBytes) {
    const bool last = at + kDistChunkBytes >= text.size();
    std::string payload;
    net::put_u64(payload, island);
    net::put_u64(payload, round);
    net::put_u32(payload, last ? 1 : 0);
    payload += text.substr(at, kDistChunkBytes);
    writer.append(net::encode_frame(type, payload));
    if (last) break;
  }
}

DistChunk parse_dist_chunk(const net::Frame& frame) {
  if (frame.payload.size() < 8 + 8 + 4)
    throw net::ProtocolError(std::string("dist-net: malformed ") +
                             net::frame_type_name(frame.type) + " frame");
  DistChunk chunk;
  chunk.type = frame.type;
  chunk.island = net::get_u64(frame.payload, 0);
  chunk.round = net::get_u64(frame.payload, 8);
  chunk.last = (net::get_u32(frame.payload, 16) & 1) != 0;
  chunk.bytes = frame.payload.substr(20);
  return chunk;
}

std::string dist_chunk_key(const DistChunk& chunk) {
  if (chunk.type == net::FrameType::kDistFinal)
    return "f:" + std::to_string(chunk.island);
  return "m:" + std::to_string(chunk.island) + ":" +
         std::to_string(chunk.round);
}

void write_rounds(util::JsonWriter& writer,
                  const std::set<std::size_t>& rounds) {
  writer.begin_array();
  for (std::size_t round : rounds) net::write_u64_string(writer, round);
  writer.end_array();
}

std::set<std::size_t> rounds_from_json(const util::Json& json) {
  std::set<std::size_t> rounds;
  for (const util::Json& entry : json.as_array())
    rounds.insert(util::parse_size("session round", entry.as_string()));
  return rounds;
}

DistNetMetrics& dist_net_metrics() {
  static DistNetMetrics metrics;
  return metrics;
}

NetTransport::NetTransport(DistSpec spec, std::string workdir,
                           const DistOptions& options,
                           std::function<void(const std::string&)> say)
    : spec_(std::move(spec)),
      workdir_(std::move(workdir)),
      options_(options),
      say_(std::move(say)),
      fingerprint_(spec_fingerprint(spec_)),
      space_(spec_space(spec_)),
      owned_handler_(options.socket_handler == nullptr
                         ? std::make_unique<net::TcpSocketHandler>()
                         : nullptr),
      host_(handler(),
            net::HostConfig{options.listen.value_or(util::HostPort{}),
                            workdir_, kDistSessionFormatTag, fingerprint_,
                            "dist-net", "worker",
                            &dist_net_metrics().refusals, say_},
            *this) {
  if (!options_.listen.has_value())
    throw std::invalid_argument("NetTransport: options.listen is required");
  // Resolving the refusal counter above materialized the dist.net.* family,
  // so a --metrics-out snapshot lists it (at zero) even for a run with no
  // network traffic at all.
}

net::SocketHandler& NetTransport::handler() {
  return options_.socket_handler != nullptr ? *options_.socket_handler
                                            : *owned_handler_;
}

bool NetTransport::cancelled() const {
  return options_.cancel != nullptr &&
         options_.cancel->load(std::memory_order_relaxed);
}

void NetTransport::start() {
  if (started_) return;
  std::filesystem::create_directories(workdir_);
  sessions_.resize(spec_.islands);
  health_.resize(spec_.islands);
  done_.assign(spec_.islands, false);
  const auto now = Clock::now();
  for (std::size_t i = 0; i < spec_.islands; ++i) {
    done_[i] = island_final_valid(final_path(workdir_, i));
    health_[i].last_activity = now;
  }
  host_.start();
  started_ = true;
}

bool NetTransport::finished() const {
  for (std::size_t i = 0; i < done_.size(); ++i)
    if (!done_[i]) return false;
  return !done_.empty();
}

std::size_t NetTransport::quarantined_count() const {
  std::size_t count = 0;
  for (const IslandHealth& health : health_)
    if (health.quarantined) ++count;
  return count;
}

void NetTransport::observe_acked(IslandSession& session,
                                 std::uint64_t acked) {
  if (session.inflight.empty()) return;
  const auto now = Clock::now();
  auto& inflight = session.inflight;
  std::size_t kept = 0;
  for (auto& entry : inflight) {
    if (entry.first <= acked) {
      dist_net_metrics().migration_latency.observe(
          std::chrono::duration<double>(now - entry.second).count());
    } else {
      inflight[kept++] = entry;
    }
  }
  inflight.resize(kept);
}

std::optional<std::string> NetTransport::refusal(const std::string& id) {
  const std::optional<std::size_t> island = parse_dist_session_id(id);
  if (!island.has_value() || dist_session_id(*island) != id)
    return "invalid dist session id '" + id + "' (expected island-<index>)";
  if (*island >= spec_.islands)
    return "island " + std::to_string(*island) + " out of range (spec has " +
           std::to_string(spec_.islands) + " islands)";
  if (health_[*island].quarantined)
    return "island " + std::to_string(*island) +
           " was quarantined after repeated partitions and is being "
           "finished inline by the coordinator";
  return std::nullopt;
}

net::SessionStream* NetTransport::session(const std::string& id) {
  IslandSession& session = sessions_[island_of(id)];
  return session.live ? &session : nullptr;
}

net::SessionStream& NetTransport::open(const std::string& id,
                                       const util::Json* journal) {
  IslandSession& session = sessions_[island_of(id)];
  session = IslandSession{};
  if (journal != nullptr) {
    session.pushed = rounds_from_json(journal->at("pushed"));
    session.partial = journal->at("partial").as_string();
    session.partial_key = journal->at("partial_key").as_string();
    dist_net_metrics().sessions_resumed.inc();
  }
  session.live = true;
  return session;
}

NetTransport::Unknown NetTransport::unknown(const std::string& id,
                                            std::uint64_t peer_read_seq,
                                            std::string& reason) {
  const std::size_t island = island_of(id);
  // The island's result is durable and its session was garbage-collected:
  // the worker only needs to learn that it is done.
  if (done_[island]) return Unknown::kCompleted;
  if (peer_read_seq == 0) return Unknown::kCreate;
  // The worker durably consumed stream bytes this coordinator has no
  // journal for, and the island is not finished — unservable.
  reason = "durable read_seq " + std::to_string(peer_read_seq) +
           " for island " + std::to_string(island) +
           " but the coordinator holds no session journal — worker journal "
           "and coordinator workdir disagree";
  return Unknown::kRefuse;
}

void NetTransport::welcome_tail(std::string& payload) const {
  net::put_u32(payload, static_cast<std::uint32_t>(fingerprint_.size()));
  payload += fingerprint_;
  payload += spec_to_json(spec_).dump(0);
}

void NetTransport::write_app(util::JsonWriter& writer,
                             const std::string& id) const {
  const IslandSession& session = sessions_[island_of(id)];
  writer.begin_object();
  writer.key("partial");
  writer.string(session.partial);
  writer.key("partial_key");
  writer.string(session.partial_key);
  writer.key("pushed");
  write_rounds(writer, session.pushed);
  writer.end_object();
}

bool NetTransport::apply(const std::string& id, const net::Frame& frame) {
  const std::size_t island = island_of(id);
  IslandSession& session = sessions_[island];
  if (frame.type != net::FrameType::kDistMigrants &&
      frame.type != net::FrameType::kDistFinal)
    throw net::ProtocolError(
        std::string("dist-net: unexpected app frame '") +
        net::frame_type_name(frame.type) + "' from island " +
        std::to_string(island));
  const DistChunk chunk = parse_dist_chunk(frame);
  if (chunk.island != island)
    throw net::ProtocolError(
        "dist-net: island " + std::to_string(island) +
        " sent an artifact labelled island " + std::to_string(chunk.island));
  const std::string key = dist_chunk_key(chunk);
  if (!session.partial_key.empty() && session.partial_key != key)
    throw net::ProtocolError("dist-net: interleaved chunk runs ('" +
                             session.partial_key + "' interrupted by '" + key +
                             "') from island " + std::to_string(island));
  if (!chunk.last) {
    session.partial_key = key;
    session.partial += chunk.bytes;
    return false;
  }
  const std::string text = session.partial + chunk.bytes;
  session.partial.clear();
  session.partial_key.clear();

  if (chunk.type == net::FrameType::kDistMigrants) {
    if (chunk.round + 1 >= round_count(spec_))
      throw net::ProtocolError("dist-net: migrant round " +
                               std::to_string(chunk.round) + " out of range");
    const std::string path = migrants_path(workdir_, island, chunk.round);
    const bool wrote = util::durable::DurableFile::write_idempotent(
        path, kMigrantsFormatTag, text);
    try {
      const MigrantSet set = load_migrants_file(path);
      if (set.island != island || set.round != chunk.round)
        throw net::ProtocolError(
            "dist-net: migrant payload of island " + std::to_string(island) +
            " round " + std::to_string(chunk.round) +
            " carries island " + std::to_string(set.island) + " round " +
            std::to_string(set.round));
    } catch (const util::durable::CheckpointCorruptError& error) {
      std::error_code ec;
      std::filesystem::remove(path, ec);
      throw net::ProtocolError(
          std::string("dist-net: malformed migrant payload: ") + error.what());
    }
    dist_net_metrics().migrant_sets_received.inc();
    if (!wrote) dist_net_metrics().migrant_sets_replayed.inc();
    return false;
  }

  // kDistFinal: the island result. Written verbatim and validated; the
  // session completes (the host acks, then drops the journal).
  const std::string path = final_path(workdir_, island);
  util::durable::DurableFile::write_idempotent(path, kIslandResultFormatTag,
                                               text);
  try {
    (void)load_island_result(path);
  } catch (const util::durable::CheckpointCorruptError& error) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    throw net::ProtocolError(
        std::string("dist-net: malformed island result payload: ") +
        error.what());
  }
  dist_net_metrics().finals_received.inc();
  done_[island] = true;
  return true;
}

void NetTransport::close(const std::string& id) {
  sessions_[island_of(id)] = IslandSession{};
  say_("dist-net: island " + std::to_string(island_of(id)) +
       " result received; session complete");
}

void NetTransport::on_peer_frame(const std::string& id, net::FrameType type) {
  const std::size_t island = island_of(id);
  if (type == net::FrameType::kAck) {
    IslandSession& session = sessions_[island];
    observe_acked(session, session.writer.acked());
  }
  // A worker deep inside a round keeps re-sending its current read_seq, and
  // any ack — novel or duplicate — proves the island alive.
  health_[island].last_activity = Clock::now();
  health_[island].misses = 0;
}

bool NetTransport::feed(const std::string& id) {
  const std::size_t island = island_of(id);
  if (spec_.islands <= 1 || health_[island].quarantined) return false;
  IslandSession& session = sessions_[island];
  if (!session.live) return false;
  const std::size_t sender = inbound_neighbor(spec_, island);
  const bool timed = obs::enabled();
  bool appended = false;
  for (std::size_t round = 0; round + 1 < round_count(spec_); ++round) {
    if (session.pushed.count(round) != 0) continue;
    const std::string path = migrants_path(workdir_, sender, round);
    const std::optional<std::string> payload = read_migrants_payload(path);
    if (!payload) continue;
    append_blob(session.writer, net::FrameType::kDistMigrants, sender, round,
                *payload);
    session.pushed.insert(round);
    dist_net_metrics().migrant_sets_sent.inc();
    if (timed)
      session.inflight.emplace_back(session.writer.write_seq(), Clock::now());
    appended = true;
  }
  // Journal the appended bytes before any pump can flush them: a crash
  // after sending un-journaled bytes would leave the worker's durable
  // read_seq ahead of the restored writer — an unservable session.
  if (appended) host_.save(id);
  return appended;
}

void NetTransport::quarantine(std::size_t island, DistReport& report) {
  health_[island].quarantined = true;
  ++report.workers_quarantined;
  dist_metrics().quarantined.inc();
  dist_net_metrics().quarantines.inc();
  hadas::util::failpoint("dist.salvage");
  host_.disconnect(dist_session_id(island));
  say_("dist-net: WARNING island " + std::to_string(island) +
       " quarantined after " +
       std::to_string(std::max<std::size_t>(
           1, options_.island_failure_threshold)) +
       " missed heartbeat windows (partitioned?); finishing it inline");
}

bool NetTransport::watchdog(DistReport& report) {
  const auto now = Clock::now();
  const auto window = std::chrono::milliseconds(
      std::max<std::size_t>(1, options_.heartbeat_ms));
  const std::size_t threshold =
      std::max<std::size_t>(1, options_.island_failure_threshold);
  bool progress = false;
  for (std::size_t island = 0; island < health_.size(); ++island) {
    IslandHealth& health = health_[island];
    if (done_[island] || health.quarantined) continue;
    if (now - health.last_activity <= window) continue;
    health.last_activity = now;
    ++health.misses;
    ++report.heartbeat_misses;
    dist_metrics().heartbeat_misses.inc();
    say_("dist-net: island " + std::to_string(island) +
         " heartbeat window missed (" + std::to_string(health.misses) + "/" +
         std::to_string(threshold) + ")");
    progress = true;
    if (health.misses >= threshold) quarantine(island, report);
  }
  return progress;
}

bool NetTransport::salvage_step() {
  bool progress = false;
  bool ran_round = false;
  for (std::size_t island = 0; island < health_.size(); ++island) {
    if (!health_[island].quarantined || done_[island]) continue;
    if (cancelled()) return progress;
    const IslandProgress state = inspect_island(spec_, workdir_, island);
    if (state.final_written) {
      done_[island] = true;
      progress = true;
      continue;
    }
    if (state.next_round >= round_count(spec_)) {
      write_island_final(spec_, workdir_, island, /*failpoints_on=*/false);
      done_[island] = true;
      progress = true;
      continue;
    }
    // A remote sender's migrants arrive through its session as durable
    // files; a local (also-quarantined) sender's are regenerable from its
    // chain. Neither ready: keep the event loop moving and retry next step.
    if (!inbound_ready(space_, spec_, workdir_, island, state.next_round,
                       /*failpoints_on=*/false))
      continue;
    if (!run_island_round(spec_, workdir_, island, state.next_round,
                          /*failpoints_on=*/false, options_.cancel))
      return progress;  // cancelled mid-round (state checkpointed)
    if (state.next_round + 1 == round_count(spec_))
      done_[island] = island_final_valid(final_path(workdir_, island));
    ran_round = true;
    progress = true;
  }
  if (ran_round) {
    // An inline round blocked this loop for seconds; the silence was ours,
    // not the workers' — restart every live island's activity window.
    const auto now = Clock::now();
    for (IslandHealth& health : health_) health.last_activity = now;
  }
  return progress;
}

bool NetTransport::step(DistReport& report) {
  if (!started_) start();
  bool progress = host_.step();
  progress |= watchdog(report);
  progress |= salvage_step();
  return progress;
}

SuperviseOutcome NetTransport::supervise(DistReport& report) {
  start();
  SuperviseOutcome outcome;
  say_("dist-net: listening on " + options_.listen->host + ":" +
       std::to_string(options_.listen->port) + " for " +
       std::to_string(spec_.islands) + " island worker(s)");
  std::optional<Clock::time_point> finished_at;
  while (true) {
    if (cancelled()) {
      outcome.interrupted = true;
      return outcome;
    }
    const bool progress = step(report);
    if (finished()) {
      // Drain: closing connections still hold final acks the workers need
      // to exit; keep pumping briefly, then stop accepting new work.
      if (host_.connection_count() == 0) break;
      if (!finished_at.has_value()) finished_at = Clock::now();
      if (Clock::now() - *finished_at > std::chrono::seconds(5)) break;
    }
    if (!progress)
      handler().wait(
          static_cast<int>(std::max<std::size_t>(1, options_.poll_ms)));
  }
  return outcome;
}

}  // namespace hadas::dist
