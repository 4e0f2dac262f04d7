#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/transport.hpp"
#include "net/backed_stream.hpp"
#include "net/endpoint.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "supernet/search_space.hpp"

namespace hadas::dist {

/// --- Dist-net wire protocol: how the island artifacts of src/dist ride
/// the resumable stream of src/net.
///
/// Each island is one session ("island-<i>") between a `hadas worker
/// --connect` process and the coordinator's NetTransport. The handshake is
/// the serve protocol's HELLO/WELCOME (same kRefuse semantics), except the
/// WELCOME also carries the DistSpec, so a net worker needs nothing but the
/// endpoint, its island index and a local state directory. Durable
/// artifacts flow as app-layer frames *inside* the BackedReader/BackedWriter
/// logical stream — migrant files upstream and downstream, the island
/// result upstream — chunked under the frame payload cap and carrying the
/// exact durable-file payload text, which the receiver writes verbatim
/// (same format tag), so every file is byte-identical to what a shared-
/// workdir run would hold. Both ends obey the save-before-ack invariant: a
/// chunk is acked only after the receiving side journaled its consumption
/// (and, for a completed blob, durably wrote the artifact), so a killed
/// worker, a severed link or a restarted coordinator never loses or
/// duplicates a migrant.

/// Durable-envelope format tag of dist-net session journals (worker and
/// coordinator side share the layout; `hadas verify-checkpoint` triages it).
inline constexpr const char* kDistSessionFormatTag = "hadas-dist-session-v1";

/// Logical-stream bytes per kDistMigrants/kDistFinal chunk frame: artifacts
/// larger than one frame payload are cut into a contiguous chunk run.
inline constexpr std::size_t kDistChunkBytes = 64 * 1024;

/// "island-<i>" — the session id island `i` dials in with.
std::string dist_session_id(std::size_t island);
/// Parse a dist session id; nullopt when it is not "island-<digits>".
std::optional<std::size_t> parse_dist_session_id(const std::string& id);
/// The coordinator-side session journal of island `island`.
std::string dist_session_path(const std::string& workdir, std::size_t island);

/// Fingerprint of the spec both ends must agree on ("spec-" + CRC-64 of the
/// canonical spec JSON). Carried in every WELCOME and every session
/// journal; a mismatch is refused — resuming half a search under a
/// different topology would silently corrupt the merged front.
std::string spec_fingerprint(const DistSpec& spec);

/// One chunk of an artifact blob on the wire:
///   u64 island | u64 round | u32 flags (bit0 = last chunk) | bytes.
/// kDistMigrants blobs are migrant-file payloads (round = migration round);
/// kDistFinal blobs are island-result payloads (round = 0).
struct DistChunk {
  net::FrameType type = net::FrameType::kDistMigrants;
  std::size_t island = 0;
  std::size_t round = 0;
  bool last = false;
  std::string bytes;
};

/// Cut `text` into chunk frames and append them to the logical stream.
void append_blob(net::BackedWriter& writer, net::FrameType type,
                 std::size_t island, std::size_t round,
                 const std::string& text);

/// Decode a kDistMigrants/kDistFinal frame. Throws net::ProtocolError on a
/// malformed payload.
DistChunk parse_dist_chunk(const net::Frame& frame);

/// "m:<island>:<round>" / "f:<island>" — the identity a partially received
/// blob is journaled under, so an interleaved or repeated chunk run is
/// detected as a protocol violation instead of corrupting an artifact.
std::string dist_chunk_key(const DistChunk& chunk);

/// A journaled set of migration rounds: an array of decimal strings.
void write_rounds(util::JsonWriter& writer, const std::set<std::size_t>& rounds);
std::set<std::size_t> rounds_from_json(const util::Json& json);

/// dist.net.* instruments (global registry; exported via --metrics-out /
/// metrics-dump like the dist.* and net.* families). Strictly observe-only.
struct DistNetMetrics {
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  obs::Counter& migrant_sets_sent =
      r.counter("dist.net.migrant_sets_sent_total");
  obs::Counter& migrant_sets_received =
      r.counter("dist.net.migrant_sets_received_total");
  obs::Counter& migrant_sets_replayed =
      r.counter("dist.net.migrant_sets_replayed_total");
  obs::Counter& finals_received =
      r.counter("dist.net.island_finals_received_total");
  obs::Counter& reconnects = r.counter("dist.net.reconnects_total");
  obs::Counter& refusals = r.counter("dist.net.refusals_total");
  obs::Counter& quarantines =
      r.counter("dist.net.partition_quarantines_total");
  obs::Counter& sessions_resumed =
      r.counter("dist.net.sessions_resumed_total");
  /// Seconds from queueing a migrant set toward a worker to its durable ack.
  obs::Histogram& migration_latency =
      r.histogram("dist.net.migration_latency_seconds",
                  obs::default_time_bounds());
};

DistNetMetrics& dist_net_metrics();

/// The multi-host transport: the coordinator listens on options.listen and
/// supervises one resumable session per island. Workers upload their
/// migrant files and island result; the coordinator persists every artifact
/// verbatim into its workdir (the single ground truth the merge reads) and
/// pushes each island's inbound migrants — whoever produced them — down its
/// session. Heartbeats piggyback on transport acks: any frame from an
/// island resets its activity clock, and a worker in a long round keeps
/// sending duplicate acks from its generation callback. An island silent
/// for more than heartbeat_ms accumulates misses; at island_failure_
/// threshold misses it is quarantined (further handshakes refused) and
/// salvaged *incrementally inside this event loop* — one inline round per
/// step — because its ring successor may be a healthy remote worker blocked
/// on exactly those migrants. A killed coordinator restarts, reloads every
/// session journal on the next HELLO and converges byte-identically.
class NetTransport : public DistTransport, private net::SessionHost::App {
 public:
  NetTransport(DistSpec spec, std::string workdir, const DistOptions& options,
               std::function<void(const std::string&)> say);

  const char* name() const override { return "net"; }

  SuperviseOutcome supervise(DistReport& report) override;

  /// --- Cooperative surface (supervise() is a loop over step(); tests
  /// drive it directly against steppable NetWorker endpoints).
  void start();
  bool step(DistReport& report);
  /// Every island's final result file in the workdir is valid.
  bool finished() const;
  std::size_t quarantined_count() const;
  std::size_t connection_count() const { return host_.connection_count(); }

 private:
  using Clock = std::chrono::steady_clock;

  /// The coordinator half of one island's session.
  struct IslandSession : net::SessionStream {
    std::set<std::size_t> pushed;  ///< inbound rounds queued down the stream
    std::string partial;           ///< chunk-run accumulator
    std::string partial_key;
    bool live = false;  ///< in-memory state materialized (fresh or restored)
    /// (stream offset after a queued migrant set, queue time) — matched
    /// against worker acks for the migration-latency histogram.
    std::vector<std::pair<std::uint64_t, Clock::time_point>> inflight;
  };

  /// What the watchdog knows about an island, session or not.
  struct IslandHealth {
    bool quarantined = false;
    std::size_t misses = 0;
    Clock::time_point last_activity{};
  };

  // net::SessionHost::App: sessions are "island-<i>", WELCOME tail =
  // u32 fingerprint length | fingerprint | spec JSON.
  std::optional<std::string> refusal(const std::string& id) override;
  net::SessionStream* session(const std::string& id) override;
  net::SessionStream& open(const std::string& id,
                           const util::Json* journal) override;
  Unknown unknown(const std::string& id, std::uint64_t peer_read_seq,
                  std::string& reason) override;
  void welcome_tail(std::string& payload) const override;
  void write_app(util::JsonWriter& writer,
                 const std::string& id) const override;
  bool apply(const std::string& id, const net::Frame& frame) override;
  void close(const std::string& id) override;
  /// Heartbeats piggyback on transport frames: any frame proves the island
  /// alive; acks also close migration-latency samples.
  void on_peer_frame(const std::string& id, net::FrameType type) override;
  /// Push the island's inbound migrants.
  bool feed(const std::string& id) override;

  net::SocketHandler& handler();
  bool cancelled() const;
  void quarantine(std::size_t island, DistReport& report);
  bool watchdog(DistReport& report);
  bool salvage_step();
  void observe_acked(IslandSession& session, std::uint64_t acked);

  DistSpec spec_;
  std::string workdir_;
  const DistOptions& options_;
  std::function<void(const std::string&)> say_;
  std::string fingerprint_;
  supernet::SearchSpace space_;
  std::unique_ptr<net::SocketHandler> owned_handler_;
  std::vector<IslandSession> sessions_;
  std::vector<IslandHealth> health_;
  std::vector<bool> done_;
  net::SessionHost host_;
  bool started_ = false;
};

}  // namespace hadas::dist
