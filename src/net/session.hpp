#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "net/backed_stream.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace hadas::net {

/// Durable-envelope format tag of net session journals.
inline constexpr const char* kSessionFormatTag = "hadas-net-session-v1";

/// Protocol version carried in HELLO; a mismatch refuses the handshake.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// WELCOME read_seq sentinel: "this session already completed and was
/// garbage-collected". The client only ever learns this after it durably
/// stored the report (BYE is sent strictly after that), so it can finish
/// immediately.
inline constexpr std::uint64_t kSessionCompleted = ~std::uint64_t{0};

/// Everything one endpoint of a resumable session must persist to survive a
/// kill with zero byte loss:
///
///   - the write side's acked offset + retained unacked bytes (hex in the
///     JSON payload — they are arbitrary binary),
///   - the read side's durably-consumed offset,
///   - the server's config fingerprint (a resumed client refuses a server
///     whose serving configuration changed under it),
///   - an endpoint-specific `app` document (the client keeps its request
///     cursor and accumulated report bytes; the server keeps the received
///     request records and whether the report was generated).
///
/// The invariant that makes resume loss-free: an endpoint sends ACK(n) only
/// after a successful save() with read_seq == n, so every acknowledged byte
/// is on disk at one side or the other at all times.
struct SessionState {
  std::string session_id;
  std::string fingerprint;
  std::uint64_t write_acked = 0;
  std::string write_unacked;
  std::uint64_t read_seq = 0;
  util::Json app;
};

/// The journal document as a Json tree. Journals are written by
/// write_session_journal(), which streams the same bytes without building
/// a tree; this form is the plain reference it is tested against.
util::Json session_state_to_json(const SessionState& state);
/// The one journal parser (every endpoint restores through it).
SessionState session_state_from_json(const util::Json& json);

/// Writes a journal's "app" value (one JsonWriter value).
using AppWriter = std::function<void(util::JsonWriter&)>;

/// Replace `payload` with the journal of `state` — the bytes of
/// session_state_to_json(state).dump(2) + "\n" — streamed through
/// util::JsonWriter, with the "app" member written by `write_app` instead
/// of copied from state.app. Reusing one `payload` across saves keeps its
/// capacity.
void write_session_journal(std::string& payload, const SessionState& state,
                           const AppWriter& write_app);

/// A u64 journal field: a decimal string, since a std::uint64_t does not
/// fit a JSON double above 2^53.
void write_u64_string(util::JsonWriter& writer, std::uint64_t value);

/// Durably (temp + fsync + rename) persist `state` at `path`. Counts the
/// journal traffic in the net metrics. `format_tag` names the journal's
/// durable-envelope type — serve sessions use kSessionFormatTag, dist-net
/// sessions their own tag — so `hadas verify-checkpoint` can triage them.
void save_session_state(const std::string& path, const SessionState& state,
                        const char* format_tag = kSessionFormatTag);

/// The same save with the "app" member streamed by `write_app` (state.app
/// is ignored) and the payload built in `scratch` — how hadasd journals a
/// 50k-request session on every ack without building a Json tree. Traced
/// as "net.journal_save" and timed into net.journal_save_seconds.
void save_session_state(const std::string& path, const SessionState& state,
                        const AppWriter& write_app, std::string& scratch,
                        const char* format_tag = kSessionFormatTag);

/// Load a previously saved state; nullopt when `path` does not exist.
/// Throws util::durable::CheckpointCorruptError on a corrupt journal — a
/// bad envelope, or a valid one around a document that does not parse as a
/// session (stage kParse).
std::optional<SessionState> load_session_state(
    const std::string& path, const char* format_tag = kSessionFormatTag);
/// Its bytes-level half: decode a payload read out of `file`.
SessionState session_state_from_payload(const std::string& payload,
                                        const std::string& file);

/// True for session ids safe to embed in a file name ([A-Za-z0-9._-]{1,64},
/// not starting with a dot).
bool valid_session_id(const std::string& id);

/// Net-layer instruments, resolved once against the global MetricsRegistry
/// (so `hadas metrics-dump` and the Prometheus exposition pick them up with
/// no extra wiring). Counters are always live; strictly observe-only.
struct NetMetrics {
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  obs::Counter& connections_accepted =
      r.counter("net.connections_accepted_total");
  obs::Counter& connections_dropped =
      r.counter("net.connections_dropped_total");
  obs::Counter& sessions_created = r.counter("net.sessions_created_total");
  obs::Counter& sessions_resumed = r.counter("net.sessions_resumed_total");
  obs::Counter& sessions_completed = r.counter("net.sessions_completed_total");
  obs::Counter& handshakes_refused = r.counter("net.handshakes_refused_total");
  obs::Counter& client_reconnects = r.counter("net.client_reconnects_total");
  obs::Counter& journal_saves = r.counter("net.journal_saves_total");
  obs::Counter& bytes_journaled = r.counter("net.bytes_journaled_total");
  obs::Counter& bytes_replayed = r.counter("net.bytes_replayed_total");
  obs::Counter& frames_sent = r.counter("net.frames_sent_total");
  obs::Counter& frames_received = r.counter("net.frames_received_total");
  obs::Counter& requests_streamed = r.counter("net.requests_streamed_total");
  obs::Counter& reports_sent = r.counter("net.reports_sent_total");
  /// Bytes a sender had to replay after one reconnect handshake.
  obs::Histogram& replay_bytes =
      r.histogram("net.replay_bytes", {0, 64, 256, 1024, 4096, 16384, 65536,
                                       262144, 1048576});
  /// Wall time of one journal save (serialise + durable write); observed
  /// only while obs::enabled().
  obs::Histogram& journal_save_seconds =
      r.histogram("net.journal_save_seconds", obs::default_time_bounds());
};

NetMetrics& net_metrics();

}  // namespace hadas::net
