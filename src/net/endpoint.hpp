#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/backed_stream.hpp"
#include "net/connection.hpp"
#include "net/frame.hpp"
#include "net/session.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace hadas::net {

/// The two ends of the resumable session protocol (DESIGN §12): a
/// SessionDialer that connects out and a SessionHost that accepts. Both own
/// the whole transport side — HELLO/WELCOME, DATA/ACK dispatch, the replay
/// window, save-before-ack, completion — and call an App for what differs
/// between serving (ServeClient/ServeDaemon) and multi-host search
/// (NetWorker/NetTransport): the WELCOME tail, the app frames, the journal's
/// "app" value and when a session is finished.

/// Dialing side configuration (filled in by the app layer, not a user
/// option surface).
struct DialerConfig {
  util::HostPort connect;
  std::string session_id;
  std::string state_path;  ///< the session journal
  const char* format_tag = kSessionFormatTag;
  std::string name;  ///< error-message prefix ("ServeClient")
  std::string peer;  ///< the host's role in messages ("server")
  std::size_t max_connect_attempts = 200;
  std::size_t max_handshake_failures = 50;
  /// The app's own reconnect counter, counted next to
  /// net.client_reconnects_total (nullptr = none).
  obs::Counter* reconnects = nullptr;
};

/// The dialing end of one session: connects and reconnects, replays from
/// the host's durable read_seq, applies app frames, journals before every
/// ack and finishes once the host acked the app's last frame.
class SessionDialer {
 public:
  class App {
   public:
    virtual ~App() = default;
    /// The host fingerprint inside a WELCOME tail (the bytes after its u64
    /// read_seq). Throws ProtocolError on a malformed tail.
    virtual std::string welcome_fingerprint(std::string_view tail) const = 0;
    /// Adopt the rest of a WELCOME tail whose fingerprint was accepted.
    virtual void on_welcome(std::string_view tail) = 0;
    /// Apply one app frame from the host; the dialer journals and acks
    /// after the batch.
    virtual void apply(const Frame& frame) = 0;
    /// The journal's "app" value.
    virtual void write_app(util::JsonWriter& writer) const = 0;
    /// The app queued its last frame: the session completes once the host
    /// acked everything.
    virtual bool finished() const = 0;
    /// Local work done on every step, connected or not. True on progress.
    virtual bool work() { return false; }
  };

  SessionDialer(SocketHandler& handler, DialerConfig config, App& app);

  /// Restore the stream state from the journal and return its "app"
  /// value; nullopt when there is no journal yet.
  std::optional<util::Json> restore();
  /// Journal the stream state plus the app value.
  void save();

  /// One non-blocking round: dial if needed, pump, handle frames, run the
  /// app's work, finish. Returns true when anything moved. Throws
  /// ProtocolError on a kRefuse or after max_handshake_failures consecutive
  /// connections died before their handshake.
  bool step();

  /// Throws ConnectError after max_connect_attempts consecutive failed
  /// dials (for the app's run loop).
  void throw_if_unreachable() const;

  /// While connected: a duplicate ack (a no-op for the stream that proves
  /// this end alive), pumped out at once.
  void beat();

  /// Handshaken on a live connection.
  bool online() const { return handshaken_ && transport_.attached(); }
  BackedWriter& writer() { return writer_; }
  const std::string& fingerprint() const { return fingerprint_; }
  bool done() const { return done_; }
  std::size_t reconnects() const { return reconnects_; }
  std::size_t connect_failures() const { return connect_failures_; }
  std::size_t handshake_failures() const { return handshake_failures_; }

 private:
  bool try_connect();
  void handle(const Frame& frame);
  void welcome(const Frame& frame);
  bool advance();
  void complete();

  SocketHandler& handler_;
  DialerConfig config_;
  App& app_;
  Transport transport_;
  BackedWriter writer_;
  BackedReader reader_;
  std::string fingerprint_;
  bool handshaken_ = false;
  bool connected_once_ = false;
  bool done_ = false;
  std::size_t reconnects_ = 0;
  std::size_t connect_failures_ = 0;
  std::size_t handshake_failures_ = 0;
};

/// The stream half of one hosted session; app sessions derive from it.
struct SessionStream {
  BackedWriter writer;
  BackedReader reader;
};

/// Hosting side configuration (filled in by the app layer).
struct HostConfig {
  util::HostPort listen;
  /// Session journals live at <state_dir>/session-<id>.json.
  std::string state_dir;
  const char* format_tag = kSessionFormatTag;
  /// Journaled with every session; a journal under another one is refused.
  std::string fingerprint;
  std::string name;  ///< error-message prefix ("ServeDaemon")
  std::string peer;  ///< the dialer's role in refusals ("client")
  /// The app's own refusal counter, counted next to
  /// net.handshakes_refused_total (nullptr = none).
  obs::Counter* refusals = nullptr;
  /// Where connection-fatal protocol errors are reported (empty = silent).
  std::function<void(const std::string&)> log;
};

/// The accepting end: a listener and its connection slots, multiplexing any
/// number of sessions. Single-threaded and non-blocking; step() is one
/// round over every connection. Every protocol error is fatal to its
/// connection only.
class SessionHost {
 public:
  class App {
   public:
    /// How to answer a HELLO for a session with no state here.
    enum class Unknown { kCreate, kCompleted, kRefuse };

    virtual ~App() = default;
    /// Why a HELLO for `id` is refused before any session lookup, or
    /// nullopt.
    virtual std::optional<std::string> refusal(const std::string& id) = 0;
    /// The live session of `id`, or nullptr.
    virtual SessionStream* session(const std::string& id) = 0;
    /// Make `id`'s session live: fresh when `journal` is null, else from
    /// its journal's "app" value (the host restores the stream offsets).
    virtual SessionStream& open(const std::string& id,
                                const util::Json* journal) = 0;
    /// No session and no journal for `id`, whose peer durably consumed
    /// `peer_read_seq` bytes. kRefuse fills `reason`.
    virtual Unknown unknown(const std::string& id, std::uint64_t peer_read_seq,
                            std::string& reason) = 0;
    /// Append the WELCOME tail (after its u64 read_seq).
    virtual void welcome_tail(std::string& payload) const = 0;
    /// The journal "app" value of `id`'s session.
    virtual void write_app(util::JsonWriter& writer,
                           const std::string& id) const = 0;
    /// Apply one app frame of `id`'s session. True when it completes the
    /// session.
    virtual bool apply(const std::string& id, const Frame& frame) = 0;
    /// `id` completed: its last frame is acked and its journal removed.
    virtual void close(const std::string& id) = 0;
    /// The peer of `id` sent a transport frame (an answered HELLO, DATA or
    /// ACK).
    virtual void on_peer_frame(const std::string& /*id*/, FrameType /*type*/) {}
    /// Queue app bytes toward `id`'s peer after its frames were handled.
    /// True when anything was queued.
    virtual bool feed(const std::string& /*id*/) { return false; }
  };

  SessionHost(SocketHandler& handler, HostConfig config, App& app);
  ~SessionHost();

  /// Open the listener (idempotent; step() calls it).
  void start();
  /// Accept, pump every connection, handle frames, journal and ack.
  /// Returns true when any byte or frame moved.
  bool step();
  /// Journal `id`'s live session (before queued bytes can be pumped out).
  void save(const std::string& id);
  /// Drop every connection bound to session `id`.
  void disconnect(const std::string& id);
  std::size_t connection_count() const { return connections_.size(); }

 private:
  struct Conn {
    Transport transport;
    std::string session_id;  ///< empty until HELLO binds a session
    bool handshaken = false;
    bool closing = false;  ///< drain the outbox, then drop
  };

  std::string journal_path(const std::string& id) const;
  SessionStream* live(const Conn& conn);
  const BackedWriter& writer_of(const Conn& conn);
  /// The live session, falling back to its journal; nullptr when neither
  /// exists.
  SessionStream* find(const std::string& id);
  bool hello(Conn& conn, const Frame& frame);
  void welcome(Conn& conn, const std::string& id, std::uint64_t read_seq);
  /// Queue a kRefuse and mark the connection closing. Returns true: a
  /// refusal is a handled handshake.
  bool refuse(Conn& conn, const std::string& reason);
  bool advance(Conn& conn, SessionStream& session);

  SocketHandler& handler_;
  HostConfig config_;
  App& app_;
  int listener_ = -1;
  bool started_ = false;
  std::vector<std::unique_ptr<Conn>> connections_;
  std::string journal_scratch_;
};

}  // namespace hadas::net
