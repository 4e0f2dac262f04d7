#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/connection.hpp"
#include "net/session.hpp"
#include "net/socket.hpp"
#include "runtime/serve/bridge.hpp"

namespace hadas::net {

/// hadasd daemon configuration.
struct DaemonConfig {
  util::HostPort listen;
  /// Directory for session journals (session-<id>.json). Must exist.
  std::string state_dir;
  /// Exit run() once this many sessions completed (0 = serve forever).
  std::size_t once = 0;
};

/// A serve session's journal "app" value, {"finished": f, "requests":
/// [[id, arrival bits, sample pos], ...]} with every u64 a decimal string,
/// streamed straight into the journal: the daemon rewrites it on every ack,
/// so a 50k-request session never becomes a Json tree.
void write_serve_app(util::JsonWriter& writer,
                     const std::vector<runtime::serve::RemoteRequest>& requests,
                     bool finished);

/// The hadasd serving daemon: accepts any number of concurrent client
/// connections on one SocketHandler, speaks the resumable session protocol
/// (HELLO/WELCOME handshake, offset-tagged DATA, durable-ack), and bridges
/// completed request traces into a ServeService.
///
/// Zero request loss: every application-level mutation (requests received,
/// report queued, session finished) is journaled via util/durable *before*
/// the covering ACK leaves the process, so a kill -9 at any instruction
/// loses at most unacknowledged bytes — which the client still retains and
/// replays on reconnect. Chaos tests byte-compare the resulting ServeReport
/// against an uninterrupted run.
///
/// Single-threaded and non-blocking: step() performs one multiplexing round
/// over all connections and returns whether anything moved; run() loops
/// step() with handler.wait() in between. Tests drive step() directly for
/// deterministic interleaving.
class ServeDaemon {
 public:
  ServeDaemon(SocketHandler& handler,
              const runtime::serve::ServeService& service,
              DaemonConfig config);
  ~ServeDaemon();

  /// Open the listening socket. Called by run() if not already started.
  void start();

  /// One non-blocking round: accept pending connections, pump every live
  /// connection, process frames, journal + ack. Returns true when any
  /// byte or frame moved (so callers know whether to wait).
  bool step();

  /// step() until request_stop(), or until `once` sessions completed.
  void run();

  /// Ask run() to return (safe from another thread or a signal handler).
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  std::size_t sessions_completed() const { return completed_; }
  std::size_t active_connections() const { return connections_.size(); }
  std::size_t active_sessions() const { return sessions_.size(); }

 private:
  /// Server half of one resumable session.
  struct Session {
    BackedWriter writer;
    BackedReader reader;
    std::vector<runtime::serve::RemoteRequest> requests;
    bool finished = false;  ///< kFinish consumed; report queued in writer
  };

  struct Conn {
    Transport transport;
    std::string session_id;  ///< empty until HELLO binds a session
    bool handshaken = false;
    bool closing = false;  ///< drain the outbox, then drop
  };

  std::string session_path(const std::string& id) const;
  void save_session(const std::string& id, const Session& session);
  /// In-memory session, falling back to the journal on disk; nullptr when
  /// the id is unknown everywhere (fresh or already completed).
  Session* find_session(const std::string& id);
  bool handle_hello(Conn& conn, const Frame& frame);
  /// Queue a kRefuse with `reason` and mark the connection closing (the
  /// refusal drains, then the socket drops). Returns true: a refusal is a
  /// handled handshake, not a protocol violation by us.
  bool refuse(Conn& conn, const std::string& reason);
  /// Apply complete app frames from the session's inbox; journals and acks
  /// when anything was consumed. Returns true on progress.
  bool advance_session(Conn& conn);
  void apply_app_frame(const std::string& id, Session& session,
                       const Frame& frame, bool& completed);

  SocketHandler& handler_;
  const runtime::serve::ServeService& service_;
  DaemonConfig config_;
  int listener_ = -1;
  bool started_ = false;
  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<Conn>> connections_;
  std::map<std::string, Session> sessions_;
  std::size_t completed_ = 0;
  std::string journal_scratch_;  ///< save_session's reused payload buffer
};

}  // namespace hadas::net
