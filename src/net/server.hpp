#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/endpoint.hpp"
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
/// deterministic interleaving. The session protocol itself is the
/// SessionHost's; this class is the serve app over it.
class ServeDaemon : private SessionHost::App {
 public:
  ServeDaemon(SocketHandler& handler,
              const runtime::serve::ServeService& service,
              DaemonConfig config);

  /// Open the listening socket. Called by run() if not already started.
  void start() { host_.start(); }

  /// One non-blocking round: accept pending connections, pump every live
  /// connection, process frames, journal + ack. Returns true when any
  /// byte or frame moved (so callers know whether to wait).
  bool step() { return host_.step(); }

  /// step() until request_stop(), or until `once` sessions completed.
  void run();

  /// Ask run() to return (safe from another thread or a signal handler).
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  std::size_t sessions_completed() const { return completed_; }
  std::size_t active_connections() const { return host_.connection_count(); }
  std::size_t active_sessions() const { return sessions_.size(); }

 private:
  /// Server half of one resumable session.
  struct Session : SessionStream {
    std::vector<runtime::serve::RemoteRequest> requests;
    bool finished = false;  ///< kFinish consumed; report queued in writer
  };

  // SessionHost::App.
  std::optional<std::string> refusal(const std::string& id) override;
  SessionStream* session(const std::string& id) override;
  SessionStream& open(const std::string& id,
                      const util::Json* journal) override;
  /// The client durably consumed report bytes of a session with no state
  /// here: it existed and was garbage-collected at BYE, so it is complete.
  Unknown unknown(const std::string& id, std::uint64_t peer_read_seq,
                  std::string& reason) override;
  void welcome_tail(std::string& payload) const override;
  void write_app(util::JsonWriter& writer,
                 const std::string& id) const override;
  bool apply(const std::string& id, const Frame& frame) override;
  void close(const std::string& id) override;

  SocketHandler& handler_;
  const runtime::serve::ServeService& service_;
  DaemonConfig config_;
  std::atomic<bool> stop_{false};
  std::map<std::string, Session> sessions_;
  std::size_t completed_ = 0;
  SessionHost host_;
};

}  // namespace hadas::net
