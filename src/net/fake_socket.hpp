#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

#include "net/socket.hpp"

namespace hadas::net {

/// Deterministic in-process loopback transport: listeners are names in a
/// shared registry, connections are in-memory byte-pipe pairs with a
/// bounded buffer per direction (so partial writes and backpressure behave
/// like real sockets). Thread-safe (mutex + condvar) so a daemon and a
/// client can also run on separate threads under TSan, but the intended CI
/// mode is single-threaded cooperative stepping, where every byte movement
/// is exactly reproducible.
class FakeNetwork {
 public:
  /// Per-direction pipe buffer; writes beyond it return 0 (would block).
  static constexpr std::size_t kPipeCapacity = 64 * 1024;

  FakeNetwork() = default;

  /// Total connections ever established (accept side may still be pending).
  std::size_t connections() const;

  /// Whether a listener is bound at `addr` (lets a test hold its dialers
  /// until the server side is up).
  bool listening(const util::HostPort& addr) const;

  // SocketHandler-shaped surface; FakeSocketHandler delegates here.
  int listen(const util::HostPort& addr);
  std::unique_ptr<Socket> accept(int listener);
  void close_listener(int listener);
  std::unique_ptr<Socket> connect(const util::HostPort& addr);
  void wait(int timeout_ms);

 private:
  friend class FakePipeSocket;

  /// Shared state of one established connection. Side 0 is the connecting
  /// (client) end, side 1 the accepted (server) end.
  struct Pipe {
    std::string to_side[2];  ///< bytes waiting to be read by side i
    bool open[2] = {true, true};
  };

  void bump_version();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t version_ = 0;
  int next_listener_ = 1;
  std::map<std::string, int> listeners_;                    // addr key -> id
  std::map<int, std::deque<std::shared_ptr<Pipe>>> pending_;  // id -> backlog
  std::size_t connections_ = 0;
};

/// SocketHandler over a shared FakeNetwork.
class FakeSocketHandler : public SocketHandler {
 public:
  explicit FakeSocketHandler(std::shared_ptr<FakeNetwork> network)
      : network_(std::move(network)) {}

  FakeNetwork& network() { return *network_; }

  int listen(const util::HostPort& addr) override {
    return network_->listen(addr);
  }
  std::unique_ptr<Socket> accept(int listener) override {
    return network_->accept(listener);
  }
  void close_listener(int listener) override {
    network_->close_listener(listener);
  }
  std::unique_ptr<Socket> connect(const util::HostPort& addr) override {
    return network_->connect(addr);
  }
  void wait(int timeout_ms) override { network_->wait(timeout_ms); }

 private:
  std::shared_ptr<FakeNetwork> network_;
};

/// Seeded sever schedule for FlakySocketHandler: the n-th connection opened
/// through the wrapper (n = 0..severs-1) carries a byte budget drawn from
/// Rng(seed).fork(n) in [min_bytes, max_bytes]; once that many bytes have
/// moved through the socket (reads + writes combined) the connection is
/// severed — mid-frame, mid-handshake, wherever the budget lands.
/// Connections after the first `severs` are stable, so a run always
/// completes. Equal configs produce the exact same kill schedule.
struct FlakyConfig {
  std::uint64_t seed = 0x5EFEED;
  std::size_t severs = 0;  ///< 0 = never sever (pass-through)
  std::size_t min_bytes = 256;
  std::size_t max_bytes = 4096;
};

/// Wraps any SocketHandler (fake or real TCP) and severs its connections on
/// the FlakyConfig schedule — the chaos half of the loopback sandbox, in
/// the style of EternalTerminal's TestFlakyConnection.
class FlakySocketHandler : public SocketHandler {
 public:
  FlakySocketHandler(SocketHandler& inner, FlakyConfig config)
      : inner_(inner), config_(config) {}

  /// Connections severed so far.
  std::size_t severed() const { return severed_; }

  int listen(const util::HostPort& addr) override {
    return inner_.listen(addr);
  }
  std::unique_ptr<Socket> accept(int listener) override;
  void close_listener(int listener) override {
    inner_.close_listener(listener);
  }
  std::unique_ptr<Socket> connect(const util::HostPort& addr) override;
  void wait(int timeout_ms) override { inner_.wait(timeout_ms); }

 private:
  std::unique_ptr<Socket> wrap(std::unique_ptr<Socket> socket);

  SocketHandler& inner_;
  FlakyConfig config_;
  std::size_t opened_ = 0;
  std::size_t severed_ = 0;
};

}  // namespace hadas::net
