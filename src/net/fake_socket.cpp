#include "net/fake_socket.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "util/rng.hpp"

namespace hadas::net {

namespace {

std::string addr_key(const util::HostPort& addr) {
  return addr.host + ":" + std::to_string(addr.port);
}

}  // namespace

/// One end of an in-memory pipe. Reads drain the peer's writes; a closed
/// peer still delivers already-buffered bytes first (TCP FIN semantics),
/// then throws SocketClosedError.
class FakePipeSocket : public Socket {
 public:
  FakePipeSocket(FakeNetwork& network, std::shared_ptr<FakeNetwork::Pipe> pipe,
                 int side)
      : network_(network), pipe_(std::move(pipe)), side_(side) {}
  ~FakePipeSocket() override { close(); }

  std::size_t read(char* buf, std::size_t n) override {
    std::lock_guard<std::mutex> lock(network_.mutex_);
    if (!pipe_->open[side_])
      throw SocketClosedError("FakePipeSocket: read on closed socket");
    std::string& inbox = pipe_->to_side[side_];
    if (inbox.empty()) {
      if (!pipe_->open[1 - side_])
        throw SocketClosedError("FakePipeSocket: peer closed the connection");
      return 0;
    }
    const std::size_t got = std::min(n, inbox.size());
    std::memcpy(buf, inbox.data(), got);
    inbox.erase(0, got);
    network_.bump_version();
    return got;
  }

  std::size_t write(const char* buf, std::size_t n) override {
    std::lock_guard<std::mutex> lock(network_.mutex_);
    if (!pipe_->open[side_])
      throw SocketClosedError("FakePipeSocket: write on closed socket");
    if (!pipe_->open[1 - side_]) {
      pipe_->open[side_] = false;
      network_.bump_version();
      throw SocketClosedError("FakePipeSocket: peer closed the connection");
    }
    std::string& outbox = pipe_->to_side[1 - side_];
    const std::size_t room = FakeNetwork::kPipeCapacity > outbox.size()
                                 ? FakeNetwork::kPipeCapacity - outbox.size()
                                 : 0;
    const std::size_t put = std::min(n, room);
    if (put == 0) return 0;  // backpressure: would block
    outbox.append(buf, put);
    network_.bump_version();
    return put;
  }

  void close() override {
    std::lock_guard<std::mutex> lock(network_.mutex_);
    if (pipe_->open[side_]) {
      pipe_->open[side_] = false;
      network_.bump_version();
    }
  }

  bool open() const override {
    std::lock_guard<std::mutex> lock(network_.mutex_);
    return pipe_->open[side_];
  }

 private:
  FakeNetwork& network_;
  std::shared_ptr<FakeNetwork::Pipe> pipe_;
  int side_;
};

std::size_t FakeNetwork::connections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return connections_;
}

int FakeNetwork::listen(const util::HostPort& addr) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string key = addr_key(addr);
  if (listeners_.count(key) != 0)
    throw ConnectError("FakeNetwork: address already in use: " + key);
  const int id = next_listener_++;
  listeners_[key] = id;
  pending_[id];
  bump_version();
  return id;
}

std::unique_ptr<Socket> FakeNetwork::accept(int listener) {
  std::shared_ptr<Pipe> pipe;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_.find(listener);
    if (it == pending_.end() || it->second.empty()) return nullptr;
    pipe = it->second.front();
    it->second.pop_front();
    bump_version();
  }
  return std::make_unique<FakePipeSocket>(*this, std::move(pipe), 1);
}

void FakeNetwork::close_listener(int listener) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
    if (it->second == listener) {
      listeners_.erase(it);
      break;
    }
  }
  // Connections never accepted die with the listener.
  auto it = pending_.find(listener);
  if (it != pending_.end()) {
    for (const std::shared_ptr<Pipe>& pipe : it->second) pipe->open[1] = false;
    pending_.erase(it);
  }
  bump_version();
}

bool FakeNetwork::listening(const util::HostPort& addr) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return listeners_.count(addr_key(addr)) != 0;
}

std::unique_ptr<Socket> FakeNetwork::connect(const util::HostPort& addr) {
  std::shared_ptr<Pipe> pipe;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = listeners_.find(addr_key(addr));
    if (it == listeners_.end())
      throw ConnectError("FakeNetwork: connection refused: " + addr_key(addr));
    pipe = std::make_shared<Pipe>();
    pending_[it->second].push_back(pipe);
    ++connections_;
    bump_version();
  }
  return std::make_unique<FakePipeSocket>(*this, std::move(pipe), 0);
}

void FakeNetwork::wait(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t seen = version_;
  cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
               [&] { return version_ != seen; });
}

void FakeNetwork::bump_version() {
  ++version_;
  cv_.notify_all();
}

namespace {

/// Counts bytes through an inner socket and severs it (hard close, both
/// directions) once the budget is spent. The wrapped run sees the same
/// SocketClosedError a yanked cable would produce.
class FlakySocket : public Socket {
 public:
  FlakySocket(std::unique_ptr<Socket> inner, std::uint64_t budget,
              std::size_t& severed)
      : inner_(std::move(inner)), budget_(budget), severed_(severed) {}

  std::size_t read(char* buf, std::size_t n) override {
    sever_if_spent("read");
    // Clamp to the remaining budget so the cut lands exactly on schedule —
    // typically mid-frame — instead of letting one large op overshoot it.
    const std::size_t got = inner_->read(buf, clamp(n));
    moved_ += got;
    return got;
  }

  std::size_t write(const char* buf, std::size_t n) override {
    sever_if_spent("write");
    const std::size_t put = inner_->write(buf, clamp(n));
    moved_ += put;
    return put;
  }

  void close() override { inner_->close(); }
  bool open() const override { return inner_->open(); }

 private:
  std::size_t clamp(std::size_t n) const {
    return std::min<std::uint64_t>(n, budget_ - moved_);
  }

  void sever_if_spent(const char* op) {
    if (moved_ < budget_) return;
    if (inner_->open()) {
      ++severed_;
      inner_->close();
    }
    throw SocketClosedError(std::string("FlakySocket: severed before ") + op +
                            " after " + std::to_string(moved_) + " bytes");
  }

  std::unique_ptr<Socket> inner_;
  std::uint64_t budget_;
  std::size_t& severed_;
  std::uint64_t moved_ = 0;
};

}  // namespace

std::unique_ptr<Socket> FlakySocketHandler::wrap(
    std::unique_ptr<Socket> socket) {
  const std::size_t index = opened_++;
  if (index >= config_.severs) return socket;  // stable from here on
  const std::uint64_t lo = config_.min_bytes;
  const std::uint64_t hi =
      std::max<std::uint64_t>(config_.max_bytes, config_.min_bytes);
  const std::uint64_t budget = lo + util::Rng(config_.seed).fork(index)() %
                                        (hi - lo + 1);
  return std::make_unique<FlakySocket>(std::move(socket), budget, severed_);
}

std::unique_ptr<Socket> FlakySocketHandler::accept(int listener) {
  std::unique_ptr<Socket> socket = inner_.accept(listener);
  if (!socket) return nullptr;
  return wrap(std::move(socket));
}

std::unique_ptr<Socket> FlakySocketHandler::connect(
    const util::HostPort& addr) {
  return wrap(inner_.connect(addr));
}

}  // namespace hadas::net
