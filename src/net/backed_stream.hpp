#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hadas::net {

/// The peer violated the session protocol (ack beyond the write sequence, a
/// gap in the data stream, a replay window that no longer covers the peer's
/// read position). Unlike a dropped socket this is not survivable by
/// reconnecting — it means one side's durable state is wrong.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Outgoing half of a resumable byte stream, in the style of
/// EternalTerminal's BackedWriter: every appended byte gets a stream offset
/// and stays buffered until the peer durably acknowledges it, so after a
/// disconnect (or a process kill, once the buffer is journaled) the unacked
/// suffix can be replayed from any offset the peer still needs.
class BackedWriter {
 public:
  /// Offset the next appended byte will get (total bytes ever written).
  std::uint64_t write_seq() const { return acked_ + unacked_.size(); }
  /// Everything below this offset has been durably consumed by the peer.
  std::uint64_t acked() const { return acked_; }
  /// The retained bytes [acked(), write_seq()).
  const std::string& unacked() const { return unacked_; }

  void append(std::string_view bytes) { unacked_.append(bytes); }

  /// Drop retained bytes below `upto`. Out-of-order (stale) acks are
  /// ignored; an ack beyond write_seq() throws ProtocolError.
  void ack(std::uint64_t upto);

  /// View of the retained bytes from `offset` on (the replay source).
  /// Throws ProtocolError when `offset` is outside [acked(), write_seq()].
  std::string_view from(std::uint64_t offset) const;

  /// Restore from a journal: `acked` + the retained suffix.
  void restore(std::uint64_t acked, std::string unacked) {
    acked_ = acked;
    unacked_ = std::move(unacked);
  }

 private:
  std::uint64_t acked_ = 0;
  std::string unacked_;
};

/// Incoming half of a resumable byte stream. Offsets arriving below
/// read_seq() + inbox are replay overlap and are skipped byte-exactly; a
/// gap above it is a protocol error (the transport is in-order). The inbox
/// holds bytes received but not yet consumed by the application; read_seq
/// advances only via consume(), which the session layer calls strictly
/// before acknowledging — so an ack never covers bytes that would be lost
/// with the process. consume() advances a head offset and compacts only
/// once the consumed prefix outweighs the live inbox, so walking n frames
/// out of one inbox is linear, not quadratic.
class BackedReader {
 public:
  std::uint64_t read_seq() const { return read_seq_; }
  /// The un-consumed bytes, valid until the next offer/consume/clear.
  std::string_view inbox() const {
    return std::string_view(inbox_).substr(head_);
  }

  /// Integrate a DATA chunk starting at `offset`. Returns the number of
  /// novel bytes appended (0 for pure replay overlap).
  std::size_t offer(std::uint64_t offset, std::string_view chunk);

  /// The application durably consumed the first `n` inbox bytes.
  void consume(std::size_t n);

  /// Drop un-consumed inbox bytes (reconnect: the peer replays them).
  void clear_inbox() {
    inbox_.clear();
    head_ = 0;
  }

  void restore(std::uint64_t read_seq) {
    read_seq_ = read_seq;
    clear_inbox();
  }

 private:
  std::uint64_t read_seq_ = 0;
  std::string inbox_;
  std::size_t head_ = 0;  ///< bytes of inbox_ already consumed
};

}  // namespace hadas::net
