#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "net/backed_stream.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace hadas::net {

/// One live connection worth of plumbing between a resumable endpoint and a
/// Socket: an encoded-bytes outbox, a FrameDecoder for the inbound side,
/// and a flush cursor into the endpoint's logical write stream.
///
/// The transport is expendable by design — all state that must survive a
/// disconnect lives in the Backed{Writer,Reader} and the session journal.
/// When the socket dies, drop() discards the half-sent outbox and the
/// half-decoded inbound bytes; the next attach() starts from a clean slate
/// and the handshake repositions the flush cursor at whatever the peer
/// durably received, replaying the rest out of the BackedWriter.
class Transport {
 public:
  /// Logical-stream bytes carried per kData frame.
  static constexpr std::size_t kDataChunk = 16 * 1024;
  /// Outbox high-water mark: pump() stops cutting new kData frames above
  /// this (the socket is not draining; no point buffering more encodings).
  static constexpr std::size_t kOutboxSoftCap = 256 * 1024;

  /// Adopt a freshly connected/accepted socket. Clears any previous
  /// connection's decode/outbox state.
  void attach(std::unique_ptr<Socket> socket);

  bool attached() const { return socket_ != nullptr && socket_->open(); }

  /// Tear down the current connection (if any) and discard all in-flight
  /// transport state. Safe to call repeatedly.
  void drop();

  /// Queue a control frame (HELLO / WELCOME / ACK / ...) onto the raw
  /// outbox. Control frames are per-connection and are NOT resumable —
  /// anything that must survive a disconnect goes through the logical
  /// stream instead.
  void send_frame(const Frame& frame);

  /// Position the kData flush cursor (an absolute logical-stream offset)
  /// and start streaming. Set from the peer's durably-acknowledged
  /// read_seq during the reconnect handshake; bytes from here to
  /// writer.write_seq() get replayed. Until this is called, pump() moves
  /// control frames only — cutting kData before the handshake would guess
  /// at an offset the peer may have already consumed.
  void set_flush_cursor(std::uint64_t offset) {
    cursor_ = offset;
    streaming_ = true;
  }
  std::uint64_t flush_cursor() const { return cursor_; }

  /// Move bytes both ways without blocking: cut kData frames from
  /// `writer` at the flush cursor, push the outbox into the socket, pull
  /// socket bytes into the frame decoder. Returns false — after an
  /// internal drop() — when the connection died (SocketClosedError);
  /// the endpoint then goes back to its reconnect path.
  bool pump(const BackedWriter& writer);

  /// Next fully decoded inbound frame, if any. Throws FrameError on a
  /// corrupt stream (caller should drop the connection). Still yields
  /// frames after the socket died — the peer's last flush (a final ack, a
  /// completed-session WELCOME) often lands in the same pump that observes
  /// the close, and discarding it would force a needless reconnect.
  std::optional<Frame> next();

  std::size_t outbox_size() const { return outbox_.size(); }

  /// Inbound bytes next() has not consumed yet — kept after the socket
  /// died, until the next attach() or drop().
  std::size_t inbound_pending() const { return decoder_.pending(); }

 private:
  /// The socket died: detach it and discard un-sent output (the peer
  /// re-requests what it needs at the next handshake), but keep the
  /// decoder — received frames stay consumable until the next attach().
  void die();

  std::unique_ptr<Socket> socket_;
  FrameDecoder decoder_;
  std::string outbox_;
  std::uint64_t cursor_ = 0;
  bool streaming_ = false;
};

/// Build the payload of a kData frame: u64 absolute offset + chunk bytes.
std::string encode_data_payload(std::uint64_t offset, std::string_view chunk);

}  // namespace hadas::net
