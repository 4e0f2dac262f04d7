#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hadas::net {

/// Frame types on the hadasd wire. Transport frames (< 16) manage the
/// connection and the resumable byte stream; application frames (>= 16)
/// ride *inside* that logical stream, so they survive disconnects and are
/// delivered exactly once regardless of how many times the socket drops.
enum class FrameType : std::uint8_t {
  // --- transport (raw socket) ---
  kHello = 1,    ///< client -> server: proto version, durable read_seq, session id
  kWelcome = 2,  ///< server -> client: durable read_seq, sample count, fingerprint
  kData = 3,     ///< either way: u64 stream offset + chunk bytes
  kAck = 4,      ///< either way: u64 durably-consumed stream offset
  kRefuse = 5,   ///< server -> client: handshake rejected, reason text
  // --- application (inside the resumable stream) ---
  kRequestBatch = 16,  ///< client -> server: count + (id, arrival bits, pos) records
  kFinish = 17,        ///< client -> server: request stream complete, run the trace
  kReportChunk = 18,   ///< server -> client: a slice of the ServeReport JSON
  kReportEnd = 19,     ///< server -> client: report complete
  kBye = 20,           ///< client -> server: report durably stored, GC the session
  // --- application, distributed search (src/dist over the same stream) ---
  kDistMigrants = 32,  ///< either way: u64 island + u64 round + migrant file payload
  kDistFinal = 33,     ///< worker -> coordinator: u64 island + island result payload
};

/// "hello" | "welcome" | ... | "bye" | "unknown".
const char* frame_type_name(FrameType type);

/// A decoded frame.
struct Frame {
  FrameType type = FrameType::kData;
  std::string payload;
};

/// The decoder saw bytes that cannot be a valid frame (bad magic, oversized
/// declared length, CRC mismatch) — the stream is corrupt, not merely
/// incomplete. A truncated tail is NOT an error: the missing bytes arrive
/// after the next reconnect-and-replay.
class FrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Hard cap on a frame's payload. Oversized frames are rejected on both
/// encode and decode, so a corrupt length field cannot make the decoder
/// buffer gigabytes before the CRC check.
inline constexpr std::size_t kMaxFramePayload = 1 << 20;

/// Bytes of framing around a payload (magic + type + length + CRC footer).
inline constexpr std::size_t kFrameOverhead = 4 + 1 + 4 + 8;

/// Little-endian integer helpers shared by the codec and the protocol
/// payloads (offsets, counts, double bit patterns).
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
std::uint32_t get_u32(std::string_view in, std::size_t offset);
std::uint64_t get_u64(std::string_view in, std::size_t offset);

/// Length-prefixed, CRC-checked frame:
///
///   "HNF1" (4) | type (1) | payload length u32 LE (4) | payload |
///   CRC-64/XZ of (type..payload) u64 LE (8)
///
/// Throws std::invalid_argument when payload exceeds kMaxFramePayload.
std::string encode_frame(FrameType type, std::string_view payload);

/// Parse the frame at the start of `buffer` without consuming it. Returns
/// the frame plus its encoded size (so the caller can consume exactly that
/// many bytes — how the session layer walks app frames inside the logical
/// stream), or nullopt while the buffer holds only an incomplete prefix.
/// Corruption throws FrameError, same as the decoder.
struct PeekedFrame {
  Frame frame;
  std::size_t encoded_size = 0;
};
std::optional<PeekedFrame> peek_frame(std::string_view buffer);

/// Incremental frame parser over an arbitrary chunking of the byte stream.
/// feed() appends bytes; next() pops the next complete, CRC-valid frame or
/// returns nullopt while the tail is still incomplete. Corruption (bad
/// magic, oversized length, checksum mismatch) throws FrameError. Popping
/// advances a head offset; consumed bytes are compacted away only once they
/// outweigh the live tail, so a frame costs O(its size), not O(buffer).
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t n) { buffer_.append(data, n); }
  void feed(std::string_view bytes) { buffer_ += bytes; }

  std::optional<Frame> next();

  /// Bytes buffered but not yet forming a complete frame.
  std::size_t pending() const { return buffer_.size() - head_; }

  /// Drop any partial frame (a reconnect replays its bytes from scratch).
  void reset() {
    buffer_.clear();
    head_ = 0;
  }

 private:
  std::string buffer_;
  std::size_t head_ = 0;  ///< bytes of buffer_ already popped
};

}  // namespace hadas::net
