#include "net/frame.hpp"

#include "util/durable/durable_file.hpp"

namespace hadas::net {

namespace {

constexpr char kMagic[4] = {'H', 'N', 'F', '1'};
constexpr std::size_t kHeaderBytes = 4 + 1 + 4;  // magic + type + length
constexpr std::size_t kFooterBytes = 8;          // CRC-64 LE

}  // namespace

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kWelcome: return "welcome";
    case FrameType::kData: return "data";
    case FrameType::kAck: return "ack";
    case FrameType::kRefuse: return "refuse";
    case FrameType::kRequestBatch: return "request_batch";
    case FrameType::kFinish: return "finish";
    case FrameType::kReportChunk: return "report_chunk";
    case FrameType::kReportEnd: return "report_end";
    case FrameType::kBye: return "bye";
    case FrameType::kDistMigrants: return "dist_migrants";
    case FrameType::kDistFinal: return "dist_final";
  }
  return "unknown";
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int b = 0; b < 32; b += 8)
    out.push_back(static_cast<char>((v >> b) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int b = 0; b < 64; b += 8)
    out.push_back(static_cast<char>((v >> b) & 0xFF));
}

std::uint32_t get_u32(std::string_view in, std::size_t offset) {
  if (offset + 4 > in.size())
    throw FrameError("get_u32: payload shorter than declared");
  std::uint32_t v = 0;
  for (int b = 0; b < 4; ++b)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[offset + b]))
         << (8 * b);
  return v;
}

std::uint64_t get_u64(std::string_view in, std::size_t offset) {
  if (offset + 8 > in.size())
    throw FrameError("get_u64: payload shorter than declared");
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[offset + b]))
         << (8 * b);
  return v;
}

std::string encode_frame(FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload)
    throw std::invalid_argument(
        "encode_frame: payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte frame limit");
  std::string out;
  out.reserve(kHeaderBytes + payload.size() + kFooterBytes);
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out += payload;
  // CRC covers type + length + payload (everything after the magic).
  const std::uint64_t crc =
      util::durable::crc64(std::string_view(out).substr(sizeof(kMagic)));
  put_u64(out, crc);
  return out;
}

std::optional<PeekedFrame> peek_frame(std::string_view buffer) {
  if (buffer.size() < kHeaderBytes) return std::nullopt;
  if (buffer.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0)
    throw FrameError("frame stream corrupt: bad magic");
  const std::uint32_t length = get_u32(buffer, 5);
  if (length > kMaxFramePayload)
    throw FrameError("frame stream corrupt: declared payload of " +
                     std::to_string(length) + " bytes exceeds the " +
                     std::to_string(kMaxFramePayload) + "-byte frame limit");
  const std::size_t total = kHeaderBytes + length + kFooterBytes;
  if (buffer.size() < total) return std::nullopt;
  const std::uint64_t declared = get_u64(buffer, kHeaderBytes + length);
  const std::uint64_t actual =
      util::durable::crc64(buffer.substr(sizeof(kMagic), 1 + 4 + length));
  if (declared != actual)
    throw FrameError("frame stream corrupt: CRC mismatch");
  PeekedFrame peeked;
  peeked.frame.type = static_cast<FrameType>(
      static_cast<unsigned char>(buffer[sizeof(kMagic)]));
  peeked.frame.payload = std::string(buffer.substr(kHeaderBytes, length));
  peeked.encoded_size = total;
  return peeked;
}

std::optional<Frame> FrameDecoder::next() {
  std::optional<PeekedFrame> peeked =
      peek_frame(std::string_view(buffer_).substr(head_));
  if (!peeked) return std::nullopt;
  head_ += peeked->encoded_size;
  if (head_ == buffer_.size()) {
    reset();
  } else if (head_ > buffer_.size() - head_) {
    buffer_.erase(0, head_);
    head_ = 0;
  }
  return std::move(peeked->frame);
}

}  // namespace hadas::net
