#include "net/client.hpp"

#include <cmath>
#include <cstring>

#include "util/rng.hpp"
#include "util/strutil.hpp"

namespace hadas::net {

ServeClient::ServeClient(SocketHandler& handler, ClientConfig config)
    : handler_(handler),
      config_(std::move(config)),
      dialer_(handler,
              DialerConfig{config_.connect, config_.session_id,
                           config_.state_path, kSessionFormatTag,
                           "ServeClient", "server",
                           config_.max_connect_attempts,
                           config_.max_handshake_failures, nullptr},
              *this) {
  if (!valid_session_id(config_.session_id))
    throw std::invalid_argument("ServeClient: invalid session id '" +
                                config_.session_id + "'");
  if (config_.batch > kMaxRequestBatch)
    throw std::invalid_argument(
        "ServeClient: batch of " + std::to_string(config_.batch) +
        " requests cannot fit one frame (max " +
        std::to_string(kMaxRequestBatch) + ")");
  if (std::optional<util::Json> app = dialer_.restore()) {
    report_ = app->at("report").as_string();
    report_complete_ = app->at("report_complete").as_bool();
    bye_sent_ = app->at("bye_sent").as_bool();
    sample_count_ = util::parse_uint("session sample_count",
                                     app->at("sample_count").as_string());
  } else {
    generate_requests();
    dialer_.save();
  }
}

void ServeClient::generate_requests() {
  // Mirror poisson_trace exactly: request i gets arrival_i and carries
  // sample *position* i, which the server maps through its stream
  // (indices()[i % size]) — identical to a local trace, so the daemon's
  // report byte-compares against `hadas serve`.
  util::Rng rng(config_.traffic.seed);
  double arrival = 0.0;
  const std::size_t batch = config_.batch == 0 ? 64 : config_.batch;
  std::string payload;
  std::uint32_t in_batch = 0;
  for (std::size_t i = 0; i < config_.traffic.requests; ++i) {
    if (config_.traffic.arrival_rate_hz > 0.0)
      arrival += -std::log(1.0 - rng.uniform()) / config_.traffic.arrival_rate_hz;
    if (in_batch == 0) payload.assign(4, '\0');  // count patched below
    put_u64(payload, static_cast<std::uint64_t>(i));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &arrival, sizeof(bits));
    put_u64(payload, bits);
    put_u64(payload, static_cast<std::uint64_t>(i));
    ++in_batch;
    if (in_batch == batch || i + 1 == config_.traffic.requests) {
      std::string count;
      put_u32(count, in_batch);
      payload.replace(0, 4, count);
      dialer_.writer().append(encode_frame(FrameType::kRequestBatch, payload));
      in_batch = 0;
    }
  }
  dialer_.writer().append(encode_frame(FrameType::kFinish, ""));
}

void ServeClient::write_app(util::JsonWriter& writer) const {
  // Keys in sorted order, as a Json::Object dump writes them.
  writer.begin_object();
  writer.key("bye_sent");
  writer.boolean(bye_sent_);
  writer.key("report");
  writer.string(report_);
  writer.key("report_complete");
  writer.boolean(report_complete_);
  writer.key("sample_count");
  write_u64_string(writer, sample_count_);
  writer.end_object();
}

std::string ServeClient::welcome_fingerprint(std::string_view tail) const {
  if (tail.size() < 8)
    throw ProtocolError("ServeClient: malformed welcome frame");
  return std::string(tail.substr(8));
}

void ServeClient::on_welcome(std::string_view tail) {
  sample_count_ = get_u64(tail, 0);
}

void ServeClient::apply(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kReportChunk:
      report_ += frame.payload;
      return;
    case FrameType::kReportEnd:
      // The report is complete: BYE lets the server garbage-collect the
      // session. It is journaled with the consumed report bytes.
      report_complete_ = true;
      dialer_.writer().append(encode_frame(FrameType::kBye, ""));
      bye_sent_ = true;
      return;
    default:
      throw ProtocolError(std::string("ServeClient: unexpected app frame '") +
                          frame_type_name(frame.type) + "'");
  }
}

void ServeClient::run() {
  while (!done()) {
    dialer_.throw_if_unreachable();
    if (!step()) handler_.wait(config_.reconnect_backoff_ms);
  }
}

}  // namespace hadas::net
