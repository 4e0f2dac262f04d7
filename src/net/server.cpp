#include "net/server.hpp"

#include <cstring>

#include "obs/trace.hpp"
#include "util/strutil.hpp"

namespace hadas::net {

namespace {

/// Report JSON is cut into app frames of this size (well under the frame
/// payload cap, several per DATA chunk).
constexpr std::size_t kReportChunkBytes = 32 * 1024;

double bits_to_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t double_to_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<runtime::serve::RemoteRequest> requests_from_json(
    const util::Json& json) {
  std::vector<runtime::serve::RemoteRequest> requests;
  for (const util::Json& row : json.as_array()) {
    runtime::serve::RemoteRequest r;
    r.id = util::parse_uint("session request id", row.at(0).as_string());
    r.arrival_s = bits_to_double(
        util::parse_uint("session request arrival", row.at(1).as_string()));
    r.sample_pos =
        util::parse_uint("session request pos", row.at(2).as_string());
    requests.push_back(r);
  }
  return requests;
}

}  // namespace

void write_serve_app(util::JsonWriter& writer,
                     const std::vector<runtime::serve::RemoteRequest>& requests,
                     bool finished) {
  writer.begin_object();
  writer.key("finished");
  writer.boolean(finished);
  writer.key("requests");
  writer.begin_array();
  for (const runtime::serve::RemoteRequest& r : requests) {
    writer.begin_array();
    write_u64_string(writer, r.id);
    write_u64_string(writer, double_to_bits(r.arrival_s));
    write_u64_string(writer, r.sample_pos);
    writer.end_array();
  }
  writer.end_array();
  writer.end_object();
}

ServeDaemon::ServeDaemon(SocketHandler& handler,
                         const runtime::serve::ServeService& service,
                         DaemonConfig config)
    : handler_(handler),
      service_(service),
      config_(std::move(config)),
      host_(handler,
            HostConfig{config_.listen, config_.state_dir, kSessionFormatTag,
                       service_.fingerprint(), "ServeDaemon", "client",
                       nullptr, {}},
            *this) {}

std::optional<std::string> ServeDaemon::refusal(const std::string& id) {
  if (!valid_session_id(id)) return "invalid session id";
  return std::nullopt;
}

SessionStream* ServeDaemon::session(const std::string& id) {
  auto it = sessions_.find(id);
  return it != sessions_.end() ? &it->second : nullptr;
}

SessionStream& ServeDaemon::open(const std::string& id,
                                 const util::Json* journal) {
  Session session;
  if (journal != nullptr) {
    session.requests = requests_from_json(journal->at("requests"));
    session.finished = journal->at("finished").as_bool();
  }
  return sessions_.emplace(id, std::move(session)).first->second;
}

ServeDaemon::Unknown ServeDaemon::unknown(const std::string& /*id*/,
                                          std::uint64_t peer_read_seq,
                                          std::string& /*reason*/) {
  return peer_read_seq > 0 ? Unknown::kCompleted : Unknown::kCreate;
}

void ServeDaemon::welcome_tail(std::string& payload) const {
  put_u64(payload, service_.sample_count());
  payload += service_.fingerprint();
}

void ServeDaemon::write_app(util::JsonWriter& writer,
                            const std::string& id) const {
  const Session& session = sessions_.at(id);
  write_serve_app(writer, session.requests, session.finished);
}

bool ServeDaemon::apply(const std::string& id, const Frame& frame) {
  Session& session = sessions_.at(id);
  switch (frame.type) {
    case FrameType::kRequestBatch: {
      const std::uint32_t count = get_u32(frame.payload, 0);
      if (frame.payload.size() != 4 + std::size_t{count} * 24)
        throw ProtocolError("ServeDaemon: malformed request batch");
      std::size_t offset = 4;
      for (std::uint32_t i = 0; i < count; ++i, offset += 24) {
        runtime::serve::RemoteRequest request;
        request.id = get_u64(frame.payload, offset);
        request.arrival_s = bits_to_double(get_u64(frame.payload, offset + 8));
        request.sample_pos = get_u64(frame.payload, offset + 16);
        session.requests.push_back(request);
      }
      net_metrics().requests_streamed.inc(count);
      return false;
    }
    case FrameType::kFinish: {
      if (session.finished) return false;  // unreachable: read_seq is past it
      obs::TraceSpan span("net.run_trace", "net");
      const std::string report = service_.run_trace(session.requests);
      for (std::size_t at = 0; at < report.size(); at += kReportChunkBytes) {
        Frame chunk;
        chunk.type = FrameType::kReportChunk;
        chunk.payload = report.substr(at, kReportChunkBytes);
        session.writer.append(encode_frame(chunk.type, chunk.payload));
      }
      session.writer.append(encode_frame(FrameType::kReportEnd, ""));
      session.finished = true;
      net_metrics().reports_sent.inc();
      return false;
    }
    case FrameType::kBye:
      return true;
    default:
      throw ProtocolError(std::string("ServeDaemon: unexpected app frame '") +
                          frame_type_name(frame.type) + "' in session " + id);
  }
}

void ServeDaemon::close(const std::string& id) {
  sessions_.erase(id);
  ++completed_;
}

void ServeDaemon::run() {
  start();
  while (!stop_.load(std::memory_order_relaxed)) {
    if (config_.once != 0 && completed_ >= config_.once &&
        host_.connection_count() == 0)
      break;
    if (!step()) handler_.wait(20);
  }
}

}  // namespace hadas::net
