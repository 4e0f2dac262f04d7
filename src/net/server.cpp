#include "net/server.hpp"

#include <cstring>
#include <filesystem>

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

Frame ack_frame(std::uint64_t read_seq) {
  Frame frame;
  frame.type = FrameType::kAck;
  put_u64(frame.payload, read_seq);
  return frame;
}

const BackedWriter& empty_writer() {
  static const BackedWriter writer;
  return writer;
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
    : handler_(handler), service_(service), config_(std::move(config)) {}

ServeDaemon::~ServeDaemon() {
  if (started_) handler_.close_listener(listener_);
}

void ServeDaemon::start() {
  if (started_) return;
  listener_ = handler_.listen(config_.listen);
  started_ = true;
}

std::string ServeDaemon::session_path(const std::string& id) const {
  return config_.state_dir + "/session-" + id + ".json";
}

void ServeDaemon::save_session(const std::string& id, const Session& session) {
  SessionState state;
  state.session_id = id;
  state.fingerprint = service_.fingerprint();
  state.write_acked = session.writer.acked();
  state.write_unacked = session.writer.unacked();
  state.read_seq = session.reader.read_seq();
  save_session_state(
      session_path(id), state,
      [&](util::JsonWriter& writer) {
        write_serve_app(writer, session.requests, session.finished);
      },
      journal_scratch_);
}

ServeDaemon::Session* ServeDaemon::find_session(const std::string& id) {
  auto it = sessions_.find(id);
  if (it != sessions_.end()) return &it->second;
  std::optional<SessionState> state = load_session_state(session_path(id));
  if (!state) return nullptr;
  if (state->fingerprint != service_.fingerprint())
    throw ProtocolError(
        "ServeDaemon: session journal '" + id +
        "' was written under a different serving configuration");
  Session session;
  session.writer.restore(state->write_acked, state->write_unacked);
  session.reader.restore(state->read_seq);
  session.requests = requests_from_json(state->app.at("requests"));
  session.finished = state->app.at("finished").as_bool();
  net_metrics().sessions_resumed.inc();
  return &sessions_.emplace(id, std::move(session)).first->second;
}

bool ServeDaemon::refuse(Conn& conn, const std::string& reason) {
  Frame frame;
  frame.type = FrameType::kRefuse;
  frame.payload = reason;
  conn.transport.send_frame(frame);
  conn.closing = true;  // drain the refusal, then drop
  net_metrics().handshakes_refused.inc();
  return true;
}

bool ServeDaemon::handle_hello(Conn& conn, const Frame& frame) {
  obs::TraceSpan span("net.handshake", "net");
  if (frame.payload.size() < 4 + 8)
    return refuse(conn, "malformed hello frame");
  const std::uint32_t version = get_u32(frame.payload, 0);
  if (version != kProtocolVersion)
    return refuse(conn, "protocol version " + std::to_string(version) +
                            " not supported (server speaks " +
                            std::to_string(kProtocolVersion) + ")");
  const std::uint64_t client_read_seq = get_u64(frame.payload, 4);
  const std::string id = frame.payload.substr(12);
  if (!valid_session_id(id)) return refuse(conn, "invalid session id");

  // A newer connection for a session steals it from a stale one (a client
  // that rebooted while its old socket is still half-open). Slots nulled by
  // step()'s reaping this pass are skipped; dropping the stale transport
  // here makes its next pump fail, so step() reaps it.
  for (const std::unique_ptr<Conn>& other : connections_) {
    if (other != nullptr && other.get() != &conn && other->session_id == id)
      other->transport.drop();
  }

  Session* session = nullptr;
  try {
    session = find_session(id);
  } catch (const ProtocolError& error) {
    return refuse(conn, error.what());
  }
  if (session == nullptr && client_read_seq > 0) {
    // The client durably consumed report bytes, so this session existed and
    // was garbage-collected at BYE: it is complete. Tell the client so.
    Frame welcome;
    welcome.type = FrameType::kWelcome;
    put_u64(welcome.payload, kSessionCompleted);
    put_u64(welcome.payload, service_.sample_count());
    welcome.payload += service_.fingerprint();
    conn.transport.send_frame(welcome);
    conn.session_id = id;
    conn.handshaken = true;
    conn.closing = true;
    return true;
  }
  if (session == nullptr) {
    session = &sessions_.emplace(id, Session{}).first->second;
    net_metrics().sessions_created.inc();
  }
  if (client_read_seq < session->writer.acked() ||
      client_read_seq > session->writer.write_seq())
    // The client's durable state went backwards (journal lost?) — unservable.
    return refuse(conn, "durable read_seq " + std::to_string(client_read_seq) +
                            " is outside session '" + id +
                            "' replay window [" +
                            std::to_string(session->writer.acked()) + ", " +
                            std::to_string(session->writer.write_seq()) +
                            "] — client journal lost or regressed");

  // The client's durable read_seq doubles as an ack: everything below it is
  // safely on its disk.
  session->writer.ack(client_read_seq);
  const std::uint64_t replay = session->writer.write_seq() - client_read_seq;
  net_metrics().bytes_replayed.inc(replay);
  net_metrics().replay_bytes.observe(static_cast<double>(replay));
  session->reader.clear_inbox();  // un-consumed bytes come back via replay
  conn.transport.set_flush_cursor(client_read_seq);

  Frame welcome;
  welcome.type = FrameType::kWelcome;
  put_u64(welcome.payload, session->reader.read_seq());
  put_u64(welcome.payload, service_.sample_count());
  welcome.payload += service_.fingerprint();
  conn.transport.send_frame(welcome);
  conn.session_id = id;
  conn.handshaken = true;
  return true;
}

void ServeDaemon::apply_app_frame(const std::string& id, Session& session,
                                  const Frame& frame, bool& completed) {
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
      return;
    }
    case FrameType::kFinish: {
      if (session.finished) return;  // unreachable: read_seq already past it
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
      return;
    }
    case FrameType::kBye:
      completed = true;
      return;
    default:
      throw ProtocolError(std::string("ServeDaemon: unexpected app frame '") +
                          frame_type_name(frame.type) + "' in session " + id);
  }
}

bool ServeDaemon::advance_session(Conn& conn) {
  auto it = sessions_.find(conn.session_id);
  if (it == sessions_.end()) return false;
  Session& session = it->second;
  bool mutated = false;
  bool completed = false;
  while (std::optional<PeekedFrame> peeked = peek_frame(session.reader.inbox())) {
    apply_app_frame(conn.session_id, session, peeked->frame, completed);
    session.reader.consume(peeked->encoded_size);
    mutated = true;
    if (completed) break;
  }
  if (!mutated) return false;
  if (completed) {
    // Ack the BYE so the client can finish, then garbage-collect. If the
    // ack is lost, the kSessionCompleted handshake answer covers it.
    conn.transport.send_frame(ack_frame(session.reader.read_seq()));
    std::error_code ec;
    std::filesystem::remove(session_path(conn.session_id), ec);
    sessions_.erase(it);
    ++completed_;
    net_metrics().sessions_completed.inc();
    conn.closing = true;
  } else {
    // save-before-ack: the ack must never outrun the journal.
    save_session(conn.session_id, session);
    conn.transport.send_frame(ack_frame(session.reader.read_seq()));
  }
  return true;
}

bool ServeDaemon::step() {
  if (!started_) start();
  bool progress = false;
  while (std::unique_ptr<Socket> socket = handler_.accept(listener_)) {
    auto conn = std::make_unique<Conn>();
    conn->transport.attach(std::move(socket));
    connections_.push_back(std::move(conn));
    net_metrics().connections_accepted.inc();
    progress = true;
  }
  // Dead slots are nulled in place (never reordered) so handle_hello's
  // session-steal scan sees every still-live connection during the pass;
  // the vector is compacted once at the end.
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    Conn& conn = *connections_[i];
    bool alive = true;
    // Everything in here can surface a protocol violation — find_session
    // on a mismatched journal, a malformed frame, and both pumps (a stale
    // connection whose flush cursor fell behind writer.acked() after a
    // session steal makes pump's writer.from() throw). All of them are
    // fatal to this connection only, never to the daemon.
    try {
      Session* session =
          conn.session_id.empty() ? nullptr : find_session(conn.session_id);
      alive = conn.transport.pump(session != nullptr ? session->writer
                                                     : empty_writer());
      // Even when the pump observed the peer closing, frames it delivered
      // first (the client's final ack, a trailing data burst) are still in
      // the decoder: process and journal them so nothing needs a replay.
      bool ok = true;
      std::optional<Frame> frame;
      while (ok && !conn.closing && (frame = conn.transport.next())) {
        progress = true;
        if (!conn.handshaken) {
          ok = frame->type == FrameType::kHello && handle_hello(conn, *frame);
        } else if (session == nullptr) {
          ok = false;  // data for a completed session: just close
        } else if (frame->type == FrameType::kData) {
          if (frame->payload.size() < 8) throw ProtocolError(
              "ServeDaemon: malformed data frame");
          session->reader.offer(get_u64(frame->payload, 0),
                                std::string_view(frame->payload).substr(8));
        } else if (frame->type == FrameType::kAck) {
          session->writer.ack(get_u64(frame->payload, 0));
        } else {
          throw ProtocolError(
              std::string("ServeDaemon: unexpected transport frame '") +
              frame_type_name(frame->type) + "'");
        }
        if (session == nullptr && !conn.session_id.empty())
          session = find_session(conn.session_id);
      }
      if (ok && session != nullptr && conn.handshaken && !conn.closing)
        progress |= advance_session(conn);
      if (!ok) alive = false;
      // Flush acks / report data / refusals cut above.
      if (alive) {
        session =
            conn.session_id.empty() ? nullptr : find_session(conn.session_id);
        alive = conn.transport.pump(session != nullptr ? session->writer
                                                       : empty_writer());
      }
    } catch (const ProtocolError&) {
      alive = false;
    } catch (const FrameError&) {
      alive = false;
    }
    if (!alive) {
      conn.transport.drop();
      net_metrics().connections_dropped.inc();
      connections_[i] = nullptr;  // dies; session state stays for a resume
      progress = true;
    } else if (conn.closing && conn.transport.outbox_size() == 0) {
      conn.transport.drop();
      connections_[i] = nullptr;
      progress = true;
    }
  }
  std::erase_if(connections_,
                [](const std::unique_ptr<Conn>& c) { return c == nullptr; });
  return progress;
}

void ServeDaemon::run() {
  start();
  while (!stop_.load(std::memory_order_relaxed)) {
    if (config_.once != 0 && completed_ >= config_.once &&
        connections_.empty())
      break;
    if (!step()) handler_.wait(20);
  }
}

}  // namespace hadas::net
