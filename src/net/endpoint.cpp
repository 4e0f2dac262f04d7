#include "net/endpoint.hpp"

#include <filesystem>

#include "obs/trace.hpp"
#include "util/durable/durable_file.hpp"

namespace hadas::net {

namespace {

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

/// Count the bytes a handshake replays: everything from `read_seq`, the
/// offset the peer vouched for, to the end of the stream.
void count_replay(const BackedWriter& writer, std::uint64_t read_seq) {
  const std::uint64_t replay = writer.write_seq() - read_seq;
  net_metrics().bytes_replayed.inc(replay);
  net_metrics().replay_bytes.observe(static_cast<double>(replay));
}

std::string endpoint_text(const util::HostPort& at) {
  return at.host + ":" + std::to_string(at.port);
}

}  // namespace

// --- SessionDialer ---------------------------------------------------------

SessionDialer::SessionDialer(SocketHandler& handler, DialerConfig config,
                             App& app)
    : handler_(handler), config_(std::move(config)), app_(app) {}

std::optional<util::Json> SessionDialer::restore() {
  std::optional<SessionState> state =
      load_session_state(config_.state_path, config_.format_tag);
  if (!state) return std::nullopt;
  if (state->session_id != config_.session_id)
    throw std::invalid_argument(
        config_.name + ": journal '" + config_.state_path +
        "' belongs to session '" + state->session_id + "', not '" +
        config_.session_id + "'");
  writer_.restore(state->write_acked, std::move(state->write_unacked));
  reader_.restore(state->read_seq);
  fingerprint_ = state->fingerprint;
  return std::move(state->app);
}

void SessionDialer::save() {
  SessionState state;
  state.session_id = config_.session_id;
  state.fingerprint = fingerprint_;
  state.write_acked = writer_.acked();
  state.write_unacked = writer_.unacked();
  state.read_seq = reader_.read_seq();
  // A client's journal holds its whole unacked request trace: a payload
  // buffer kept across saves would pin megabytes per client, so each save
  // builds its own.
  std::string scratch;
  save_session_state(
      config_.state_path, state,
      [this](util::JsonWriter& writer) { app_.write_app(writer); }, scratch,
      config_.format_tag);
}

void SessionDialer::throw_if_unreachable() const {
  if (connect_failures_ >= config_.max_connect_attempts)
    throw ConnectError(config_.name + ": cannot reach " +
                       endpoint_text(config_.connect) + " after " +
                       std::to_string(connect_failures_) + " attempts");
}

bool SessionDialer::try_connect() {
  std::unique_ptr<Socket> socket;
  try {
    socket = handler_.connect(config_.connect);
  } catch (const ConnectError&) {
    ++connect_failures_;
    return false;
  }
  connect_failures_ = 0;
  transport_.attach(std::move(socket));
  handshaken_ = false;
  if (connected_once_) {
    ++reconnects_;
    net_metrics().client_reconnects.inc();
    if (config_.reconnects != nullptr) config_.reconnects->inc();
  }
  connected_once_ = true;
  Frame hello;
  hello.type = FrameType::kHello;
  put_u32(hello.payload, kProtocolVersion);
  put_u64(hello.payload, reader_.read_seq());
  hello.payload += config_.session_id;
  transport_.send_frame(hello);
  return true;
}

void SessionDialer::complete() {
  done_ = true;
  transport_.drop();
  std::error_code ec;
  std::filesystem::remove(config_.state_path, ec);
}

void SessionDialer::welcome(const Frame& frame) {
  if (frame.payload.size() < 8)
    throw ProtocolError(config_.name + ": malformed welcome frame");
  const std::uint64_t peer_read_seq = get_u64(frame.payload, 0);
  const std::string_view tail = std::string_view(frame.payload).substr(8);
  const std::string fingerprint = app_.welcome_fingerprint(tail);
  if (peer_read_seq == kSessionCompleted) {
    // The host garbage-collects a session only after it durably consumed
    // and acked our last frame, so there is nothing left to do.
    if (!app_.finished())
      throw ProtocolError(config_.name + ": " + config_.peer +
                          " reports session '" + config_.session_id +
                          "' complete, but this end never sent its last "
                          "frame — stale state?");
    complete();
    return;
  }
  if (!fingerprint_.empty() && fingerprint_ != fingerprint)
    throw ProtocolError(
        config_.name + ": " + config_.peer +
        " fingerprint changed mid-session (journaled '" + fingerprint_ +
        "', " + config_.peer + " sent '" + fingerprint +
        "') — refusing to mix two configurations in one session");
  app_.on_welcome(tail);
  if (peer_read_seq < writer_.acked() || peer_read_seq > writer_.write_seq())
    throw ProtocolError(
        config_.name + ": " + config_.peer + " read_seq " +
        std::to_string(peer_read_seq) + " outside our replay window [" +
        std::to_string(writer_.acked()) + ", " +
        std::to_string(writer_.write_seq()) + "]");
  const bool first = fingerprint_.empty();
  fingerprint_ = fingerprint;
  writer_.ack(peer_read_seq);
  count_replay(writer_, peer_read_seq);
  reader_.clear_inbox();
  transport_.set_flush_cursor(peer_read_seq);
  handshaken_ = true;
  handshake_failures_ = 0;
  if (first) save();  // journal the fingerprint we committed to
}

void SessionDialer::handle(const Frame& frame) {
  if (frame.type == FrameType::kRefuse)
    throw ProtocolError(config_.name + ": " + config_.peer +
                        " refused session '" + config_.session_id +
                        "': " + frame.payload);
  if (!handshaken_) {
    if (frame.type != FrameType::kWelcome)
      throw ProtocolError(config_.name + ": expected welcome, got '" +
                          frame_type_name(frame.type) + "'");
    welcome(frame);
  } else if (frame.type == FrameType::kData) {
    if (frame.payload.size() < 8)
      throw ProtocolError(config_.name + ": malformed data frame");
    reader_.offer(get_u64(frame.payload, 0),
                  std::string_view(frame.payload).substr(8));
  } else if (frame.type == FrameType::kAck) {
    writer_.ack(get_u64(frame.payload, 0));
  } else {
    throw ProtocolError(config_.name + ": unexpected transport frame '" +
                        frame_type_name(frame.type) + "'");
  }
}

bool SessionDialer::advance() {
  bool mutated = false;
  while (std::optional<PeekedFrame> peeked = peek_frame(reader_.inbox())) {
    app_.apply(peeked->frame);
    reader_.consume(peeked->encoded_size);
    mutated = true;
  }
  if (!mutated) return false;
  // save-before-ack: journal the consumed bytes (and whatever the app
  // queued or wrote in response) before the ack can reach the host.
  save();
  transport_.send_frame(ack_frame(reader_.read_seq()));
  return true;
}

void SessionDialer::beat() {
  if (!online()) return;
  transport_.send_frame(ack_frame(reader_.read_seq()));
  transport_.pump(writer_);
}

bool SessionDialer::step() {
  if (done_) return false;
  if (handshake_failures_ >= config_.max_handshake_failures)
    throw ProtocolError(
        config_.name + ": " + config_.peer + " at " +
        endpoint_text(config_.connect) + " dropped " +
        std::to_string(handshake_failures_) +
        " consecutive connections before completing a handshake");
  // Frames the last pump pulled in before the connection died (the host's
  // ack of our last frame, sent just before it closes) are handled before
  // dialing: attach() discards them, and nobody may be listening any more.
  // A failed dial does not end the step: the app's local work goes on.
  const bool online = transport_.attached() ||
                      transport_.inbound_pending() > 0 || try_connect();
  bool progress = false;
  bool died = false;
  if (online) {
    const bool alive = transport_.pump(writer_);
    try {
      while (std::optional<Frame> frame = transport_.next()) {
        progress = true;
        handle(*frame);
        if (done_) return true;
      }
      if (handshaken_) progress |= advance();
    } catch (const FrameError&) {
      transport_.drop();  // corrupt transport bytes: reconnect and replay
      return true;
    }
    if (!alive) {
      // A connection that died before WELCOME: a silently rejecting host
      // would otherwise look like endless clean reconnects.
      if (!handshaken_) ++handshake_failures_;
      handshaken_ = false;
      died = true;
      transport_.drop();  // a partial frame left behind is replayed
    }
  }
  progress |= app_.work();
  if (app_.finished() && writer_.acked() == writer_.write_seq()) {
    complete();  // the host durably consumed everything we will ever send
    return true;
  }
  if (transport_.attached()) transport_.pump(writer_);
  return progress || died;
}

// --- SessionHost -----------------------------------------------------------

SessionHost::SessionHost(SocketHandler& handler, HostConfig config, App& app)
    : handler_(handler), config_(std::move(config)), app_(app) {}

SessionHost::~SessionHost() {
  for (const std::unique_ptr<Conn>& conn : connections_)
    if (conn != nullptr) conn->transport.drop();
  if (started_) handler_.close_listener(listener_);
}

void SessionHost::start() {
  if (started_) return;
  listener_ = handler_.listen(config_.listen);
  started_ = true;
}

std::string SessionHost::journal_path(const std::string& id) const {
  return config_.state_dir + "/session-" + id + ".json";
}

SessionStream* SessionHost::live(const Conn& conn) {
  return conn.handshaken ? app_.session(conn.session_id) : nullptr;
}

const BackedWriter& SessionHost::writer_of(const Conn& conn) {
  SessionStream* session = live(conn);
  return session != nullptr ? session->writer : empty_writer();
}

void SessionHost::save(const std::string& id) {
  const SessionStream& session = *app_.session(id);
  SessionState state;
  state.session_id = id;
  state.fingerprint = config_.fingerprint;
  state.write_acked = session.writer.acked();
  state.write_unacked = session.writer.unacked();
  state.read_seq = session.reader.read_seq();
  save_session_state(
      journal_path(id), state,
      [&](util::JsonWriter& writer) { app_.write_app(writer, id); },
      journal_scratch_, config_.format_tag);
}

void SessionHost::disconnect(const std::string& id) {
  // Slots nulled by step()'s reaping this pass are skipped; a dropped
  // transport makes its next pump fail, so step() reaps it.
  for (const std::unique_ptr<Conn>& conn : connections_)
    if (conn != nullptr && conn->session_id == id) conn->transport.drop();
}

SessionStream* SessionHost::find(const std::string& id) {
  if (SessionStream* session = app_.session(id)) return session;
  std::optional<SessionState> state =
      load_session_state(journal_path(id), config_.format_tag);
  if (!state) return nullptr;
  if (state->fingerprint != config_.fingerprint)
    throw ProtocolError(config_.name + ": session journal '" + id +
                        "' was written under a different configuration "
                        "(journaled '" + state->fingerprint + "', running '" +
                        config_.fingerprint + "')");
  SessionStream& session = app_.open(id, &state->app);
  session.writer.restore(state->write_acked, std::move(state->write_unacked));
  session.reader.restore(state->read_seq);
  net_metrics().sessions_resumed.inc();
  return &session;
}

bool SessionHost::refuse(Conn& conn, const std::string& reason) {
  Frame frame;
  frame.type = FrameType::kRefuse;
  frame.payload = reason;
  conn.transport.send_frame(frame);
  conn.closing = true;  // drain the refusal, then drop
  net_metrics().handshakes_refused.inc();
  if (config_.refusals != nullptr) config_.refusals->inc();
  return true;
}

void SessionHost::welcome(Conn& conn, const std::string& id,
                          std::uint64_t read_seq) {
  Frame frame;
  frame.type = FrameType::kWelcome;
  put_u64(frame.payload, read_seq);
  app_.welcome_tail(frame.payload);
  conn.transport.send_frame(frame);
  conn.session_id = id;
  conn.handshaken = true;
}

bool SessionHost::hello(Conn& conn, const Frame& frame) {
  obs::TraceSpan span("net.handshake", "net");
  if (frame.payload.size() < 4 + 8)
    return refuse(conn, "malformed hello frame");
  const std::uint32_t version = get_u32(frame.payload, 0);
  if (version != kProtocolVersion)
    return refuse(conn, "protocol version " + std::to_string(version) +
                            " not supported (" + config_.name + " speaks " +
                            std::to_string(kProtocolVersion) + ")");
  const std::uint64_t peer_read_seq = get_u64(frame.payload, 4);
  const std::string id = frame.payload.substr(12);
  if (std::optional<std::string> reason = app_.refusal(id))
    return refuse(conn, *reason);

  // A newer connection for a session steals it from a stale one (a peer
  // that rebooted while its old socket is still half-open). This connection
  // is not bound yet, so it is not dropped with them.
  disconnect(id);

  SessionStream* session = nullptr;
  try {
    session = find(id);
  } catch (const ProtocolError& error) {
    return refuse(conn, error.what());
  } catch (const util::durable::CheckpointCorruptError& error) {
    return refuse(conn, config_.name + ": session journal corrupt: " +
                            error.what());
  }
  if (session == nullptr) {
    std::string reason;
    switch (app_.unknown(id, peer_read_seq, reason)) {
      case App::Unknown::kRefuse:
        return refuse(conn, reason);
      case App::Unknown::kCompleted:
        welcome(conn, id, kSessionCompleted);
        conn.closing = true;
        return true;
      case App::Unknown::kCreate:
        session = &app_.open(id, nullptr);
        net_metrics().sessions_created.inc();
        break;
    }
  }
  if (peer_read_seq < session->writer.acked() ||
      peer_read_seq > session->writer.write_seq())
    return refuse(conn, "durable read_seq " + std::to_string(peer_read_seq) +
                            " is outside session '" + id +
                            "' replay window [" +
                            std::to_string(session->writer.acked()) + ", " +
                            std::to_string(session->writer.write_seq()) +
                            "] — " + config_.peer +
                            " journal lost or regressed");
  // The peer's durable read_seq doubles as an ack: everything below it is
  // safely on its disk.
  session->writer.ack(peer_read_seq);
  count_replay(session->writer, peer_read_seq);
  session->reader.clear_inbox();  // un-consumed bytes come back via replay
  conn.transport.set_flush_cursor(peer_read_seq);
  welcome(conn, id, session->reader.read_seq());
  return true;
}

bool SessionHost::advance(Conn& conn, SessionStream& session) {
  bool mutated = false;
  bool completed = false;
  while (std::optional<PeekedFrame> peeked =
             peek_frame(session.reader.inbox())) {
    completed |= app_.apply(conn.session_id, peeked->frame);
    session.reader.consume(peeked->encoded_size);
    mutated = true;
  }
  if (!mutated) return false;
  if (completed) {
    // Ack the last frame so the peer can finish, then garbage-collect. A
    // lost ack is covered by the kSessionCompleted handshake answer.
    conn.transport.send_frame(ack_frame(session.reader.read_seq()));
    std::error_code ec;
    std::filesystem::remove(journal_path(conn.session_id), ec);
    app_.close(conn.session_id);
    net_metrics().sessions_completed.inc();
    conn.closing = true;
  } else {
    // save-before-ack: the ack must never outrun the journal.
    save(conn.session_id);
    conn.transport.send_frame(ack_frame(session.reader.read_seq()));
  }
  return true;
}

bool SessionHost::step() {
  start();
  bool progress = false;
  while (std::unique_ptr<Socket> socket = handler_.accept(listener_)) {
    auto conn = std::make_unique<Conn>();
    conn->transport.attach(std::move(socket));
    connections_.push_back(std::move(conn));
    net_metrics().connections_accepted.inc();
    progress = true;
  }
  // Dead slots are nulled in place (never reordered) so the session-steal
  // scan sees every still-live connection during the pass; the vector is
  // compacted once at the end.
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    Conn& conn = *connections_[i];
    bool alive = true;
    // Everything in here can surface a protocol violation — a malformed
    // frame, an app frame out of place, and both pumps (a stale connection
    // whose flush cursor fell behind writer.acked() after a session steal
    // makes pump's writer.from() throw). All of them are fatal to this
    // connection only.
    try {
      alive = conn.transport.pump(writer_of(conn));
      SessionStream* session = live(conn);
      // Even when the pump observed the peer closing, frames it delivered
      // first (a final ack, a trailing data burst) are still in the
      // decoder: handle and journal them so nothing needs a replay.
      bool ok = true;
      while (ok && !conn.closing) {
        std::optional<Frame> frame = conn.transport.next();
        if (!frame) break;
        progress = true;
        if (!conn.handshaken) {
          ok = frame->type == FrameType::kHello && hello(conn, *frame);
          session = live(conn);
        } else if (session == nullptr) {
          ok = false;  // a frame for a completed session: just close
        } else if (frame->type == FrameType::kData) {
          if (frame->payload.size() < 8)
            throw ProtocolError(config_.name + ": malformed data frame");
          session->reader.offer(get_u64(frame->payload, 0),
                                std::string_view(frame->payload).substr(8));
        } else if (frame->type == FrameType::kAck) {
          session->writer.ack(get_u64(frame->payload, 0));
        } else {
          throw ProtocolError(config_.name + ": unexpected transport frame '" +
                              frame_type_name(frame->type) + "'");
        }
        if (ok && conn.handshaken && !conn.closing)
          app_.on_peer_frame(conn.session_id, frame->type);
      }
      if (ok && session != nullptr && !conn.closing)
        progress |= advance(conn, *session);
      if (ok && conn.handshaken && !conn.closing)
        progress |= app_.feed(conn.session_id);
      if (!ok) alive = false;
      // Flush acks, app data and refusals queued above.
      if (alive) alive = conn.transport.pump(writer_of(conn));
    } catch (const ProtocolError& error) {
      if (config_.log)
        config_.log(config_.name + ": connection error: " + error.what());
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

}  // namespace hadas::net
