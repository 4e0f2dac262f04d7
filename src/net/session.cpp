#include "net/session.hpp"

#include <charconv>
#include <chrono>
#include <filesystem>

#include "obs/trace.hpp"
#include "util/durable/durable_file.hpp"
#include "util/strutil.hpp"

namespace hadas::net {

namespace {

std::uint64_t u64_field(const util::Json& json, const std::string& key) {
  // Offsets are stored as decimal strings: a std::uint64_t does not fit a
  // JSON double above 2^53 and stream offsets are cumulative.
  return util::parse_uint("session field '" + key + "'",
                          json.at(key).as_string());
}

}  // namespace

util::Json session_state_to_json(const SessionState& state) {
  util::Json::Object doc;
  doc["session_id"] = state.session_id;
  doc["fingerprint"] = state.fingerprint;
  doc["write_acked"] = std::to_string(state.write_acked);
  doc["write_unacked_hex"] = util::to_hex(state.write_unacked);
  doc["read_seq"] = std::to_string(state.read_seq);
  doc["app"] = state.app;
  return util::Json(std::move(doc));
}

SessionState session_state_from_json(const util::Json& json) {
  SessionState state;
  state.session_id = json.at("session_id").as_string();
  state.fingerprint = json.at("fingerprint").as_string();
  state.write_acked = u64_field(json, "write_acked");
  state.write_unacked = util::from_hex(json.at("write_unacked_hex").as_string());
  state.read_seq = u64_field(json, "read_seq");
  state.app = json.at("app");
  return state;
}

void write_u64_string(util::JsonWriter& writer, std::uint64_t value) {
  char buf[20];
  const std::to_chars_result end = std::to_chars(buf, buf + sizeof(buf), value);
  writer.string(std::string_view(buf, static_cast<std::size_t>(end.ptr - buf)));
}

void write_session_journal(std::string& payload, const SessionState& state,
                           const AppWriter& write_app) {
  payload.clear();
  util::JsonWriter writer(payload, 2);
  // Members in the sorted order session_state_to_json's Json::Object keeps.
  writer.begin_object();
  writer.key("app");
  write_app(writer);
  writer.key("fingerprint");
  writer.string(state.fingerprint);
  writer.key("read_seq");
  write_u64_string(writer, state.read_seq);
  writer.key("session_id");
  writer.string(state.session_id);
  writer.key("write_acked");
  write_u64_string(writer, state.write_acked);
  writer.key("write_unacked_hex");
  writer.string(util::to_hex(state.write_unacked));
  writer.end_object();
  payload += '\n';
}

void save_session_state(const std::string& path, const SessionState& state,
                        const char* format_tag) {
  std::string scratch;
  save_session_state(
      path, state, [&](util::JsonWriter& writer) { writer.value(state.app); },
      scratch, format_tag);
}

void save_session_state(const std::string& path, const SessionState& state,
                        const AppWriter& write_app, std::string& scratch,
                        const char* format_tag) {
  obs::TraceSpan span("net.journal_save", "net");
  const bool timed = obs::enabled();
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point();
  write_session_journal(scratch, state, write_app);
  util::durable::DurableFile::write(path, format_tag, scratch);
  net_metrics().journal_saves.inc();
  net_metrics().bytes_journaled.inc(scratch.size());
  if (timed)
    net_metrics().journal_save_seconds.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
}

std::optional<SessionState> load_session_state(const std::string& path,
                                               const char* format_tag) {
  if (!std::filesystem::exists(path)) return std::nullopt;
  const std::string payload =
      util::durable::DurableFile::read(path, format_tag);
  try {
    return session_state_from_json(util::Json::parse(payload));
  } catch (const std::exception& e) {
    // A CRC-valid envelope around a malformed document is as corrupt as a
    // torn one: surface it as the documented error, not a raw Json throw.
    throw util::durable::CheckpointCorruptError(
        path, 0, util::durable::CorruptStage::kParse, e.what());
  }
}

bool valid_session_id(const std::string& id) {
  if (id.empty() || id.size() > 64 || id.front() == '.') return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

NetMetrics& net_metrics() {
  static NetMetrics metrics;
  return metrics;
}

}  // namespace hadas::net
