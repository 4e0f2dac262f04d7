// Differential tests of the journal and framing fast paths: each one is
// compared, on seeded inputs, against the plain code it replaced — the
// bytewise CRC-64 loop, the Json-tree session journal, the per-character
// string escaper and erase-from-front stream buffers.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "net/backed_stream.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "util/durable/durable_file.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace hadas;
using runtime::serve::RemoteRequest;

std::string random_bytes(util::Rng& rng, std::size_t n) {
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.uniform_index(256));
  return bytes;
}

// ---------- CRC-64 ----------

/// The classic bytewise CRC-64/XZ table.
std::array<std::uint64_t, 256> bytewise_table() {
  std::array<std::uint64_t, 256> table{};
  for (std::uint64_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1) ? 0xC96C5795D7870F42ULL : 0);
    table[i] = crc;
  }
  return table;
}

TEST(FastPaths, SlicingCrc64MatchesTheBytewiseLoopAtEveryLengthAndAlignment) {
  const std::array<std::uint64_t, 256> table = bytewise_table();
  util::Rng rng(0xC4C64);
  const std::string buffer = random_bytes(rng, 4096 + 8);
  for (std::size_t align = 0; align < 8; ++align) {
    // The bytewise register after `len` bytes, advanced one byte per step,
    // so every prefix length costs O(1) on the reference side.
    std::uint64_t reference = ~0ULL;
    for (std::size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(util::durable::crc64(
                    std::string_view(buffer.data() + align, len)),
                ~reference)
          << "start alignment " << align << ", length " << len;
      if (len < 4096)
        reference = (reference >> 8) ^
                    table[(reference ^ static_cast<unsigned char>(
                                           buffer[align + len])) & 0xFF];
    }
  }
  EXPECT_EQ(util::durable::crc64("123456789"), 0x995DC9BBDF1939FAULL);
}

// ---------- JSON string escaping ----------

/// The per-character escaper Json::dump() used before bulk appends.
std::string per_character_escape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

TEST(FastPaths, BulkStringEscapingMatchesThePerCharacterEscaper) {
  std::vector<std::string> inputs = {""};
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    inputs.push_back(one);
    inputs.push_back("run" + one + "run");  // escape between two bulk runs
    inputs.push_back(one + one + "tail");
    all_bytes += one;
  }
  inputs.push_back(all_bytes);
  util::Rng rng(0xE5CA9E);
  for (int i = 0; i < 200; ++i) {
    // Long clean runs with the occasional escape, like real documents.
    std::string s;
    const std::size_t len = rng.uniform_index(300);
    for (std::size_t k = 0; k < len; ++k)
      s += rng.bernoulli(0.05) ? static_cast<char>(rng.uniform_index(256))
                               : static_cast<char>('a' + rng.uniform_index(26));
    inputs.push_back(s);
  }
  for (const std::string& s : inputs) {
    const std::string expected = per_character_escape(s);
    std::string streamed;
    util::JsonWriter(streamed, -1).string(s);
    EXPECT_EQ(streamed, expected);
    EXPECT_EQ(util::Json(s).dump(), expected);
    EXPECT_EQ(util::Json::parse(expected).as_string(), s);
  }
}

// ---------- streamed session journals ----------

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// The daemon's journal app document as the Json tree it used to build.
util::Json reference_app(const std::vector<RemoteRequest>& requests,
                         bool finished) {
  util::Json::Array rows;
  for (const RemoteRequest& r : requests)
    rows.emplace_back(util::Json::Array{
        util::Json(std::to_string(r.id)),
        util::Json(std::to_string(bits_of(r.arrival_s))),
        util::Json(std::to_string(r.sample_pos))});
  util::Json::Object app;
  app["requests"] = util::Json(std::move(rows));
  app["finished"] = util::Json(finished);
  return util::Json(std::move(app));
}

std::string streamed_journal(const net::SessionState& state,
                             const std::vector<RemoteRequest>& requests,
                             bool finished) {
  std::string payload = "stale bytes the writer must replace";
  net::write_session_journal(payload, state, [&](util::JsonWriter& writer) {
    net::write_serve_app(writer, requests, finished);
  });
  return payload;
}

std::string reference_journal(net::SessionState state,
                              const std::vector<RemoteRequest>& requests,
                              bool finished) {
  state.app = reference_app(requests, finished);
  return net::session_state_to_json(state).dump(2) + "\n";
}

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kAbove53 = (std::uint64_t{1} << 53) + 1;

std::vector<RemoteRequest> random_requests(util::Rng& rng, std::size_t n) {
  const std::uint64_t extremes[] = {0, kAbove53, kU64Max};
  const double arrivals[] = {-0.0, std::numeric_limits<double>::quiet_NaN(),
                             0.0, 1e-310, 12.5};
  std::vector<RemoteRequest> requests(n);
  for (RemoteRequest& r : requests) {
    r.id = rng.bernoulli(0.1) ? extremes[rng.uniform_index(3)] : rng.next_u64();
    r.arrival_s = rng.bernoulli(0.1) ? arrivals[rng.uniform_index(5)]
                                     : from_bits(rng.next_u64());
    r.sample_pos =
        rng.bernoulli(0.1) ? extremes[rng.uniform_index(3)] : rng.uniform_index(2000);
  }
  return requests;
}

net::SessionState awkward_state(util::Rng& rng) {
  net::SessionState state;
  state.session_id = "sess\"ion\\id\n\t\x01-\x7f\xc3\xa9";
  const char fingerprint[] = "fp\0with\x1f" "controls\"and\\slashes";
  state.fingerprint = std::string(fingerprint, sizeof(fingerprint) - 1);
  state.write_acked = kU64Max;
  state.write_unacked = random_bytes(rng, 300);
  for (int b = 0; b < 256; ++b) state.write_unacked += static_cast<char>(b);
  state.read_seq = kAbove53;
  return state;
}

TEST(FastPaths, StreamedJournalIsByteIdenticalToTheJsonTree) {
  util::Rng rng(0x10A7);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{50000}}) {
    const std::vector<RemoteRequest> requests = random_requests(rng, n);
    for (const bool finished : {false, true}) {
      net::SessionState state = awkward_state(rng);
      if (finished) {  // the other u64 extremes in the header fields
        state.write_acked = 0;
        state.read_seq = kU64Max;
        state.write_unacked.clear();
      }
      ASSERT_EQ(streamed_journal(state, requests, finished),
                reference_journal(state, requests, finished))
          << n << " requests, finished " << finished;
    }
  }
  // The arrival bits of -0.0 and NaN survive as exact integers.
  const std::vector<RemoteRequest> signed_zero = {
      {kU64Max, -0.0, kAbove53},
      {0, std::numeric_limits<double>::quiet_NaN(), 0}};
  const std::string journal =
      streamed_journal(net::SessionState{}, signed_zero, false);
  EXPECT_NE(journal.find("\"" + std::to_string(bits_of(-0.0)) + "\""),
            std::string::npos);
  EXPECT_EQ(journal, reference_journal(net::SessionState{}, signed_zero, false));
}

TEST(FastPaths, JournalLayoutIsPinned) {
  // hadas-net-session-v1 as it has always been written: a journal from
  // before the streamed writer loads after it, and the reverse.
  net::SessionState state;
  state.session_id = "s-1";
  state.fingerprint = "fp";
  state.write_acked = 7;
  state.write_unacked = std::string("\x00\xff", 2);
  state.read_seq = 18446744073709551615ull;
  const std::string expected =
      "{\n"
      "  \"app\": {\n"
      "    \"finished\": false,\n"
      "    \"requests\": [\n"
      "      [\n"
      "        \"3\",\n"
      "        \"4611686018427387904\",\n"
      "        \"9\"\n"
      "      ]\n"
      "    ]\n"
      "  },\n"
      "  \"fingerprint\": \"fp\",\n"
      "  \"read_seq\": \"18446744073709551615\",\n"
      "  \"session_id\": \"s-1\",\n"
      "  \"write_acked\": \"7\",\n"
      "  \"write_unacked_hex\": \"00ff\"\n"
      "}\n";
  EXPECT_EQ(streamed_journal(state, {{3, 2.0, 9}}, false), expected);
  const net::SessionState parsed =
      net::session_state_from_json(util::Json::parse(expected));
  EXPECT_EQ(parsed.session_id, "s-1");
  EXPECT_EQ(parsed.read_seq, 18446744073709551615ull);
  EXPECT_EQ(parsed.write_unacked, state.write_unacked);

  const std::string empty =
      streamed_journal(net::SessionState{}, {}, true);
  EXPECT_NE(empty.find("\"finished\": true,\n    \"requests\": []\n"),
            std::string::npos);
}

TEST(FastPaths, SavedJournalOfAJsonAppMatchesTheJsonTree) {
  util::Rng rng(0x5A7E);
  net::SessionState state = awkward_state(rng);
  util::Json::Object app;
  app["report"] = util::Json(random_bytes(rng, 500));
  app["bye_sent"] = util::Json(true);
  app["nested"] = util::Json(util::Json::Array{util::Json(1.5), util::Json(),
                                               util::Json(util::Json::Object{})});
  state.app = util::Json(std::move(app));
  const std::string path = "/tmp/hadas_fast_paths_journal.json";
  std::remove(path.c_str());
  net::save_session_state(path, state);
  EXPECT_EQ(util::durable::DurableFile::read(path, net::kSessionFormatTag),
            net::session_state_to_json(state).dump(2) + "\n");
  std::remove(path.c_str());
}

// ---------- head-offset stream buffers ----------

/// BackedReader as it was: the inbox is erased from the front per consume.
struct NaiveReader {
  std::uint64_t read_seq = 0;
  std::string inbox;

  std::size_t offer(std::uint64_t offset, std::string_view chunk) {
    const std::uint64_t expected = read_seq + inbox.size();
    if (offset > expected) throw net::ProtocolError("gap");
    if (offset + chunk.size() <= expected) return 0;
    const std::string_view novel = chunk.substr(expected - offset);
    inbox.append(novel);
    return novel.size();
  }
  void consume(std::size_t n) {
    if (n > inbox.size()) throw net::ProtocolError("overrun");
    inbox.erase(0, n);
    read_seq += n;
  }
};

TEST(FastPaths, HeadOffsetReaderMatchesTheEraseFromFrontModel) {
  util::Rng rng(0xBAC6ED);
  // The logical stream both readers receive slices of.
  const std::string stream = random_bytes(rng, 1 << 16);
  net::BackedReader reader;
  NaiveReader model;
  for (int op = 0; op < 20000; ++op) {
    const std::size_t kind = rng.uniform_index(100);
    bool threw = false;
    bool model_threw = false;
    if (kind < 50) {
      // Offer a chunk that may overlap (replay), abut, or leave a gap.
      const std::uint64_t end = model.read_seq + model.inbox.size();
      const std::uint64_t back = rng.uniform_index(64);
      std::uint64_t offset = end >= back ? end - back : 0;
      if (rng.bernoulli(0.05)) offset = end + 1 + rng.uniform_index(8);
      const std::size_t len = rng.uniform_index(600);
      const std::size_t from = static_cast<std::size_t>(offset % stream.size());
      const std::string_view chunk =
          std::string_view(stream).substr(from, len);
      std::size_t got = 0;
      std::size_t want = 0;
      try { got = reader.offer(offset, chunk); } catch (const net::ProtocolError&) { threw = true; }
      try { want = model.offer(offset, chunk); } catch (const net::ProtocolError&) { model_threw = true; }
      ASSERT_EQ(got, want);
    } else if (kind < 90) {
      const std::size_t n = rng.bernoulli(0.05)
                                ? model.inbox.size() + 1 + rng.uniform_index(4)
                                : rng.uniform_index(model.inbox.size() + 1);
      try { reader.consume(n); } catch (const net::ProtocolError&) { threw = true; }
      try { model.consume(n); } catch (const net::ProtocolError&) { model_threw = true; }
    } else if (kind < 96) {
      reader.clear_inbox();
      model.inbox.clear();
    } else {
      const std::uint64_t seq = rng.uniform_index(1 << 20);
      reader.restore(seq);
      model.read_seq = seq;
      model.inbox.clear();
    }
    ASSERT_EQ(threw, model_threw) << "op " << op;
    ASSERT_EQ(reader.read_seq(), model.read_seq) << "op " << op;
    ASSERT_EQ(reader.inbox(), model.inbox) << "op " << op;
  }
}

TEST(FastPaths, HeadOffsetDecoderMatchesTheEraseFromFrontModel) {
  util::Rng rng(0xDEC0DE);
  const net::FrameType types[] = {net::FrameType::kData, net::FrameType::kAck,
                                  net::FrameType::kRequestBatch,
                                  net::FrameType::kReportChunk};
  std::string wire;
  std::vector<std::size_t> edges;  // where each frame starts on the wire
  for (int i = 0; i < 3000; ++i) {
    edges.push_back(wire.size());
    wire += net::encode_frame(types[rng.uniform_index(4)],
                              random_bytes(rng, rng.uniform_index(400)));
  }
  // A dropped connection replays from the next frame edge.
  auto next_edge = [&](std::size_t at) {
    const auto it = std::lower_bound(edges.begin(), edges.end(), at);
    return it == edges.end() ? wire.size() : *it;
  };
  net::FrameDecoder decoder;
  std::string model;  // the naive buffer: peek at the front, erase per frame
  std::size_t fed = 0;
  std::size_t frames = 0;
  for (int op = 0; op < 40000 && fed < wire.size(); ++op) {
    const std::size_t kind = rng.uniform_index(100);
    if (kind < 45) {
      const std::size_t n = std::min(rng.uniform_index(900), wire.size() - fed);
      std::string chunk = wire.substr(fed, n);
      fed += n;
      if (!chunk.empty() && rng.bernoulli(0.01))  // corruption on the wire
        chunk[rng.uniform_index(chunk.size())] ^= 0x20;
      decoder.feed(chunk);
      model += chunk;
    } else if (kind < 97) {
      std::optional<net::Frame> got;
      std::optional<net::PeekedFrame> want;
      bool threw = false;
      bool model_threw = false;
      try { got = decoder.next(); } catch (const net::FrameError&) { threw = true; }
      try { want = net::peek_frame(model); } catch (const net::FrameError&) { model_threw = true; }
      ASSERT_EQ(threw, model_threw) << "op " << op;
      ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
      if (want) {
        ASSERT_EQ(got->type, want->frame.type);
        ASSERT_EQ(got->payload, want->frame.payload);
        model.erase(0, want->encoded_size);
        ++frames;
      }
      if (threw) {  // a corrupt stream drops the connection
        decoder.reset();
        model.clear();
        fed = next_edge(fed);
      }
    } else {
      decoder.reset();
      model.clear();
      fed = next_edge(fed);
    }
    ASSERT_EQ(decoder.pending(), model.size()) << "op " << op;
  }
  EXPECT_GT(frames, 500u);
}

}  // namespace
