// Seeded mutation fuzzer for the parsers that read untrusted bytes off the
// wire or the disk: FrameDecoder, peek_frame, DurableFile::read and
// load_session_state. Valid frame streams, durable envelopes and session
// journals are mutated by bit flips, truncation, splices and length-field
// edits; a parser may reject a mutant only with its documented exception
// (FrameError, CheckpointCorruptError, ProtocolError, std::invalid_argument)
// and whatever it accepts must be self-consistent. Fixed seeds and
// iteration counts keep every run identical.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <typeinfo>
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
using util::durable::CheckpointCorruptError;
using util::durable::DurableFile;

std::string random_bytes(util::Rng& rng, std::size_t n) {
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.uniform_index(256));
  return bytes;
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A durable envelope around `payload`, as DurableFile::write lays it out
/// (built in memory: the fuzz loop must not fsync per mutant).
std::string envelope(const std::string& tag, const std::string& payload) {
  char crc[17];
  std::snprintf(crc, sizeof(crc), "%016llx",
                static_cast<unsigned long long>(util::durable::crc64(payload)));
  return "%HADAS-DURABLE v1 " + tag + " " + std::to_string(payload.size()) +
         "\n" + payload + "\n%HADAS-CRC64 " + crc + "\n";
}

/// Where a mutation may rewrite a length field: the offsets of its first
/// byte, with the field's encoding.
struct LengthField {
  std::size_t offset = 0;
  bool decimal = false;  ///< ASCII digits up to the next ' ' or '\n'; else u32 LE
};

/// One seeded mutation of `input`: a bit flip, a truncation, a splice of a
/// slice of `donor`, or a length-field edit.
std::string mutate(util::Rng& rng, std::string input, const std::string& donor,
                   const std::vector<LengthField>& lengths) {
  const std::size_t kind = rng.uniform_index(lengths.empty() ? 3 : 4);
  if (kind == 0) {  // bit flips
    const std::size_t flips = 1 + rng.uniform_index(4);
    for (std::size_t i = 0; i < flips && !input.empty(); ++i)
      input[rng.uniform_index(input.size())] ^=
          static_cast<char>(1u << rng.uniform_index(8));
  } else if (kind == 1) {  // truncation
    input.resize(rng.uniform_index(input.size() + 1));
  } else if (kind == 2) {  // splice: overwrite or insert a donor slice
    const std::size_t from = rng.uniform_index(donor.size() + 1);
    const std::string slice =
        donor.substr(from, rng.uniform_index(donor.size() - from + 1));
    const std::size_t at = rng.uniform_index(input.size() + 1);
    if (rng.bernoulli(0.5))
      input.replace(at, slice.size(), slice);
    else
      input.insert(at, slice);
  } else {  // length-field edit
    const LengthField field = lengths[rng.uniform_index(lengths.size())];
    const std::uint64_t values[] = {0, 1, 0xFFFFFFFFull, 1u << 20,
                                    (1u << 20) + 1, 18446744073709551615ull,
                                    rng.uniform_index(1 << 16)};
    std::uint64_t value = values[rng.uniform_index(7)];
    if (field.decimal) {
      const std::size_t end = input.find_first_of(" \n", field.offset);
      if (end == std::string::npos) return input;
      const std::string old = input.substr(field.offset, end - field.offset);
      std::string text = std::to_string(value);
      if (rng.bernoulli(0.3)) {  // an off-by-a-little or a negative length
        const std::uint64_t declared = old.empty() ? 0 : std::stoull(old);
        if (rng.bernoulli(0.5)) {
          text = std::to_string(declared + 1 + rng.uniform_index(3));
        } else {
          text = "-";
          text += std::to_string(1 + rng.uniform_index(128));
        }
      }
      input.replace(field.offset, end - field.offset, text);
    } else if (field.offset + 4 <= input.size()) {
      if (rng.bernoulli(0.3)) value = net::get_u32(input, field.offset) ^ 1;
      for (int b = 0; b < 4; ++b)
        input[field.offset + b] = static_cast<char>((value >> (8 * b)) & 0xFF);
    }
  }
  return input;
}

/// Run `parse` on a mutant; fail the test on any undocumented exception.
/// Returns whether the parser accepted the input.
bool accepts_or_rejects_cleanly(const std::function<void()>& parse) {
  try {
    parse();
    return true;
  } catch (const net::FrameError&) {
  } catch (const CheckpointCorruptError&) {
  } catch (const net::ProtocolError&) {
  } catch (const std::invalid_argument&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "undocumented " << typeid(e).name() << ": " << e.what();
  }
  return false;
}

// ---------- corpora ----------

struct FrameCorpus {
  std::string wire;
  std::vector<LengthField> lengths;  ///< every frame's u32 length field
};

FrameCorpus frame_stream(util::Rng& rng) {
  const net::FrameType types[] = {
      net::FrameType::kHello, net::FrameType::kWelcome, net::FrameType::kData,
      net::FrameType::kAck, net::FrameType::kRequestBatch,
      net::FrameType::kReportChunk, net::FrameType::kBye};
  FrameCorpus corpus;
  const std::size_t frames = 1 + rng.uniform_index(6);
  for (std::size_t i = 0; i < frames; ++i) {
    corpus.lengths.push_back({corpus.wire.size() + 5, false});
    corpus.wire += net::encode_frame(types[rng.uniform_index(7)],
                                     random_bytes(rng, rng.uniform_index(200)));
  }
  return corpus;
}

/// Position of the declared payload size in an envelope's header line.
LengthField envelope_length(const std::string& bytes) {
  return {bytes.rfind(' ', bytes.find('\n')) + 1, true};
}

net::SessionState random_state(util::Rng& rng) {
  net::SessionState state;
  state.session_id = "fuzz-" + std::to_string(rng.uniform_index(100));
  state.fingerprint = "fp|" + random_bytes(rng, rng.uniform_index(12));
  state.write_acked = rng.next_u64();
  state.write_unacked = random_bytes(rng, rng.uniform_index(64));
  state.read_seq = rng.uniform_index(1 << 30);
  return state;
}

std::vector<runtime::serve::RemoteRequest> random_requests(util::Rng& rng) {
  std::vector<runtime::serve::RemoteRequest> requests(rng.uniform_index(12));
  for (auto& r : requests) {
    r.id = rng.next_u64();
    r.arrival_s = rng.uniform(0.0, 100.0);
    r.sample_pos = rng.uniform_index(2000);
  }
  return requests;
}

/// A serve-daemon journal payload, exactly as hadasd writes it.
std::string journal_payload(util::Rng& rng) {
  const auto requests = random_requests(rng);
  const bool finished = rng.bernoulli(0.5);
  std::string payload;
  net::write_session_journal(payload, random_state(rng),
                             [&](util::JsonWriter& writer) {
                               net::write_serve_app(writer, requests, finished);
                             });
  return payload;
}

// ---------- targets ----------

TEST(FuzzParsers, FrameDecoderAndPeekFrameRejectOnlyWithFrameError) {
  util::Rng rng(0xF022F2A);
  std::size_t accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const FrameCorpus corpus = frame_stream(rng);
    const std::string donor = frame_stream(rng).wire;
    const std::string mutant = mutate(rng, corpus.wire, donor, corpus.lengths);

    // peek_frame: an accepted frame re-encodes to exactly the bytes it
    // claims to span.
    accepts_or_rejects_cleanly([&] {
      const std::optional<net::PeekedFrame> peeked = net::peek_frame(mutant);
      if (!peeked) return;
      ++accepted;
      ASSERT_LE(peeked->encoded_size, mutant.size());
      EXPECT_EQ(net::encode_frame(peeked->frame.type, peeked->frame.payload),
                mutant.substr(0, peeked->encoded_size));
    });

    // FrameDecoder over a random chunking of the mutant: the frames it
    // yields plus what it still holds account for every byte fed.
    accepts_or_rejects_cleanly([&] {
      net::FrameDecoder decoder;
      std::size_t fed = 0;
      std::size_t decoded = 0;
      while (fed < mutant.size()) {
        const std::size_t n =
            std::min(mutant.size() - fed, 1 + rng.uniform_index(64));
        decoder.feed(mutant.data() + fed, n);
        fed += n;
        while (std::optional<net::Frame> frame = decoder.next())
          decoded += net::encode_frame(frame->type, frame->payload).size();
        ASSERT_EQ(decoded + decoder.pending(), fed);
      }
    });
  }
  EXPECT_GT(accepted, 1000u);  // many mutants still reach the accept path
}

TEST(FuzzParsers, DurableReadRejectsOnlyWithCheckpointCorruptError) {
  util::Rng rng(0xD02AB1E);
  const std::string path = "/tmp/hadas_fuzz_durable.bin";
  const std::string tag = "hadas-fuzz-v1";
  std::size_t accepted = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::string valid =
        envelope(tag, random_bytes(rng, rng.uniform_index(300)));
    const std::string donor = envelope(tag, random_bytes(rng, 40));
    const std::string mutant =
        mutate(rng, valid, donor, {envelope_length(valid)});
    spit(path, mutant);
    const util::durable::FileInfo info = DurableFile::inspect(path);
    const bool read = accepts_or_rejects_cleanly([&] {
      const std::string payload = DurableFile::read(path, tag);
      ++accepted;
      EXPECT_EQ(payload.size(), info.declared_bytes);
    });
    // inspect() and read() agree on what is valid.
    EXPECT_EQ(read, info.valid() && info.format_tag == tag) << mutant;
  }
  EXPECT_GT(accepted, 20u);  // some mutants still reach the accept path
  std::remove(path.c_str());
}

TEST(FuzzParsers, LoadSessionStateRejectsOnlyWithCheckpointCorruptError) {
  util::Rng rng(0x5E55105);
  const std::string path = "/tmp/hadas_fuzz_session.json";
  std::size_t accepted = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::string payload = journal_payload(rng);
    const std::string donor = journal_payload(rng);
    // Half the mutants hit the envelope, half hit the document inside a
    // valid envelope so they reach the Json parser and the session reader.
    std::string mutant;
    if (rng.bernoulli(0.5)) {
      const std::string valid = envelope(net::kSessionFormatTag, payload);
      mutant = mutate(rng, valid, donor, {envelope_length(valid)});
    } else {
      mutant = envelope(net::kSessionFormatTag, mutate(rng, payload, donor, {}));
    }
    spit(path, mutant);
    accepts_or_rejects_cleanly([&] {
      const std::optional<net::SessionState> state =
          net::load_session_state(path);
      ASSERT_TRUE(state.has_value());
      ++accepted;
      // Whatever loads, re-serialises to a journal that loads the same.
      const net::SessionState again = net::session_state_from_json(
          util::Json::parse(net::session_state_to_json(*state).dump(2)));
      EXPECT_EQ(again.session_id, state->session_id);
      EXPECT_EQ(again.write_unacked, state->write_unacked);
      EXPECT_EQ(again.read_seq, state->read_seq);
      EXPECT_EQ(again.app, state->app);
    });
  }
  EXPECT_GT(accepted, 20u);  // some mutants still reach the accept path
  std::remove(path.c_str());
}

}  // namespace
