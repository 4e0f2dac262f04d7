// Seeded mutation fuzzer for the parsers that read untrusted bytes off the
// wire, the disk or the command line. Every target runs in memory through
// its bytes-level entry point, with fixed seeds and iteration counts so
// every run sees the same mutants:
//   - FrameDecoder and peek_frame (wire frames);
//   - DurableFile::decode and inspect_bytes (the durable envelope);
//   - session journals (envelope + session_state_from_payload);
//   - the payload decoders of the dist spec, migrant set and island result,
//     the fleet checkpoint and the serve journal (*_from_payload);
//   - parse_bdf, parse_chaos_spec and parse_fault_config (spec strings).
// Valid inputs are mutated by bit flips, truncation, splices and
// length-field edits; a parser may reject a mutant only with its documented
// exception (FrameError, CheckpointCorruptError, ProtocolError,
// std::invalid_argument), and whatever it accepts must be self-consistent.
// Each durable target also makes one round trip through the file-level
// loader, so the path from disk stays covered.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/serialize.hpp"
#include "dist/island.hpp"
#include "exec/chaos.hpp"
#include "hw/faults.hpp"
#include "hw/fleet/bdf.hpp"
#include "hw/fleet/registry.hpp"
#include "net/backed_stream.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "runtime/serve/journal.hpp"
#include "supernet/backbone.hpp"
#include "supernet/search_space.hpp"
#include "util/durable/checkpoint_chain.hpp"
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
  const std::string tag = "hadas-fuzz-v1";
  std::size_t accepted = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::string valid =
        DurableFile::encode(tag, random_bytes(rng, rng.uniform_index(300)));
    const std::string donor = DurableFile::encode(tag, random_bytes(rng, 40));
    const std::string mutant =
        mutate(rng, valid, donor, {envelope_length(valid)});
    const util::durable::FileInfo info = DurableFile::inspect_bytes(mutant);
    const bool read = accepts_or_rejects_cleanly([&] {
      const std::string_view payload =
          DurableFile::decode(mutant, tag, "fuzz");
      ++accepted;
      EXPECT_EQ(payload.size(), info.declared_bytes);
    });
    // inspect() and read() agree on what is valid.
    EXPECT_EQ(read, info.valid() && info.format_tag == tag) << mutant;
  }
  EXPECT_GT(accepted, 20u);  // some mutants still reach the accept path

  // The one file-level round trip: write(), read() and inspect() on disk.
  const std::string path = "/tmp/hadas_fuzz_durable.bin";
  const std::string payload = random_bytes(rng, 100);
  DurableFile::write(path, tag, payload);
  EXPECT_EQ(DurableFile::read(path, tag), payload);
  const util::durable::FileInfo info = DurableFile::inspect(path);
  EXPECT_TRUE(info.exists && info.valid());
  EXPECT_EQ(info.crc_actual,
            DurableFile::inspect_bytes(DurableFile::encode(tag, payload))
                .crc_actual);
  std::remove(path.c_str());
}

TEST(FuzzParsers, LoadSessionStateRejectsOnlyWithCheckpointCorruptError) {
  util::Rng rng(0x5E55105);
  std::size_t accepted = 0;
  std::string mutant;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::string payload = journal_payload(rng);
    const std::string donor = journal_payload(rng);
    // Half the mutants hit the envelope, half hit the document inside a
    // valid envelope so they reach the Json parser and the session reader.
    if (rng.bernoulli(0.5)) {
      const std::string valid =
          DurableFile::encode(net::kSessionFormatTag, payload);
      mutant = mutate(rng, valid, donor, {envelope_length(valid)});
    } else {
      mutant = DurableFile::encode(net::kSessionFormatTag,
                                   mutate(rng, payload, donor, {}));
    }
    accepts_or_rejects_cleanly([&] {
      const std::optional<net::SessionState> state =
          net::session_state_from_payload(
              std::string(DurableFile::decode(mutant, net::kSessionFormatTag,
                                              "fuzz")),
              "fuzz");
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

  // The one file-level round trip: the last mutant through
  // load_session_state gets the verdict the in-memory decode got.
  const std::string path = "/tmp/hadas_fuzz_session.json";
  spit(path, mutant);
  std::optional<std::string> in_memory;
  std::optional<std::string> from_disk;
  try {
    in_memory = net::session_state_to_json(
                    net::session_state_from_payload(
                        std::string(DurableFile::decode(
                            mutant, net::kSessionFormatTag, path)),
                        path))
                    .dump();
  } catch (const CheckpointCorruptError& e) {
    in_memory = std::string("refused: ") + e.what();
  }
  try {
    from_disk = net::session_state_to_json(*net::load_session_state(path))
                    .dump();
  } catch (const CheckpointCorruptError& e) {
    from_disk = std::string("refused: ") + e.what();
  }
  EXPECT_EQ(in_memory, from_disk);
  std::remove(path.c_str());
}

// ---------- payload decoders of the other durable formats ----------

/// Mutate `payload` (a document a writer produced) `iterations` times and
/// run `decode` on each mutant: it may refuse only with
/// CheckpointCorruptError, and `reencode` of what it accepts must decode to
/// the same bytes again. Then one valid payload goes to disk under `tag`
/// and through `load`, the file-level loader, which must agree with
/// `decode`. Returns the number of mutants accepted.
template <typename Corpus, typename Decode, typename Load, typename Reencode>
std::size_t fuzz_payload_decoder(std::uint64_t seed, int iterations,
                                 const char* tag, const Corpus& corpus,
                                 const Decode& decode, const Load& load,
                                 const Reencode& reencode) {
  util::Rng rng(seed);
  std::size_t accepted = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    const std::string payload = corpus(rng);
    const std::string donor = corpus(rng);
    const std::string mutant = mutate(rng, payload, donor, {});
    try {
      const std::string once = reencode(decode(mutant, "fuzz"));
      ++accepted;
      EXPECT_EQ(reencode(decode(once, "fuzz")), once);
    } catch (const CheckpointCorruptError& e) {
      EXPECT_EQ(e.file(), "fuzz");  // every refusal names the file
    } catch (const std::exception& e) {
      ADD_FAILURE() << "undocumented " << typeid(e).name() << ": " << e.what()
                    << "\n" << mutant;
    }
  }

  // The one file-level round trip.
  const std::string path = std::string("/tmp/hadas_fuzz_") + tag;
  const std::string payload = corpus(rng);
  DurableFile::write(path, tag, payload);
  EXPECT_EQ(reencode(load(path)), reencode(decode(payload, path)));
  std::remove(path.c_str());
  return accepted;
}

dist::DistSpec random_spec(util::Rng& rng) {
  const char* devices[] = {"tx2-gpu", "tx2-cpu", "agx-gpu", "agx-cpu"};
  dist::DistSpec spec;
  spec.device = devices[rng.uniform_index(4)];
  spec.space = rng.bernoulli(0.5) ? "attentive" : "ofa";
  spec.islands = 1 + rng.uniform_index(4);
  spec.outer_population = 2 * spec.islands + rng.uniform_index(20);
  spec.outer_generations = 1 + rng.uniform_index(10);
  spec.migration_every = 1 + rng.uniform_index(3);
  spec.migrants = 1 + rng.uniform_index(3);
  spec.seed = rng.next_u64();
  spec.max_latency_s = rng.uniform(0.0, 0.1);
  if (rng.bernoulli(0.5)) spec.faults = "rate=0.1,noise=0.02,seed=7";
  if (rng.bernoulli(0.3))
    for (std::size_t i = 0; i < spec.islands; ++i)
      spec.island_devices.push_back(devices[rng.uniform_index(4)]);
  return spec;
}

std::string spec_payload(const dist::DistSpec& spec) {
  return dist::spec_to_json(spec).dump(2) + "\n";  // as save_spec writes it
}

TEST(FuzzParsers, DistSpecPayloadRejectsOnlyWithCheckpointCorruptError) {
  const std::size_t accepted = fuzz_payload_decoder(
      0xD157, 2000, dist::kDistSpecFormatTag,
      [](util::Rng& rng) { return spec_payload(random_spec(rng)); },
      dist::spec_from_payload, dist::load_spec, spec_payload);
  EXPECT_GT(accepted, 20u);
}

TEST(FuzzParsers, MigrantSetPayloadRejectsOnlyWithCheckpointCorruptError) {
  const supernet::SearchSpace space = supernet::SearchSpace::attentive_nas();
  const std::size_t accepted = fuzz_payload_decoder(
      0x319A, 2000, dist::kMigrantsFormatTag,
      [&](util::Rng& rng) {
        dist::MigrantSet migrants;
        migrants.island = rng.uniform_index(8);
        migrants.round = rng.uniform_index(8);
        for (std::size_t i = rng.uniform_index(4); i > 0; --i)
          migrants.genomes.push_back(supernet::random_genome(space, rng));
        return dist::migrants_to_payload(migrants);
      },
      dist::migrants_from_payload, dist::load_migrants_file,
      dist::migrants_to_payload);
  EXPECT_GT(accepted, 100u);
}

TEST(FuzzParsers, IslandResultPayloadRejectsOnlyWithCheckpointCorruptError) {
  const supernet::SearchSpace space = supernet::SearchSpace::attentive_nas();
  // The island result as write_island_final lays it out.
  const auto payload_of = [](const util::Json& result) {
    return result.dump(2) + "\n";
  };
  const std::size_t accepted = fuzz_payload_decoder(
      0x15A1D, 2000, dist::kIslandResultFormatTag,
      [&](util::Rng& rng) {
        core::HadasResult result;
        result.outer_evaluations = rng.uniform_index(100);
        result.inner_evaluations = rng.uniform_index(1000);
        for (std::size_t i = rng.uniform_index(3); i > 0; --i) {
          const supernet::BackboneConfig backbone =
              supernet::decode(space, supernet::random_genome(space, rng));
          core::FinalSolution solution{
              backbone, dynn::ExitPlacement(backbone.total_layers()),
              hw::DvfsSetting{rng.uniform_index(8), rng.uniform_index(4)},
              {}, {}};
          solution.static_eval.accuracy = rng.uniform(0.5, 0.8);
          solution.dynamic.energy_gain = rng.uniform(0.0, 0.5);
          result.final_pareto.push_back(solution);
        }
        util::Json json =
            core::result_to_json(result, hw::Target::kTx2PascalGpu);
        json["island"] = util::Json(rng.uniform_index(4));
        json["next_generation"] = util::Json(rng.uniform_index(10));
        return payload_of(json);
      },
      dist::island_result_from_payload, dist::load_island_result, payload_of);
  EXPECT_GT(accepted, 40u);
}

TEST(FuzzParsers, FleetCheckpointPayloadRejectsOnlyWithCheckpointCorruptError) {
  // The fleet checkpoint as FleetRegistry::save writes it.
  const auto payload_of = [](const hw::fleet::FleetRegistry& fleet) {
    return fleet.to_json().dump(2);
  };
  const std::size_t accepted = fuzz_payload_decoder(
      0xF1EE7, 2000, hw::fleet::kFleetFormatTag,
      [&](util::Rng& rng) {
        hw::fleet::FleetConfig config;
        config.devices = 1 + rng.uniform_index(6);
        config.seed = rng.next_u64();
        config.chaos.kill_per_round = rng.uniform_index(2);
        config.chaos.recover_per_round = rng.uniform_index(2);
        config.chaos.degrade_per_round = rng.uniform_index(2);
        config.chaos.rounds = 4;
        hw::fleet::FleetRegistry fleet(config);
        for (std::size_t r = rng.uniform_index(4); r > 0; --r)
          fleet.advance_round();
        return payload_of(fleet);
      },
      hw::fleet::FleetRegistry::from_payload, hw::fleet::FleetRegistry::load,
      payload_of);
  EXPECT_GT(accepted, 4u);
}

TEST(FuzzParsers, ServeJournalPayloadRejectsOnlyWithCheckpointCorruptError) {
  // The serve journal as save_journal writes it.
  const auto payload_of = [](const runtime::serve::ServeJournalSnapshot& s) {
    return runtime::serve::to_json(s).dump(2) + "\n";
  };
  const std::size_t accepted = fuzz_payload_decoder(
      0x5E12E, 2000, runtime::serve::kServeJournalFormatTag,
      [&](util::Rng& rng) {
        runtime::serve::ServeJournalSnapshot snapshot;
        snapshot.fingerprint = "fp-" + std::to_string(rng.uniform_index(1000));
        snapshot.next_index = rng.uniform_index(5000);
        snapshot.offered = rng.uniform_index(5000);
        snapshot.admitted = rng.uniform_index(5000);
        snapshot.makespan_s = rng.uniform(0.0, 100.0);
        snapshot.exit_histogram[rng.uniform_index(20)] = rng.uniform_index(99);
        snapshot.correct = rng.uniform_index(5000);
        snapshot.energy_sum_j = rng.uniform(0.0, 10.0);
        for (std::size_t i = rng.uniform_index(4); i > 0; --i)
          snapshot.slo.latencies.push_back(rng.uniform(0.0, 0.1));
        snapshot.mode = static_cast<int>(rng.uniform_index(3));
        for (std::size_t i = rng.uniform_index(3); i > 0; --i)
          snapshot.outstanding.push_back(rng.uniform(0.0, 100.0));
        snapshot.lanes.resize(rng.uniform_index(3));
        return payload_of(snapshot);
      },
      runtime::serve::journal_snapshot_from_payload,
      [](const std::string& path) {
        return runtime::serve::load_journal(
                   util::durable::CheckpointChain(path, 1))
            ->snapshot;
      },
      payload_of);
  EXPECT_GT(accepted, 10u);
}

// ---------- spec strings ----------

/// Mutate spec strings from `corpus` `iterations` times; `parse` may refuse
/// a mutant only with std::invalid_argument. Returns the number accepted.
template <typename Corpus, typename Parse>
std::size_t fuzz_spec_parser(std::uint64_t seed, int iterations,
                             const Corpus& corpus, const Parse& parse) {
  util::Rng rng(seed);
  std::size_t accepted = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    const std::string spec = corpus(rng);
    const std::string mutant = mutate(rng, spec, corpus(rng), {});
    try {
      parse(mutant);
      ++accepted;
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "undocumented " << typeid(e).name() << ": " << e.what()
                    << "\n" << mutant;
    }
  }
  return accepted;
}

TEST(FuzzParsers, SpecStringParsersRejectOnlyWithInvalidArgument) {
  // BDFs: whatever parses renders back to the same address.
  EXPECT_GT(fuzz_spec_parser(
                0xBDF, 5000,
                [](util::Rng& rng) {
                  return hw::fleet::bdf_from_ordinal(rng.uniform_index(5000))
                      .str();
                },
                [](const std::string& text) {
                  const hw::fleet::Bdf bdf = hw::fleet::parse_bdf("fuzz", text);
                  EXPECT_EQ(hw::fleet::parse_bdf("fuzz", bdf.str()), bdf);
                }),
            500u);

  // Chaos schedules: every accepted rule names a known site.
  const char* actions[] = {"crash", "tear", "bitflip", "delay"};
  EXPECT_GT(fuzz_spec_parser(
                0xC4A05, 5000,
                [&](util::Rng& rng) {
                  const auto& sites = exec::chaos_sites();
                  std::string spec;
                  for (std::size_t i = 1 + rng.uniform_index(3); i > 0; --i)
                    spec += std::string(actions[rng.uniform_index(4)]) + ":" +
                            sites[rng.uniform_index(sites.size())] + ":" +
                            std::to_string(1 + rng.uniform_index(9)) + ":" +
                            std::to_string(rng.uniform_index(64)) + ";";
                  return spec + "seed:" + std::to_string(rng.uniform_index(99));
                },
                [](const std::string& text) {
                  for (const exec::ChaosRule& rule :
                       exec::parse_chaos_spec(text).rules)
                    EXPECT_TRUE(exec::is_chaos_site(rule.site)) << rule.site;
                }),
            300u);

  // Fault specs: every accepted probability stays a probability.
  const char* keys[] = {"rate", "noise", "drift", "nan", "dropout", "seed"};
  EXPECT_GT(fuzz_spec_parser(
                0xFA417, 5000,
                [&](util::Rng& rng) {
                  std::string spec;
                  for (std::size_t i = 1 + rng.uniform_index(4); i > 0; --i) {
                    const std::size_t key = rng.uniform_index(6);
                    spec += std::string(spec.empty() ? "" : ",") + keys[key] +
                            (key < 4 ? "=0." : "=") +
                            std::to_string(rng.uniform_index(100));
                  }
                  return spec;
                },
                [](const std::string& text) {
                  const hw::FaultConfig config = hw::parse_fault_config(text);
                  EXPECT_TRUE(config.transient_failure_rate >= 0.0 &&
                              config.transient_failure_rate <= 1.0);
                  EXPECT_TRUE(config.nan_rate >= 0.0 && config.nan_rate <= 1.0);
                }),
            500u);
}

}  // namespace
