// Partition-tolerant multi-host island search: the dist layer riding the
// resumable net transport. Every scenario byte-compares the merged Pareto
// front against the inline (single-process, no-network) reference — the
// whole point of the durable-artifact protocol is that kills, severs and
// partitions change nothing about the result.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/island.hpp"
#include "dist/net_transport.hpp"
#include "dist/worker.hpp"
#include "net/backed_stream.hpp"
#include "net/fake_socket.hpp"
#include "net/frame.hpp"
#include "net/session.hpp"
#include "util/durable/durable_file.hpp"
#include "util/strutil.hpp"

namespace {

using hadas::dist::DistCoordinator;
using hadas::dist::DistOptions;
using hadas::dist::DistReport;
using hadas::dist::DistSpec;
using hadas::dist::NetTransport;
using hadas::dist::NetWorker;
using hadas::dist::NetWorkerConfig;

// The chaos-tier search problem: small enough to run many times in one test
// binary, large enough to produce real migration rounds (4 generations at
// migration_every=2 -> 2 rounds per island).
DistSpec tiny_spec(std::size_t islands) {
  DistSpec spec;
  spec.device = "tx2-gpu";
  spec.space = "attentive";
  spec.outer_population = 8;
  spec.outer_generations = 4;
  spec.ioe_backbones_per_generation = 1;
  spec.ioe_population = 8;
  spec.ioe_generations = 4;
  spec.seed = 2023;
  spec.train_size = 200;
  spec.epochs = 2;
  spec.islands = islands;
  spec.migration_every = 2;
  spec.migrants = 2;
  return spec;
}

std::string tmp_dir(const std::string& name) {
  // Per-process suffix: ctest -j runs each DistNet test as its own process,
  // and two of them must not race on a shared scratch directory.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("hadas_dist_net_" + std::to_string(::getpid()) + "_" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// The uninterrupted inline reference front for K islands, computed once per
// test binary (it is itself a full search).
const std::string& reference_front(std::size_t islands) {
  static std::map<std::size_t, std::string> cache;
  auto it = cache.find(islands);
  if (it == cache.end()) {
    DistOptions options;
    options.spawn = false;
    options.log = [](const std::string&) {};
    DistCoordinator coordinator(tiny_spec(islands),
                                tmp_dir("ref_k" + std::to_string(islands)),
                                options);
    DistReport report = coordinator.run();
    it = cache.emplace(islands, report.merged.dump(2)).first;
  }
  return it->second;
}

// One cooperative single-threaded deployment: a NetTransport coordinator and
// K NetWorkers over a shared FakeNetwork (optionally behind a
// FlakySocketHandler). Tests kill endpoints by destroying and recreating
// them — the durable journals and state directories survive in `dir`.
struct Fleet {
  std::shared_ptr<hadas::net::FakeNetwork> network =
      std::make_shared<hadas::net::FakeNetwork>();
  hadas::net::FakeSocketHandler fake{network};
  std::optional<hadas::net::FlakySocketHandler> flaky;
  hadas::net::SocketHandler* handler = &fake;
  std::string dir;
  DistSpec spec;
  DistOptions options;
  DistReport report;
  std::unique_ptr<NetTransport> coordinator;
  std::vector<std::unique_ptr<NetWorker>> workers;

  Fleet(const std::string& name, std::size_t islands, std::size_t severs = 0) {
    dir = tmp_dir(name);
    spec = tiny_spec(islands);
    if (severs > 0) {
      hadas::net::FlakyConfig config;
      config.severs = severs;
      flaky.emplace(fake, config);
      handler = &*flaky;
    }
    options.listen = hadas::util::HostPort{"coord", 7314};
    options.socket_handler = handler;
    options.heartbeat_ms = 60000;  // watchdog armed per-test, not by default
    options.poll_ms = 1;
    options.log = [](const std::string&) {};
    respawn_coordinator();
    for (std::size_t i = 0; i < islands; ++i)
      workers.push_back(make_worker(i));
  }

  // "Coordinator killed": the old instance (listener, connections, memory)
  // is destroyed; the new one has only the workdir journals.
  void respawn_coordinator() {
    coordinator.reset();
    coordinator = std::make_unique<NetTransport>(spec, dir + "/coord", options,
                                                 [](const std::string&) {});
    coordinator->start();
  }

  std::unique_ptr<NetWorker> make_worker(std::size_t island) {
    NetWorkerConfig config;
    config.connect = *options.listen;
    config.island = island;
    config.state_dir = dir + "/worker" + std::to_string(island);
    config.beat_every_ms = 0;  // heartbeat on every step/generation
    return std::make_unique<NetWorker>(handler, config);
  }

  // One pass over every endpoint. True when the run is complete.
  bool tick() {
    coordinator->step(report);
    for (auto& worker : workers)
      if (worker && !worker->done()) worker->step();
    if (!coordinator->finished()) return false;
    for (auto& worker : workers)
      if (worker && !worker->done()) return false;
    return true;
  }

  bool drive(int max_ticks = 200000,
             const std::function<void(int)>& hook = {}) {
    for (int index = 0; index < max_ticks; ++index) {
      if (hook) hook(index);
      if (tick()) return true;
    }
    return false;
  }

  std::string merged() {
    return hadas::dist::merge_islands(spec, dir + "/coord").dump(2);
  }
};

}  // namespace

// --- Protocol units -------------------------------------------------------

TEST(DistNet, SessionIdRoundTrip) {
  EXPECT_EQ(hadas::dist::dist_session_id(0), "island-0");
  EXPECT_EQ(hadas::dist::dist_session_id(17), "island-17");
  EXPECT_EQ(hadas::dist::parse_dist_session_id("island-3"), 3u);
  EXPECT_EQ(hadas::dist::parse_dist_session_id("island-"), std::nullopt);
  EXPECT_EQ(hadas::dist::parse_dist_session_id("island-x"), std::nullopt);
  EXPECT_EQ(hadas::dist::parse_dist_session_id("sess-1"), std::nullopt);
  EXPECT_EQ(hadas::dist::parse_dist_session_id(""), std::nullopt);
}

TEST(DistNet, SpecFingerprintIsStableAndSensitive) {
  const std::string a = hadas::dist::spec_fingerprint(tiny_spec(2));
  const std::string b = hadas::dist::spec_fingerprint(tiny_spec(2));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.rfind("spec-", 0), 0u);
  DistSpec other = tiny_spec(2);
  other.seed = 9999;
  EXPECT_NE(a, hadas::dist::spec_fingerprint(other));
  EXPECT_NE(a, hadas::dist::spec_fingerprint(tiny_spec(4)));
}

TEST(DistNet, ChunkedBlobRoundTrip) {
  // A blob over twice the chunk cap must arrive as a contiguous chunk run
  // that reassembles byte-exactly.
  std::string text;
  for (std::size_t i = 0; text.size() < 2 * hadas::dist::kDistChunkBytes + 777;
       ++i)
    text += "migrant payload line " + std::to_string(i) + "\n";
  hadas::net::BackedWriter writer;
  hadas::dist::append_blob(writer, hadas::net::FrameType::kDistMigrants, 3, 1,
                           text);
  std::string buffer{writer.unacked()};
  std::string reassembled;
  std::size_t chunks = 0;
  bool saw_last = false;
  while (auto peeked = hadas::net::peek_frame(buffer)) {
    const hadas::dist::DistChunk chunk =
        hadas::dist::parse_dist_chunk(peeked->frame);
    EXPECT_EQ(chunk.type, hadas::net::FrameType::kDistMigrants);
    EXPECT_EQ(chunk.island, 3u);
    EXPECT_EQ(chunk.round, 1u);
    EXPECT_EQ(hadas::dist::dist_chunk_key(chunk), "m:3:1");
    EXPECT_FALSE(saw_last) << "chunk after the last-flagged chunk";
    saw_last = chunk.last;
    reassembled += chunk.bytes;
    ++chunks;
    buffer.erase(0, peeked->encoded_size);
  }
  EXPECT_TRUE(saw_last);
  EXPECT_EQ(chunks, 3u);
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(reassembled, text);

  hadas::dist::DistChunk final_chunk;
  final_chunk.type = hadas::net::FrameType::kDistFinal;
  final_chunk.island = 2;
  EXPECT_EQ(hadas::dist::dist_chunk_key(final_chunk), "f:2");
}

TEST(DistNet, ParseDistChunkRejectsMalformed) {
  hadas::net::Frame frame;
  frame.type = hadas::net::FrameType::kDistMigrants;
  frame.payload = "short";
  EXPECT_THROW(hadas::dist::parse_dist_chunk(frame), hadas::net::ProtocolError);
}

TEST(DistNet, SessionJournalRoundTrip) {
  const std::string dir = tmp_dir("journal");
  const std::string path = hadas::dist::dist_session_path(dir, 1);
  hadas::net::SessionState state;
  state.session_id = hadas::dist::dist_session_id(1);
  state.fingerprint = hadas::dist::spec_fingerprint(tiny_spec(2));
  state.write_acked = 42;
  state.write_unacked = "tail";
  state.read_seq = 17;
  state.app["pushed"] = hadas::util::Json(hadas::util::Json::Array{});
  hadas::net::save_session_state(path, state,
                                 hadas::dist::kDistSessionFormatTag);
  const auto loaded = hadas::net::load_session_state(
      path, hadas::dist::kDistSessionFormatTag);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->session_id, "island-1");
  EXPECT_EQ(loaded->fingerprint, state.fingerprint);
  EXPECT_EQ(loaded->write_acked, 42u);
  EXPECT_EQ(loaded->write_unacked, "tail");
  EXPECT_EQ(loaded->read_seq, 17u);
  EXPECT_TRUE(loaded->app.contains("pushed"));
  // A dist-net journal is not a serve-session journal: the wrong format tag
  // must fail envelope triage, not silently parse.
  EXPECT_THROW(
      hadas::net::load_session_state(path, hadas::net::kSessionFormatTag),
      hadas::util::durable::CheckpointCorruptError);
}

// --- Loopback end-to-end --------------------------------------------------

TEST(DistNet, LoopbackMatchesInlineReference) {
  for (const std::size_t islands : {std::size_t{1}, std::size_t{2}}) {
    Fleet fleet("loopback_k" + std::to_string(islands), islands);
    ASSERT_TRUE(fleet.drive()) << "K=" << islands << " did not converge";
    EXPECT_EQ(fleet.merged(), reference_front(islands)) << "K=" << islands;
    for (auto& worker : fleet.workers) EXPECT_TRUE(worker->done());
  }
}

TEST(DistNet, LoopbackMatchesInlineReferenceK4) {
  Fleet fleet("loopback_k4", 4);
  ASSERT_TRUE(fleet.drive());
  EXPECT_EQ(fleet.merged(), reference_front(4));
}

TEST(DistNet, WorkerKilledMidRunResumes) {
  const auto resumed_before =
      hadas::dist::dist_net_metrics().sessions_resumed.value();
  Fleet fleet("worker_kill", 2);
  // Kill worker 0 twice at early ticks (mid-upload / between rounds); each
  // respawn has nothing but its state directory and session journal.
  ASSERT_TRUE(fleet.drive(200000, [&](int tick) {
    if (tick == 2 || tick == 4) fleet.workers[0].reset();
    if (tick == 3 || tick == 5) fleet.workers[0] = fleet.make_worker(0);
  }));
  EXPECT_EQ(fleet.merged(), reference_front(2));
  EXPECT_GE(hadas::dist::dist_net_metrics().sessions_resumed.value(),
            resumed_before);
}

TEST(DistNet, LinkSeveredMidFrameResumes) {
  Fleet fleet("flaky_k2", 2, /*severs=*/6);
  ASSERT_TRUE(fleet.drive());
  EXPECT_GT(fleet.flaky->severed(), 0u);
  EXPECT_EQ(fleet.merged(), reference_front(2));
}

TEST(DistNet, CoordinatorKilledAndRestartedResumes) {
  Fleet fleet("coord_kill", 2);
  ASSERT_TRUE(fleet.drive(200000, [&](int tick) {
    // Mid-handshake and mid-exchange kills; the replacement has only the
    // workdir (artifacts + per-island session journals).
    if (tick == 2 || tick == 6) fleet.respawn_coordinator();
  }));
  EXPECT_EQ(fleet.merged(), reference_front(2));
}

TEST(DistNet, PartitionedIslandQuarantinedAndSalvaged) {
  Fleet fleet("partition", 2);
  fleet.options.heartbeat_ms = 40;
  // Island 1's worker never shows up at all: a permanent partition. The
  // healthy island 0 worker beats every tick, so only island 1 trips the
  // breaker; the coordinator must salvage island 1 inline (its migrants
  // unblock worker 0) and still converge byte-identically.
  fleet.workers[1].reset();
  ASSERT_TRUE(fleet.drive());
  EXPECT_EQ(fleet.coordinator->quarantined_count(), 1u);
  EXPECT_GE(fleet.report.workers_quarantined, 1u);
  EXPECT_TRUE(fleet.workers[0]->done());
  EXPECT_EQ(fleet.merged(), reference_front(2));

  // A worker dialing in for the quarantined island is refused.
  auto late = fleet.make_worker(1);
  bool refused = false;
  for (int i = 0; i < 50 && !refused; ++i) {
    fleet.coordinator->step(fleet.report);
    try {
      late->step();
    } catch (const hadas::net::ProtocolError& error) {
      refused = true;
      EXPECT_NE(std::string(error.what()).find("refused"), std::string::npos);
    }
  }
  EXPECT_TRUE(refused);
}

TEST(DistNet, SpecFingerprintMismatchRefused) {
  Fleet fleet("fingerprint", 2);
  // Let the handshakes land and the journals record the original spec.
  fleet.drive(3);
  ASSERT_TRUE(fleet.workers[0]->spec_received());
  // Coordinator comes back under a different search spec over the same
  // workdir: resuming would corrupt the merged front, so it must refuse.
  fleet.spec.seed = 9999;
  fleet.respawn_coordinator();
  bool refused = false;
  for (int i = 0; i < 50 && !refused; ++i) {
    fleet.coordinator->step(fleet.report);
    try {
      fleet.workers[0]->step();
    } catch (const hadas::net::ProtocolError&) {
      refused = true;
    }
  }
  EXPECT_TRUE(refused);
}

TEST(DistNet, ConcurrentFlakySessions) {
  // Satellite: four sessions multiplexed through ONE flaky handler, so the
  // sever schedule interleaves across islands mid-exchange.
  Fleet fleet("flaky_k4", 4, /*severs=*/12);
  ASSERT_TRUE(fleet.drive());
  EXPECT_GT(fleet.flaky->severed(), 0u);
  EXPECT_EQ(fleet.merged(), reference_front(4));
}

TEST(DistNet, ThreadedRunOverFakeNetwork) {
  // The TSan target: DistCoordinator::run() (net mode) on the main thread,
  // blocking NetWorker::run() loops on their own threads, all over the
  // thread-safe FakeNetwork.
  auto network = std::make_shared<hadas::net::FakeNetwork>();
  hadas::net::FakeSocketHandler handler(network);
  const std::string dir = tmp_dir("threaded");
  const DistSpec spec = tiny_spec(2);
  DistOptions options;
  options.listen = hadas::util::HostPort{"coord", 7460};
  options.socket_handler = &handler;
  options.poll_ms = 1;
  options.heartbeat_ms = 60000;
  options.log = [](const std::string&) {};
  std::vector<std::thread> threads;
  std::vector<int> exit_codes(spec.islands, -1);
  for (std::size_t island = 0; island < spec.islands; ++island)
    threads.emplace_back([&, island] {
      // A throw escaping a std::thread would abort the whole binary; fail
      // this test instead.
      try {
        // Dial only once run() is listening: it binds after writing the
        // spec, and workers dialing before that could use up
        // max_connect_attempts on a loaded host.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::minutes(2);
        while (!network->listening(*options.listen)) {
          if (std::chrono::steady_clock::now() > deadline) {
            ADD_FAILURE() << "island " << island
                          << ": the coordinator never started listening";
            return;
          }
          network->wait(10);
        }
        NetWorkerConfig config;
        config.connect = *options.listen;
        config.island = island;
        config.state_dir = dir + "/worker" + std::to_string(island);
        config.reconnect_backoff_ms = 1;
        exit_codes[island] = hadas::dist::run_net_worker(&handler, config);
      } catch (const std::exception& error) {
        ADD_FAILURE() << "island " << island << " worker threw: "
                      << error.what();
      }
    });
  DistCoordinator coordinator(spec, dir + "/coord", options);
  const DistReport report = coordinator.run();
  for (auto& thread : threads) thread.join();
  for (const int code : exit_codes)
    EXPECT_EQ(code, hadas::dist::kWorkerExitDone);
  EXPECT_EQ(report.merged.dump(2), reference_front(2));
}
