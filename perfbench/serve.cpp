// serve-loopback: one in-process ServeDaemon and up to four ServeClient
// sessions over the deterministic FakeNetwork, serving a fixed trained
// design (baseline a0, exits at ~1/3 and ~2/3 depth, default DVFS, entropy
// policy ladder) through the real SupervisorBridge. Sessions are long and
// back to back (rate 0) with session journals on, so the timed phase is
// net framing, journaling and ServeSupervisor::run. Session length is the
// input property that matters: the daemon re-serialises every request
// received so far on each acknowledged step, so cost grows quadratically.

#include <algorithm>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "core/hadas_engine.hpp"
#include "data/sample_stream.hpp"
#include "net/client.hpp"
#include "net/fake_socket.hpp"
#include "net/server.hpp"
#include "runtime/serve/bridge.hpp"
#include "runtime/serve/supervisor.hpp"
#include "runtime/serve/traffic.hpp"
#include "supernet/baselines.hpp"
#include "supernet/search_space.hpp"

namespace perfbench {
namespace {

using namespace hadas;

constexpr std::size_t kRequestsPerSession = 50000;
constexpr std::size_t kMaxSessions = 4;

/// Times ServeService::run_trace from outside: the decorator the daemon
/// calls instead of the SupervisorBridge it wraps.
class TimedService final : public runtime::serve::ServeService {
 public:
  explicit TimedService(const runtime::serve::ServeService& inner)
      : inner_(inner) {}
  std::size_t sample_count() const override { return inner_.sample_count(); }
  const std::string& fingerprint() const override { return inner_.fingerprint(); }
  std::string run_trace(
      const std::vector<runtime::serve::RemoteRequest>& requests) const override {
    LayerSpan span("serve.run_trace", seconds);
    requests_served += requests.size();
    return inner_.run_trace(requests);
  }

  mutable double seconds = 0.0;
  mutable std::size_t requests_served = 0;

 private:
  const runtime::serve::ServeService& inner_;
};

/// The served design and the serving stack over it, built in set-up.
struct Stack {
  std::unique_ptr<core::HadasEngine> engine;
  supernet::BackboneConfig backbone;
  std::unique_ptr<dynn::ExitPlacement> placement;
  hw::DvfsSetting setting;
  std::vector<std::unique_ptr<runtime::ExitPolicy>> ladder;
  std::unique_ptr<data::SampleStream> stream;
  std::unique_ptr<runtime::serve::ServeSupervisor> supervisor;
  std::unique_ptr<runtime::serve::SupervisorBridge> bridge;
};

Stack build_stack(std::uint64_t instance, double& nn_s) {
  Stack stack;
  core::HadasConfig config;
  config.data.train_size = 1500;  // hadasd's defaults
  config.bank.train.epochs = 8;
  stack.engine = std::make_unique<core::HadasEngine>(
      supernet::SearchSpace::attentive_nas(), hw::Target::kTx2PascalGpu, config);
  stack.backbone = supernet::baseline_a0();
  const dynn::ExitBank* bank = nullptr;
  const dynn::MultiExitCostTable* costs = nullptr;
  {
    LayerSpan span("nn.train", nn_s);
    bank = &stack.engine->exit_bank(stack.backbone);
    costs = &stack.engine->cost_table(stack.backbone);
  }
  const std::size_t layers = bank->total_layers();
  const std::size_t early = std::max(dynn::ExitPlacement::kFirstEligible, layers / 3);
  const std::size_t late = std::max(early + 1, 2 * layers / 3);
  stack.placement = std::make_unique<dynn::ExitPlacement>(
      layers, std::vector<std::size_t>{early, late});
  stack.setting = hw::default_setting(costs->evaluator().device());
  stack.ladder = runtime::serve::entropy_ladder(0.5, 0.15, 3);
  runtime::serve::ServeConfig serve_config;
  serve_config.exec.threads = 1;
  stack.stream =
      std::make_unique<data::SampleStream>(stack.engine->task(), 2000, 5 + instance);
  stack.supervisor = std::make_unique<runtime::serve::ServeSupervisor>(
      *bank, std::vector<runtime::serve::ServeLane>{{costs, stack.setting, {}}},
      serve_config);
  stack.bridge = std::make_unique<runtime::serve::SupervisorBridge>(
      *stack.supervisor, *stack.placement,
      runtime::serve::ladder_view(stack.ladder), *stack.stream,
      "perfbench-serve|a0|entropy:0.5");
  return stack;
}

/// Session `client`'s traffic. Lengths differ per session, so a report
/// delivered to the wrong session cannot pass the check.
runtime::serve::TrafficConfig traffic(std::uint64_t instance, std::size_t client) {
  runtime::serve::TrafficConfig config;
  config.requests = kRequestsPerSession + 1009 * client;
  config.arrival_rate_hz = 0.0;  // back to back
  config.seed = 0x5E21 + 64 * instance + client;
  return config;
}

/// Timings and counters of one loopback pass.
struct PassStats {
  double seconds = 0.0;
  double daemon_step_s = 0.0;
  double client_step_s = 0.0;
  std::size_t steps = 0;
  // Deltas of the program's net counters over the pass.
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_saves = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::vector<std::string> reports;
};

PassStats loopback_pass(const TimedService& service, std::size_t sessions,
                        std::uint64_t instance, const std::string& dir) {
  fresh_dir(dir);  // a stale journal would be resumed, not replayed
  PassStats stats;
  const std::uint64_t bytes0 = counter_value("net.bytes_journaled_total");
  const std::uint64_t saves0 = counter_value("net.journal_saves_total");
  const std::uint64_t sent0 = counter_value("net.frames_sent_total");
  const std::uint64_t received0 = counter_value("net.frames_received_total");
  const Clock::time_point t0 = Clock::now();
  auto network = std::make_shared<net::FakeNetwork>();
  net::FakeSocketHandler handler(network);
  net::DaemonConfig daemon_config;
  daemon_config.listen = {"loopback", 1};
  daemon_config.state_dir = dir;
  net::ServeDaemon daemon(handler, service, daemon_config);
  daemon.start();
  std::vector<std::unique_ptr<net::ServeClient>> clients;
  for (std::size_t i = 0; i < sessions; ++i) {
    net::ClientConfig config;
    config.connect = {"loopback", 1};
    config.session_id = std::to_string(i);
    config.state_path = dir + "/client-" + config.session_id + ".json";
    config.traffic = traffic(instance, i);
    clients.push_back(std::make_unique<net::ServeClient>(handler, config));
  }
  // Deterministic cooperative interleaving, as hadasd --loopback drives it.
  bool done = false;
  while (!done) {
    done = true;
    for (auto& client : clients) {
      if (client->done()) continue;
      LayerSpan span("net.client_step", stats.client_step_s);
      client->step();
      ++stats.steps;
      done = done && client->done();
    }
    LayerSpan span("net.daemon_step", stats.daemon_step_s);
    daemon.step();
    ++stats.steps;
  }
  stats.seconds = seconds_since(t0);
  stats.journal_bytes = counter_value("net.bytes_journaled_total") - bytes0;
  stats.journal_saves = counter_value("net.journal_saves_total") - saves0;
  stats.frames_sent = counter_value("net.frames_sent_total") - sent0;
  stats.frames_received = counter_value("net.frames_received_total") - received0;
  for (auto& client : clients) stats.reports.push_back(client->report());
  return stats;
}

double served_design_hv(const Stack& stack) {
  const core::InnerSolution sol = stack.engine->evaluate_dynamic(
      stack.backbone, *stack.placement, stack.setting);
  return sol.metrics.energy_gain * sol.metrics.oracle_accuracy;
}

}  // namespace

void run_serve_loopback(const Options& options, const Json* section,
                        Outcome& out) {
  const Json* reference = reference_for(section, options.instance());
  const std::size_t sessions = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, kMaxSessions);
  const std::string dir = options.scratch_dir + "/journals";
  std::vector<double> setup_s;
  double nn_s = 0.0;
  auto setup = [&] {
    const Clock::time_point t0 = Clock::now();
    Stack stack = build_stack(options.instance(), nn_s);
    setup_s.push_back(seconds_since(t0));
    return stack;
  };

  Recorder& recorder = Recorder::global();
  recorder.set_on(options.trace);
  Stack stack;
  for (int k = 0; k < (options.trace || options.record ? 1 : 3); ++k) {
    rotate_cpu(static_cast<std::size_t>(k));
    stack = setup();  // repeated for a steadier set-up median
  }
  recorder.set_on(false);
  const TimedService service(*stack.bridge);

  // The reports an in-process ServeSupervisor::run gives for the same
  // traces: every session's report must match them byte for byte.
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < sessions; ++i) {
    const runtime::serve::ServeReport report = stack.supervisor->run(
        *stack.placement, runtime::serve::ladder_view(stack.ladder),
        runtime::serve::poisson_trace(*stack.stream, traffic(options.instance(), i)));
    expected.push_back(report.to_json().dump(2) + "\n");
  }
  const double hv = served_design_hv(stack);

  std::size_t requests = 0;
  for (std::size_t i = 0; i < sessions; ++i)
    requests += traffic(options.instance(), i).requests;
  Json first;
  // Runs and checks one pass; returns it with the requests whose session
  // report checked out.
  auto measured_pass = [&](std::size_t& served) {
    PassStats pass = loopback_pass(service, sessions, options.instance(), dir);
    Json::Array reports;
    served = 0;
    for (std::size_t i = 0; i < sessions; ++i) {
      Fingerprint fp;
      for (char c : pass.reports[i]) fp.mix(static_cast<unsigned char>(c));
      reports.push_back(Json(fp.hex()));
      const bool ok = pass.reports[i] == expected[i];
      served += ok ? traffic(options.instance(), i).requests : 0;
      out.operation(ok, "session " + std::to_string(i) +
                            " report differs from the in-process run");
    }
    Json work;
    work["reports"] = Json(reports);
    work["front_hv"] = exact(hv);
    work["requests"] = requests;
    work["steps"] = pass.steps;
    work["journal_bytes"] = pass.journal_bytes;
    if (first.is_null()) first = work;
    // A session count that follows nproc changes the work; reference.json
    // holds the four-session record.
    const bool matches = reference == nullptr || sessions != kMaxSessions ||
                         work == *reference;
    out.operation(work == first && matches,
                  "loopback work record differs: " + work.dump());
    out.work = work;
    return pass;
  };

  std::size_t served = 0;
  if (options.record) {
    measured_pass(served);
    return;
  }

  if (!options.trace) {
    std::vector<double> run_s, served_per_s;
    while (another_fits(run_s, options.seconds)) {
      rotate_cpu(run_s.size());
      const PassStats pass = measured_pass(served);
      run_s.push_back(pass.seconds);
      served_per_s.push_back(static_cast<double>(served) / pass.seconds);
    }
    out.metric("setup_s", median(setup_s), "s");
    out.metric("run_s", median(run_s), "s");
    out.metric("front_hv", hv, "hv");
    out.metric("requests_per_s", median(served_per_s), "1/s");
    out.detail["sessions"] = sessions;
    out.detail["run_s_samples"] = Json(Json::Array(run_s.begin(), run_s.end()));
    out.detail["setup_s_samples"] =
        Json(Json::Array(setup_s.begin(), setup_s.end()));
    return;
  }

  // --- Traced run: untraced and traced passes alternate (kTracedPairs
  // each, medians). The program's own trace sink is on in the traced passes;
  // its events are counted, not kept (one simulated-clock span per
  // request). ---
  std::vector<double> untraced, traced, run_trace_s, daemon_s, client_s;
  PassStats pass;
  for (int k = 0; k < kTracedPairs; ++k) {
    rotate_cpu(static_cast<std::size_t>(k));
    untraced.push_back(measured_pass(served).seconds);
    service.seconds = 0.0;
    service.requests_served = 0;
    double seconds = 0.0;
    recorder.set_on(true);
    recorder.with_program_spans(
        [&] {
          LayerSpan span("loopback.pass", seconds);
          pass = measured_pass(served);
        },
        /*keep=*/false);
    recorder.set_on(false);
    traced.push_back(seconds);
    run_trace_s.push_back(service.seconds);
    daemon_s.push_back(pass.daemon_step_s - service.seconds);
    client_s.push_back(pass.client_step_s);
  }
  const double untraced_s = median(untraced);
  const double traced_s = median(traced);
  const Json trace = recorder.to_json();
  const core::HadasConfig& config = stack.engine->config();
  const NnWork nn = nn_work(
      {static_cast<std::size_t>(stack.backbone.total_layers())}, config.data,
      config.bank);

  out.metric("nn.train_s", nn_s, "s");
  out.metric("nn.heads_trained", static_cast<double>(nn.heads), "count");
  out.metric("nn.sgd_steps", static_cast<double>(nn.sgd_steps), "count");
  out.metric("nn.gemm_gflop", nn.gemm_flop * 1e-9, "GFLOP");
  out.metric("nn.gflop_per_s", nn.gemm_flop * 1e-9 / nn_s, "GFLOP/s");
  out.metric("serve.run_trace_s", median(run_trace_s), "s");
  out.metric("serve.requests", static_cast<double>(service.requests_served), "count");
  out.metric("net.daemon_step_s", median(daemon_s), "s");
  out.metric("net.client_step_s", median(client_s), "s");
  out.metric("net.steps", static_cast<double>(pass.steps), "count");
  out.metric("net.frames_sent", static_cast<double>(pass.frames_sent), "count");
  out.metric("net.frames_received", static_cast<double>(pass.frames_received),
             "count");
  out.metric("net.journal_bytes", static_cast<double>(pass.journal_bytes), "B");
  out.metric("net.journal_bytes_per_request",
             static_cast<double>(pass.journal_bytes) / static_cast<double>(requests),
             "B");
  out.metric("net.journal_saves", static_cast<double>(pass.journal_saves), "count");
  out.metric("core.unattributed_s",
             untraced_s - median(run_trace_s) - median(daemon_s) - median(client_s),
             "s");
  out.metric("obs.trace_overhead_ratio", traced_s / untraced_s - 1.0, "ratio");
  out.metric("obs.trace_events", static_cast<double>(recorder.size()), "count");

  out.detail["run_s_untraced"] = Json(Json::Array(untraced.begin(), untraced.end()));
  out.detail["run_s_traced"] = Json(Json::Array(traced.begin(), traced.end()));
  out.detail["sessions"] = sessions;
  out.detail["breakdown"] = span_breakdown(trace);
  write_trace(trace, options);
}

}  // namespace perfbench
