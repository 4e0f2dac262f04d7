#include "runtime/serve/journal.hpp"

#include <cmath>

namespace hadas::runtime::serve {

using hadas::util::Json;
using hadas::util::durable::CheckpointChain;
using hadas::util::durable::CheckpointCorruptError;
using hadas::util::durable::CorruptStage;

namespace {

Json to_json(const hw::HealthReport& report) {
  Json json;
  json["state"] = Json(static_cast<int>(report.state));
  json["dropped_out"] = Json(report.dropped_out);
  json["measurements"] = Json(report.measurements);
  json["attempts"] = Json(report.attempts);
  json["retries"] = Json(report.retries);
  json["transient_failures"] = Json(report.transient_failures);
  json["quarantined"] = Json(report.quarantined);
  json["outliers_rejected"] = Json(report.outliers_rejected);
  json["failed_measurements"] = Json(report.failed_measurements);
  json["breaker_trips"] = Json(report.breaker_trips);
  json["backoff_s"] = Json(report.backoff_s);
  json["sim_time_s"] = Json(report.sim_time_s);
  return json;
}

hw::HealthReport health_report_from_json(const Json& json) {
  hw::HealthReport report;
  const int state = static_cast<int>(json.at("state").as_int());
  if (state < 0 || state > 2)
    throw std::invalid_argument("journal: breaker state out of range");
  report.state = static_cast<hw::BreakerState>(state);
  report.dropped_out = json.at("dropped_out").as_bool();
  report.measurements = json.at("measurements").as_index();
  report.attempts = json.at("attempts").as_index();
  report.retries = json.at("retries").as_index();
  report.transient_failures = json.at("transient_failures").as_index();
  report.quarantined = json.at("quarantined").as_index();
  report.outliers_rejected = json.at("outliers_rejected").as_index();
  report.failed_measurements = json.at("failed_measurements").as_index();
  report.breaker_trips = json.at("breaker_trips").as_index();
  report.backoff_s = json.at("backoff_s").as_number();
  report.sim_time_s = json.at("sim_time_s").as_number();
  return report;
}

Json to_json(const LaneSnapshot& lane) {
  Json json;
  json["alive"] = Json(lane.alive);
  json["served"] = Json(lane.served);
  json["clock_s"] = Json(lane.clock_s);
  json["last_event_s"] = Json(lane.last_event_s);
  json["peak_temperature_c"] = Json(lane.peak_temperature_c);
  Json health;
  health["report"] = to_json(lane.health.report);
  health["consecutive_failures"] = Json(lane.health.consecutive_failures);
  health["half_open_successes"] = Json(lane.health.half_open_successes);
  health["open_until_s"] = Json(lane.health.open_until_s);
  json["health"] = std::move(health);
  Json thermal;
  thermal["temperature_c"] = Json(lane.thermal.temperature_c);
  thermal["throttled"] = Json(lane.thermal.throttled);
  thermal["throttle_events"] = Json(lane.thermal.throttle_events);
  json["thermal"] = std::move(thermal);
  Json injector;
  injector["attempts"] = Json(lane.injector.attempts);
  injector["dropped_out"] = Json(lane.injector.dropped_out);
  json["injector"] = std::move(injector);
  return json;
}

LaneSnapshot lane_from_json(const Json& json) {
  LaneSnapshot lane;
  lane.alive = json.at("alive").as_bool();
  lane.served = json.at("served").as_index();
  lane.clock_s = json.at("clock_s").as_number();
  lane.last_event_s = json.at("last_event_s").as_number();
  lane.peak_temperature_c = json.at("peak_temperature_c").as_number();
  const Json& health = json.at("health");
  lane.health.report = health_report_from_json(health.at("report"));
  lane.health.consecutive_failures =
      health.at("consecutive_failures").as_index();
  lane.health.half_open_successes =
      health.at("half_open_successes").as_index();
  lane.health.open_until_s = health.at("open_until_s").as_number();
  const Json& thermal = json.at("thermal");
  lane.thermal.temperature_c = thermal.at("temperature_c").as_number();
  lane.thermal.throttled = thermal.at("throttled").as_bool();
  lane.thermal.throttle_events = thermal.at("throttle_events").as_index();
  const Json& injector = json.at("injector");
  lane.injector.attempts = injector.at("attempts").as_index();
  lane.injector.dropped_out = injector.at("dropped_out").as_bool();
  return lane;
}

}  // namespace

Json to_json(const ServeJournalSnapshot& snapshot) {
  Json json;
  json["format"] = Json(std::string(kServeJournalFormatTag));
  json["fingerprint"] = Json(snapshot.fingerprint);
  json["next_index"] = Json(snapshot.next_index);
  json["offered"] = Json(snapshot.offered);
  json["admitted"] = Json(snapshot.admitted);
  json["shed"] = Json(snapshot.shed);
  json["shed_no_device"] = Json(snapshot.shed_no_device);
  json["max_queue_depth"] = Json(snapshot.max_queue_depth);
  json["watchdog_fallbacks"] = Json(snapshot.watchdog_fallbacks);
  json["transient_faults"] = Json(snapshot.transient_faults);
  json["nan_faults"] = Json(snapshot.nan_faults);
  json["overruns"] = Json(snapshot.overruns);
  json["failovers"] = Json(snapshot.failovers);
  json["devices_lost"] = Json(snapshot.devices_lost);
  json["degraded_entries"] = Json(snapshot.degraded_entries);
  json["critical_entries"] = Json(snapshot.critical_entries);
  json["requests_degraded"] = Json(snapshot.requests_degraded);
  json["makespan_s"] = Json(snapshot.makespan_s);
  json["deployment_samples"] = Json(snapshot.deployment_samples);
  Json::Array histogram;
  for (const auto& [layer, count] : snapshot.exit_histogram) {
    Json bin;
    bin["layer"] = Json(layer);
    bin["count"] = Json(count);
    histogram.push_back(std::move(bin));
  }
  json["exit_histogram"] = Json(std::move(histogram));
  json["correct"] = Json(snapshot.correct);
  json["energy_sum_j"] = Json(snapshot.energy_sum_j);
  json["latency_sum_s"] = Json(snapshot.latency_sum_s);
  Json slo;
  Json::Array latencies;
  for (double v : snapshot.slo.latencies) latencies.push_back(Json(v));
  slo["latencies"] = Json(std::move(latencies));
  slo["wait_sum_s"] = Json(snapshot.slo.wait_sum_s);
  slo["misses"] = Json(snapshot.slo.misses);
  json["slo"] = std::move(slo);
  json["mode"] = Json(snapshot.mode);
  json["incident_ema"] = Json(snapshot.incident_ema);
  json["dwell"] = Json(snapshot.dwell);
  Json::Array outstanding;
  for (double v : snapshot.outstanding) outstanding.push_back(Json(v));
  json["outstanding"] = Json(std::move(outstanding));
  json["busy_until_s"] = Json(snapshot.busy_until_s);
  Json::Array lanes;
  for (const LaneSnapshot& lane : snapshot.lanes)
    lanes.push_back(to_json(lane));
  json["lanes"] = Json(std::move(lanes));
  return json;
}

ServeJournalSnapshot journal_snapshot_from_json(const Json& json) {
  if (!json.contains("format") ||
      json.at("format").as_string() != kServeJournalFormatTag)
    throw std::invalid_argument("journal_snapshot_from_json: unknown format");
  ServeJournalSnapshot snapshot;
  snapshot.fingerprint = json.at("fingerprint").as_string();
  snapshot.next_index = json.at("next_index").as_index();
  snapshot.offered = json.at("offered").as_index();
  snapshot.admitted = json.at("admitted").as_index();
  snapshot.shed = json.at("shed").as_index();
  snapshot.shed_no_device = json.at("shed_no_device").as_index();
  snapshot.max_queue_depth = json.at("max_queue_depth").as_index();
  snapshot.watchdog_fallbacks = json.at("watchdog_fallbacks").as_index();
  snapshot.transient_faults = json.at("transient_faults").as_index();
  snapshot.nan_faults = json.at("nan_faults").as_index();
  snapshot.overruns = json.at("overruns").as_index();
  snapshot.failovers = json.at("failovers").as_index();
  snapshot.devices_lost = json.at("devices_lost").as_index();
  snapshot.degraded_entries = json.at("degraded_entries").as_index();
  snapshot.critical_entries = json.at("critical_entries").as_index();
  snapshot.requests_degraded = json.at("requests_degraded").as_index();
  snapshot.makespan_s = json.at("makespan_s").as_number();
  snapshot.deployment_samples = json.at("deployment_samples").as_index();
  for (const Json& bin : json.at("exit_histogram").as_array())
    snapshot.exit_histogram[bin.at("layer").as_index()] =
        bin.at("count").as_index();
  snapshot.correct = json.at("correct").as_index();
  snapshot.energy_sum_j = json.at("energy_sum_j").as_number();
  snapshot.latency_sum_s = json.at("latency_sum_s").as_number();
  const Json& slo = json.at("slo");
  for (const Json& v : slo.at("latencies").as_array())
    snapshot.slo.latencies.push_back(v.as_number());
  snapshot.slo.wait_sum_s = slo.at("wait_sum_s").as_number();
  snapshot.slo.misses = slo.at("misses").as_index();
  snapshot.mode = static_cast<int>(json.at("mode").as_int());
  if (snapshot.mode < 0 || snapshot.mode > 2)
    throw std::invalid_argument("journal: serve mode out of range");
  snapshot.incident_ema = json.at("incident_ema").as_number();
  snapshot.dwell = json.at("dwell").as_index();
  for (const Json& v : json.at("outstanding").as_array())
    snapshot.outstanding.push_back(v.as_number());
  snapshot.busy_until_s = json.at("busy_until_s").as_number();
  for (const Json& lane : json.at("lanes").as_array())
    snapshot.lanes.push_back(lane_from_json(lane));
  // Invariants: every accumulated double must still be finite.
  for (double v :
       {snapshot.makespan_s, snapshot.energy_sum_j, snapshot.latency_sum_s,
        snapshot.incident_ema, snapshot.busy_until_s})
    if (!std::isfinite(v))
      throw CheckpointCorruptError("", 0, CorruptStage::kInvariant,
                                   "journal accumulator is not finite");
  return snapshot;
}

ServeJournalSnapshot journal_snapshot_from_payload(const std::string& payload,
                                                   const std::string& file) {
  return hadas::util::durable::decode_payload(file, CorruptStage::kParse, [&] {
    return journal_snapshot_from_json(Json::parse(payload));
  });
}

void save_journal(const CheckpointChain& chain,
                  const ServeJournalSnapshot& snapshot) {
  chain.save(kServeJournalFormatTag, to_json(snapshot).dump(2) + "\n");
}

std::optional<LoadedJournal> load_journal(
    const CheckpointChain& chain,
    const std::function<void(const std::string& warning)>& warn) {
  std::optional<ServeJournalSnapshot> parsed;
  const auto loaded = chain.load_newest_valid(
      kServeJournalFormatTag,
      [&parsed](const std::string& payload) {
        parsed = journal_snapshot_from_payload(payload, "");
      },
      warn);
  if (!loaded) return std::nullopt;
  return LoadedJournal{std::move(*parsed), loaded->file, loaded->skipped};
}

}  // namespace hadas::runtime::serve
