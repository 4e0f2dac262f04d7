// perfbench driver: runs one workload of the repository benchmark and
// prints, as its last stdout line, one JSON object with the keys correct,
// attempted, failed and metrics.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --reference F --work-dir D [--record 1]
//                    [--git-commit C] [--source-hash H]
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1 is a
// separate run that reports the per-layer metrics from a traced run plus a
// replay of its layer calls. --record 1 prints one repetition's exact work
// record instead (how reference.json is made). run.py builds this binary
// and is the entry point.

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Host and build fingerprint: results from different host classes (for
/// example 1-core and 4-core runners) must never be compared as if they
/// came from the same machine.
Json host_fingerprint(const std::map<std::string, std::string>& args) {
  Json fp;
  fp["nproc"] = static_cast<std::size_t>(std::thread::hardware_concurrency());
  fp["cpu_model"] = cpu_model();
  fp["compiler"] = compiler();
  fp["build_type"] = PERFBENCH_BUILD_TYPE;
  fp["git_commit"] = args.count("git-commit") ? args.at("git-commit") : "unknown";
  fp["source_hash"] = args.count("source-hash") ? args.at("source-hash") : "unknown";
  fp["input_spec"] = kInputSpec;
  return fp;
}

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("expected --key value pairs, got '" + key + "'");
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "work-dir"})
    if (!args.count(required))
      throw std::invalid_argument(std::string("missing --") + required);
  return args;
}

/// A workload's section of reference.json.
const Json& reference_section(const Json& root, const std::string& key) {
  if (root.at("input_spec").as_string() != kInputSpec)
    throw std::runtime_error("reference.json was recorded for input spec '" +
                             root.at("input_spec").as_string() + "', not '" +
                             kInputSpec + "'");
  return root.at(key);
}

int run(int argc, char** argv) {
  const std::map<std::string, std::string> args = parse_args(argc, argv);
  Options options;
  options.workload = args.at("workload");
  options.seed = std::stoull(args.at("seed"));
  options.seconds = std::stod(args.at("seconds"));
  options.trace = args.at("trace") == "1";
  options.record = args.count("record") && args.at("record") == "1";
  const std::string work_dir = args.at("work-dir");
  options.scratch_dir = work_dir + "/scratch";
  options.out_dir = work_dir + "/results";
  std::filesystem::create_directories(options.out_dir);
  fresh_dir(options.scratch_dir);
  // Thread counts are part of each workload's definition.
  unsetenv("HADAS_THREADS");

  Json reference_root;
  const Json* reference = nullptr;
  const std::string key = options.workload.rfind("search-", 0) == 0
                              ? std::string("search")
                              : options.workload;
  if (!options.record) {
    if (!args.count("reference")) throw std::invalid_argument("missing --reference");
    std::ifstream file(args.at("reference"));
    std::stringstream text;
    text << file.rdbuf();
    reference_root = Json::parse(text.str());
    reference = &reference_section(reference_root, key);
  }

  Outcome out;
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (options.workload == "search-serial")
    run_search(options, 1, reference, out);
  else if (options.workload == "search-parallel")
    run_search(options, std::min<std::size_t>(4, cores), reference, out);
  else if (options.workload == "ioe-sweep")
    run_ioe_sweep(options, reference, out);
  else if (options.workload == "serve-loopback")
    run_serve_loopback(options, reference, out);
  else
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  std::filesystem::remove_all(options.scratch_dir);

  if (options.record) {
    Json record;
    record["input_spec"] = kInputSpec;
    record["work"] = out.work;
    std::cout << record.dump() << "\n";
    return 0;
  }
  if (!options.trace) out.metric("peak_rss_mb", peak_rss_mb(), "MB");

  for (const std::string& failure : out.failures)
    std::cerr << "perfbench: check failed: " << failure << "\n";
  Json metrics;
  for (const auto& [name, value_unit] : out.metrics) {
    Json m;
    m["value"] = value_unit.first;
    m["unit"] = value_unit.second;
    metrics[name] = std::move(m);
  }
  Json summary;
  summary["correct"] = out.failed == 0 && out.attempted > 0;
  summary["attempted"] = out.attempted;
  summary["failed"] = out.failed;
  summary["metrics"] = metrics;

  Json result;
  result["workload"] = options.workload;
  result["seed"] = std::to_string(options.seed);
  result["instance"] = options.instance();
  result["trace"] = options.trace;
  result["fingerprint"] = host_fingerprint(args);
  result["summary"] = summary;
  result["work"] = out.work;
  result["detail"] = out.detail;
  result["failures"] = Json(Json::Array(out.failures.begin(), out.failures.end()));
  const std::string result_path = options.out_dir + "/" + options.workload +
                                  "-seed" + std::to_string(options.seed) +
                                  "-trace" + (options.trace ? "1" : "0") + ".json";
  std::ofstream(result_path) << result.dump(2) << "\n";
  std::cout << "perfbench fingerprint " << result.at("fingerprint").dump() << "\n"
            << "perfbench result file " << result_path << "\n"
            << summary.dump() << "\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
