// lease_bench: one workload run of the wall-clock lease-service benchmark.
//
//   lease_bench --workload renew-closed|renew-durable|license-checks
//               --seed N --seconds S --trace 0|1
//
// Prints the run's checks and every metric by name with its unit, then, as
// the last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones listed in BENCHMARK.json. A run that fails a
// check prints no metrics in that line and exits 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: lease_bench --workload renew-closed|renew-durable|"
               "license-checks --seed N --seconds S --trace 0|1\n");
}

bool parse(int argc, char** argv, bench::Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty();
}

void print_metric(const bench::Metric& m) {
  std::printf("metric %-40s %.6g %s%s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.empty() ? "" : "  # ", m.note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  bench::Result result;
  try {
    if (options.workload == "renew-closed") {
      result = bench::run_renew_closed(options);
    } else if (options.workload == "renew-durable") {
      result = bench::run_renew_durable(options);
    } else if (options.workload == "license-checks") {
      result = bench::run_license_checks(options);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lease_bench: %s\n", e.what());
    return 3;
  }

  // SL_OBS_ENABLED comes with sl_obs, so this is how the libraries were built.
  std::printf("context SECURELEASE_OBSERVABILITY %s\n", SL_OBS_ENABLED ? "ON" : "OFF");
  const bool correct = result.correct();
  for (const std::string& line : result.lines) std::printf("%s\n", line.c_str());
  for (const bench::Check& check : result.checks) {
    std::printf("check  %-40s %s  %s\n", check.name.c_str(),
                check.ok ? "ok" : "FAIL", check.detail.c_str());
  }
  const std::vector<bench::Metric>& metrics =
      options.trace ? result.per_layer : result.end_to_end;
  if (correct) {
    for (const bench::Metric& m : metrics) print_metric(m);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const bench::Metric& m : metrics) {
    if (!correct || !m.in_json) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
