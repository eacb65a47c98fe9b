// The repo benchmark's driver: runs one named workload and prints every
// metric by name with its unit, then one JSON result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--scratch-dir DIR]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes spans.json and layers.json into --out-dir). Campaign result
// stores live under --scratch-dir while a run lasts.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--scratch-dir DIR]\nworkloads:",
               argv0);
  for (const std::string& w : workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

bool parse_int(const char* s, int lo, int hi, int* out) {
  uint64_t v = 0;
  if (!parse_u64(s, &v) || v < static_cast<uint64_t>(lo) ||
      v > static_cast<uint64_t>(hi))
    return false;
  *out = static_cast<int>(v);
  return true;
}

/// The value `res` reports for `name`; null when the metric does not apply.
const double* find_metric(const Result& res, const char* name) {
  for (const auto& [n, v] : res.metrics)
    if (n == name) return &v;
  return nullptr;
}

bool write_layers(const std::string& path, const Options& opt,
                  const Result& res) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"result_digest\":\"%s\","
                  "\"metrics\":{",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               hex64(res.digest).c_str());
  bool first = true;
  for (const MetricDef& d : per_layer_metrics()) {
    const double* v = find_metric(res, d.name);
    if (v == nullptr) continue;
    std::fprintf(f, "%s\n\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                 first ? "" : ",", d.name, *v, d.unit);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    int n = 0;
    uint64_t u = 0;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed" && parse_u64(v, &u)) {
      opt.seed = u;
      have_seed = true;
    } else if (a == "--seconds" && parse_int(v, 1, 3600, &n)) {
      opt.seconds = n;
      have_seconds = true;
    } else if (a == "--trace" && parse_int(v, 0, 1, &n)) {
      opt.trace = n == 1;
      have_trace = true;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--scratch-dir") {
      opt.scratch_dir = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage(argv[0]);

  Result res;
  std::string error;
  if (!run_workload(opt, &res, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return usage(argv[0]);
  }

  const auto& catalogue = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  std::printf("workload %s  seed %llu  %s run\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced (per-layer)" : "untraced (end-to-end)");
  for (const std::string& line : res.notes) std::printf("  %s\n", line.c_str());
  std::printf("  result_digest %s (recorded: %s)\n", hex64(res.digest).c_str(),
              res.expected ? hex64(*res.expected).c_str()
                           : "none for this seed/size");
  std::printf("  checks %d attempted, %d failed, failed_frac = %.6g\n",
              res.checks.attempted(), res.checks.failed(),
              res.checks.failed_frac());
  for (const std::string& f : res.checks.failures())
    std::printf("  FAILED: %s\n", f.c_str());

  // Metrics a workload does not exercise print as n/a and report 0.
  std::string json;
  for (const MetricDef& d : catalogue) {
    const double* v = find_metric(res, d.name);
    const double value = v != nullptr ? *v : 0.0;
    if (v != nullptr)
      std::printf("  %-42s %.6g %s\n", d.name, value, d.unit);
    else
      std::printf("  %-42s n/a\n", d.name);
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", d.name, value, d.unit);
    json += buf;
  }
  if (opt.trace && !opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/layers.json";
    if (write_layers(path, opt, res))
      std::printf("  wrote %s and %s/spans.json\n", path.c_str(),
                  opt.out_dir.c_str());
    else
      std::printf("  could not write %s\n", path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {%s}}\n",
              res.checks.failed() == 0 ? "true" : "false",
              res.checks.attempted(), res.checks.failed(), json.c_str());
  return 0;
}
