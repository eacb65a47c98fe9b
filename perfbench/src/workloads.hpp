#pragma once
// The benchmark's workloads (see perfbench/README.md for why each exists).
// Every workload drives the simulator only through its public API, checks
// the simulated outputs, and reports host time end to end (untraced run)
// or per layer (traced run).

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  /// Traffic seed of every simulated network the workload builds.
  uint64_t seed = 1;
  /// Host seconds of measurement the untraced run aims for.
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;

  // Self-test knobs; the defaults are the benchmark's own workloads.
  int step_threads = 0;  // 0 = the workload's own value
  bool gating = true;
  int shrink = 1;        // divide every warmup/window by this
  int max_reps = 0;      // cap on measured repetitions, 0 = time-bound
  /// Digest to compare against instead of the recorded one.
  std::optional<uint64_t> expected_digest;

  /// Where the traced run writes spans.json and layers.json ("" = nowhere).
  std::string out_dir;
  /// Scratch space for campaign result stores (removed after use).
  std::string scratch_dir = ".";
};

struct Result {
  Checks checks;
  uint64_t digest = 0;
  /// The digest the run was compared against, when one applies.
  std::optional<uint64_t> expected;
  /// Metric name -> value; a catalogue metric absent here does not apply
  /// to the workload.
  std::vector<std::pair<std::string, double>> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;

  void set(const std::string& name, double v) { metrics.emplace_back(name, v); }
};

const std::vector<std::string>& workload_names();

/// The digest recorded for the default seed (1) at full size, if any.
std::optional<uint64_t> recorded_digest(const std::string& workload);

/// Run one workload. False (with *error) only for a bad workload name or an
/// I/O failure; failed output checks land in result->checks.
bool run_workload(const Options& opt, Result* result, std::string* error);

}  // namespace perfbench
