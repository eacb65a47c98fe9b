#pragma once
// Measurement plumbing shared by the benchmark driver and its self-tests:
// host clocks, the in-memory span recorder, the correctness-check ledger,
// the integer result digest, and the metric catalogue BENCHMARK.json
// mirrors.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "noc/experiment.hpp"

namespace perfbench {

/// Host monotonic time in nanoseconds.
inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Span recorder: one span per public call the benchmark makes into the
// simulator (name, host start/end, enclosing span), kept in memory and
// written once at exit in Chrome trace-event form (loads in Perfetto).

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index of the enclosing span, -1 at top level
};

class Tracer {
 public:
  explicit Tracer(size_t reserve);

  /// Open a span nested in the innermost open span; returns its index.
  int begin(const char* name);
  void end(int idx);

  /// Durations (ns) of every closed span called `name`.
  std::vector<double> durations_ns(std::string_view name) const;
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int64_t origin_ns_;
};

/// RAII span; a null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t), idx_(t ? t->begin(name) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int idx_;
};

// ---------------------------------------------------------------------------
// Correctness checks: one entry per point or measured window.

class Checks {
 public:
  void expect(bool ok, const std::string& what);
  int attempted() const { return attempted_; }
  int failed() const { return static_cast<int>(failures_.size()); }
  double failed_frac() const {
    return attempted_ > 0 ? static_cast<double>(failed()) / attempted_ : 0.0;
  }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int attempted_ = 0;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Integer-only result digest (64-bit FNV-1a over int64 words). Only
// integer simulated statistics feed it, so it cannot move with the
// summation order of a floating-point mean.

class Digest {
 public:
  void add(int64_t v);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

/// Fold one measured point: completed packets, every EnergyCounters field,
/// latency min/p50/p99/max cycles and transactions.
void add_point(Digest& d, const noc::PointResult& r);

std::string hex64(uint64_t v);

/// Paper Table 1 channel-load bound on aggregate received flits per cycle
/// for `cfg`'s traffic: uniform unicast is capped by the bisection/ejection
/// limit k^2 * unicast_max_injection_rate(k); every other pattern by the
/// ejection links, one flit per node per cycle.
double received_bound_fpc(const noc::NetworkConfig& cfg);

// ---------------------------------------------------------------------------
// Metric catalogue (names and units as BENCHMARK.json lists them).

struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

}  // namespace perfbench
