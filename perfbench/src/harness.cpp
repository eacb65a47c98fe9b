#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "theory/mesh_limits.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- Tracer -----------------------------------------------------------------

Tracer::Tracer(size_t reserve) : origin_ns_(now_ns()) {
  spans_.reserve(reserve);
  open_.reserve(16);
}

int Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns() - origin_ns_;
  spans_.push_back(s);
  const int idx = static_cast<int>(spans_.size()) - 1;
  open_.push_back(idx);
  return idx;
}

void Tracer::end(int idx) {
  spans_[static_cast<size_t>(idx)].end_ns = now_ns() - origin_ns_;
  if (!open_.empty() && open_.back() == idx) open_.pop_back();
}

std::vector<double> Tracer::durations_ns(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- Checks -----------------------------------------------------------------

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) failures_.push_back(what);
}

// --- Digest -----------------------------------------------------------------

void Digest::add(int64_t v) {
  auto u = static_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    h_ ^= u & 0xffu;
    h_ *= 1099511628211ull;
    u >>= 8;
  }
}

void add_point(Digest& d, const noc::PointResult& r) {
  d.add(r.completed_packets);
  const noc::EnergyCounters& e = r.energy;
  for (int64_t v :
       {e.xbar_traversals, e.link_traversals, e.nic_link_traversals,
        e.buffer_writes, e.buffer_reads, e.sa1_arbitrations,
        e.sa2_arbitrations, e.vc_allocations, e.lookaheads_sent, e.cycles,
        e.vc_active_cycles, e.bypasses, e.partial_bypasses, e.buffered_hops})
    d.add(v);
  for (int64_t v : {r.min_latency, r.p50_latency, r.p99_latency,
                    r.max_latency, r.transactions})
    d.add(v);
}

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double received_bound_fpc(const noc::NetworkConfig& cfg) {
  const int ky = cfg.ky > 0 ? cfg.ky : cfg.k;
  const double nodes = static_cast<double>(cfg.k) * ky;
  const bool uniform_unicast =
      cfg.workload.kind == noc::WorkloadKind::OpenLoop &&
      cfg.traffic.pattern == noc::TrafficPattern::UniformRequest &&
      cfg.k == ky;
  return nodes *
         (uniform_unicast ? noc::theory::unicast_max_injection_rate(cfg.k)
                          : 1.0);
}

// --- Metric catalogue -------------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"node_cycles_per_s", "1/s"},
      {"flit_hops_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
      {"checks_passed_frac", "frac"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"experiment.curve_wall_s", "s"},
      {"experiment.search_wall_s", "s"},
      {"experiment.busy_s", "s"},
      {"experiment.pool_busy_frac", "frac"},
      {"experiment.pool_busy_frac.curve", "frac"},
      {"experiment.pool_busy_frac.search", "frac"},
      {"experiment.search_critical_s", "s"},
      {"network.construct_ms", "ms"},
      {"network.step_us.p50", "us"},
      {"network.step_us.p99", "us"},
      {"network.step_us.samples", "count"},
      {"network.awake_router_frac", "frac"},
      {"network.channel_items_per_cycle", "1/cycle"},
      {"span.count", "count"},
      {"span.workers", "count"},
      {"span.speedup_vs_serial", "x"},
      {"span.efficiency", "frac"},
      {"router.ns_per_flit_hop", "ns"},
      {"router.lookaheads_per_node_cycle", "1/node_cycle"},
      {"router.sa1_per_node_cycle", "1/node_cycle"},
      {"router.sa2_per_node_cycle", "1/node_cycle"},
      {"router.va_per_node_cycle", "1/node_cycle"},
      {"router.buffer_writes_per_node_cycle", "1/node_cycle"},
      {"router.xbar_per_node_cycle", "1/node_cycle"},
      {"router.bypass_rate", "frac"},
      {"router.stall.buffer_empty", "1/node_cycle"},
      {"router.stall.no_free_vc", "1/node_cycle"},
      {"router.stall.no_credit", "1/node_cycle"},
      {"router.stall.lost_sa", "1/node_cycle"},
      {"router.stall.lost_va", "1/node_cycle"},
      {"nic.open_packets_end", "count"},
      {"nic.open_packets_growth", "count"},
      {"metrics.latency_p50_cycles", "cycles"},
      {"metrics.latency_p99_cycles", "cycles"},
      {"campaign.capture_s", "s"},
      {"campaign.replay_s", "s"},
      {"campaign.resume_ms", "ms"},
      {"campaign.store_kb", "KiB"},
      {"workload.transactions_per_cycle", "1/cycle"},
      {"workload.avg_transaction_latency_cycles", "cycles"},
      {"paper_abs_err.sat_gbps_pct", "%"},
      {"paper_abs_err.zero_load_pct", "%"},
      {"failed_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return defs;
}

}  // namespace perfbench
