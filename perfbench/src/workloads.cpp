#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "campaign/grids.hpp"
#include "campaign/runner.hpp"
#include "noc/experiment.hpp"
#include "theory/mesh_limits.hpp"

namespace perfbench {
namespace {

using noc::Cycle;
using noc::EnergyCounters;
using noc::Network;
using noc::NetworkConfig;
using noc::PointResult;

namespace fs = std::filesystem;

constexpr uint64_t kDefaultSeed = 1;
/// Setup is short and host-noisy: it is timed this many times before every
/// repetition of the workload's work, so the samples spread over the whole
/// run and see the same host drift as the work, and the median of all of
/// them is reported.
constexpr int kSetupPerRep = 5;
/// Repetitions of each variant (untraced, traced, serial) in a traced run.
constexpr int kTraceReps = 3;

constexpr const char* kFig5 = "fig5_sweep";
constexpr const char* kMesh16 = "mesh16_uniform_st2";
constexpr const char* kMesh8 = "mesh8_lowload_st2";
constexpr const char* kCampaign = "ablation_campaign";

double secs(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::string fmt(const char* f, double v) {
  char buf[128];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// Repeat `body` until `seconds` of host time have passed, at least once
/// and at most `max_reps` times (0 = no cap). `body` returns its own host
/// seconds; the next repetition starts only if at least half of it is
/// expected to fit in the budget, so a run overshoots by at most half a
/// repetition and a small speed change rarely changes the count.
template <typename F>
void repeat_for(double seconds, int max_reps, F&& body) {
  const int64_t t0 = now_ns();
  int reps = 0;
  double last = 0;
  do {
    last = body();
    ++reps;
  } while ((max_reps == 0 || reps < max_reps) &&
           secs(now_ns() - t0) + last / 2 <= seconds);
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

void set_router_counts(Result* res, const EnergyCounters& e,
                       double node_cycles) {
  res->set("router.lookaheads_per_node_cycle",
           per(static_cast<double>(e.lookaheads_sent), node_cycles));
  res->set("router.sa1_per_node_cycle",
           per(static_cast<double>(e.sa1_arbitrations), node_cycles));
  res->set("router.sa2_per_node_cycle",
           per(static_cast<double>(e.sa2_arbitrations), node_cycles));
  res->set("router.va_per_node_cycle",
           per(static_cast<double>(e.vc_allocations), node_cycles));
  res->set("router.buffer_writes_per_node_cycle",
           per(static_cast<double>(e.buffer_writes), node_cycles));
  res->set("router.xbar_per_node_cycle",
           per(static_cast<double>(e.xbar_traversals), node_cycles));
  res->set("router.bypass_rate", e.bypass_rate());
}

void set_stalls(Result* res, const int64_t* stalls, double node_cycles) {
  for (int c = 0; c < noc::kNumStallClasses; ++c)
    res->set(std::string("router.stall.") +
                 noc::stall_class_name(static_cast<noc::StallClass>(c)),
             per(static_cast<double>(stalls[c]), node_cycles));
}

void check_digest(const Options& opt, Result* res) {
  res->expected = opt.expected_digest;
  if (!res->expected && opt.seed == kDefaultSeed && opt.shrink == 1)
    res->expected = recorded_digest(opt.workload);
  if (res->expected)
    res->checks.expect(res->digest == *res->expected,
                       "result_digest " + hex64(res->digest) +
                           " != recorded " + hex64(*res->expected));
}

// ===========================================================================
// mesh16_uniform_st2 / mesh8_lowload_st2: one network stepped directly.

struct MeshSpec {
  int k;
  double load;
  int step_threads;
  Cycle warmup;
  Cycle window;
};

constexpr MeshSpec kMesh16Spec{16, 0.15, 2, 2000, 4000};
constexpr MeshSpec kMesh8Spec{8, 0.05, 2, 1000, 20000};

NetworkConfig mesh_config(const MeshSpec& s, const Options& opt, int threads,
                          bool telemetry) {
  NetworkConfig cfg = NetworkConfig::proposed(s.k);
  cfg.traffic.pattern = noc::TrafficPattern::UniformRequest;
  cfg.traffic.offered_flits_per_node_cycle = s.load;
  cfg.traffic.seed = opt.seed;
  cfg.step_threads = threads;
  cfg.activity_gating = opt.gating;
  cfg.telemetry.enabled = telemetry;
  return cfg;
}

/// Per-step probes of the traced run.
struct StepProbe {
  Tracer* tracer = nullptr;
  double awake_sum = 0;
  double items_sum = 0;
  int64_t steps = 0;
};

struct MeshWindow {
  double wall_s = 0;
  double construct_s = 0;
  PointResult point;  // window-scoped integer results
  int64_t open_mid = 0;
  int64_t open_end = 0;
  int spans = 1;
  int workers = 1;
};

/// Backlog tolerance between the two halves of a window: a network below
/// saturation keeps its open-packet count flat up to noise, one past it
/// grows by a large share of everything generated (docs in README.md).
bool backlog_flat(int64_t mid, int64_t end, int64_t generated_half) {
  return end - mid <= std::max<int64_t>(64, generated_half / 20);
}

/// Fresh network, warmup, then one timed window of Network::step calls.
MeshWindow run_mesh_window(const NetworkConfig& cfg, Cycle warmup,
                           Cycle window, Checks& checks, StepProbe* probe) {
  MeshWindow w;
  const int64_t t0 = now_ns();
  std::unique_ptr<Network> net;
  {
    Scope s(probe != nullptr ? probe->tracer : nullptr, "Network::Network");
    net = std::make_unique<Network>(cfg);
  }
  w.construct_s = secs(now_ns() - t0);
  w.spans = net->num_step_spans();
  w.workers = net->step_workers();
  const int nodes = net->geom().num_nodes();

  Cycle now = 0;
  for (; now < warmup; ++now) net->step(now);
  net->begin_measurement_window(now);
  const EnergyCounters before = net->energy();

  auto drive = [&](Cycle n) {
    const Cycle end = now + n;
    if (probe == nullptr) {
      for (; now < end; ++now) net->step(now);
      return;
    }
    for (; now < end; ++now) {
      const int s = probe->tracer->begin("Network::step");
      net->step(now);
      probe->tracer->end(s);
      int awake = 0;
      for (noc::NodeId n = 0; n < nodes; ++n)
        if (!net->router(n).idle()) ++awake;
      probe->awake_sum += static_cast<double>(awake) / nodes;
      probe->items_sum += static_cast<double>(net->channel_items());
      ++probe->steps;
    }
  };
  const noc::Metrics& m = net->metrics();
  auto conserved = [&] {
    return m.total_generated() ==
           m.total_completed() + m.total_dropped() + m.open_packets();
  };

  const int64_t t1 = now_ns();
  drive(window / 2);
  const bool conserved_mid = conserved();
  w.open_mid = m.open_packets();
  const int64_t gen_mid = m.total_generated();
  drive(window - window / 2);
  w.wall_s = secs(now_ns() - t1);
  net->end_measurement_window(now);
  w.open_end = m.open_packets();

  checks.expect(conserved_mid && conserved(),
                "packet conservation (generated == completed + dropped + "
                "open)");
  const double recv = m.received_flits_per_cycle();
  checks.expect(recv <= received_bound_fpc(cfg),
                fmt("received %.4f flits/cycle above the Table 1 bound", recv));
  checks.expect(
      backlog_flat(w.open_mid, w.open_end, m.total_generated() - gen_mid),
      "open packets grew from " + std::to_string(w.open_mid) + " to " +
          std::to_string(w.open_end) + " within one window");

  PointResult& p = w.point;
  p.completed_packets = m.completed_packets();
  p.dropped_packets = m.dropped_packets();
  p.energy = net->energy().delta_since(before);
  const noc::LatencyHistogram& h = m.latency_hist();
  p.min_latency = h.min();
  p.p50_latency = h.percentile(0.50);
  p.p99_latency = h.percentile(0.99);
  p.max_latency = h.max();
  if (const noc::Telemetry* t = net->telemetry())
    for (int c = 0; c < noc::kNumStallClasses; ++c)
      p.stall_cycles[c] = t->total_stalls(static_cast<noc::StallClass>(c));
  return w;
}

uint64_t window_digest(const MeshWindow& w) {
  Digest d;
  add_point(d, w.point);
  return d.value();
}

void run_mesh(const MeshSpec& spec, const Options& opt, Result* res) {
  const int threads =
      opt.step_threads > 0 ? opt.step_threads : spec.step_threads;
  const Cycle warmup = spec.warmup / opt.shrink;
  const Cycle window = spec.window / opt.shrink;
  const double node_cycles =
      static_cast<double>(spec.k) * spec.k * static_cast<double>(window);

  // Setup: config resolution and Network construction (partition and step
  // team included), up to the first simulated cycle.
  std::vector<double> setup;
  auto sample_setup = [&] {
    for (int i = 0; i < kSetupPerRep; ++i) {
      const int64_t t0 = now_ns();
      const NetworkConfig cfg = mesh_config(spec, opt, threads, false);
      auto net = std::make_unique<Network>(cfg);
      setup.push_back(secs(now_ns() - t0));
    }
  };

  const NetworkConfig cfg = mesh_config(spec, opt, threads, false);
  std::vector<MeshWindow> windows;
  auto untraced = [&] {
    sample_setup();
    windows.push_back(run_mesh_window(cfg, warmup, window, res->checks,
                                      nullptr));
    return windows.back().wall_s;
  };

  // Traced-run variants: spans + telemetry + per-step probes, and serial.
  Tracer tracer(opt.trace ? static_cast<size_t>(window) * kTraceReps + 64
                          : 0);
  StepProbe probe;
  probe.tracer = &tracer;
  std::vector<MeshWindow> traced, serial;
  if (opt.trace) {
    const NetworkConfig tcfg = mesh_config(spec, opt, threads, true);
    const NetworkConfig scfg = mesh_config(spec, opt, 1, false);
    for (int i = 0; i < kTraceReps; ++i) {
      untraced();
      {
        Scope s(&tracer, "window");
        traced.push_back(
            run_mesh_window(tcfg, warmup, window, res->checks, &probe));
      }
      serial.push_back(
          run_mesh_window(scfg, warmup, window, res->checks, nullptr));
    }
  } else {
    repeat_for(opt.seconds, opt.max_reps, untraced);
  }

  // Every repetition (traced, serial and any thread count included) must
  // reproduce the first one's integer results exactly.
  res->digest = window_digest(windows.front());
  for (const auto* set : {&windows, &traced, &serial})
    for (const MeshWindow& w : *set)
      res->checks.expect(window_digest(w) == res->digest,
                         "window digest differs between repetitions");
  check_digest(opt, res);

  std::vector<double> walls;
  for (const MeshWindow& w : windows) walls.push_back(w.wall_s);
  const double wall = median(walls);
  const MeshWindow& first = windows.front();
  const auto hops = static_cast<double>(first.point.energy.link_traversals);

  if (!opt.trace) {
    res->set("wall_s", wall);
    res->set("setup_s", median(setup));
    res->set("node_cycles_per_s", node_cycles / wall);
    res->set("flit_hops_per_s", hops / wall);
    return;
  }

  std::vector<double> construct, traced_walls, serial_walls;
  for (const auto* set : {&windows, &traced, &serial})
    for (const MeshWindow& w : *set) construct.push_back(w.construct_s);
  for (const MeshWindow& w : traced) traced_walls.push_back(w.wall_s);
  for (const MeshWindow& w : serial) serial_walls.push_back(w.wall_s);
  const double speedup = median(serial_walls) / wall;

  res->set("network.construct_ms", median(construct) * 1e3);
  std::vector<double> step_ns = tracer.durations_ns("Network::step");
  res->set("network.step_us.p50", quantile(step_ns, 0.50) / 1e3);
  res->set("network.step_us.p99", quantile(step_ns, 0.99) / 1e3);
  res->set("network.step_us.samples", static_cast<double>(step_ns.size()));
  res->set("network.awake_router_frac",
           per(probe.awake_sum, static_cast<double>(probe.steps)));
  res->set("network.channel_items_per_cycle",
           per(probe.items_sum, static_cast<double>(probe.steps)));
  res->set("span.count", first.spans);
  res->set("span.workers", first.workers);
  res->set("span.speedup_vs_serial", speedup);
  res->set("span.efficiency", speedup / first.workers);
  res->set("router.ns_per_flit_hop", wall * 1e9 / hops);
  set_router_counts(res, first.point.energy, node_cycles);
  set_stalls(res, traced.front().point.stall_cycles, node_cycles);
  res->set("nic.open_packets_end", static_cast<double>(first.open_end));
  res->set("nic.open_packets_growth",
           static_cast<double>(first.open_end - first.open_mid));
  res->set("metrics.latency_p50_cycles",
           static_cast<double>(first.point.p50_latency));
  res->set("metrics.latency_p99_cycles",
           static_cast<double>(first.point.p99_latency));
  res->set("trace.overhead_frac", median(traced_walls) / wall - 1.0);
  if (!opt.out_dir.empty() && !tracer.write_json(opt.out_dir + "/spans.json"))
    res->notes.push_back("could not write " + opt.out_dir + "/spans.json");
}

// ===========================================================================
// fig5_sweep: bench/fig5_mixed_traffic's run through the sweep engine.

constexpr int kFig5Threads = 4;
constexpr double kPaperSatGbps = 892.0;
constexpr double kPaperZeroLoad = 13.1;

/// bench/fig5_mixed_traffic's windows. The paper errors are measured at
/// them, by one proposed saturation search in the traced run.
constexpr noc::MeasureOptions kPaperMeasure{3000, 12000};
/// The timed pass makes the same calls at a quarter of those windows. A
/// full-size pass takes 7-9 s on a shared 4-core VM, whose single-thread
/// speed drifts by about 15% over seconds, so a 25 s run could time only
/// three; at a quarter it times 14-17 and reports their median.
constexpr int kFig5TimedShrink = 4;

/// zero_load_latency()'s measurement (noc/experiment.cpp), made through
/// measure_point so its integer results reach the digest.
constexpr double kZeroLoadRate = 0.002;
constexpr Cycle kZeroLoadMinWindow = 20000;

/// The chip's PRBS seed. The identical-PRBS artifact models one hardware
/// generator, and the paper's headline numbers are measured at it, so the
/// saturation searches keep it: with the run's seed the searches' work
/// (how many loads the ramp visits) changes with the seed.
constexpr uint64_t kChipPrbsSeed = 1;

struct Fig5Setup {
  NetworkConfig prop, base, clean;
  NetworkConfig prop_search, base_search;  // at kChipPrbsSeed
  std::vector<double> loads;
  noc::MeasureOptions measure, zero_load, paper;
};

Fig5Setup fig5_setup(const Options& opt, bool telemetry) {
  Fig5Setup s;
  s.prop = NetworkConfig::proposed(4);
  s.base = NetworkConfig::baseline_3stage(4);
  for (NetworkConfig* c : {&s.prop, &s.base}) {
    c->traffic.pattern = noc::TrafficPattern::MixedPaper;
    c->traffic.identical_prbs = true;
    c->traffic.seed = opt.seed;
    c->activity_gating = opt.gating;
    c->telemetry.enabled = telemetry;
  }
  s.clean = s.prop;
  s.clean.traffic.identical_prbs = false;
  s.prop_search = s.prop;
  s.base_search = s.base;
  s.prop_search.traffic.seed = s.base_search.traffic.seed = kChipPrbsSeed;
  const double cap = 1.0 / noc::deliveries_per_offered_flit(s.prop);
  for (double f : {0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.72, 0.78,
                   0.84, 0.88, 0.92})
    s.loads.push_back(f * cap);
  s.paper.warmup = kPaperMeasure.warmup / opt.shrink;
  s.paper.window = kPaperMeasure.window / opt.shrink;
  s.measure.warmup = s.paper.warmup / kFig5TimedShrink;
  s.measure.window = s.paper.window / kFig5TimedShrink;
  s.zero_load = s.measure;
  s.zero_load.window = std::max(s.measure.window, kZeroLoadMinWindow);
  return s;
}

struct Fig5Pass {
  std::vector<std::vector<PointResult>> curves;
  std::vector<noc::SaturationResult> sats;
  PointResult zl_clean;
  double curve_s = 0, search_s = 0, wall_s = 0;
};

Fig5Pass fig5_pass(const Fig5Setup& s, Tracer* tracer) {
  Fig5Pass p;
  const noc::ExperimentRunner runner{
      noc::ExperimentOptions{s.measure, kFig5Threads}};
  const int64_t t0 = now_ns();
  {
    Scope sc(tracer, "ExperimentRunner::sweep_all");
    p.curves = runner.sweep_all({s.prop, s.base}, s.loads);
  }
  const int64_t t1 = now_ns();
  {
    Scope sc(tracer, "ExperimentRunner::find_saturations");
    p.sats = runner.find_saturations({s.prop_search, s.base_search});
  }
  const int64_t t2 = now_ns();
  {
    Scope sc(tracer, "zero_load_latency");
    p.zl_clean = noc::measure_point(s.clean, kZeroLoadRate, s.zero_load);
  }
  p.curve_s = secs(t1 - t0);
  p.search_s = secs(t2 - t1);
  p.wall_s = secs(now_ns() - t0);
  return p;
}

uint64_t fig5_digest(const Fig5Pass& p) {
  Digest d;
  for (const auto& curve : p.curves)
    for (const PointResult& r : curve) add_point(d, r);
  for (const noc::SaturationResult& sat : p.sats) add_point(d, sat.at_saturation);
  add_point(d, p.zl_clean);
  return d.value();
}

/// No packet is faster than one hop plus the two NIC link cycles.
constexpr double kMinPacketLatency = 3.0;

/// No saturation point beats Table 1's channel-load bound or its aggregate
/// throughput limit, and no zero-load latency beats the packet floor.
void check_saturation(const Fig5Setup& s, const noc::SaturationResult& sat,
                      Checks& checks) {
  const double max_gbps = noc::theory::aggregate_throughput_limit_gbps(4);
  checks.expect(
      sat.at_saturation.recv_flits_per_cycle <= received_bound_fpc(s.prop) &&
          sat.saturation_gbps > 0 && sat.saturation_gbps <= max_gbps &&
          sat.zero_load_latency >= kMinPacketLatency,
      "saturation search beats the Table 1 throughput limit or the minimum "
      "packet latency");
}

void check_fig5(const Fig5Setup& s, const Fig5Pass& p, Checks& checks) {
  const double bound = received_bound_fpc(s.prop);
  for (const auto& curve : p.curves)
    for (const PointResult& r : curve)
      checks.expect(r.recv_flits_per_cycle <= bound &&
                        r.dropped_packets == 0 && r.completed_packets > 0,
                    fmt("curve point at %.4f: throughput above the Table 1 "
                        "bound, drops, or no completions",
                        r.offered_fpc));
  for (const noc::SaturationResult& sat : p.sats)
    check_saturation(s, sat, checks);
  checks.expect(p.zl_clean.avg_latency >= kMinPacketLatency &&
                    p.zl_clean.dropped_packets == 0 &&
                    p.zl_clean.completed_packets > 0,
                fmt("clean zero-load latency %.3f below one hop plus the NIC "
                    "links, drops, or no completions",
                    p.zl_clean.avg_latency));
}

void run_fig5(const Options& opt, Result* res) {
  // Setup: config resolution and one construction of each config's network,
  // which every point repeats.
  std::vector<double> setup, construct;
  auto sample_setup = [&] {
    for (int i = 0; i < kSetupPerRep; ++i) {
      const int64_t t0 = now_ns();
      const Fig5Setup s = fig5_setup(opt, false);
      const int64_t t1 = now_ns();
      Network prop(s.prop);
      construct.push_back(secs(now_ns() - t1));
      Network base(s.base);
      setup.push_back(secs(now_ns() - t0));
    }
  };

  const Fig5Setup s = fig5_setup(opt, false);
  std::vector<Fig5Pass> passes;
  auto untraced = [&] {
    sample_setup();
    passes.push_back(fig5_pass(s, nullptr));
    return passes.back().wall_s;
  };

  // Traced-run variant: the same runner calls under spans, telemetry on.
  Tracer tracer(4096);
  std::vector<Fig5Pass> traced;
  if (opt.trace) {
    const Fig5Setup ts = fig5_setup(opt, true);
    for (int i = 0; i < kTraceReps; ++i) {
      untraced();
      Scope sc(&tracer, "fig5_sweep.traced");
      traced.push_back(fig5_pass(ts, &tracer));
    }
  } else {
    repeat_for(opt.seconds, opt.max_reps, untraced);
  }

  // Every pass, traced ones included, must reproduce the first one's
  // integer results exactly.
  res->digest = fig5_digest(passes.front());
  for (const auto* set : {&passes, &traced})
    for (const Fig5Pass& p : *set) {
      check_fig5(s, p, res->checks);
      res->checks.expect(fig5_digest(p) == res->digest,
                         "fig5 digest differs between passes");
    }

  std::vector<double> walls, curve_walls, search_walls;
  for (const Fig5Pass& p : passes) {
    walls.push_back(p.wall_s);
    curve_walls.push_back(p.curve_s);
    search_walls.push_back(p.search_s);
  }
  const double curve_wall = median(curve_walls);
  const double search_wall = median(search_walls);
  const double node_cycles =
      2.0 * static_cast<double>(s.loads.size()) * 16.0 *
      static_cast<double>(s.measure.warmup + s.measure.window);
  EnergyCounters curve_energy;
  for (const auto& curve : passes.front().curves)
    for (const PointResult& r : curve) curve_energy += r.energy;
  const auto hops = static_cast<double>(curve_energy.link_traversals);

  if (!opt.trace) {
    check_digest(opt, res);
    res->notes.push_back("paper errors: see the traced run (--trace 1)");
    res->set("wall_s", median(walls));
    res->set("setup_s", median(setup));
    res->set("node_cycles_per_s", node_cycles / curve_wall);
    res->set("flit_hops_per_s", hops / curve_wall);
    return;
  }

  // Serial replay of the pass: one span per public call, which gives each
  // point's and each search's single-thread host time.
  double curve_busy = 0, search_busy = 0, critical = 0;
  {
    Scope sc(&tracer, "fig5_sweep.serial_replay");
    const NetworkConfig* cfgs[] = {&s.prop, &s.base};
    for (int c = 0; c < 2; ++c)
      for (size_t i = 0; i < s.loads.size(); ++i) {
        const int64_t t0 = now_ns();
        PointResult r;
        {
          Scope pt(&tracer, "measure_point");
          r = noc::measure_point(*cfgs[c], s.loads[i], s.measure);
        }
        curve_busy += secs(now_ns() - t0);
        Digest a, b;
        add_point(a, r);
        add_point(b, passes.front().curves[static_cast<size_t>(c)][i]);
        res->checks.expect(a.value() == b.value(),
                           "serial replay differs from the pooled point");
      }
    const NetworkConfig* search_cfgs[] = {&s.prop_search, &s.base_search};
    for (int c = 0; c < 2; ++c) {
      const int64_t t0 = now_ns();
      noc::SaturationResult sat;
      {
        Scope pt(&tracer, "find_saturation");
        sat = noc::find_saturation(*search_cfgs[c], s.measure);
      }
      const double t = secs(now_ns() - t0);
      search_busy += t;
      critical = std::max(critical, t);
      Digest a, b;
      add_point(a, sat.at_saturation);
      add_point(b, passes.front().sats[static_cast<size_t>(c)].at_saturation);
      res->checks.expect(a.value() == b.value(),
                         "serial search differs from the pooled search");
    }
  }

  // The paper errors: the proposed search at the full windows.
  noc::SaturationResult paper;
  {
    Scope sc(&tracer, "find_saturation.paper");
    paper = noc::find_saturation(s.prop_search, s.paper);
  }
  check_saturation(s, paper, res->checks);
  check_digest(opt, res);
  const double sat_err =
      std::fabs(paper.saturation_gbps - kPaperSatGbps) / kPaperSatGbps * 100;
  const double zl_err = std::fabs(paper.zero_load_latency - kPaperZeroLoad) /
                        kPaperZeroLoad * 100;
  res->notes.push_back(fmt("proposed saturation %.1f Gb/s (paper 892)",
                           paper.saturation_gbps) +
                       fmt(", abs err %.2f%%", sat_err));
  res->notes.push_back(fmt("proposed zero-load latency %.2f cycles (paper "
                           "13.1)",
                           paper.zero_load_latency) +
                       fmt(", abs err %.2f%%", zl_err));

  std::vector<double> traced_walls;
  for (const Fig5Pass& p : traced) traced_walls.push_back(p.wall_s);
  const double threads = kFig5Threads;
  res->set("experiment.curve_wall_s", curve_wall);
  res->set("experiment.search_wall_s", search_wall);
  res->set("experiment.busy_s", curve_busy + search_busy);
  res->set("experiment.pool_busy_frac",
           (curve_busy + search_busy) /
               ((curve_wall + search_wall) * threads));
  res->set("experiment.pool_busy_frac.curve",
           curve_busy / (curve_wall * threads));
  res->set("experiment.pool_busy_frac.search",
           search_busy / (search_wall * threads));
  res->set("experiment.search_critical_s", critical);
  res->set("network.construct_ms", median(construct) * 1e3);
  const double curve_node_cycles =
      2.0 * static_cast<double>(s.loads.size()) * 16.0 *
      static_cast<double>(s.measure.window);
  set_router_counts(res, curve_energy, curve_node_cycles);
  int64_t stalls[noc::kNumStallClasses] = {};
  for (const auto& curve : traced.front().curves)
    for (const PointResult& r : curve)
      for (int c = 0; c < noc::kNumStallClasses; ++c)
        stalls[c] += r.stall_cycles[c];
  set_stalls(res, stalls, curve_node_cycles);
  res->set("paper_abs_err.sat_gbps_pct", sat_err);
  res->set("paper_abs_err.zero_load_pct", zl_err);
  res->set("trace.overhead_frac", median(traced_walls) / median(walls) - 1.0);
  if (!opt.out_dir.empty() && !tracer.write_json(opt.out_dir + "/spans.json"))
    res->notes.push_back("could not write " + opt.out_dir + "/spans.json");
}

// ===========================================================================
// ablation_campaign: trace_ablation_manifest(8) through run_campaign.

constexpr int kCampaignThreads = 4;
constexpr int kCampaignK = 8;
constexpr Cycle kCampaignWarmup = 500;
constexpr Cycle kCampaignWindow = 4000;

noc::campaign::Manifest campaign_manifest(const Options& opt, bool telemetry) {
  noc::campaign::Manifest m = noc::campaign::trace_ablation_manifest(kCampaignK);
  m.default_warmup = kCampaignWarmup / opt.shrink;
  m.default_window = kCampaignWindow / opt.shrink;
  for (noc::campaign::CampaignPoint& p : m.points) {
    p.seed = opt.seed;
    p.gating = p.gating && opt.gating;
    p.telemetry = telemetry;
  }
  return m;
}

double report_value(const noc::campaign::CampaignRecord& rec,
                    const std::string& key) {
  for (const auto& [k, v] : rec.report)
    if (k == key) return v;
  return 0.0;
}

struct CampaignRep {
  double wall_s = 0, capture_s = 0, replay_s = 0, resume_s = 0;
  double store_kb = 0;
  uint64_t digest = 0;
  std::vector<noc::campaign::CampaignRecord> records;  // manifest order
};

/// One fresh campaign into an empty store, then the resume pass over the
/// complete store. Traced: the fresh run is split into its capture and
/// replay waves (max_points = 1 runs just the capture).
CampaignRep run_campaign_rep(const noc::campaign::Manifest& m,
                             const std::string& dir, Checks& checks,
                             Tracer* tracer) {
  using noc::campaign::RunOptions;
  CampaignRep rep;
  fs::remove_all(dir);
  const noc::campaign::ResultStore store(dir);
  const int points = static_cast<int>(m.points.size());

  const int64_t t0 = now_ns();
  if (tracer != nullptr) {
    RunOptions first{kCampaignThreads, 1, false};
    noc::campaign::RunSummary cap;
    {
      Scope s(tracer, "run_campaign.capture_wave");
      cap = run_campaign(m, store, first);
    }
    rep.capture_s = secs(now_ns() - t0);
    const int64_t t1 = now_ns();
    noc::campaign::RunSummary rest;
    {
      Scope s(tracer, "run_campaign.replay_wave");
      rest = run_campaign(m, store, RunOptions{kCampaignThreads, -1, false});
    }
    rep.replay_s = secs(now_ns() - t1);
    checks.expect(cap.ok() && cap.executed == 1 && rest.complete() &&
                      rest.executed == points - 1,
                  "campaign waves did not run capture then replays");
  } else {
    const auto sum =
        run_campaign(m, store, RunOptions{kCampaignThreads, -1, false});
    checks.expect(sum.complete() && sum.executed == points,
                  "fresh campaign did not complete every point");
  }
  const int64_t t2 = now_ns();
  noc::campaign::RunSummary resume;
  {
    Scope s(tracer, "run_campaign.resume");
    resume = run_campaign(m, store, RunOptions{kCampaignThreads, -1, false});
  }
  const int64_t t3 = now_ns();
  rep.wall_s = secs(t3 - t0);
  rep.resume_s = secs(t3 - t2);
  checks.expect(resume.ok() && resume.executed == 0 &&
                    resume.skipped == points,
                "resume over a complete store re-ran points");

  std::string err;
  const auto resolved = noc::campaign::resolve_manifest(m, &err);
  Digest d;
  for (const noc::campaign::ResolvedPoint& r : resolved) {
    noc::campaign::CampaignRecord rec;
    const bool ok = store.load_record(r.point->id, r.hash, &rec);
    const double recv = report_value(rec, "recv_flits_per_cycle");
    checks.expect(ok && recv <= received_bound_fpc(r.cfg) &&
                      report_value(rec, "dropped_packets") == 0 &&
                      report_value(rec, "completed_packets") > 0,
                  "campaign point " + r.point->id +
                      ": missing record, throughput above the Table 1 "
                      "bound, drops, or no completions");
    for (const char* key :
         {"completed_packets", "xbar_traversals", "link_traversals",
          "buffer_writes", "buffer_reads", "vc_active_cycles", "bypasses",
          "buffered_hops", "min_latency", "p50_latency", "p99_latency",
          "max_latency", "transactions"})
      d.add(std::llround(report_value(rec, key)));
    rep.records.push_back(std::move(rec));
  }
  rep.digest = d.value();

  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file()) rep.store_kb += static_cast<double>(e.file_size());
  rep.store_kb /= 1024.0;
  fs::remove_all(dir, ec);
  return rep;
}

void run_ablation_campaign(const Options& opt, Result* res) {
  const std::string root = opt.scratch_dir + "/perfbench-campaign";
  std::vector<double> setup;
  auto sample_setup = [&] {
    for (int i = 0; i < kSetupPerRep; ++i) {
      const int64_t t0 = now_ns();
      const noc::campaign::Manifest m = campaign_manifest(opt, false);
      std::string err;
      const auto resolved = noc::campaign::resolve_manifest(m, &err);
      noc::campaign::ResultStore(root + "/setup").ensure_dirs();
      Network net(resolved.front().cfg);
      setup.push_back(secs(now_ns() - t0));
    }
  };

  const noc::campaign::Manifest m = campaign_manifest(opt, false);
  std::vector<CampaignRep> reps;
  auto untraced = [&] {
    sample_setup();
    reps.push_back(run_campaign_rep(
        m, root + "/rep" + std::to_string(reps.size()), res->checks,
        nullptr));
    return reps.back().wall_s;
  };
  Tracer tracer(1024);
  std::vector<CampaignRep> traced;
  if (opt.trace) {
    const noc::campaign::Manifest tm = campaign_manifest(opt, true);
    for (int i = 0; i < kTraceReps; ++i) {
      untraced();
      Scope s(&tracer, "ablation_campaign.traced");
      traced.push_back(run_campaign_rep(
          tm, root + "/traced" + std::to_string(i), res->checks, &tracer));
    }
  } else {
    repeat_for(opt.seconds, opt.max_reps, untraced);
  }
  std::error_code ec;
  fs::remove_all(root, ec);

  res->digest = reps.front().digest;
  for (const auto* set : {&reps, &traced})
    for (const CampaignRep& r : *set)
      res->checks.expect(r.digest == res->digest,
                         "campaign digest differs between repetitions");
  check_digest(opt, res);

  std::vector<double> walls, resumes;
  for (const CampaignRep& r : reps) {
    walls.push_back(r.wall_s);
    resumes.push_back(r.resume_s);
  }
  const double wall = median(walls);
  EnergyCounters e;
  for (const noc::campaign::CampaignRecord& rec : reps.front().records) {
    e.xbar_traversals +=
        std::llround(report_value(rec, "xbar_traversals"));
    e.link_traversals +=
        std::llround(report_value(rec, "link_traversals"));
    e.buffer_writes += std::llround(report_value(rec, "buffer_writes"));
    e.bypasses += std::llround(report_value(rec, "bypasses"));
    e.buffered_hops += std::llround(report_value(rec, "buffered_hops"));
  }
  const double point_nodes =
      static_cast<double>(m.points.size()) * kCampaignK * kCampaignK;
  const double window_node_cycles =
      point_nodes * static_cast<double>(m.default_window);
  const double total_node_cycles =
      point_nodes * static_cast<double>(m.default_warmup + m.default_window);

  if (!opt.trace) {
    res->set("wall_s", wall);
    res->set("setup_s", median(setup));
    res->set("node_cycles_per_s", total_node_cycles / wall);
    res->set("flit_hops_per_s",
             static_cast<double>(e.link_traversals) / wall);
    return;
  }

  std::vector<double> traced_walls, capture, replay;
  for (const CampaignRep& r : traced) {
    traced_walls.push_back(r.wall_s);
    capture.push_back(r.capture_s);
    replay.push_back(r.replay_s);
  }
  const noc::campaign::CampaignRecord& cap = reps.front().records.front();
  res->set("network.construct_ms", median(setup) * 1e3);
  res->set("router.xbar_per_node_cycle",
           per(static_cast<double>(e.xbar_traversals), window_node_cycles));
  res->set("router.buffer_writes_per_node_cycle",
           per(static_cast<double>(e.buffer_writes), window_node_cycles));
  res->set("router.bypass_rate", e.bypass_rate());
  int64_t stalls[noc::kNumStallClasses] = {};
  for (const noc::campaign::CampaignRecord& rec : traced.front().records)
    for (int c = 0; c < noc::kNumStallClasses; ++c)
      stalls[c] += std::llround(report_value(
          rec, std::string("stall_") +
                   noc::stall_class_name(static_cast<noc::StallClass>(c))));
  set_stalls(res, stalls, window_node_cycles);
  res->set("metrics.latency_p50_cycles", report_value(cap, "p50_latency"));
  res->set("metrics.latency_p99_cycles", report_value(cap, "p99_latency"));
  res->set("campaign.capture_s", median(capture));
  res->set("campaign.replay_s", median(replay));
  res->set("campaign.resume_ms", median(resumes) * 1e3);
  res->set("campaign.store_kb", reps.front().store_kb);
  res->set("workload.transactions_per_cycle",
           report_value(cap, "transactions_per_cycle"));
  res->set("workload.avg_transaction_latency_cycles",
           report_value(cap, "avg_transaction_latency"));
  res->set("trace.overhead_frac", median(traced_walls) / wall - 1.0);
  res->notes.push_back(
      "closed-loop ablation: no paper reference; its model is unvalidated "
      "there");
  if (!opt.out_dir.empty() && !tracer.write_json(opt.out_dir + "/spans.json"))
    res->notes.push_back("could not write " + opt.out_dir + "/spans.json");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {kFig5, kMesh16, kMesh8,
                                                 kCampaign};
  return names;
}

std::optional<uint64_t> recorded_digest(const std::string& workload) {
  // Integer results at seed 1, full size. A perf or simplicity change must
  // leave these unchanged; a model change re-records them and says why.
  static const std::pair<const char*, uint64_t> kRecorded[] = {
      {kFig5, 0x4379ce9784b059f7ull},
      {kMesh16, 0x414c23aa734f1165ull},
      {kMesh8, 0x5038e9350554fb4dull},
      {kCampaign, 0x4bc3684114d92eb5ull},
  };
  for (const auto& [name, digest] : kRecorded)
    if (workload == name) return digest;
  return std::nullopt;
}

bool run_workload(const Options& opt, Result* res, std::string* error) {
  if (opt.shrink < 1) {
    *error = "shrink must be >= 1";
    return false;
  }
  if (opt.workload == kFig5) {
    run_fig5(opt, res);
  } else if (opt.workload == kMesh16) {
    run_mesh(kMesh16Spec, opt, res);
  } else if (opt.workload == kMesh8) {
    run_mesh(kMesh8Spec, opt, res);
  } else if (opt.workload == kCampaign) {
    run_ablation_campaign(opt, res);
  } else {
    *error = "unknown workload '" + opt.workload + "'";
    return false;
  }
  res->set(opt.trace ? "failed_frac" : "checks_passed_frac",
           opt.trace ? res->checks.failed_frac()
                     : 1.0 - res->checks.failed_frac());
  if (!opt.trace) res->set("peak_rss_mb", peak_rss_mb());
  return true;
}

}  // namespace perfbench
