// Self-tests of the benchmark: metric names, the result digest's
// independence from scheduling knobs, and the digest gate itself.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "workloads.hpp"

using namespace perfbench;

namespace {

Result run(Options opt) {
  Result res;
  std::string error;
  EXPECT_TRUE(run_workload(opt, &res, &error)) << error;
  return res;
}

Options shortened(const std::string& workload) {
  Options opt;
  opt.workload = workload;
  opt.seconds = 1;
  opt.max_reps = 1;
  opt.shrink = 20;
  return opt;
}

/// (name, unit) pairs of one BENCHMARK.json metric list, in file order.
std::vector<std::pair<std::string, std::string>> json_metrics(
    const std::string& key) {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const size_t start = text.find("\"" + key + "\"");
  EXPECT_NE(start, std::string::npos) << key;
  const size_t end = text.find(']', start);
  const std::string list = text.substr(start, end - start);
  const std::regex re(R"re("name":\s*"([^"]*)",\s*"unit":\s*"([^"]*)")re");
  std::vector<std::pair<std::string, std::string>> out;
  for (std::sregex_iterator it(list.begin(), list.end(), re), e; it != e; ++it)
    out.emplace_back((*it)[1], (*it)[2]);
  return out;
}

}  // namespace

TEST(Metrics, NamesAreValidAndUnique) {
  // [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 long.
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  std::set<std::string> seen;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricDef& d : *defs) {
      EXPECT_TRUE(std::regex_match(d.name, name_re)) << d.name;
      EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
    }
}

TEST(Metrics, CatalogueMatchesBenchmarkJson) {
  for (const auto& [key, defs] :
       {std::pair{"end_to_end", &end_to_end_metrics()},
        std::pair{"per_layer", &per_layer_metrics()}}) {
    const auto listed = json_metrics(key);
    ASSERT_EQ(listed.size(), defs->size()) << key;
    for (size_t i = 0; i < listed.size(); ++i) {
      EXPECT_EQ(listed[i].first, (*defs)[i].name) << key;
      EXPECT_EQ(listed[i].second, (*defs)[i].unit) << key;
    }
  }
}

TEST(Metrics, UntracedRunReportsEveryEndToEndMetric) {
  const Result res = run(shortened("mesh8_lowload_st2"));
  for (const MetricDef& d : end_to_end_metrics()) {
    bool found = false;
    for (const auto& [name, v] : res.metrics)
      if (name == d.name) {
        found = true;
        EXPECT_GT(v, 0.0) << d.name;
      }
    EXPECT_TRUE(found) << d.name;
  }
}

TEST(Digest, SameAcrossStepThreadsAndGating) {
  for (const char* w : {"mesh8_lowload_st2", "mesh16_uniform_st2"}) {
    Options base = shortened(w);
    base.step_threads = 1;
    const uint64_t ref = run(base).digest;
    for (int threads : {1, 2})
      for (bool gating : {true, false}) {
        Options o = shortened(w);
        o.step_threads = threads;
        o.gating = gating;
        const Result res = run(o);
        EXPECT_EQ(res.digest, ref)
            << w << " step_threads=" << threads << " gating=" << gating;
        EXPECT_EQ(res.checks.failed(), 0) << w;
      }
  }
}

TEST(Digest, Fig5SameTracedAndWithGatingOff) {
  // The traced run replays every point serially and with telemetry on; each
  // must reproduce the pooled pass.
  Options untraced = shortened("fig5_sweep");
  // At a twentieth of its windows the lowest curve load completes no packet
  // at all; a quarter keeps every point meaningful.
  untraced.shrink = 4;
  Options traced = untraced;
  traced.trace = true;
  Options ungated = untraced;
  ungated.gating = false;
  const Result ref = run(untraced);
  EXPECT_EQ(ref.checks.failed(), 0);
  for (const Options& o : {traced, ungated}) {
    const Result res = run(o);
    EXPECT_EQ(res.digest, ref.digest) << "trace=" << o.trace;
    EXPECT_EQ(res.checks.failed(), 0) << "trace=" << o.trace;
  }
}

TEST(Digest, SameWithCampaignGatingOff) {
  Options on = shortened("ablation_campaign");
  Options off = on;
  off.gating = false;
  EXPECT_EQ(run(on).digest, run(off).digest);
}

TEST(Digest, WrongRecordedDigestFailsTheRun) {
  Options opt = shortened("mesh8_lowload_st2");
  const uint64_t actual = run(opt).digest;

  opt.expected_digest = actual;
  const Result good = run(opt);
  EXPECT_EQ(good.checks.failed(), 0);
  EXPECT_EQ(good.checks.failed_frac(), 0.0);

  opt.expected_digest = actual ^ 1;
  const Result bad = run(opt);
  EXPECT_GT(bad.checks.failed_frac(), 0.0);
  ASSERT_EQ(bad.checks.failures().size(), 1u);
  EXPECT_NE(bad.checks.failures()[0].find("result_digest"), std::string::npos);
}

TEST(Digest, RecordedForEveryWorkload) {
  for (const std::string& w : workload_names())
    EXPECT_TRUE(recorded_digest(w).has_value()) << w;
}
