/// \file policy_registry_test.cpp
/// The policy registry battery (DESIGN.md section 10). The registry is
/// the one dispatch; three layers lock it:
///
///  * campaign artifacts: whole grids — offline paper configs, an
///    online-arrival grid, both fault laws — must reproduce the record
///    count and FNV-1a 64 digest committed when the frozen pre-registry
///    switch still ran beside the registry and both produced these exact
///    bytes;
///  * registry strings vs presets: `pack(end=..., fail=...)` spellings
///    must replay the preset ConfigSpecs double for double;
///  * the adaptive policies (bandit, reshape): deterministic in
///    (point seed, rep) — identical cells across repeated runs, across
///    thread counts (GridRunOptions::threads and COREDIS_THREADS), and
///    across the shard+merge fabric — and their greedy replans equal to
///    the full-lookahead oracle of full_lookahead.hpp on a large pool.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <gtest/gtest.h>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "exp/campaign.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_file.hpp"
#include "fault/exponential.hpp"
#include "fault/generator.hpp"
#include "full_lookahead.hpp"
#include "policy/registry.hpp"
#include "speedup/synthetic.hpp"
#include "util/units.hpp"

namespace coredis::exp {
namespace {

/// Offline locked grid: every pack-engine cell of the paper set
/// plus both fault laws.
const char* const kOfflineCampaign = R"(
n = 6
p = 24
runs = 2
seed = 20260726
mtbf_years = 2, 50
fault_law = exponential, weibull
configs = paper
)";

/// Online-arrival locked grid: the three arrival-driven
/// schedulers under Poisson releases, again under both fault laws.
const char* const kOnlineCampaign = R"(
n = 6
p = 24
runs = 2
seed = 20260731
mtbf_years = 2
fault_law = exponential, weibull
arrival_law = poisson
load_factor = 1
configs = online
)";

/// Adaptive-policy grid: the two registry-only baselines next to the
/// malleable reference, over an online workload.
const char* const kAdaptiveCampaign = R"(
n = 6
p = 24
runs = 2
seed = 20260807
mtbf_years = 2, 50
fault_law = exponential, weibull
arrival_law = poisson
load_factor = 1
policy = "bandit(window=10, explore=0.25), reshape(gain=0.5), malleable"
)";

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file) << "cannot open " << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

std::filesystem::path temp_jsonl(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("coredis_policy_registry_test_" + tag + ".jsonl");
}

/// RAII override of COREDIS_THREADS (campaign_test.cpp's idiom).
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* value) {
    const char* previous = std::getenv("COREDIS_THREADS");
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
    if (value == nullptr) {
      ::unsetenv("COREDIS_THREADS");
    } else {
      ::setenv("COREDIS_THREADS", value, 1);
    }
  }
  ~ThreadsEnv() {
    if (had_previous_) {
      ::setenv("COREDIS_THREADS", previous_.c_str(), 1);
    } else {
      ::unsetenv("COREDIS_THREADS");
    }
  }

 private:
  bool had_previous_ = false;
  std::string previous_;
};

/// Run the campaign and return the artifact bytes (the file is removed
/// afterwards).
std::string campaign_bytes(const Campaign& campaign, const std::string& tag,
                           std::size_t threads = 0) {
  const std::filesystem::path file = temp_jsonl(tag);
  std::filesystem::remove(file);
  GridRunOptions options;
  options.jsonl_path = file.string();
  options.threads = threads;
  (void)run_campaign(campaign, options);
  std::string bytes = read_file(file);
  std::filesystem::remove(file);
  return bytes;
}

/// FNV-1a 64 of `bytes`.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Newline-terminated records of an artifact, its header included.
std::size_t record_count(const std::string& bytes) {
  return static_cast<std::size_t>(
      std::count(bytes.begin(), bytes.end(), '\n'));
}

// The committed values were recorded while the frozen pre-registry
// SchedulerKind switch still ran next to the registry and both paths
// wrote these exact bytes: one header plus one record per cell.
TEST(PolicyRegistryDifferential, OfflineGridByteIdentical) {
  const Campaign campaign = parse_campaign(kOfflineCampaign);
  const std::string bytes = campaign_bytes(campaign, "offline");
  EXPECT_EQ(record_count(bytes), 9u);
  EXPECT_EQ(fnv1a64(bytes), 0x27f93d0c6bef4eccULL);
}

TEST(PolicyRegistryDifferential, OnlineArrivalGridByteIdentical) {
  const Campaign campaign = parse_campaign(kOnlineCampaign);
  const std::string bytes = campaign_bytes(campaign, "online");
  EXPECT_EQ(record_count(bytes), 5u);
  EXPECT_EQ(fnv1a64(bytes), 0xa7e74c8f05c75080ULL);
}

void expect_identical(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.redistributions, b.redistributions);
  EXPECT_EQ(a.redistribution_cost, b.redistribution_cost);
  EXPECT_EQ(a.faults_effective, b.faults_effective);
  ASSERT_EQ(a.completion_times.size(), b.completion_times.size());
  for (std::size_t i = 0; i < a.completion_times.size(); ++i) {
    EXPECT_EQ(a.completion_times[i], b.completion_times[i]);
    EXPECT_EQ(a.final_allocation[i], b.final_allocation[i]);
  }
}

void expect_identical_cells(const CellResult& a, const CellResult& b) {
  EXPECT_EQ(a.baseline, b.baseline);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t c = 0; c < a.results.size(); ++c) {
    SCOPED_TRACE(::testing::Message() << "config " << c);
    expect_identical(a.results[c], b.results[c]);
  }
}

TEST(PolicyRegistryDifferential, RegistryStringsMatchPresets) {
  // Every preset SchedulerKind, spelled as a registry policy string,
  // must replay the preset spec's simulation double for double — the
  // canonical strings route both through the same instantiated policy.
  Scenario scenario;
  scenario.n = 6;
  scenario.p = 24;
  scenario.mtbf_years = 2.0;
  scenario.runs = 2;
  scenario.seed = 20260726ULL;
  scenario.arrival_law = extensions::ArrivalLaw::Poisson;
  scenario.load_factor = 1.0;
  validate_scenario(scenario);

  const struct {
    const char* text;
    ConfigSpec preset;
  } pairs[] = {
      {"pack(end=greedy)", ig_end_greedy()},
      {"pack", ig_end_local()},
      {"pack(fail=stf, end=greedy)", stf_end_greedy()},
      {"pack(end=none, fail=none)", baseline_no_redistribution()},
      // The bare names are preset shortcuts in parse_config_set; the
      // empty option list forces the registry resolution path.
      {"malleable()", online_malleable()},
      {"easy()", online_easy()},
      {"fcfs()", online_fcfs()},
  };
  for (const auto& pair : pairs) {
    SCOPED_TRACE(pair.text);
    const std::vector<ConfigSpec> via_string =
        parse_config_set(pair.text);
    ASSERT_EQ(via_string.size(), 1u);
    EXPECT_EQ(via_string[0].scheduler, SchedulerKind::Registry);
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
      expect_identical_cells(run_cell(scenario, via_string, rep),
                             run_cell(scenario, {pair.preset}, rep));
    }
  }
}

TEST(PolicyRegistryDifferential, RegistryOnlySpecsRunBesidePresets) {
  // A registry-only policy (no preset spells it) runs in the same cell as
  // preset configurations, and sharing the cell changes no preset's
  // simulation: each configuration replays the streams on its own.
  Scenario scenario;
  scenario.n = 4;
  scenario.p = 16;
  scenario.mtbf_years = 2.0;
  scenario.runs = 2;
  scenario.seed = 20260811ULL;
  validate_scenario(scenario);
  const std::vector<ConfigSpec> bandit = parse_config_set("bandit");
  ASSERT_EQ(bandit.size(), 1u);
  EXPECT_EQ(bandit[0].scheduler, SchedulerKind::Registry);
  const std::vector<ConfigSpec> mixed{stf_end_greedy(), bandit[0],
                                      ig_end_local()};
  for (std::uint64_t rep = 0; rep < 2; ++rep) {
    SCOPED_TRACE(::testing::Message() << "rep=" << rep);
    const CellResult together = run_cell(scenario, mixed, rep);
    ASSERT_EQ(together.results.size(), mixed.size());
    const CellResult stf = run_cell(scenario, {mixed[0]}, rep);
    const CellResult alone = run_cell(scenario, bandit, rep);
    const CellResult ig = run_cell(scenario, {mixed[2]}, rep);
    EXPECT_EQ(together.baseline, alone.baseline);
    expect_identical(together.results[0], stf.results[0]);
    expect_identical(together.results[1], alone.results[0]);
    expect_identical(together.results[2], ig.results[0]);
    EXPECT_EQ(together.results[1].completion_times.size(), scenario.n);
  }
}

// ---- adaptive policies: determinism in (seed, rep) -----------------------

TEST(PolicyAdaptiveDeterminism, CellsReplayBitIdentically) {
  Scenario scenario;
  scenario.n = 6;
  scenario.p = 24;
  scenario.mtbf_years = 2.0;
  scenario.runs = 2;
  scenario.seed = 20260807ULL;
  scenario.arrival_law = extensions::ArrivalLaw::Poisson;
  scenario.load_factor = 1.0;
  validate_scenario(scenario);
  const std::vector<ConfigSpec> configs =
      parse_config_set("bandit(window=10, explore=0.25), reshape(gain=0.5)");
  for (std::uint64_t rep = 0; rep < 2; ++rep) {
    SCOPED_TRACE(::testing::Message() << "rep=" << rep);
    expect_identical_cells(run_cell(scenario, configs, rep),
                           run_cell(scenario, configs, rep));
  }
}

TEST(PolicyAdaptiveDeterminism, GridBytesIndependentOfThreadCount) {
  const Campaign campaign = parse_campaign(kAdaptiveCampaign);
  std::string one;
  std::string two;
  {
    ThreadsEnv env("1");
    one = campaign_bytes(campaign, "adaptive_t1");
  }
  {
    ThreadsEnv env("2");
    two = campaign_bytes(campaign, "adaptive_t2");
  }
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  // Explicit worker override, no env: same bytes again.
  const std::string four =
      campaign_bytes(campaign, "adaptive_t4", 4);
  EXPECT_EQ(one, four);
}

TEST(PolicyAdaptiveDeterminism, ShardMergeMatchesSingleRun) {
  const Campaign campaign = parse_campaign(kAdaptiveCampaign);
  const std::string single =
      campaign_bytes(campaign, "adaptive_single");

  const std::filesystem::path merged = temp_jsonl("adaptive_merged");
  std::filesystem::remove(merged);
  const std::vector<Scenario> points = campaign_points(campaign);
  for (std::size_t worker = 0; worker < 2; ++worker) {
    GridRunOptions options;
    options.jsonl_path = merged.string();
    DealWorker shard(points, campaign.configs, worker, 2, options);
    const auto [begin, end] = shard_range(campaign.cells(), {worker, 2});
    shard.run_block(begin, end);
  }
  merge_deal_shards(points, campaign.configs, 2, merged.string());
  const std::string bytes = read_file(merged);
  std::filesystem::remove(merged);
  for (std::size_t worker = 0; worker < 2; ++worker)
    std::filesystem::remove(shard_path(merged.string(), {worker, 2}));
  EXPECT_EQ(single, bytes);
}

TEST(PolicyAdaptiveDeterminism, OfflineWorkloadsRunToo) {
  // The adaptive policies also accept the static setting (every job
  // released at 0): sanity-check termination and determinism there.
  Scenario scenario;
  scenario.n = 6;
  scenario.p = 24;
  scenario.mtbf_years = 2.0;
  scenario.seed = 7ULL;
  validate_scenario(scenario);
  const std::vector<ConfigSpec> configs = parse_config_set("bandit, reshape");
  const CellResult a = run_cell(scenario, configs, 0);
  const CellResult b = run_cell(scenario, configs, 0);
  expect_identical_cells(a, b);
  for (const core::RunResult& r : a.results) {
    EXPECT_GT(r.makespan, 0.0);
    ASSERT_EQ(r.completion_times.size(), 6u);
    for (double t : r.completion_times) EXPECT_GT(t, 0.0);
  }
}

// ---- adaptive policies: greedy replans vs the full-lookahead oracle ------

/// extensions::regrow — the grant loop every bandit and reshape replan
/// goes through — against the oracle on a large pool
/// (n = 50, p = 4000, fault-aware model, empty fault stream), with the
/// two workloads of extensions_test's OnlineReplanOracle: a simultaneous
/// release, whose first finisher ran its t = 0 oracle target from the
/// start, and solo releases, where each job replans alone up to its
/// Eq. 6 optimum (the deep-read plateau).
class AdaptiveReplanOracle : public ::testing::TestWithParam<const char*> {
 protected:
  static constexpr int kJobs = 50;
  static constexpr int kProcessors = 4000;

  AdaptiveReplanOracle()
      : pack_(make_random_pack()),
        resilience_({units::years(1.0), 60.0, 1.0,
                     checkpoint::PeriodRule::Young, 0.0}) {}

  static core::Pack make_random_pack() {
    Rng rng(4000);
    return core::Pack::uniform_random(
        kJobs, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
        rng);
  }

  core::RunResult run(const std::vector<double>& releases) const {
    core::Engine engine(pack_, resilience_, kProcessors);
    fault::NullGenerator none(kProcessors);
    const std::function<const std::vector<double>&()> release_times =
        [&]() -> const std::vector<double>& { return releases; };
    const policy::CellContext ctx{pack_,           resilience_,
                                  kProcessors,     none,
                                  engine.model(),  engine.evaluator(),
                                  engine,          release_times,
                                  0};
    return policy::resolve(GetParam()).make()->run(ctx);
  }

  core::Pack pack_;
  checkpoint::Model resilience_;
};

TEST_P(AdaptiveReplanOracle, SimultaneousReplanMatchesOracle) {
  const core::RunResult result = run(std::vector<double>(kJobs, 0.0));
  const core::ExpectedTimeModel model(pack_, resilience_);
  const oracle::FirstFinish first =
      oracle::simultaneous_first_finish(model, kProcessors);
  EXPECT_EQ(*std::min_element(result.completion_times.begin(),
                              result.completion_times.end()),
            first.time);
  EXPECT_EQ(result.completion_times[first.job], first.time);
  EXPECT_EQ(result.final_allocation[first.job], first.target);
}

TEST_P(AdaptiveReplanOracle, SoloReplansMatchOracle) {
  std::vector<double> releases(kJobs);
  for (int i = 0; i < kJobs; ++i)
    releases[static_cast<std::size_t>(i)] = 1.0e9 * i;
  const core::RunResult result = run(releases);
  EXPECT_EQ(result.redistributions, 0);

  const core::ExpectedTimeModel model(pack_, resilience_);
  const oracle::FullLookahead solo = oracle::solo_targets(model, kProcessors);
  EXPECT_EQ(result.final_allocation, solo.targets);
  EXPECT_GT(solo.plateaus, 0) << "no replan reached the deep-read branch";
}

INSTANTIATE_TEST_SUITE_P(BanditAndReshape, AdaptiveReplanOracle,
                         ::testing::Values("bandit", "reshape"));

// ---- adaptive policies: vanishing-load convergence ----------------------

/// DESIGN.md section 10.3's limit: with solo releases (job i at 1e9 * i
/// seconds, each finishing long before the next arrives) every event
/// sees one job on the whole platform, so the bandit's two arms coincide
/// and reshape never resizes — both must return malleable's exact
/// RunResult, faults included.
TEST(PolicyAdaptiveConvergence, SoloReleasesReturnMalleablesResult) {
  constexpr int kJobs = 12;
  constexpr int kProcessors = 64;
  Rng rng(1019);
  const core::Pack pack = core::Pack::uniform_random(
      kJobs, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
      rng);
  const checkpoint::Model resilience({units::years(1.0), 60.0, 1.0,
                                      checkpoint::PeriodRule::Young, 0.0});
  std::vector<double> releases(kJobs);
  for (int i = 0; i < kJobs; ++i)
    releases[static_cast<std::size_t>(i)] = 1.0e9 * i;
  const std::function<const std::vector<double>&()> release_times =
      [&]() -> const std::vector<double>& { return releases; };
  const auto run = [&](const char* policy) {
    core::Engine engine(pack, resilience, kProcessors);
    fault::ExponentialGenerator faults(kProcessors, 1.0 / units::years(1.0),
                                       Rng(77));
    const policy::CellContext ctx{pack,           resilience,
                                  kProcessors,    faults,
                                  engine.model(), engine.evaluator(),
                                  engine,         release_times,
                                  5};
    return policy::resolve(policy).make()->run(ctx);
  };
  const core::RunResult malleable = run("malleable");
  EXPECT_GT(malleable.faults_effective, 0);
  for (const char* policy :
       {"bandit", "bandit(window=10, explore=0.25)", "reshape",
        "reshape(gain=1)"}) {
    SCOPED_TRACE(policy);
    expect_identical(run(policy), malleable);
  }
}

// ---- arrival-driven schedulers: pinned result bytes ----------------------

/// Every %.17g field of one cell result, one line per policy.
std::string render_result(const std::string& name, const core::RunResult& r) {
  std::string line = name;
  char buffer[64];
  const auto put = [&](const char* format, auto value) {
    std::snprintf(buffer, sizeof buffer, format, value);
    line += buffer;
  };
  put(" makespan=%.17g", r.makespan);
  put(" redistributions=%d", r.redistributions);
  put(" rc=%.17g", r.redistribution_cost);
  put(" faults=%d", r.faults_effective);
  line += " completion=";
  for (double t : r.completion_times) put("%.17g,", t);
  line += " allocation=";
  for (int a : r.final_allocation) put("%d,", a);
  return line + "\n";
}

/// The five arrival-driven schedulers on a small faulty Poisson cell,
/// pinned to the values the forked adaptive loop produced before the
/// adaptive policies moved onto extensions::OnlineSim. At both loads the
/// bandit (hold arm), reshape (cap path) and both batch baselines end
/// with makespans different from malleable's, so every branch of the
/// shared loop shows in the bytes.
TEST(PolicyBytesLock, ArrivalDrivenSchedulersKeepTheirBytes) {
  const std::vector<ConfigSpec> configs = parse_config_set(
      "malleable, bandit(window=10, explore=0.25), reshape(gain=1), easy, "
      "fcfs");
  const struct {
    double load;
    const char* expected;
  } cases[] = {
      {0.5,
       "Online malleable (RC) makespan=380840050.44904971"
       " redistributions=31 rc=6282753.8975234693 faults=64"
       " completion="
       "12801734.121867821,67030914.825415447,61626473.486023381,"
       "68300929.304450005,68128315.121973589,145331115.40572029,"
       "196753763.21555957,198109329.67490083,197346916.58288175,"
       "277667626.4535985,277811021.13215458,276951897.07787317,"
       "300856530.11131811,302298113.35986483,301719031.1759125,"
       "337182190.9884035,358044075.79882598,356216551.14176095,"
       "355706370.289846,380840050.44904971,"
       " allocation=80,2,2,80,14,80,22,4,76,64,80,56,14,4,76,80,2,60,48,80,\n"
       "bandit(window=10, explore=0.25) makespan=380840050.44904971"
       " redistributions=18 rc=6164543.3150971085 faults=68"
       " completion="
       "12801734.121867821,67084517.269658312,69692417.04091391,"
       "68797110.461868539,71062301.2769835,145331115.40572029,"
       "196753763.21555957,198109329.67490083,197346916.58288175,"
       "272814454.61599064,273278565.0890305,283318599.37038487,"
       "296356079.57964963,306036416.56012201,306616044.58893412,"
       "337182190.9884035,359827835.45075881,358701000.54149812,"
       "358504566.30553442,380840050.44904971,"
       " allocation=80,2,78,12,2,80,22,4,76,46,34,46,80,50,30,80,4,32,44,80,\n"
       "reshape(gain=1) makespan=380840050.44904971"
       " redistributions=30 rc=6261191.9868563898 faults=64"
       " completion="
       "12801734.121867821,67030914.825415447,61626473.486023381,"
       "68288928.864679888,68128315.121973589,145331115.40572029,"
       "196753763.21555957,198109329.67490083,197346916.58288175,"
       "277667626.4535985,277811021.13215458,276951897.07787317,"
       "300856530.11131811,302298113.35986483,301719031.1759125,"
       "337182190.9884035,358044075.79882598,356216551.14176095,"
       "355706370.289846,380840050.44904971,"
       " allocation=80,2,2,66,14,80,22,4,76,64,80,56,14,4,76,80,2,60,48,80,\n"
       "Online EASY backfilling makespan=380840050.44904971"
       " redistributions=0 rc=0 faults=94"
       " completion="
       "12801734.121867821,50901416.802915402,63225619.982843503,"
       "71659402.014580369,82379881.108910754,145331115.40572029,"
       "193541041.7269322,205620285.49458835,214247562.55335435,"
       "271834200.85599363,279639009.25187147,287628769.66858053,"
       "296356079.57964963,305412773.90361583,313229944.5886482,"
       "337182190.9884035,350560587.10985363,358897261.21057469,"
       "368842316.51421374,380840050.44904971,"
       " allocation=80,80,80,80,80,80,80,80,80,80,"
       "80,80,80,80,80,80,80,80,80,80,\n"
       "Online FCFS (rigid) makespan=380840050.44904971"
       " redistributions=0 rc=0 faults=94"
       " completion="
       "12801734.121867821,50901416.802915402,63225619.982843503,"
       "71659402.014580369,82379881.108910754,145331115.40572029,"
       "193541041.7269322,205620285.49458835,214247562.55335435,"
       "271834200.85599363,279639009.25187147,287628769.66858053,"
       "296356079.57964963,305412773.90361583,313229944.5886482,"
       "337182190.9884035,350560587.10985363,358897261.21057469,"
       "368842316.51421374,380840050.44904971,"
       " allocation=80,80,80,80,80,80,80,80,80,80,"
       "80,80,80,80,80,80,80,80,80,80,\n"},
      {4.0,
       "Online malleable (RC) makespan=69135789.995697081"
       " redistributions=114 rc=28526260.466825496 faults=38"
       " completion="
       "21096306.958495997,33541677.580252185,35100512.313662983,"
       "29225607.13414596,35045361.571650431,42274637.583467975,"
       "56861859.592856623,60255137.250177838,56052102.901381195,"
       "64252480.990470044,64455263.667291902,60171859.947705425,"
       "67506853.590151519,66818006.28031987,66892437.679626867,"
       "69135789.995697081,68103988.525598496,69083554.752721041,"
       "66201640.838194117,69046613.687646002,"
       " allocation=2,2,2,2,2,2,2,2,2,2,2,2,70,4,2,6,74,36,18,38,\n"
       "bandit(window=10, explore=0.25) makespan=72826811.872715324"
       " redistributions=74 rc=18424158.558248956 faults=38"
       " completion="
       "26173107.238604579,34992436.749240324,35434801.099780276,"
       "30091470.488421343,36210548.853302389,43267011.955165759,"
       "55759199.005050555,58810605.447425842,59417102.365535758,"
       "62585552.611501753,63260119.64282418,57952113.975123003,"
       "62261147.372477546,58221562.907473087,72826811.872715324,"
       "70497207.70693326,67545940.853297919,68062944.066479206,"
       "66424082.198795199,68495633.632796347,"
       " allocation=2,2,2,2,2,2,2,2,2,2,2,4,2,10,4,6,14,12,8,26,\n"
       "reshape(gain=1) makespan=69418568.823559493"
       " redistributions=97 rc=22288267.587180004 faults=38"
       " completion="
       "21096306.958495997,33541677.580252185,35100512.313662983,"
       "29225607.13414596,35045361.571650431,42274637.583467975,"
       "56861859.592856623,60255137.250177838,56052102.901381195,"
       "64252480.990470044,64455263.667291902,60171859.947705425,"
       "68229870.921020865,65653551.726926178,65665446.051045217,"
       "66682830.257930249,65330456.805027701,65867901.353780977,"
       "69418568.823559493,65826859.170820445,"
       " allocation=2,2,2,2,2,2,2,2,2,2,2,2,12,14,2,10,10,14,14,14,\n"
       "Online EASY backfilling makespan=191438459.51223728"
       " redistributions=0 rc=0 faults=95"
       " completion="
       "9590156.5148701388,20756353.536411535,31427708.24616725,"
       "39440346.130774848,50984436.581529438,61178216.274505533,"
       "73037841.660590753,83750725.328916237,93061022.006699473,"
       "101668500.29496142,108902010.44678485,117095124.55164087,"
       "125965020.94834326,135221321.63899776,144002674.86002079,"
       "153698837.96496385,164605869.96418598,173969790.93067685,"
       "183175479.11288667,191438459.51223728,"
       " allocation=80,80,80,80,80,80,80,80,80,80,"
       "80,80,80,80,80,80,80,80,80,80,\n"
       "Online FCFS (rigid) makespan=191438459.51223728"
       " redistributions=0 rc=0 faults=95"
       " completion="
       "9590156.5148701388,20756353.536411535,31427708.24616725,"
       "39440346.130774848,50984436.581529438,61178216.274505533,"
       "73037841.660590753,83750725.328916237,93061022.006699473,"
       "101668500.29496142,108902010.44678485,117095124.55164087,"
       "125965020.94834326,135221321.63899776,144002674.86002079,"
       "153698837.96496385,164605869.96418598,173969790.93067685,"
       "183175479.11288667,191438459.51223728,"
       " allocation=80,80,80,80,80,80,80,80,80,80,"
       "80,80,80,80,80,80,80,80,80,80,\n"},
  };
  for (const auto& c : cases) {
    Scenario scenario;
    scenario.n = 20;
    scenario.p = 80;
    scenario.mtbf_years = 5.0;
    scenario.arrival_law = extensions::ArrivalLaw::Poisson;
    scenario.load_factor = c.load;
    validate_scenario(scenario);
    const CellResult cell = run_cell(scenario, configs, 0);
    ASSERT_EQ(cell.results.size(), configs.size());
    std::string text;
    for (std::size_t k = 0; k < configs.size(); ++k)
      text += render_result(configs[k].name, cell.results[k]);
    EXPECT_EQ(text, c.expected) << "load=" << c.load;
  }
}

}  // namespace
}  // namespace coredis::exp
