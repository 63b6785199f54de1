// The experiment engine: grid expansion, cache-key contract, bit-identical
// warm-vs-cold JSON, selective invalidation, thread invariance, and the
// sharded-writers race (run this binary under DRS_SANITIZE=thread).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/cli.hpp"
#include "exp/engine.hpp"
#include "util/parallel.hpp"

namespace {

using namespace drs;

std::string temp_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("drs-exp-test-") + tag + "-" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

// --- spec / grid ------------------------------------------------------------

TEST(ParamGrid, ExpandsLastAxisFastest) {
  exp::ParamGrid grid;
  grid.ints("n", {4, 6}).ints("f", {1, 2, 3});
  EXPECT_EQ(grid.cell_count(), 6u);
  const auto cells = exp::expand(grid);
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].canonical(), "n=i:4|f=i:1");
  EXPECT_EQ(cells[1].canonical(), "n=i:4|f=i:2");
  EXPECT_EQ(cells[3].canonical(), "n=i:6|f=i:1");
  EXPECT_EQ(cells[5].canonical(), "n=i:6|f=i:3");
}

TEST(ParamGrid, ParsesSweepSyntax) {
  std::string error;
  const auto grid =
      exp::parse_grid("n=2,4;f=2..5;relay=true,false;mode=hub,switch", &error);
  ASSERT_TRUE(grid.has_value()) << error;
  EXPECT_EQ(grid->axes().size(), 4u);
  EXPECT_EQ(grid->cell_count(), 2u * 4u * 2u * 2u);
  const auto cells = exp::expand(*grid);
  EXPECT_EQ(cells[0].get_int("f", -1), 2);
  EXPECT_EQ(cells[0].get_bool("relay", false), true);
  EXPECT_EQ(cells[0].get_string("mode", ""), "hub");
}

TEST(ParamGrid, ParsesRangesWithStep) {
  std::string error;
  const auto grid = exp::parse_grid("iters=10..50:20", &error);
  ASSERT_TRUE(grid.has_value()) << error;
  const auto cells = exp::expand(*grid);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[2].get_int("iters", 0), 50);
}

TEST(ParamGrid, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(exp::parse_grid("", &error).has_value());
  EXPECT_FALSE(exp::parse_grid("noequals", &error).has_value());
  EXPECT_FALSE(exp::parse_grid("n=1;n=2", &error).has_value());
  EXPECT_FALSE(exp::parse_grid("n=5..2", &error).has_value());
  EXPECT_FALSE(exp::parse_grid("n=", &error).has_value());
}

TEST(Spec, ConfigFingerprintCoversEveryKnob) {
  // Pin the default fingerprint: adding a DrsConfig knob without extending
  // config_fingerprint would silently keep stale cache entries alive. If this
  // fails because you added a knob, extend config_fingerprint AND bump its
  // version prefix.
  const std::string fp = exp::config_fingerprint(core::DrsConfig{});
  EXPECT_EQ(fp,
            "drs-config-v1|probe_interval=100000000|probe_timeout=40000000"
            "|adaptive_timeout=0|min_probe_timeout=2000000|failures_to_down=2"
            "|successes_to_up=1|spread_probes=1|probe_data_bytes=0"
            "|allow_relay=1|discover_timeout=50000000|warm_standby=0"
            "|relay_route_lifetime=2000000000|flap_threshold=0"
            "|flap_window=10000000000|flap_hold=5000000000"
            "|monitored_peers=all");
  core::DrsConfig other;
  other.allow_relay = false;
  EXPECT_NE(exp::config_fingerprint(other), fp);
}

// --- cache-key contract -----------------------------------------------------

TEST(CacheKey, SeedOnlyAffectsSeededFamilies) {
  exp::ExperimentSpec spec;
  spec.grid.ints("n", {8}).ints("f", {3});
  const auto cell = exp::expand(spec.grid).front();

  const exp::Scenario* analytic = exp::find_scenario("fig2_psuccess");
  const exp::Scenario* seeded = exp::find_scenario("mc_estimate");
  ASSERT_NE(analytic, nullptr);
  ASSERT_NE(seeded, nullptr);

  spec.seed = 1;
  const std::string analytic_1 = exp::cell_cache_key(spec, *analytic, cell);
  const std::string seeded_1 = exp::cell_cache_key(spec, *seeded, cell);
  spec.seed = 2;
  EXPECT_EQ(exp::cell_cache_key(spec, *analytic, cell), analytic_1)
      << "a purely analytic family's cache must survive a seed change";
  EXPECT_NE(exp::cell_cache_key(spec, *seeded, cell), seeded_1);
}

TEST(CacheKey, ConfigOnlyAffectsConfigFamilies) {
  exp::ExperimentSpec spec;
  spec.grid.ints("n", {6}).ints("f", {2});
  const auto cell = exp::expand(spec.grid).front();
  const exp::Scenario* analytic = exp::find_scenario("fig2_psuccess");
  const exp::Scenario* config_family = exp::find_scenario("ablation_relay");
  ASSERT_NE(config_family, nullptr);

  const std::string a1 = exp::cell_cache_key(spec, *analytic, cell);
  const std::string c1 = exp::cell_cache_key(spec, *config_family, cell);
  spec.config = core::DrsConfig{};
  spec.config->probe_interval = util::Duration::millis(50);
  EXPECT_EQ(exp::cell_cache_key(spec, *analytic, cell), a1);
  EXPECT_NE(exp::cell_cache_key(spec, *config_family, cell), c1);
}

TEST(Outputs, SerializeParseRoundTripsBitExactly) {
  exp::Outputs outputs;
  outputs.emplace_back("count", std::int64_t{42});
  outputs.emplace_back("p", 0.1 + 0.2);  // not representable exactly
  outputs.emplace_back("ok", true);
  outputs.emplace_back("label", std::string("hub"));
  exp::Outputs back;
  ASSERT_TRUE(exp::parse_outputs(exp::serialize_outputs(outputs), back));
  ASSERT_EQ(back.size(), outputs.size());
  EXPECT_EQ(back[0], outputs[0]);
  EXPECT_EQ(back[1], outputs[1]);  // bit-exact double
  EXPECT_EQ(back[2], outputs[2]);
  EXPECT_EQ(back[3], outputs[3]);
  exp::Outputs bad;
  EXPECT_FALSE(exp::parse_outputs("no-equals-sign\n", bad));
  EXPECT_FALSE(exp::parse_outputs("x=q:unknown-tag\n", bad));
  EXPECT_FALSE(exp::parse_outputs("unterminated=i:1", bad));
}

// --- engine runs ------------------------------------------------------------

exp::ExperimentSpec small_spec() {
  exp::ExperimentSpec spec;
  spec.family = "fig2_psuccess";
  spec.grid.ints("n", {4, 6, 8}).ints("f", {2, 3});
  return spec;
}

TEST(Engine, RejectsUnknownFamilyAndMissingAxes) {
  exp::ExperimentSpec spec;
  spec.family = "no_such_family";
  spec.grid.ints("n", {4});
  EXPECT_FALSE(exp::run_experiment(spec).ok());

  exp::ExperimentSpec missing;
  missing.family = "fig2_psuccess";
  missing.grid.ints("n", {4});  // required axis f absent
  const auto result = exp::run_experiment(missing);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("'f'"), std::string::npos);
}

TEST(Engine, RejectsInvalidSpecConfig) {
  exp::ExperimentSpec spec;
  spec.family = "ablation_relay";
  spec.grid.ints("f", {2}).bools("relay", {true});
  spec.config = core::DrsConfig{};
  spec.config->probe_timeout = spec.config->probe_interval;  // invalid
  const auto result = exp::run_experiment(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("probe_timeout"), std::string::npos);
}

TEST(Engine, WarmRunIsBitIdenticalToColdRun) {
  const std::string dir = temp_dir("warm");
  exp::EngineOptions options;
  options.cache_dir = dir;

  const auto cold = exp::run_experiment(small_spec(), options);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 6u);

  const auto warm = exp::run_experiment(small_spec(), options);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.cache_hits, 6u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.to_json(), cold.to_json()) << "hit must be indistinguishable";
  EXPECT_EQ(warm.to_table().to_csv(), cold.to_table().to_csv());

  // An uncached run agrees too.
  const auto uncached = exp::run_experiment(small_spec());
  EXPECT_EQ(uncached.to_json(), cold.to_json());
  std::filesystem::remove_all(dir);
}

TEST(Engine, EditingOneKnobInvalidatesExactlyAffectedCells) {
  const std::string dir = temp_dir("invalidate");
  exp::EngineOptions options;
  options.cache_dir = dir;
  ASSERT_TRUE(exp::run_experiment(small_spec(), options).ok());

  // n: {4,6,8} -> {4,6,10}: the four (4,*) and (6,*) cells stay cached, the
  // two (10,*) cells are fresh.
  exp::ExperimentSpec edited;
  edited.family = "fig2_psuccess";
  edited.grid.ints("n", {4, 6, 10}).ints("f", {2, 3});
  const auto result = exp::run_experiment(edited, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.cache_hits, 4u);
  EXPECT_EQ(result.cache_misses, 2u);
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const bool fresh = result.cells[i].get_int("n", 0) == 10;
    EXPECT_EQ(result.results[i].from_cache, !fresh);
  }
  std::filesystem::remove_all(dir);
}

TEST(Engine, RefreshRecomputesEverything) {
  const std::string dir = temp_dir("refresh");
  exp::EngineOptions options;
  options.cache_dir = dir;
  ASSERT_TRUE(exp::run_experiment(small_spec(), options).ok());
  options.refresh = true;
  const auto result = exp::run_experiment(small_spec(), options);
  EXPECT_EQ(result.cache_hits, 0u);
  EXPECT_EQ(result.cache_misses, 6u);
  std::filesystem::remove_all(dir);
}

TEST(Engine, OutputIsInvariantToThreadCount) {
  exp::ExperimentSpec spec;
  spec.family = "mc_estimate";
  spec.grid.ints("n", {6, 8, 10, 12}).ints("f", {2, 3}).ints("iterations",
                                                             {200});
  exp::EngineOptions one;
  one.threads = 1;
  exp::EngineOptions many;
  many.threads = 8;
  const auto a = exp::run_experiment(spec, one);
  const auto b = exp::run_experiment(spec, many);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(Engine, ConcurrentShardedWritersShareOneCacheSafely) {
  // Two engines race the same grid into the same cache directory on many
  // threads. Under DRS_SANITIZE=thread this is the sharded-writers race; the
  // results must be correct and complete either way.
  const std::string dir = temp_dir("sharedrace");
  exp::ExperimentSpec spec;
  spec.family = "fig2_psuccess";
  std::vector<std::int64_t> ns;
  for (std::int64_t n = 4; n <= 24; ++n) ns.push_back(n);
  spec.grid.ints("n", ns).ints("f", {2, 3});

  const auto reference = exp::run_experiment(spec);
  const auto runs = util::run_indexed_jobs(2, 2, [&](std::uint64_t) {
    exp::EngineOptions options;
    options.cache_dir = dir;
    options.threads = 4;
    return exp::run_experiment(spec, options);
  });
  for (const auto& run : runs) {
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.to_json(), reference.to_json());
  }
  std::filesystem::remove_all(dir);
}

TEST(Engine, JsonReportAndSummaryLine) {
  const auto result = exp::run_experiment(small_spec());
  ASSERT_TRUE(result.ok());
  exp::JsonReport report;
  report.add(result);
  report.add(result);
  const std::string doc = report.str();
  EXPECT_EQ(doc.front(), '[');
  EXPECT_EQ(doc.back(), ']');
  EXPECT_NE(doc.find("\"family\":\"fig2_psuccess\""), std::string::npos);
  const std::string line = exp::summary_line(result);
  EXPECT_NE(line.find("family=fig2_psuccess"), std::string::npos);
  EXPECT_NE(line.find("cells=6"), std::string::npos);
  EXPECT_NE(line.find("hit_rate=0"), std::string::npos);
}

TEST(Engine, FleetSmokeRejectsOutOfRangeAxesNamingTheField) {
  // Each axis is cast to a narrow integer downstream; an out-of-range value
  // must fail up front naming its field, not wrap (clusters=65536 would
  // become a zero-cluster fleet). A fleet runs on at least one shard, so
  // shards=0 is rejected too.
  struct Case {
    std::string field;
    std::int64_t value;
  };
  const std::vector<Case> cases = {
      {"clusters", 0},        {"clusters", 255},  {"clusters", 65536},
      {"n", 1},               {"n", 255},         {"n", 65538},
      {"shards", -1},         {"shards", 0},      {"shards", 255},
      {"shards", 4294967297},
  };
  exp::EngineOptions options;
  options.threads = 1;
  for (const Case& c : cases) {
    exp::ExperimentSpec spec;
    spec.family = "fleet_smoke";
    spec.grid.ints("clusters", {c.field == "clusters" ? c.value : 2});
    if (c.field != "clusters") spec.grid.ints(c.field, {c.value});
    spec.grid.ints("run_ms", {10});
    const std::string label = c.field + "=" + std::to_string(c.value);
    try {
      const auto result = exp::run_experiment(spec, options);
      ADD_FAILURE() << label << " accepted (error: '" << result.error << "')";
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("`" + c.field + "`"), std::string::npos)
          << label << ": " << what;
    } catch (const std::exception& error) {
      ADD_FAILURE() << label << ": wrong exception type: " << error.what();
    }
  }
}

TEST(Engine, ThrowingCellInAThreadedGridReachesTheCaller) {
  // One bad cell in a multi-cell grid on 4 threads: its
  // std::invalid_argument must reach the caller, naming the field, instead
  // of ending the process from a worker thread.
  exp::ExperimentSpec spec;
  spec.family = "fleet_smoke";
  spec.grid.ints("clusters", {2, 3, 0, 4});
  spec.grid.ints("n", {3});
  spec.grid.ints("run_ms", {10});
  exp::EngineOptions options;
  options.threads = 4;
  try {
    const auto result = exp::run_experiment(spec, options);
    ADD_FAILURE() << "clusters=0 accepted (error: '" << result.error << "')";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("`clusters`"), std::string::npos) << what;
  }
}

TEST(Engine, EveryRegisteredFamilyRunsItsSmallestCell) {
  // Smoke-run each family on a tiny grid so a scenario that stops compiling
  // against its model is caught here, not in a long bench run.
  for (const exp::Scenario& s : exp::scenarios()) {
    exp::ExperimentSpec spec;
    spec.family = s.family;
    for (const std::string& axis : s.required) {
      if (axis == "n") {
        spec.grid.ints("n", {4});
      } else if (axis == "f") {
        spec.grid.ints("f", {2});
      } else if (axis == "budget" || axis == "q") {
        spec.grid.doubles(axis, {0.1});
      } else if (axis == "deadline" || axis == "target") {
        spec.grid.doubles(axis, {1.0});
      } else if (axis == "iterations" || axis == "samples") {
        spec.grid.ints(axis, {10});
      } else if (axis == "threshold") {
        spec.grid.ints(axis, {2});
      } else if (axis == "relay" || axis == "spread" || axis == "warm") {
        spec.grid.bools(axis, {true});
      } else if (axis == "clusters") {
        spec.grid.ints("clusters", {2});
      } else {
        FAIL() << "family " << s.family << " requires unknown axis '" << axis
               << "' — teach this test how to fill it";
      }
    }
    // Shrink the slow packet-level families.
    if (!spec.grid.has_axis("samples") &&
        (s.family == "ablation_relay" ||
         s.family == "ablation_packet_agreement")) {
      spec.grid.ints("samples", {2});
    }
    if (s.family == "ablation_spread") spec.grid.ints("run_ms", {50});
    if (s.family == "ablation_detector") spec.grid.ints("interval_ms", {50});
    if (s.family == "fig1_measured") spec.grid.ints("cycles", {1});
    if (s.family == "fig3_convergence") spec.grid.ints("n_limit", {8});
    const auto result = exp::run_experiment(spec);
    EXPECT_TRUE(result.ok()) << s.family << ": " << result.error;
    ASSERT_FALSE(result.results.empty()) << s.family;
    EXPECT_FALSE(result.results.front().outputs.empty()) << s.family;
  }
}

}  // namespace
