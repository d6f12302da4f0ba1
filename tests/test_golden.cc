/**
 * @file
 * Golden-number regression tests pinning the paper's headline
 * aggregates (Fig. 12, Appendix A).  These guard the evaluation layer
 * against silent drift: any change to the chip tables, the public
 * model tables, or the error arithmetic that moves a headline number
 * fails loudly here.  The pipeline digests at the end pin whole
 * fab -> image -> RE runs the same way, absolutely rather than
 * relative to another code path.
 *
 * Each golden constant below is the value the current tables produce,
 * with the corresponding paper headline noted alongside.  Tolerances
 * are tight (the computation is deterministic); they exist only to
 * absorb benign FP reassociation across compilers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "core/pipeline.hh"
#include "core/stages.hh"
#include "eval/bitline_ext.hh"
#include "eval/model_accuracy.hh"
#include "models/chip_data.hh"

namespace
{

using namespace hifi;

constexpr double kTol = 1e-4;

/// Fig. 12 aggregates keyed by "MODEL/ddrN".
std::map<std::string, eval::ModelAccuracy>
fig12ByKey()
{
    std::map<std::string, eval::ModelAccuracy> out;
    for (const auto &acc : eval::fig12Summary())
        out[acc.model + "/ddr" + std::to_string(acc.ddr)] = acc;
    return out;
}

TEST(Golden, Fig12CrowDdr4Aggregates)
{
    const auto fig12 = fig12ByKey();
    ASSERT_TRUE(fig12.count("CROW/ddr4"));
    const auto &crow = fig12.at("CROW/ddr4");

    // Paper: CROW's average W/L error on DDR4 is ~236%.
    EXPECT_NEAR(crow.avgWl, 2.381211, kTol);
    // Paper: CROW overestimates one width by ~9x (938%).
    EXPECT_NEAR(crow.maxW, 9.362694, kTol);
    EXPECT_EQ(crow.maxWAt, "C4.precharge");
    // Paper: worst W/L error ~562%.
    EXPECT_NEAR(crow.maxWl, 5.678181, kTol);
    EXPECT_EQ(crow.maxWlAt, "C4.precharge");
    // Paper: CROW's average width error ~271%.
    EXPECT_NEAR(crow.avgW, 2.611720, kTol);
}

TEST(Golden, Fig12RemDdr4Aggregates)
{
    const auto fig12 = fig12ByKey();
    ASSERT_TRUE(fig12.count("REM/ddr4"));
    const auto &rem = fig12.at("REM/ddr4");

    // Paper: REM's average length error on DDR4 is ~31%.
    EXPECT_NEAR(rem.avgL, 0.292305, kTol);
    // Paper: REM's worst length error ~101% (here exactly 100%).
    EXPECT_NEAR(rem.maxL, 1.0, kTol);
    EXPECT_EQ(rem.maxLAt, "C4.equalizer");
    EXPECT_NEAR(rem.avgWl, 0.226717, kTol);
}

TEST(Golden, Fig12RemBeatsCrowOnWl)
{
    // Section VI-A: REM is closer to silicon than CROW on W/L for
    // both generations.
    const auto fig12 = fig12ByKey();
    for (const int ddr : {4, 5}) {
        const std::string gen = "/ddr" + std::to_string(ddr);
        ASSERT_TRUE(fig12.count("CROW" + gen));
        ASSERT_TRUE(fig12.count("REM" + gen));
        EXPECT_LT(fig12.at("REM" + gen).avgWl,
                  fig12.at("CROW" + gen).avgWl)
            << "ddr" << ddr;
    }
}

TEST(Golden, Fig12PortabilityWorsensOnDdr5)
{
    // Both DDR4-era models degrade when applied to the DDR5 chips —
    // the portability caveat of Section VI-A.
    const auto fig12 = fig12ByKey();
    EXPECT_GT(fig12.at("CROW/ddr5").avgWl,
              fig12.at("CROW/ddr4").avgWl);
    EXPECT_GT(fig12.at("REM/ddr5").avgWl,
              fig12.at("REM/ddr4").avgWl);
    EXPECT_NEAR(fig12.at("CROW/ddr5").avgWl, 3.506720, kTol);
    EXPECT_NEAR(fig12.at("REM/ddr5").avgWl, 0.337463, kTol);
}

TEST(Golden, AppendixAEq1Extension)
{
    // Eq. 1 nominal case (B_w = 2 d): doubling the bitlines extends
    // the SA region by exactly 1/3 — the paper's "33%".
    EXPECT_DOUBLE_EQ(eval::bitlineDoublingExtension(), 1.0 / 3.0);
    EXPECT_NEAR(eval::bitlineDoublingExtension(), 0.333333, kTol);
}

TEST(Golden, AppendixAChipOverheadOnB5)
{
    // Paper: chip-level overhead of the extension is ~21% on B5.
    const double overhead =
        eval::bitlineDoublingChipOverhead(models::chip("B5"));
    EXPECT_NEAR(overhead, 0.221482, kTol);
    EXPECT_GT(overhead, 0.20);
    EXPECT_LT(overhead, 0.25);
}

// ---- Whole-pipeline report digests ---------------------------------
// core::reportDigest covers every seeded report field (topology,
// devices, dimensions, alignment residual, QC audit, campaign cost),
// so these pin the full fab -> acquire -> postprocess -> analyze ->
// finalize chain bit for bit.  A change that moves one of them must
// say why in CHANGES.md and re-pin.

uint64_t
pipelineDigest(const core::PipelineConfig &config)
{
    auto report = core::runPipelineChecked(config);
    EXPECT_TRUE(report.ok()) << report.error().message;
    return report.ok() ? core::reportDigest(report.value()) : 0;
}

core::PipelineConfig
goldenConfig(const char *chip)
{
    core::PipelineConfig config;
    config.chipId = chip;
    return config;
}

TEST(GoldenPipeline, A4DefaultConfig)
{
    EXPECT_EQ(pipelineDigest(goldenConfig("A4")), 0xcdaebb4ea10fb3cbull);
}

TEST(GoldenPipeline, B5DefaultConfig)
{
    EXPECT_EQ(pipelineDigest(goldenConfig("B5")), 0x260ad50dfca8cd00ull);
}

TEST(GoldenPipeline, B5FaultsOn)
{
    core::PipelineConfig config = goldenConfig("B5");
    config.faults.enabled = true;
    EXPECT_EQ(pipelineDigest(config), 0xdadde04465ef79f2ull);
}

TEST(GoldenPipeline, B5FaultsOnMemoryBudgetEqualsInRam)
{
    core::PipelineConfig config = goldenConfig("B5");
    config.faults.enabled = true;
    config.memoryBudget = 32ull << 20;
    // Same digest as B5FaultsOn: the budget never changes a report bit.
    EXPECT_EQ(pipelineDigest(config), 0xdadde04465ef79f2ull);
}

// ---- MI search work counters ---------------------------------------
// The MI shift search screens every candidate and re-scores exactly
// only the near-max set (image/registration.hh).  Work counters are
// deterministic, so they are pinned per run like the digests: equal at
// 1, 2 and 4 threads, and again under HIFI_SIMD=off, where CI re-runs
// this suite.  A screen that stopped pruning would push
// mi.exact_rescored towards mi.exhaustive.evals.

struct MiWork
{
    uint64_t searches = 0, evals = 0, rescored = 0;
};

MiWork
miWork(core::PipelineConfig config, size_t threads)
{
    config.threads = threads;
    config.telemetry.enabled = true;
    const auto report = core::runPipelineChecked(config);
    EXPECT_TRUE(report.ok()) << report.error().message;
    MiWork work;
    if (!report.ok() || !report.value().telemetry)
        return work;
    const auto &counters = report.value().telemetry->metrics.counters;
    const auto count = [&](const char *name) -> uint64_t {
        const auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    };
    work.searches = count("mi.searches");
    work.evals = count("mi.exhaustive.evals");
    work.rescored = count("mi.exact_rescored");
    return work;
}

void
expectPinnedMiWork(const core::PipelineConfig &config, MiWork want)
{
    for (const size_t threads : {1u, 2u, 4u}) {
        const MiWork got = miWork(config, threads);
        EXPECT_EQ(got.searches, want.searches) << "threads " << threads;
        EXPECT_EQ(got.evals, want.evals) << "threads " << threads;
        EXPECT_EQ(got.rescored, want.rescored) << "threads " << threads;
    }
}

TEST(GoldenPipeline, B5DefaultConfigMiWork)
{
    // 476 slice-pair registrations over a +-6 px window (169
    // candidates each), one exact re-score apiece.
    constexpr MiWork want{476, 80444, 476};
    static_assert(100 * want.rescored <= 105 * want.searches);
    expectPinnedMiWork(goldenConfig("B5"), want);
}

TEST(GoldenPipeline, B5FaultsOnMiWork)
{
    // QC searches (+-8 px) join the registrations.  Two QC searches
    // meet a dropout (featureless) frame, where every candidate ties
    // and all 289 are re-scored; every other search re-scores one:
    // 1609 = (1033 - 2) + 2 * 289.
    constexpr MiWork want{1033, 241417, 1609};
    static_assert(want.rescored == (want.searches - 2) + 2 * 289);
    core::PipelineConfig config = goldenConfig("B5");
    config.faults.enabled = true;
    expectPinnedMiWork(config, want);
}

} // namespace
