/**
 * @file
 * Robustness-layer tests: the fault injector, the per-slice QC
 * detector, the bounded re-imaging / interpolation loop, typed-error
 * validation, and the determinism contract of the degraded pipeline
 * (ISSUE 3).  The injected-fault ground truth stamped into the
 * SliceStack provenance lets these tests score detection directly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/parallel.hh"
#include "common/result.hh"
#include "core/pipeline.hh"
#include "image/qc.hh"
#include "scope/faults.hh"
#include "scope/fib.hh"

namespace
{

using namespace hifi;
using scope::FaultKind;

/**
 * Structured scene for acquisition tests: a silicon background with
 * horizontal layer bands (oxide, poly) that pin the z registration,
 * plus a tungsten grating and a copper bar that both advance one pixel
 * per slice in y — slice content varies smoothly with x, so slice
 * skips and drift excursions show up as a neighbour shift, without any
 * wrap-around jump that would look like a fault.
 */
image::Volume3D
makeScene(size_t nx = 120, size_t ny = 48, size_t nz = 40)
{
    image::Volume3D vol(nx, ny, nz, 1.0f); // silicon
    for (size_t x = 0; x < nx; ++x) {
        const size_t s = x / 2; // slice index at sliceVoxels == 2
        const size_t tri = s % 58 < 29 ? s % 58 : 58 - s % 58;
        const size_t bar_y = 4 + tri;
        for (size_t y = 0; y < ny; ++y) {
            for (size_t z = 0; z < nz; ++z) {
                float v = 1.0f;
                if (z >= 12 && z < 16)
                    v = 0.0f; // oxide band
                else if (z >= 22 && z < 26)
                    v = 2.0f; // poly band
                else if (z >= 16 && z < 22 &&
                         (y + 2000 - s) % 20 < 3)
                    v = 3.0f; // tungsten grating, +1 px/slice in y
                if (z >= 30 && z < 34 && y >= bar_y && y < bar_y + 4)
                    v = 4.0f; // moving copper bar
                vol.at(x, y, z) = v;
            }
        }
    }
    return vol;
}

scope::FibSemParams
sceneParams()
{
    scope::FibSemParams params;
    params.sliceVoxels = 2;
    params.driftProbability = 0.3;
    params.maxDriftPx = 3;
    return params;
}

// ---- common::Result ---------------------------------------------------

TEST(Result, HoldsValueOrError)
{
    common::Result<int> ok(42);
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 42);
    EXPECT_THROW(ok.error(), std::logic_error);

    auto bad = common::Result<int>::failure(
        common::ErrorCode::NotFound, "missing");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, common::ErrorCode::NotFound);
    EXPECT_EQ(bad.error().message, "missing");
    EXPECT_THROW(bad.value(), std::logic_error);
    EXPECT_STREQ(common::errorCodeName(bad.error().code),
                 "not-found");
}

// ---- QC metrics -------------------------------------------------------

TEST(Qc, IntrinsicMetricsFlagObviousPathologies)
{
    common::Rng rng(7);
    image::Image2D clean(64, 48, 0.4f);
    for (float &v : clean.data())
        v += static_cast<float>(rng.gaussian(0.0, 0.05));
    // Some structure so the SNR numerator is non-zero.
    clean.fillRect(10, 10, 30, 20, 0.8f);

    const auto base = image::computeQcMetrics(clean);
    EXPECT_FALSE(base.flagged())
        << "flags " << base.flags << " sat "
        << base.saturationFraction;

    image::Image2D saturated = clean;
    saturated.fillRect(5, 5, 40, 30, 1.2f);
    EXPECT_TRUE(image::computeQcMetrics(saturated).flags &
                image::kQcSaturation);

    image::Image2D dead = clean;
    dead.fillRect(0, 20, 64, 28, 0.0f);
    EXPECT_TRUE(image::computeQcMetrics(dead).flags &
                image::kQcDeadRows);

    image::Image2D blank(64, 48, 0.0f);
    EXPECT_TRUE(image::computeQcMetrics(blank).flags &
                image::kQcLowSnr);
}

TEST(Qc, NoiseSigmaEstimateTracksTruth)
{
    common::Rng rng(11);
    image::Image2D img(96, 96, 0.5f);
    for (float &v : img.data())
        v += static_cast<float>(rng.gaussian(0.0, 0.08));
    const double sigma = image::estimateNoiseSigma(img);
    EXPECT_NEAR(sigma, 0.08, 0.02);
}

TEST(Qc, MonitorDetectsDefocusRelativeToHistory)
{
    common::Rng rng(13);
    image::QcMonitor monitor;
    image::Image2D sharp(64, 48, 0.4f);
    sharp.fillRect(20, 10, 44, 30, 0.8f);
    for (int i = 0; i < 3; ++i) {
        image::Image2D frame = sharp;
        for (float &v : frame.data())
            v += static_cast<float>(rng.gaussian(0.0, 0.05));
        const auto m = monitor.evaluate(frame);
        EXPECT_FALSE(m.flagged()) << "warmup " << i;
        monitor.accept(frame, m);
    }

    image::Image2D blurred = sharp;
    for (float &v : blurred.data())
        v += static_cast<float>(rng.gaussian(0.0, 0.05));
    scope::FaultParams faults;
    scope::applyFocusLoss(blurred, faults);
    const auto m = monitor.evaluate(blurred);
    EXPECT_TRUE(m.flags & image::kQcDefocus);
}

// ---- Fault application ------------------------------------------------

TEST(Faults, CurtainingImprintsLowFrequencyStripes)
{
    image::Image2D img(64, 48, 0.5f);
    const double before = image::stripeScore(img);
    scope::FaultParams faults;
    common::Rng rng(3);
    scope::applyCurtaining(img, faults, rng);
    EXPECT_GT(image::stripeScore(img), before + 0.02);
    EXPECT_LT(img.meanValue(), 0.5f); // dimming only
}

TEST(Faults, ChargingSaturatesARegion)
{
    image::Image2D img(64, 48, 0.3f);
    scope::FaultParams faults;
    common::Rng rng(4);
    scope::applyCharging(img, faults, rng);
    const double sat = image::saturationFraction(img, 1.05);
    EXPECT_NEAR(sat, faults.chargeAreaFrac, 0.1);
}

TEST(Faults, DropoutKillsRowsOrFrame)
{
    scope::FaultParams faults;
    bool saw_rows = false, saw_blank = false;
    for (uint64_t seed = 0; seed < 12; ++seed) {
        // Textured base so only the injected dead rows are constant.
        image::Image2D img(32, 40, 0.5f);
        for (size_t y = 0; y < img.height(); ++y)
            for (size_t x = 0; x < img.width(); ++x)
                img.at(x, y) +=
                    0.01f * static_cast<float>(x % 7) +
                    0.02f * static_cast<float>(y % 5);
        common::Rng rng(seed);
        scope::applyDetectorDropout(img, faults, rng);
        const double dead = image::deadRowFraction(img);
        if (dead >= 0.99)
            saw_blank = true;
        else if (dead > 0.02)
            saw_rows = true;
    }
    EXPECT_TRUE(saw_rows);
    EXPECT_TRUE(saw_blank);
}

TEST(Faults, SamplingIsSeedDeterministicAndRateFaithful)
{
    scope::FaultParams faults;
    faults.enabled = true;
    size_t counts[8] = {};
    for (uint64_t s = 0; s < 4000; ++s) {
        common::Rng a(99, s), b(99, s);
        const auto ka = scope::sampleFaultKind(faults, a);
        const auto kb = scope::sampleFaultKind(faults, b);
        EXPECT_EQ(ka, kb);
        ++counts[static_cast<size_t>(ka)];
    }
    const double total = 4000.0;
    EXPECT_NEAR(1.0 - static_cast<double>(
                          counts[0]) / total,
                faults.totalProbability(), 0.03);
    EXPECT_GT(counts[static_cast<size_t>(FaultKind::Curtaining)], 0u);
    EXPECT_GT(counts[static_cast<size_t>(FaultKind::SliceSkip)], 0u);
}

TEST(Faults, ValidationRejectsBadRates)
{
    scope::FaultParams faults;
    EXPECT_FALSE(scope::validate(faults).has_value());
    faults.chargingProbability = -0.1;
    ASSERT_TRUE(scope::validate(faults).has_value());
    EXPECT_EQ(scope::validate(faults)->code,
              common::ErrorCode::InvalidArgument);
    faults.chargingProbability = 0.5;
    faults.curtainingProbability = 0.6;
    EXPECT_TRUE(scope::validate(faults).has_value());
}

// ---- Robust acquisition ----------------------------------------------

TEST(AcquireRobust, CleanRunMatchesPlainShapeWithFullConfidence)
{
    const auto vol = makeScene();
    const auto params = sceneParams();
    scope::FaultParams faults; // disabled
    scope::RecoveryParams recovery;
    const auto robust = scope::acquire(vol, params, faults,
                                       recovery, 21);
    EXPECT_EQ(robust.stack.slices.size(), 60u);
    EXPECT_EQ(robust.stack.provenance.size(), 60u);
    EXPECT_EQ(robust.slicesRetried, 0u);
    EXPECT_EQ(robust.retries, 0u);
    EXPECT_EQ(robust.slicesInterpolated, 0u);
    EXPECT_EQ(robust.slicesUnrecoverable, 0u);
    EXPECT_EQ(robust.faultsInjected, 0u);
    EXPECT_DOUBLE_EQ(robust.qcConfidence, 1.0);
    for (const auto &d : robust.stack.trueDrift) {
        EXPECT_LE(std::abs(d.first), params.maxDriftPx);
        EXPECT_LE(std::abs(d.second), params.maxDriftPx);
    }
}

TEST(AcquireRobust, DetectsAtLeastNinetyPercentOfInjectedFaults)
{
    const auto vol = makeScene();
    const auto params = sceneParams();
    // Dense imaging-fault mix (skips scored separately below).
    scope::FaultParams faults;
    faults.enabled = true;
    faults.curtainingProbability = 0.10;
    faults.chargingProbability = 0.10;
    faults.focusLossProbability = 0.10;
    faults.dropoutProbability = 0.08;
    faults.sliceSkipProbability = 0.0;
    faults.driftExcursionProbability = 0.08;
    scope::RecoveryParams recovery;

    size_t labeled = 0, detected = 0, clean = 0, false_pos = 0;
    size_t missed_by_kind[8] = {};
    size_t fp_by_flag[8] = {};
    for (uint64_t seed : {101u, 202u, 303u}) {
        const auto robust = scope::acquire(
            vol, params, faults, recovery, seed);
        const auto &prov = robust.stack.provenance;
        ASSERT_EQ(prov.size(), 60u);
        // The first two slices have no QC history/reference yet;
        // relative detectors are blind there by construction.
        for (size_t s = 2; s < prov.size(); ++s) {
            if (prov[s].injectedFault != 0) {
                ++labeled;
                detected += prov[s].firstAttemptFlagged;
                if (!prov[s].firstAttemptFlagged)
                    ++missed_by_kind[prov[s].injectedFault % 8];
            } else {
                ++clean;
                false_pos += prov[s].firstAttemptFlagged;
                for (size_t b = 0; b < 8; ++b)
                    if (prov[s].firstAttemptFlags & (1u << b))
                        ++fp_by_flag[b];
            }
        }
    }
    auto table = [](const size_t *counts) {
        std::string s;
        for (size_t i = 0; i < 8; ++i)
            s += std::to_string(counts[i]) + " ";
        return s;
    };
    ASSERT_GT(labeled, 30u);
    const double recall = static_cast<double>(detected) /
        static_cast<double>(labeled);
    const double fpr = static_cast<double>(false_pos) /
        static_cast<double>(clean);
    EXPECT_GE(recall, 0.9)
        << detected << "/" << labeled << " missed-by-kind "
        << table(missed_by_kind);
    EXPECT_LE(fpr, 0.05)
        << false_pos << "/" << clean << " fp-by-flag-bit "
        << table(fp_by_flag);
}

TEST(AcquireRobust, RetryBudgetExhaustionFallsBackToInterpolation)
{
    const auto vol = makeScene();
    const auto params = sceneParams();
    // Only slice skips: the mill overshoot persists across re-imaging
    // attempts, so flagged slices must exhaust the budget and be
    // interpolated from accepted neighbours.
    scope::FaultParams faults;
    faults.enabled = true;
    faults.curtainingProbability = 0.0;
    faults.chargingProbability = 0.0;
    faults.focusLossProbability = 0.0;
    faults.dropoutProbability = 0.0;
    faults.sliceSkipProbability = 0.25;
    faults.driftExcursionProbability = 0.0;
    faults.skipOvershootSlices = 4;
    scope::RecoveryParams recovery;
    recovery.maxRetries = 2;

    const auto robust = scope::acquire(vol, params, faults,
                                       recovery, 77);
    EXPECT_GT(robust.faultsInjected, 5u);
    EXPECT_GT(robust.slicesInterpolated, 0u);
    EXPECT_EQ(robust.slicesUnrecoverable, 0u);
    EXPECT_LT(robust.qcConfidence, 1.0);
    EXPECT_EQ(robust.interpolatedSlices.size(),
              robust.slicesInterpolated);

    size_t exhausted = 0;
    for (const auto &p : robust.stack.provenance) {
        if (!p.interpolated)
            continue;
        ++exhausted;
        // Interpolation only after the full budget was spent.
        EXPECT_EQ(p.attempts, recovery.maxRetries + 1);
        EXPECT_FALSE(p.accepted);
        EXPECT_EQ(p.injectedFault,
                  static_cast<int>(FaultKind::SliceSkip));
    }
    EXPECT_EQ(exhausted, robust.slicesInterpolated);
    // Retry time is charged image-only to the campaign cost model.
    auto cost = scope::campaignCost(models::chip("B5"));
    const double base_hours = cost.totalHours;
    scope::chargeRetries(cost, robust.retries);
    EXPECT_EQ(cost.reimagedSlices, robust.retries);
    EXPECT_NEAR(cost.totalHours - base_hours,
                static_cast<double>(robust.retries) *
                    cost.imageSecondsPerSlice / 3600.0,
                1e-9);
    EXPECT_GT(cost.retryHours, 0.0);
}

TEST(AcquireRobust, ResultIsAPureFunctionOfTheSeed)
{
    const auto vol = makeScene();
    const auto params = sceneParams();
    scope::FaultParams faults;
    faults.enabled = true;
    scope::RecoveryParams recovery;

    const auto a = scope::acquire(vol, params, faults,
                                  recovery, 5);
    common::ScopedThreads eight(8);
    const auto b = scope::acquire(vol, params, faults,
                                  recovery, 5);
    ASSERT_EQ(a.stack.slices.size(), b.stack.slices.size());
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.interpolatedSlices, b.interpolatedSlices);
    EXPECT_EQ(a.stack.trueDrift, b.stack.trueDrift);
    for (size_t s = 0; s < a.stack.slices.size(); ++s)
        EXPECT_EQ(a.stack.slices[s].data(), b.stack.slices[s].data())
            << "slice " << s;

    const auto c = scope::acquire(vol, params, faults,
                                  recovery, 6);
    bool any_different = false;
    for (size_t s = 0; s < a.stack.slices.size(); ++s)
        any_different |=
            a.stack.slices[s].data() != c.stack.slices[s].data();
    EXPECT_TRUE(any_different);
}

TEST(AcquireRobust, RejectsInvalidParameters)
{
    const auto vol = makeScene(8, 8, 8);
    scope::FibSemParams params;
    scope::FaultParams faults;
    scope::RecoveryParams recovery;

    scope::FibSemParams bad_fib = params;
    bad_fib.sliceVoxels = 0;
    EXPECT_THROW(scope::acquire(vol, bad_fib, faults, recovery,
                                1),
                 std::invalid_argument);

    scope::FaultParams bad_faults = faults;
    bad_faults.dropoutProbability = 2.0;
    EXPECT_THROW(scope::acquire(vol, params, bad_faults,
                                recovery, 1),
                 std::invalid_argument);

    scope::RecoveryParams bad_recovery = recovery;
    bad_recovery.maxRetries = scope::kMaxAttemptsPerSlice;
    EXPECT_THROW(scope::acquire(vol, params, faults,
                                bad_recovery, 1),
                 std::invalid_argument);
}

// ---- Pinned full output of the faulted acquisition --------------------
// Absolute digests of everything a faulted acquisition returns: frames,
// drift, provenance, per-slice QC, the audit trail and every counter.
// They pin the QC/retry loop and the neighbour interpolation bit for
// bit, so a restructuring of the acquirer has to reproduce them
// exactly.

class Fnv
{
  public:
    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ull;
        }
    }
    template <typename T>
    void
    pod(T v)
    {
        bytes(&v, sizeof(v));
    }
    void
    metrics(const image::QcMetrics &m)
    {
        for (const double d : {m.snr, m.focusScore, m.saturationFraction,
                               m.deadRowFraction, m.stripeScore,
                               m.miVsPrev})
            pod(d);
        pod<int64_t>(m.shiftX);
        pod<int64_t>(m.shiftY);
        pod<uint32_t>(m.flags);
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

uint64_t
acquisitionDigest(const scope::RobustAcquisition &a)
{
    Fnv h;
    const auto &st = a.stack;
    h.pod<uint64_t>(st.slices.size());
    for (const auto &img : st.slices) {
        h.pod<uint64_t>(img.width());
        h.pod<uint64_t>(img.height());
        h.bytes(img.data().data(), img.size() * sizeof(float));
    }
    for (const auto &[dy, dz] : st.trueDrift) {
        h.pod<int64_t>(dy);
        h.pod<int64_t>(dz);
    }
    h.pod<uint64_t>(st.provenance.size());
    for (const auto &p : st.provenance) {
        h.pod<int32_t>(p.injectedFault);
        h.pod<uint8_t>(p.firstAttemptFlagged);
        h.pod<uint32_t>(p.firstAttemptFlags);
        h.pod<uint64_t>(p.attempts);
        h.pod<int32_t>(p.acceptedFault);
        h.pod<uint8_t>(p.accepted);
        h.pod<uint8_t>(p.interpolated);
        h.pod<uint8_t>(p.unrecoverable);
    }
    h.pod<uint64_t>(a.qc.size());
    for (const auto &m : a.qc)
        h.metrics(m);
    h.pod<uint64_t>(a.audit.size());
    for (const auto &d : a.audit) {
        h.pod<uint64_t>(d.slice);
        h.pod<int32_t>(d.injectedFault);
        h.pod<uint8_t>(d.accepted);
        h.pod<uint8_t>(d.interpolated);
        h.pod<uint8_t>(d.unrecoverable);
        h.pod<uint64_t>(d.attempts.size());
        for (const auto &att : d.attempts) {
            h.pod<uint64_t>(att.attempt);
            h.pod<int32_t>(att.fault);
            h.metrics(att.metrics);
            h.pod<uint8_t>(att.contentConfirmed);
            h.pod<uint8_t>(att.accepted);
        }
    }
    for (const size_t n :
         {a.slicesRetried, a.retries, a.slicesInterpolated,
          a.slicesUnrecoverable, a.faultsInjected, a.faultsDetected})
        h.pod<uint64_t>(n);
    h.pod(a.qcConfidence);
    h.pod<uint64_t>(a.interpolatedSlices.size());
    for (const size_t s : a.interpolatedSlices)
        h.pod<uint64_t>(s);
    return h.value();
}

/// Blank-frame dropouts only: every fault is a detector blackout, so
/// QC flags exactly the faulted attempts.
scope::FaultParams
blankDropouts(double probability)
{
    scope::FaultParams faults;
    faults = faults.scaled(0.0);
    faults.enabled = true;
    faults.dropoutProbability = probability;
    faults.blankFrameFraction = 1.0;
    return faults;
}

/// Accept/fail pattern of an acquisition ('.' accepted, 'x' not).
std::string
acceptPattern(const scope::RobustAcquisition &a)
{
    std::string pattern;
    for (const auto &d : a.audit)
        pattern += d.accepted ? '.' : 'x';
    return pattern;
}

TEST(AcquireRobust, PinnedDigestOfFailureRunsAtStartMiddleAndEnd)
{
    const auto vol = makeScene(40);
    scope::RecoveryParams recovery;
    recovery.maxRetries = 1;
    const auto robust = scope::acquire(
        vol, sceneParams(), blankDropouts(0.55), recovery, 3);
    // Runs at both ends resolve against one neighbour, the middle
    // run blends both; retries happen along the way.
    ASSERT_EQ(acceptPattern(robust), "xxx.....xx..xxxxxxxx");
    EXPECT_EQ(robust.slicesInterpolated, 13u);
    EXPECT_EQ(robust.retries, 14u);
    EXPECT_EQ(acquisitionDigest(robust), 0x0aa11d44a125ada5ull);
}

TEST(AcquireRobust, PinnedDigestOfBlendsBetweenDifferentDrifts)
{
    // A restless stage: the middle runs blend neighbours whose drifts
    // differ, which pins the integer drift average of a blend.
    const auto vol = makeScene(40);
    auto params = sceneParams();
    params.driftProbability = 0.9;
    scope::RecoveryParams recovery;
    recovery.maxRetries = 1;
    const auto robust = scope::acquire(vol, params, blankDropouts(0.55),
                                       recovery, 3);
    ASSERT_EQ(acceptPattern(robust), "xxx.....xx..xxxx.xxx");
    EXPECT_NE(robust.stack.trueDrift[7], robust.stack.trueDrift[10]);
    EXPECT_EQ(acquisitionDigest(robust), 0xd954c6b1407dbd3cull);
}

TEST(AcquireRobust, PinnedDigestWithoutInterpolation)
{
    const auto vol = makeScene(40);
    scope::RecoveryParams recovery;
    recovery.maxRetries = 1;
    recovery.interpolate = false;
    const auto robust = scope::acquire(
        vol, sceneParams(), blankDropouts(0.55), recovery, 3);
    ASSERT_EQ(acceptPattern(robust), "xxx.....xx..xxxxxxxx");
    EXPECT_EQ(robust.slicesInterpolated, 0u);
    EXPECT_EQ(robust.slicesUnrecoverable, 13u);
    EXPECT_EQ(acquisitionDigest(robust), 0x599206c9f8b8c8cfull);
}

TEST(AcquireRobust, PinnedDigestWithNoAcceptedSlice)
{
    const auto vol = makeScene(40);
    scope::RecoveryParams recovery;
    recovery.maxRetries = 1;
    const auto robust = scope::acquire(
        vol, sceneParams(), blankDropouts(1.0), recovery, 3);
    ASSERT_EQ(acceptPattern(robust), std::string(20, 'x'));
    EXPECT_EQ(robust.slicesUnrecoverable, 20u);
    EXPECT_DOUBLE_EQ(robust.qcConfidence, 0.0);
    EXPECT_EQ(acquisitionDigest(robust), 0x576db16f0a25a4feull);
}

TEST(AcquireRobust, PinnedDigestAtDefaultFaultRates)
{
    // Every fault kind, content confirmation, retries and the clean-
    // frame cache on the structured scene.
    const auto vol = makeScene();
    scope::FaultParams faults;
    faults.enabled = true;
    const auto robust = scope::acquire(
        vol, sceneParams(), faults, scope::RecoveryParams{}, 42);
    EXPECT_EQ(acquisitionDigest(robust), 0xc94b2e47bd073957ull);
}

TEST(FibSemValidation, TypedErrorsForBadInputs)
{
    scope::FibSemParams params;
    EXPECT_FALSE(scope::validate(params).has_value());
    params.driftProbability = -0.5;
    ASSERT_TRUE(scope::validate(params).has_value());
    EXPECT_EQ(scope::validate(params)->code,
              common::ErrorCode::InvalidArgument);

    params = scope::FibSemParams{};
    params.sem.readNoise = -1.0;
    EXPECT_TRUE(scope::validate(params).has_value());

    scope::RecoveryParams recovery;
    EXPECT_FALSE(scope::validate(recovery).has_value());
    recovery.qc.shiftSearchPx = recovery.qc.maxNeighborShiftPx;
    ASSERT_TRUE(scope::validate(recovery).has_value());
    EXPECT_EQ(scope::validate(recovery)->code,
              common::ErrorCode::FailedPrecondition);
}

// ---- Pipeline validation & graceful degradation -----------------------

TEST(PipelineValidation, TypedErrorsInsteadOfCrashes)
{
    core::PipelineConfig config;
    EXPECT_FALSE(core::validateConfig(config).has_value());

    config.chipId = "Z9";
    auto err = core::validateConfig(config);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, common::ErrorCode::NotFound);
    const auto checked = core::runPipelineChecked(config);
    EXPECT_FALSE(checked.ok());
    EXPECT_EQ(checked.error().code, common::ErrorCode::NotFound);

    config = core::PipelineConfig{};
    config.pairs = 0;
    err = core::validateConfig(config);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, common::ErrorCode::InvalidArgument);
    EXPECT_EQ(core::runPipelineChecked(config).error().code,
              common::ErrorCode::InvalidArgument);

    config = core::PipelineConfig{};
    config.driftProbability = -0.2;
    EXPECT_TRUE(core::validateConfig(config).has_value());

    config = core::PipelineConfig{};
    config.stackedSas = 0;
    EXPECT_TRUE(core::validateConfig(config).has_value());

    config = core::PipelineConfig{};
    config.faults.focusLossProbability = 1.5;
    EXPECT_TRUE(core::validateConfig(config).has_value());
    EXPECT_FALSE(core::runPipelineChecked(config).ok());
}

TEST(PipelineRobust, CleanQcPassesOnRealPipelineImagery)
{
    // Canary for QC false positives: faults enabled but all rates
    // zero routes the real B5 imagery through the QC/retry loop;
    // nothing may be flagged and nothing may degrade.
    core::PipelineConfig config;
    config.chipId = "B5";
    config.pairs = 2;
    config.seed = 17;
    config.faults.enabled = true;
    config.faults = config.faults.scaled(0.0);
    config.faults.enabled = true;

    const auto checked = core::runPipelineChecked(config);
    ASSERT_TRUE(checked.ok()) << checked.error().message;
    const auto &report = checked.value();
    // Content transitions may cost a confirmation re-image each, but
    // nothing may be interpolated, lost, or mis-reconstructed.
    EXPECT_LE(report.slicesRetried, report.slices / 10);
    EXPECT_EQ(report.slicesInterpolated, 0u);
    EXPECT_EQ(report.slicesUnrecoverable, 0u);
    EXPECT_FALSE(report.degraded);
    EXPECT_DOUBLE_EQ(report.qcConfidence, 1.0);
    EXPECT_TRUE(report.topologyCorrect);
}

TEST(PipelineRobust, RecoversB5TopologyUnderDefaultFaultRates)
{
    // The acceptance bar: with the documented default fault rates the
    // pipeline must not crash, must keep the report trustworthy, and
    // must still recover the correct topology on the B5 reference.
    core::PipelineConfig config;
    config.chipId = "B5";
    config.pairs = 2;
    config.seed = 42;
    config.faults.enabled = true;

    const auto checked = core::runPipelineChecked(config);
    ASSERT_TRUE(checked.ok()) << checked.error().message;
    const auto &report = checked.value();
    EXPECT_TRUE(report.topologyCorrect);
    EXPECT_EQ(report.extractedCommonGateStrips,
              report.trueCommonGateStrips);
    EXPECT_GE(report.qcConfidence, 0.8);
    EXPECT_GT(report.faultsInjected, 0u);
    // Re-imaging happened and was charged to the campaign.
    if (report.retries > 0) {
        EXPECT_GT(report.campaign.retryHours, 0.0);
        EXPECT_EQ(report.campaign.reimagedSlices, report.retries);
    }
    EXPECT_EQ(report.degraded,
              report.slicesInterpolated > 0 ||
                  report.slicesUnrecoverable > 0);

    // Golden pin for the imaging fast paths: the quantized MI
    // registration, contrast LUT and clean-frame cache promise
    // bit-identical default-settings results, so this seed's report
    // is frozen.  Any drift here means an "optimization" changed an
    // output.
    EXPECT_EQ(report.slices, 477u);
    EXPECT_EQ(report.retries, 109u);
    EXPECT_EQ(report.slicesInterpolated, 3u);
    EXPECT_EQ(report.slicesUnrecoverable, 0u);
    EXPECT_EQ(report.faultsInjected, 67u);
    EXPECT_EQ(report.faultsDetected, 58u);
    EXPECT_NEAR(report.qcConfidence, 0.99685534591194969, 1e-9);
    EXPECT_NEAR(report.alignmentResidualPx, 0.93217787216515957,
                1e-9);
    EXPECT_NEAR(report.maxDimErrorNm, 5.9612044621593583, 1e-6);
}

TEST(PipelineRobust, FaultFreePathIsBitwiseIdenticalAcrossThreads)
{
    // The fault-free pipeline renders its slices in parallel: reports
    // must be bitwise identical at 1/2/8 threads and across repeat
    // runs.
    core::PipelineConfig config;
    config.chipId = "C5";
    config.pairs = 2;
    config.seed = 11;

    core::PipelineReport reports[3];
    const size_t threads[3] = {1, 2, 8};
    for (size_t i = 0; i < 3; ++i) {
        config.threads = threads[i];
        reports[i] = core::runPipelineChecked(config).value();
    }
    for (size_t i = 1; i < 3; ++i) {
        EXPECT_EQ(reports[i].extractedDevices,
                  reports[0].extractedDevices);
        EXPECT_EQ(reports[i].alignmentResidualPx,
                  reports[0].alignmentResidualPx);
        EXPECT_EQ(reports[i].maxDimErrorNm,
                  reports[0].maxDimErrorNm);
        EXPECT_EQ(reports[i].matchScore, reports[0].matchScore);
        EXPECT_EQ(reports[i].qcConfidence, 1.0);
        EXPECT_EQ(reports[i].retries, 0u);
        EXPECT_FALSE(reports[i].degraded);
    }
}

TEST(PipelineRobust, DegradedReportIsSeedPureAtAnyThreadCount)
{
    // The determinism lock for the robust path: retry counts,
    // interpolated-slice sets, confidence and the downstream numbers
    // are pure functions of the seed at any thread count.
    core::PipelineConfig config;
    config.chipId = "C5";
    config.pairs = 2;
    config.seed = 23;
    config.faults.enabled = true;
    config.faults = config.faults.scaled(2.0);
    config.faults.enabled = true;

    core::PipelineReport reports[3];
    const size_t threads[3] = {1, 2, 8};
    for (size_t i = 0; i < 3; ++i) {
        config.threads = threads[i];
        reports[i] = core::runPipelineChecked(config).value();
    }
    for (size_t i = 1; i < 3; ++i) {
        EXPECT_EQ(reports[i].slicesRetried,
                  reports[0].slicesRetried);
        EXPECT_EQ(reports[i].retries, reports[0].retries);
        EXPECT_EQ(reports[i].interpolatedSlices,
                  reports[0].interpolatedSlices);
        EXPECT_EQ(reports[i].faultsInjected,
                  reports[0].faultsInjected);
        EXPECT_EQ(reports[i].faultsDetected,
                  reports[0].faultsDetected);
        EXPECT_EQ(reports[i].qcConfidence,
                  reports[0].qcConfidence);
        EXPECT_EQ(reports[i].alignmentResidualPx,
                  reports[0].alignmentResidualPx);
        EXPECT_EQ(reports[i].maxDimErrorNm,
                  reports[0].maxDimErrorNm);
    }
}

// ---- QC audit trail -------------------------------------------------

TEST(QcAudit, TrailExplainsEverySliceDecision)
{
    // The audit must agree with the provenance ground truth slice by
    // slice: which slices were flagged (and on which attempt), why
    // each re-image happened, and how every slice was resolved.
    const auto vol = makeScene();
    const auto params = sceneParams();
    scope::FaultParams faults;
    faults.enabled = true; // documented default rates
    scope::RecoveryParams recovery;

    const auto robust = scope::acquire(vol, params, faults,
                                       recovery, 42);
    const auto &prov = robust.stack.provenance;
    ASSERT_EQ(robust.audit.size(), prov.size());

    size_t retried = 0, interpolated = 0, unrecoverable = 0;
    for (size_t s = 0; s < robust.audit.size(); ++s) {
        const auto &d = robust.audit[s];
        EXPECT_EQ(d.slice, s);
        EXPECT_EQ(d.injectedFault, prov[s].injectedFault);
        ASSERT_EQ(d.attempts.size(), prov[s].attempts)
            << "slice " << s;
        // Whether slice s was flagged — and the flags saying why —
        // must match the first-attempt truth in the provenance.
        EXPECT_EQ(d.attempts.front().metrics.flags != 0,
                  prov[s].firstAttemptFlagged)
            << "slice " << s;
        EXPECT_EQ(d.attempts.front().metrics.flags,
                  prov[s].firstAttemptFlags)
            << "slice " << s;
        // A re-image happens only after a flagged, unaccepted
        // attempt, so every non-final attempt must record both.
        for (size_t a = 0; a + 1 < d.attempts.size(); ++a) {
            EXPECT_NE(d.attempts[a].metrics.flags, 0u)
                << "slice " << s << " attempt " << a;
            EXPECT_FALSE(d.attempts[a].accepted);
        }
        EXPECT_EQ(d.attempts.back().accepted, d.accepted);
        EXPECT_EQ(d.accepted, prov[s].accepted);
        EXPECT_EQ(d.interpolated, prov[s].interpolated);
        retried += d.attempts.size() > 1 ? 1 : 0;
        interpolated += d.interpolated ? 1 : 0;
        unrecoverable += d.unrecoverable ? 1 : 0;
    }
    EXPECT_EQ(retried, robust.slicesRetried);
    EXPECT_EQ(interpolated, robust.slicesInterpolated);
    EXPECT_EQ(unrecoverable, robust.slicesUnrecoverable);
}

TEST(QcAudit, JsonExportNamesSlicesFaultsAndFlags)
{
    // Budget-exhausting skip faults guarantee retries and
    // interpolations show up in the export.
    const auto vol = makeScene();
    const auto params = sceneParams();
    scope::FaultParams faults;
    faults.enabled = true;
    faults.curtainingProbability = 0.0;
    faults.chargingProbability = 0.0;
    faults.focusLossProbability = 0.0;
    faults.dropoutProbability = 0.0;
    faults.sliceSkipProbability = 0.25;
    faults.driftExcursionProbability = 0.0;
    faults.skipOvershootSlices = 4;
    scope::RecoveryParams recovery;
    recovery.maxRetries = 2;

    const auto robust = scope::acquire(vol, params, faults,
                                       recovery, 77);
    ASSERT_GT(robust.slicesInterpolated, 0u);

    const std::string json = scope::qcAuditJson(robust.audit);
    EXPECT_NE(json.find("\"slices\":["), std::string::npos);
    EXPECT_NE(json.find("\"injected_fault\":\"slice-skip\""),
              std::string::npos);
    EXPECT_NE(json.find("\"interpolated\":true"), std::string::npos);
    EXPECT_NE(json.find("\"attempt\":"), std::string::npos);
    EXPECT_NE(json.find("\"snr\":"), std::string::npos);
    // Every slice appears exactly once.
    for (size_t s = 0; s < robust.audit.size(); ++s) {
        const std::string key = "\"slice\":" + std::to_string(s) + ",";
        const size_t first = json.find(key);
        ASSERT_NE(first, std::string::npos) << key;
        EXPECT_EQ(json.find(key, first + 1), std::string::npos)
            << key;
    }
    // The audit itself is seed-pure (same seed, any thread count).
    common::ScopedThreads eight(8);
    const auto again = scope::acquire(vol, params, faults,
                                      recovery, 77);
    EXPECT_EQ(scope::qcAuditJson(again.audit), json);
}

} // namespace
