/**
 * @file
 * Tests for the image substrate: containers, noise, TV denoising, and
 * mutual-information registration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/telemetry.hh"
#include "image/denoise.hh"
#include "image/image2d.hh"
#include "image/noise.hh"
#include "image/pgm.hh"
#include "image/qc.hh"
#include "image/registration.hh"
#include "image/volume3d.hh"

#include "oracles.hh"

namespace
{

using namespace hifi;
using common::Rng;
using image::Image2D;
using image::Volume3D;

/// A synthetic structured test image: bars and a block.
Image2D
testPattern(size_t w = 48, size_t h = 40)
{
    Image2D img(w, h, 0.1f);
    for (size_t x = 6; x < w; x += 8)
        img.fillRect(static_cast<long>(x), 0, static_cast<long>(x + 4),
                     static_cast<long>(h), 0.8f);
    img.fillRect(10, 12, 30, 26, 0.5f);
    return img;
}

TEST(Image2D, BasicAccessors)
{
    Image2D img(8, 4, 0.25f);
    EXPECT_EQ(img.width(), 8u);
    EXPECT_EQ(img.height(), 4u);
    EXPECT_EQ(img.size(), 32u);
    img.at(3, 2) = 1.0f;
    EXPECT_FLOAT_EQ(img.at(3, 2), 1.0f);
    EXPECT_FLOAT_EQ(img.minValue(), 0.25f);
    EXPECT_FLOAT_EQ(img.maxValue(), 1.0f);
    EXPECT_THROW(Image2D(0, 4), std::invalid_argument);
}

TEST(Image2D, ClampedAtEdges)
{
    Image2D img(4, 4, 0.0f);
    img.at(0, 0) = 1.0f;
    img.at(3, 3) = 2.0f;
    EXPECT_FLOAT_EQ(img.clampedAt(-5, -5), 1.0f);
    EXPECT_FLOAT_EQ(img.clampedAt(10, 10), 2.0f);
}

TEST(Image2D, FillRectClips)
{
    Image2D img(10, 10, 0.0f);
    img.fillRect(-5, -5, 3, 3, 1.0f);
    EXPECT_FLOAT_EQ(img.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(img.at(2, 2), 1.0f);
    EXPECT_FLOAT_EQ(img.at(3, 3), 0.0f);
}

TEST(Image2D, MseAndPsnr)
{
    Image2D a(4, 4, 0.0f), b(4, 4, 0.5f);
    EXPECT_DOUBLE_EQ(a.mse(b), 0.25);
    EXPECT_NEAR(a.psnr(b), 10.0 * std::log10(4.0), 1e-9);
    EXPECT_GT(a.psnr(a), 1e8);
    Image2D c(5, 4);
    EXPECT_THROW(a.mse(c), std::invalid_argument);
}

TEST(Image2D, ShiftMovesContent)
{
    Image2D img(8, 8, 0.0f);
    img.at(2, 3) = 1.0f;
    Image2D s = img.shifted(3, 2);
    EXPECT_FLOAT_EQ(s.at(5, 5), 1.0f);
    EXPECT_FLOAT_EQ(s.at(2, 3), 0.0f);
}

TEST(Image2D, InPlaceShiftMatchesClampedGather)
{
    // Every shift, including ones past the image edge on either axis,
    // equals the per-pixel clamped gather bit for bit.
    Image2D img(7, 5);
    for (size_t i = 0; i < img.size(); ++i)
        img.data()[i] = static_cast<float>(i) * 0.25f - 3.0f;
    for (long dx = -9; dx <= 9; ++dx)
        for (long dy = -7; dy <= 7; ++dy) {
            Image2D expect(img.width(), img.height());
            for (size_t y = 0; y < img.height(); ++y)
                for (size_t x = 0; x < img.width(); ++x)
                    expect.at(x, y) =
                        img.clampedAt(static_cast<long>(x) - dx,
                                      static_cast<long>(y) - dy);
            Image2D moved = img;
            moved.shiftInPlace(dx, dy);
            EXPECT_EQ(moved.data(), expect.data()) << dx << "," << dy;
            EXPECT_EQ(img.shifted(dx, dy).data(), expect.data())
                << dx << "," << dy;
        }
}

TEST(Image2D, CropExtractsWindow)
{
    Image2D img = testPattern();
    Image2D c = img.crop(10, 12, 30, 26);
    EXPECT_EQ(c.width(), 20u);
    EXPECT_EQ(c.height(), 14u);
    EXPECT_FLOAT_EQ(c.at(0, 0), img.at(10, 12));
    EXPECT_THROW(img.crop(10, 10, 5, 20), std::invalid_argument);
}

TEST(Image2D, TotalVariationOfFlatIsZero)
{
    Image2D flat(16, 16, 0.7f);
    EXPECT_DOUBLE_EQ(flat.totalVariation(), 0.0);
    Image2D step(2, 1, 0.0f);
    step.at(1, 0) = 1.0f;
    EXPECT_DOUBLE_EQ(step.totalVariation(), 1.0);
}

TEST(Volume3D, SliceRoundTrip)
{
    Volume3D vol(5, 4, 3, 0.0f);
    vol.at(2, 1, 2) = 0.9f;
    const Image2D back = vol.crossSection(2).value();
    EXPECT_EQ(back.width(), 4u);
    EXPECT_EQ(back.height(), 3u);
    EXPECT_FLOAT_EQ(back.at(1, 2), 0.9f);
    EXPECT_EQ(vol.crossSection(9).error().code,
              common::ErrorCode::InvalidArgument);
}

TEST(Volume3D, PlanarViewAndSlab)
{
    Volume3D vol(4, 4, 4, 0.0f);
    vol.at(1, 2, 0) = 0.4f;
    vol.at(1, 2, 1) = 0.8f;
    EXPECT_FLOAT_EQ(vol.planarView(1).value().at(1, 2), 0.8f);
    EXPECT_NEAR(vol.planarSlab(0, 2).value().at(1, 2), 0.6f, 1e-6);
    EXPECT_EQ(vol.planarSlab(3, 3).error().code,
              common::ErrorCode::InvalidArgument);
}

TEST(Noise, ShotNoiseIsUnbiased)
{
    Rng rng(3);
    Image2D img(64, 64, 0.5f);
    image::addShotNoise(img, 2000.0, rng);
    EXPECT_NEAR(img.meanValue(), 0.5f, 0.005);
    EXPECT_GT(img.maxValue(), 0.5f); // noise actually applied
    EXPECT_THROW(image::addShotNoise(img, 0.0, rng),
                 std::invalid_argument);
}

TEST(Noise, MoreDwellMeansHigherSnr)
{
    // The paper doubles dwell (3 us -> 6 us) for hard samples; SNR
    // should rise accordingly.
    Rng rng(4);
    const Image2D clean = testPattern();

    Image2D low = clean;
    image::addShotNoise(low, 900.0, rng);
    Image2D high = clean;
    image::addShotNoise(high, 1800.0, rng);
    EXPECT_GT(image::snr(high, clean), image::snr(low, clean));
}

TEST(Noise, GaussianSigmaScales)
{
    Rng rng(5);
    Image2D a = testPattern();
    image::addGaussianNoise(a, 0.02, rng);
    Image2D b = testPattern();
    image::addGaussianNoise(b, 0.2, rng);
    const Image2D clean = testPattern();
    EXPECT_LT(a.mse(clean), b.mse(clean));
}

class DenoiserTest : public ::testing::TestWithParam<int>
{
  protected:
    Image2D
    denoise(const Image2D &img, const image::TvParams &tv) const
    {
        return GetParam() == 0 ? image::denoiseChambolle(img, tv)
                               : image::denoiseSplitBregman(img, tv);
    }
};

TEST_P(DenoiserTest, ReducesNoiseMse)
{
    Rng rng(6);
    const Image2D clean = testPattern();
    Image2D noisy = clean;
    image::addShotNoise(noisy, 900.0, rng);
    image::addGaussianNoise(noisy, 0.05, rng);

    const Image2D out = denoise(noisy, {0.05, 40});
    EXPECT_LT(out.mse(clean), 0.5 * noisy.mse(clean));
}

TEST_P(DenoiserTest, ReducesTotalVariation)
{
    Rng rng(7);
    Image2D noisy = testPattern();
    image::addGaussianNoise(noisy, 0.08, rng);
    const Image2D out = denoise(noisy, {0.05, 40});
    EXPECT_LT(out.totalVariation(), noisy.totalVariation());
}

TEST_P(DenoiserTest, PreservesEdges)
{
    // After denoising, a strong edge must remain steep: the contrast
    // across the bar boundary stays above 60% of the original.
    Rng rng(8);
    const Image2D clean = testPattern();
    Image2D noisy = clean;
    image::addGaussianNoise(noisy, 0.05, rng);
    const Image2D out = denoise(noisy, {0.05, 40});

    const double edge = out.at(8, 20) - out.at(4, 20);
    EXPECT_GT(edge, 0.6 * (clean.at(8, 20) - clean.at(4, 20)));
}

TEST_P(DenoiserTest, RejectsEmptyImage)
{
    Image2D empty;
    EXPECT_THROW(denoise(empty, {0.05, 10}), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(BothAlgos, DenoiserTest,
                         ::testing::Values(0, 1),
                         [](const auto &info) {
                             return info.param == 0 ? "Chambolle"
                                                    : "SplitBregman";
                         });

TEST(Registration, MutualInformationSelfIsMax)
{
    const Image2D img = testPattern();
    const double self = image::mutualInformation(img, img);
    const double shifted =
        image::mutualInformation(img, img.shifted(3, 0));
    EXPECT_GT(self, shifted);
    EXPECT_THROW(image::mutualInformation(img, Image2D(3, 3)),
                 std::invalid_argument);
}

TEST(Registration, RecoversKnownShift)
{
    Rng rng(9);
    Image2D fixed = testPattern(60, 50);
    image::addGaussianNoise(fixed, 0.03, rng);
    // moving = fixed displaced by (+3, -2): registration must report
    // the corrective (-3, +2).
    Image2D moving = fixed.shifted(3, -2);

    const auto shift = image::registerShiftMi(fixed, moving);
    EXPECT_EQ(shift.first, -3);
    EXPECT_EQ(shift.second, 2);
}

TEST(Registration, AlignStackRecoversDriftWalk)
{
    Rng rng(10);
    Image2D base = testPattern(60, 50);
    image::addGaussianNoise(base, 0.02, rng);

    const std::vector<std::pair<long, long>> drift = {
        {0, 0}, {1, 0}, {2, 1}, {2, 2}, {1, 2}, {0, 1}};
    std::vector<Image2D> slices;
    for (const auto &d : drift)
        slices.push_back(base.shifted(d.first, d.second));

    const auto recovered = oracle::alignStack(slices);
    EXPECT_NEAR(image::alignmentResidual(recovered, drift), 0.0, 0.5);
}

TEST(Registration, ResidualDetectsMisalignment)
{
    const std::vector<std::pair<long, long>> truth = {
        {0, 0}, {1, 1}, {2, 2}};
    const std::vector<std::pair<long, long>> bad = {
        {0, 0}, {-1, -1}, {-2, -2}};
    EXPECT_GT(image::alignmentResidual(bad, truth), 2.0);
    EXPECT_DOUBLE_EQ(image::alignmentResidual(truth, truth), 0.0);
}

TEST(Pgm, RoundTripPreservesStructure)
{
    const Image2D img = testPattern(24, 16);
    const std::string path = "/tmp/hifi_test.pgm";
    image::writePgm(path, img, 0.0f, 1.0f);
    const Image2D back = image::readPgm(path);
    ASSERT_EQ(back.width(), img.width());
    ASSERT_EQ(back.height(), img.height());
    EXPECT_LT(back.mse(img), 1e-4); // 8-bit quantization only
}

TEST(Pgm, AutoRangeNormalizes)
{
    Image2D img(4, 4, 5.0f);
    img.at(0, 0) = 7.0f;
    image::writePgm("/tmp/hifi_test2.pgm", img);
    const Image2D back = image::readPgm("/tmp/hifi_test2.pgm");
    EXPECT_NEAR(back.at(0, 0), 1.0f, 0.01);
    EXPECT_NEAR(back.at(1, 1), 0.0f, 0.01);
}

TEST(Pgm, Errors)
{
    Image2D img(4, 4, 0.5f);
    EXPECT_THROW(image::writePgm("/nonexistent/x.pgm", img),
                 std::runtime_error);
    EXPECT_THROW(image::readPgm("/nonexistent/x.pgm"),
                 std::runtime_error);
    EXPECT_THROW(image::writePgm("/tmp/x.pgm", Image2D()),
                 std::invalid_argument);
}

TEST(Registration, AssembleVolumeAppliesCorrections)
{
    Image2D a(6, 6, 0.0f);
    a.at(3, 3) = 1.0f;
    // Slice 1 drifted by (+1, +1); assembly with the recorded drift
    // must put the bright pixel back at (3, 3).
    std::vector<Image2D> slices = {a, a.shifted(1, 1)};
    const auto vol =
        oracle::assembleVolume(slices, {{0, 0}, {1, 1}});
    EXPECT_FLOAT_EQ(vol.at(0, 3, 3), 1.0f);
    EXPECT_FLOAT_EQ(vol.at(1, 3, 3), 1.0f);
}

// ---- Fast-path equivalence (quantized MI, tie-break) ----

/// Bit-level double comparison: the fast paths promise *bitwise*
/// identity, which EXPECT_DOUBLE_EQ (ULP-based) would not catch.
void
expectSameBits(double a, double b, const std::string &what)
{
    EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
        << what << ": " << a << " vs " << b;
}

/// Noisy structured image of the given shape (degenerate shapes ok).
Image2D
noisyImage(size_t w, size_t h, uint64_t seed)
{
    Rng rng(seed);
    Image2D img(w, h);
    for (float &v : img.data())
        v = static_cast<float>(rng.uniform());
    return img;
}

TEST(Registration, QuantizedMiIsBitwiseIdenticalToReference)
{
    // Every size class the QC / alignment paths can produce,
    // including the 1xN / Nx1 degenerate overlaps.
    const std::pair<size_t, size_t> sizes[] = {
        {1, 1}, {1, 7}, {7, 1}, {2, 2}, {5, 5}, {17, 13}, {48, 40}};
    for (const auto &[w, h] : sizes) {
        const Image2D a = noisyImage(w, h, 100 + w * 31 + h);
        const Image2D b = noisyImage(w, h, 200 + w * 31 + h);
        const long max_dx = static_cast<long>(w) + 1;
        const long max_dy = static_cast<long>(h) + 1;
        for (long dy = -max_dy; dy <= max_dy; ++dy) {
            for (long dx = -max_dx; dx <= max_dx; ++dx) {
                for (const size_t bins : {2u, 16u, 32u}) {
                    const double fast = image::mutualInformationAtShift(
                        a, b, dx, dy, bins);
                    const double ref =
                        oracle::mutualInformationAtShiftReference(
                            a, b, dx, dy, bins);
                    expectSameBits(
                        fast, ref,
                        std::to_string(w) + "x" + std::to_string(h) +
                            " shift (" + std::to_string(dx) + "," +
                            std::to_string(dy) + ") bins " +
                            std::to_string(bins));
                }
            }
        }
    }
}

TEST(Registration, FastSearchMatchesReferenceSearch)
{
    Rng rng(31);
    Image2D fixed = testPattern(60, 50);
    image::addGaussianNoise(fixed, 0.05, rng);
    Image2D moving = fixed.shifted(4, -3);
    image::addGaussianNoise(moving, 0.05, rng);

    for (const long span : {2l, 6l, 9l}) {
        image::MiParams mi;
        mi.maxShift = span;
        const auto fast = image::registerShiftMi(fixed, moving, mi);
        const auto ref =
            oracle::registerShiftMiReference(fixed, moving, mi);
        EXPECT_EQ(fast, ref) << "maxShift " << span;
    }
}

TEST(Registration, QuantizePlaneMatchesReferenceBinning)
{
    const Image2D img = noisyImage(13, 9, 5);
    const auto q = image::quantizePlane(img, 32);
    ASSERT_EQ(q.idx.size(), img.size());
    // Self-MI through the plane must equal the reference self-MI:
    // only possible if every pixel landed in the reference's bin.
    expectSameBits(
        image::mutualInformationAtShift(img, img, 0, 0, 32),
        oracle::mutualInformationAtShiftReference(img, img, 0, 0, 32),
        "self MI through quantized plane");
    EXPECT_THROW(image::quantizePlane(img, 1), std::invalid_argument);
    EXPECT_THROW(image::quantizePlane(img, 70000),
                 std::invalid_argument);
}

TEST(Registration, ConstantImagesTieBreakToZeroShift)
{
    // Every candidate scores identically on featureless frames (the
    // dropout-fault case); the documented tie-break must pick (0, 0),
    // not the most-negative corner of the search window.
    const Image2D flat_a(20, 16, 0.5f);
    const Image2D flat_b(20, 16, 0.5f);
    const auto shift = image::registerShiftMi(flat_a, flat_b);
    EXPECT_EQ(shift, (std::pair<long, long>{0, 0}));
    const auto ref =
        oracle::registerShiftMiReference(flat_a, flat_b);
    EXPECT_EQ(ref, (std::pair<long, long>{0, 0}));
}

TEST(Registration, TelemetryCountsCandidateEvaluations)
{
    const Image2D fixed = testPattern(64, 48);
    const Image2D moving = fixed.shifted(2, -1);

    telemetry::Session session;
    image::MiParams mi;
    mi.maxShift = 4;
    (void)image::registerShiftMi(fixed, moving, mi);
    const auto collected = session.finish({});

    const auto &counters = collected->metrics.counters;
    ASSERT_TRUE(counters.count("mi.exhaustive.evals"));
    ASSERT_TRUE(counters.count("mi.exact_rescored"));
    ASSERT_TRUE(counters.count("mi.searches"));
    EXPECT_EQ(counters.at("mi.searches"), 1u);
    // The search screens the full (2*4+1)^2 window and re-scores
    // exactly only the one clear maximum.
    EXPECT_EQ(counters.at("mi.exhaustive.evals"), 81u);
    EXPECT_EQ(counters.at("mi.exact_rescored"), 1u);
}

/// Rows of constant runs (lengths 1-6): the equal-bin streaks of a
/// denoised frame, which the interleaved counters must split exactly.
Image2D
runImage(size_t w, size_t h, uint64_t seed)
{
    Rng rng(seed);
    Image2D img(w, h);
    for (size_t y = 0; y < h; ++y) {
        float v = 0.0f;
        size_t left = 0;
        for (size_t x = 0; x < w; ++x, --left) {
            if (left == 0) {
                v = static_cast<float>(rng.uniform());
                left = 1 + static_cast<size_t>(rng.uniform() * 6.0);
            }
            img.at(x, y) = v;
        }
    }
    return img;
}

/// Both MI kernels (the search's pre-quantized scatter and the fused
/// one-shot) at every shift whose overlap is empty, one pixel wide, or
/// general, bitwise against the reference.
void
expectKernelsMatchReference(const Image2D &a, const Image2D &b,
                            size_t bins, const std::string &what)
{
    const long w = static_cast<long>(a.width());
    const long h = static_cast<long>(a.height());
    const auto qa = image::quantizePlane(a, bins);
    const auto qb = image::quantizePlane(b, bins);
    const std::set<long> dys{-h - 1, -h, 1 - h, -1, 0, 1, h - 1, h};
    const std::set<long> dxs{-w - 1, -w, 1 - w, -1, 0, 1, w - 1, w};
    for (const long dy : dys) {
        for (const long dx : dxs) {
            const std::string at = what + " bins " +
                std::to_string(bins) + " shift (" + std::to_string(dx) +
                "," + std::to_string(dy) + ")";
            const double ref = oracle::mutualInformationAtShiftReference(
                a, b, dx, dy, bins);
            expectSameBits(image::mutualInformationAtShift(qa, qb, dx, dy),
                           ref, at + " search kernel");
            expectSameBits(
                image::mutualInformationAtShift(a, b, dx, dy, bins), ref,
                at + " one-shot");
        }
    }
}

TEST(Registration, ScatterKernelsMatchReferenceAcrossTailsAndOverlaps)
{
    // Widths 1-9 cover every tail of the four-pixel unroll; the shift
    // set covers empty (|d| >= extent) and one-pixel overlaps.
    for (const bool portable : {false, true}) {
        std::optional<common::simd::ScopedForceScalar> off;
        if (portable)
            off.emplace();
        const std::string path = portable ? "portable " : "dispatch ";
        for (size_t w = 1; w <= 9; ++w) {
            for (const size_t h : {1u, 4u, 9u}) {
                const std::string shape = path + std::to_string(w) +
                    "x" + std::to_string(h);
                const Image2D a = runImage(w, h, 10 * w + h);
                const Image2D b = runImage(w, h, 1000 + 10 * w + h);
                const Image2D flat(w, h, 0.25f);
                for (const size_t bins : {2u, 16u, 32u, 256u}) {
                    // 256 bins zero 4 * 256^2 counters per candidate:
                    // one row height keeps the sanitizer legs quick.
                    if (bins == 256 && h != 1)
                        continue;
                    expectKernelsMatchReference(a, b, bins, shape);
                    // Constant images: every pixel in one bin.
                    expectKernelsMatchReference(flat, b, bins,
                                                shape + " flat/runs");
                    expectKernelsMatchReference(flat, flat, bins,
                                                shape + " flat/flat");
                }
            }
        }
    }
}

// ---- Screened search: equivalence under adversarial inputs ----------
// registerShiftMi screens every candidate from integer counts and
// re-scores exactly only the near-max set; these pit it against the
// full-exact reference search (tests/oracles.hh) where screening is
// hardest: near-equal maxima, all-tied windows, empty overlaps.

struct SearchRun
{
    std::pair<long, long> shift;
    uint64_t rescored = 0;
};

/// registerShiftMi plus the number of candidates it re-scored.
SearchRun
searchWithWork(const Image2D &fixed, const Image2D &moving,
               const image::MiParams &mi)
{
    telemetry::Session session;
    SearchRun run;
    run.shift = image::registerShiftMi(fixed, moving, mi);
    const auto collected = session.finish({});
    const auto &counters = collected->metrics.counters;
    const auto it = counters.find("mi.exact_rescored");
    run.rescored = it == counters.end() ? 0 : it->second;
    return run;
}

/// The search and the reference agree, and the search re-scored at
/// least one and at most every candidate; returns the re-scored count.
uint64_t
expectSearchMatchesReference(const Image2D &fixed, const Image2D &moving,
                             const image::MiParams &mi,
                             const std::string &what)
{
    const SearchRun run = searchWithWork(fixed, moving, mi);
    EXPECT_EQ(run.shift, oracle::registerShiftMiReference(fixed, moving,
                                                          mi))
        << what;
    const auto side = static_cast<uint64_t>(2 * mi.maxShift + 1);
    EXPECT_GE(run.rescored, 1u) << what;
    EXPECT_LE(run.rescored, side * side) << what;
    return run.rescored;
}

/// Vertical bars of the given period (half bright), plus noise.
Image2D
grating(size_t w, size_t h, long period, double noise, uint64_t seed)
{
    Rng rng(seed);
    Image2D img(w, h);
    for (size_t y = 0; y < h; ++y)
        for (size_t x = 0; x < w; ++x)
            img.at(x, y) = (static_cast<long>(x) % period < period / 2
                                ? 0.8f
                                : 0.2f) +
                static_cast<float>(noise * rng.gaussian());
    return img;
}

TEST(Registration, ScreenedSearchMatchesReferenceOnPeriodicGrating)
{
    // A 10 px grating: the shifts d and d - 10 score almost alike
    // (the QC aliasing case), and without noise every dy of one dx
    // ties, so the near-max set holds many candidates.
    for (const double noise : {0.0, 0.05}) {
        const Image2D fixed = grating(44, 65, 10, noise, 3);
        for (const long true_dx : {3l, -5l}) {
            Image2D moving = fixed.shifted(true_dx, 1);
            if (noise > 0.0) {
                Rng rng(17 + static_cast<uint64_t>(true_dx + 10));
                image::addGaussianNoise(moving, noise, rng);
            }
            for (const long span : {8l, 12l}) {
                for (const size_t bins : {2u, 16u, 256u}) {
                    // The reference's 256-bin scan is slow; one span
                    // of it is enough.
                    if (bins == 256 && span != 8)
                        continue;
                    image::MiParams mi;
                    mi.maxShift = span;
                    mi.bins = bins;
                    const uint64_t rescored =
                        expectSearchMatchesReference(
                            fixed, moving, mi,
                            "grating noise " + std::to_string(noise) +
                                " dx " + std::to_string(true_dx) +
                                " span " + std::to_string(span) +
                                " bins " + std::to_string(bins));
                    if (noise == 0.0) {
                        EXPECT_GT(rescored, 1u)
                            << "noiseless grating ties rows";
                    }
                }
            }
        }
    }
}

TEST(Registration, ScreenedSearchRescoresEveryCandidateOnFlatWindows)
{
    // Constant frames score 0 at every shift: no gap, so every
    // candidate is re-scored and the tie-break alone picks (0, 0).
    const Image2D flat_a(20, 16, 0.5f);
    const Image2D flat_b(20, 16, 0.7f);
    const Image2D noisy = noisyImage(20, 16, 41);
    for (const size_t bins : {2u, 16u, 256u}) {
        image::MiParams mi;
        mi.maxShift = 5;
        mi.bins = bins;
        const std::string at = "bins " + std::to_string(bins);
        EXPECT_EQ(expectSearchMatchesReference(flat_a, flat_b, mi,
                                               at + " flat/flat"),
                  121u);
        EXPECT_EQ(expectSearchMatchesReference(flat_a, flat_a, mi,
                                               at + " identical flat"),
                  121u);
        EXPECT_EQ(expectSearchMatchesReference(flat_a, noisy, mi,
                                               at + " flat/noisy"),
                  121u);
        // Identical structured frames: one clear maximum at (0, 0).
        expectSearchMatchesReference(noisy, noisy, mi, at + " identical");
        EXPECT_EQ(oracle::registerShiftMiReference(noisy, noisy, mi),
                  (std::pair<long, long>{0, 0}))
            << at;
    }
}

TEST(Registration, ScreenedSearchMatchesReferenceOnTinyFrames)
{
    // 1xN, Nx1 and tiny frames with the window at or past the frame
    // size, so many candidates have empty overlaps (score 0).
    const std::pair<size_t, size_t> sizes[] = {
        {1, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 5}, {5, 3}};
    for (const auto &[w, h] : sizes) {
        const Image2D a = noisyImage(w, h, 300 + w * 31 + h);
        const Image2D b = noisyImage(w, h, 400 + w * 31 + h);
        const Image2D runs = runImage(w, h, 500 + w * 31 + h);
        const long extent = static_cast<long>(std::max(w, h));
        for (const long span : {extent - 1, extent, extent + 2}) {
            for (const size_t bins : {2u, 16u, 256u}) {
                image::MiParams mi;
                mi.maxShift = span;
                mi.bins = bins;
                const std::string at = std::to_string(w) + "x" +
                    std::to_string(h) + " span " + std::to_string(span) +
                    " bins " + std::to_string(bins);
                expectSearchMatchesReference(a, b, mi, at);
                expectSearchMatchesReference(a, runs, mi, at + " runs");
            }
        }
    }
}

TEST(Registration, ScreenedSearchMatchesReferenceAtAnyThreadCount)
{
    // Random pairs, related (a noisy shifted copy) and unrelated
    // (independent noise, where every score sits near the MI bias):
    // same shift as the reference and the same re-scored count at
    // 1, 2 and 4 threads.
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed);
        const Image2D fixed = noisyImage(44, 65, 600 + seed);
        Image2D related = fixed.shifted(static_cast<long>(seed % 5) - 2,
                                        static_cast<long>(seed % 3) - 1);
        image::addGaussianNoise(related, 0.3, rng);
        const Image2D unrelated = noisyImage(44, 65, 700 + seed);
        for (const Image2D *moving :
             std::initializer_list<const Image2D *>{&related,
                                                   &unrelated}) {
            image::MiParams mi;
            mi.maxShift = 8;
            mi.bins = 16;
            const auto want =
                oracle::registerShiftMiReference(fixed, *moving, mi);
            std::optional<uint64_t> rescored;
            for (const size_t threads : {1u, 2u, 4u}) {
                const common::ScopedThreads scoped(threads);
                const SearchRun run = searchWithWork(fixed, *moving, mi);
                const std::string at = "seed " + std::to_string(seed) +
                    (moving == &related ? " related" : " unrelated") +
                    " threads " + std::to_string(threads);
                EXPECT_EQ(run.shift, want) << at;
                if (!rescored)
                    rescored = run.rescored;
                EXPECT_EQ(run.rescored, *rescored) << at;
            }
        }
    }
}

/// Random bins x bins joint histogram of n draws in one of several
/// shapes, from independent (MI near 0, the most cancellation in the
/// count form) to near-diagonal (MI near ln bins).
std::vector<uint32_t>
randomJoint(size_t bins, size_t n, int shape, Rng &rng)
{
    std::vector<uint32_t> joint(bins * bins, 0);
    const auto skewed = [&] {
        // Heavily non-uniform marginal: bin k with weight ~ 1/(k+1)^2.
        const double u = rng.uniform();
        return std::min(bins - 1,
                        static_cast<size_t>(1.0 / (1.0 - u * 0.999)) - 1);
    };
    for (size_t k = 0; k < n; ++k) {
        size_t i = 0, j = 0;
        switch (shape) {
        case 0: // independent uniform
            i = rng.below(bins);
            j = rng.below(bins);
            break;
        case 1: // near-diagonal
            i = rng.below(bins);
            j = rng.uniform() < 0.9 ? i : rng.below(bins);
            break;
        case 2: // skewed marginals, loosely coupled
            i = skewed();
            j = rng.uniform() < 0.5 ? i : skewed();
            break;
        default: // a handful of heavy cells
            i = rng.below(std::min<size_t>(bins, 3));
            j = (i + rng.below(2)) % bins;
            break;
        }
        ++joint[i * bins + j];
    }
    return joint;
}

TEST(Registration, ScreenScoreIsWithinItsErrorBoundOfTheExactScore)
{
    // |screen - exact| <= eps(n, bins) is what lets the search drop
    // candidates: its gap G is at least 10 (2 eps + 2e-12).
    Rng rng(2024);
    double worst = 0.0; // largest |screen - exact| / eps seen
    for (const size_t bins : {2u, 16u, 64u, 256u}) {
        for (const size_t n : {1u, 7u, 1000u, 44u * 65u, 128u * 96u,
                               512u * 512u}) {
            for (int shape = 0; shape < 4; ++shape) {
                const auto joint = randomJoint(bins, n, shape, rng);
                const double exact = image::jointCountsMi(joint, bins);
                const double screen =
                    image::jointCountsMiScreen(joint, bins);
                const double eps = image::miScreenErrorBound(n, bins);
                ASSERT_GT(eps, 0.0);
                EXPECT_LE(std::fabs(screen - exact), eps)
                    << "bins " << bins << " n " << n << " shape "
                    << shape;
                worst = std::max(worst, std::fabs(screen - exact) / eps);
            }
        }
        // One cell holding 2^18 counts (a power of two, so the exact
        // form's p is exactly 1): both forms are exactly 0.
        std::vector<uint32_t> one(bins * bins, 0);
        one[bins + 1 < one.size() ? bins + 1 : 0] = 512u * 512u;
        EXPECT_EQ(image::jointCountsMiScreen(one, bins), 0.0);
        EXPECT_EQ(image::jointCountsMi(one, bins), 0.0);
    }
    RecordProperty("worst_error_over_bound", std::to_string(worst));
    // The bound grows with the overlap, so a search's largest overlap
    // covers all its candidates.
    EXPECT_LT(image::miScreenErrorBound(44 * 65, 16),
              image::miScreenErrorBound(512 * 512, 16));
    EXPECT_LT(image::miScreenErrorBound(512 * 512, 16),
              image::miScreenErrorBound(512 * 512, 256));
}

TEST(Registration, JointCountEntryPointsRejectBadHistograms)
{
    const std::vector<uint32_t> joint(16, 1);
    EXPECT_THROW(image::jointCountsMi(joint, 5), std::invalid_argument);
    EXPECT_THROW(image::jointCountsMiScreen(joint, 1),
                 std::invalid_argument);
    EXPECT_THROW(image::jointCountsMiScreen(
                     std::vector<uint32_t>(4, 0x80000000u), 2),
                 std::invalid_argument);
    EXPECT_EQ(image::jointCountsMiScreen(std::vector<uint32_t>(4, 0), 2),
              0.0);
    EXPECT_EQ(image::jointCountsMi(std::vector<uint32_t>(4, 0), 2), 0.0);
}

TEST(Registration, BinCountAboveCapIsRejected)
{
    const Image2D a = noisyImage(8, 6, 3);
    const Image2D b = noisyImage(8, 6, 4);
    const size_t over = image::kMaxMiBins + 1;
    EXPECT_NO_THROW(image::quantizePlane(a, image::kMaxMiBins));
    EXPECT_THROW(image::quantizePlane(a, over), std::invalid_argument);
    EXPECT_THROW(image::mutualInformation(a, b, over),
                 std::invalid_argument);
    EXPECT_THROW(image::mutualInformationAtShift(a, b, 1, 0, over),
                 std::invalid_argument);
    image::MiParams mp;
    mp.bins = over;
    EXPECT_THROW(image::registerShiftMi(a, b, mp), std::invalid_argument);
}

TEST(Denoise, DegenerateShapesSurviveTheLoopSplits)
{
    // 1xN / Nx1 / tiny images exercise every peeled boundary case of
    // the branch-free interior loops.
    const std::pair<size_t, size_t> sizes[] = {
        {1, 1}, {1, 8}, {8, 1}, {2, 2}, {3, 3}};
    for (const auto &[w, h] : sizes) {
        const Image2D img = noisyImage(w, h, 300 + w * 13 + h);
        const image::TvParams tv{0.1, 5};
        const Image2D c = image::denoiseChambolle(img, tv);
        const Image2D b = image::denoiseSplitBregman(img, tv);
        EXPECT_EQ(c.width(), w);
        EXPECT_EQ(b.height(), h);
        for (const float v : c.data())
            EXPECT_TRUE(std::isfinite(v));
        for (const float v : b.data())
            EXPECT_TRUE(std::isfinite(v));
    }
}

// ---- QC on degenerate slices ------------------------------------------

bool
allMetricsFinite(const image::QcMetrics &m)
{
    return std::isfinite(m.snr) && std::isfinite(m.focusScore) &&
        std::isfinite(m.saturationFraction) &&
        std::isfinite(m.deadRowFraction) &&
        std::isfinite(m.stripeScore) && std::isfinite(m.miVsPrev);
}

TEST(Qc, ZeroVarianceSliceYieldsFiniteMetrics)
{
    // A single-material frame (constant intensity) has zero scene
    // variance and zero noise sigma: both SNR numerator and
    // denominator are degenerate.  The metrics must stay finite and
    // the dead-row detector must fire instead of dividing by zero.
    const Image2D flat(64, 48, 0.37f);
    const auto m = image::computeQcMetrics(flat);
    EXPECT_TRUE(allMetricsFinite(m));
    EXPECT_DOUBLE_EQ(m.deadRowFraction, 1.0);
    EXPECT_TRUE(m.flags & image::kQcDeadRows);
    EXPECT_DOUBLE_EQ(m.saturationFraction, 0.0);
}

TEST(Qc, FullySaturatedSliceIsFlaggedWithFiniteMetrics)
{
    image::QcThresholds t;
    const Image2D bloom(
        64, 48, static_cast<float>(t.saturationLevel) + 0.5f);
    const auto m = image::computeQcMetrics(bloom, t);
    EXPECT_TRUE(allMetricsFinite(m));
    EXPECT_DOUBLE_EQ(m.saturationFraction, 1.0);
    EXPECT_TRUE(m.flags & image::kQcSaturation);
    // Saturated-constant is also dead rows; both detectors agree.
    EXPECT_TRUE(m.flags & image::kQcDeadRows);
}

TEST(Qc, TinyAndSkinnySlicesSurviveEveryMetric)
{
    // 1xN / Nx1 / 1x1 frames exercise the interior-free edge cases of
    // the Laplacian, gradient, and column-profile kernels.
    for (const auto &[w, h] : {std::pair<size_t, size_t>{1, 1},
                               {1, 16},
                               {16, 1},
                               {2, 2}}) {
        Image2D img(w, h);
        common::Rng rng(7, w * 100 + h);
        for (float &v : img.data())
            v = static_cast<float>(rng.uniform());
        const auto m = image::computeQcMetrics(img);
        EXPECT_TRUE(allMetricsFinite(m)) << w << "x" << h;
        EXPECT_TRUE(std::isfinite(image::stripeScore(img)));
        EXPECT_TRUE(std::isfinite(image::estimateNoiseSigma(img)));
        EXPECT_TRUE(std::isfinite(image::gradientEnergy(img)));
    }
}

TEST(Qc, MonitorHandlesDegenerateHistoryWithoutBlowingUp)
{
    // Feed the stateful monitor a run of degenerate slices: constant
    // reference, then a constant candidate (zero-variance MI), then a
    // normal frame.  Every evaluation must stay finite and the
    // monitor must keep accepting input.
    image::QcMonitor monitor;
    const Image2D flat(32, 32, 0.5f);
    auto m0 = monitor.evaluate(flat);
    EXPECT_TRUE(allMetricsFinite(m0));
    monitor.accept(flat, m0);
    ASSERT_TRUE(monitor.hasReference());

    // MI of two identical constant frames is 0 (no information), not
    // NaN; the relative-MI check needs history and must not fire on
    // the first reference pair.
    const auto m1 = monitor.evaluate(flat);
    EXPECT_TRUE(allMetricsFinite(m1));

    Image2D textured(32, 32);
    common::Rng rng(11, 0);
    for (float &v : textured.data())
        v = static_cast<float>(rng.uniform());
    const auto m2 = monitor.evaluate(textured);
    EXPECT_TRUE(allMetricsFinite(m2));
    monitor.noteRejected(); // rejected-slice path is also finite
    const auto m3 = monitor.evaluate(textured);
    EXPECT_TRUE(allMetricsFinite(m3));
}

// ---- SIMD kernels vs the portable scalar path -----------------------

Image2D
simdNoisy(size_t w, size_t h, uint64_t seed)
{
    Image2D img(w, h);
    Rng rng(seed, 0);
    for (size_t y = 0; y < h; ++y)
        for (size_t x = 0; x < w; ++x)
            img.at(x, y) = static_cast<float>(rng.uniform()) +
                ((x / 7 + y / 5) % 2 ? 0.5f : 0.0f);
    return img;
}

void
expectBitwiseEqual(const Image2D &a, const Image2D &b,
                   const std::string &what)
{
    ASSERT_EQ(a.width(), b.width()) << what;
    ASSERT_EQ(a.height(), b.height()) << what;
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          a.size() * sizeof(float)),
              0)
        << what << ": bits differ";
}

TEST(Simd, TvKernelsMatchPortableScalarBitwise)
{
    // Odd widths, single-row/column frames, borders, unaligned
    // sizes — the interior kernels' remainder loops all get hit.
    const size_t dims[][2] = {{48, 40}, {37, 23}, {8, 8}, {1, 9},
                              {9, 1},   {17, 3},  {3, 17}};
    for (const auto &d : dims) {
        const Image2D in = simdNoisy(d[0], d[1], 77);
        image::TvParams tv;
        tv.iterations = 12;
        tv.lambda = 0.15;

        const Image2D c1 = image::denoiseChambolle(in, tv);
        const Image2D b1 = image::denoiseSplitBregman(in, tv);

        common::simd::ScopedForceScalar off;
        const std::string tag = std::to_string(d[0]) + "x" +
            std::to_string(d[1]);
        expectBitwiseEqual(c1, image::denoiseChambolle(in, tv),
                           "chambolle " + tag);
        expectBitwiseEqual(b1, image::denoiseSplitBregman(in, tv),
                           "bregman " + tag);
    }
}

TEST(Simd, MutualInformationMatchesReferenceOnBothPaths)
{
    const Image2D a = simdNoisy(37, 29, 5);
    const Image2D b = simdNoisy(37, 29, 6);
    for (const size_t bins : {16u, 64u, 256u}) {
        for (const long dy : {-3l, 0l, 2l})
            for (const long dx : {-2l, 0l, 5l}) {
                const double ref =
                    oracle::mutualInformationAtShiftReference(
                        a, b, dx, dy, bins);
                const double fast =
                    image::mutualInformationAtShift(a, b, dx, dy,
                                                    bins);
                double portable;
                {
                    common::simd::ScopedForceScalar off;
                    portable = image::mutualInformationAtShift(
                        a, b, dx, dy, bins);
                }
                EXPECT_EQ(std::memcmp(&ref, &fast, sizeof(double)),
                          0)
                    << "bins " << bins << " shift " << dx << ","
                    << dy;
                EXPECT_EQ(
                    std::memcmp(&ref, &portable, sizeof(double)), 0)
                    << "bins " << bins << " shift " << dx << ","
                    << dy << " (portable)";
            }
        // The fused one-shot entry point is the same computation.
        const double one = image::mutualInformation(a, b, bins);
        const double oneRef =
            oracle::mutualInformationAtShiftReference(a, b, 0, 0,
                                                     bins);
        EXPECT_EQ(std::memcmp(&one, &oneRef, sizeof(double)), 0)
            << "one-shot bins " << bins;
    }
}

TEST(Simd, RegisterShiftMiAgreesWithReferenceOnBothPaths)
{
    const Image2D fixed = simdNoisy(64, 48, 9);
    Image2D moving(64, 48, 0.0f);
    for (size_t y = 0; y < 48; ++y)
        for (size_t x = 0; x < 64; ++x)
            moving.at(x, y) = fixed.at((x + 61) % 64, (y + 2) % 48);
    for (const size_t bins : {2u, 16u, 32u, 256u}) {
        image::MiParams mp;
        mp.maxShift = 4;
        mp.bins = bins;
        const auto want =
            oracle::registerShiftMiReference(fixed, moving, mp);
        for (const size_t threads : {1u, 4u}) {
            const common::ScopedThreads scoped(threads);
            EXPECT_EQ(image::registerShiftMi(fixed, moving, mp), want)
                << "bins " << bins << " threads " << threads;
            const common::simd::ScopedForceScalar off;
            EXPECT_EQ(image::registerShiftMi(fixed, moving, mp), want)
                << "bins " << bins << " threads " << threads
                << " portable";
        }
    }
}

} // namespace
