#include "scope/sem.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "common/parallel.hh"
#include "common/simd.hh"

#include "fab/voxelizer.hh"

#include "image/noise.hh"

#if HIFI_SIMD_AVX2_COMPILED
#include <immintrin.h>
#endif

namespace hifi
{
namespace scope
{

namespace
{

#if HIFI_SIMD_AVX2_COMPILED

/**
 * Four adjacent Y pixels of one SEM output row in lockstep.  Each lane
 * keeps its own accumulator and walks x in the scalar order, so every
 * pixel's sum is the identical sequential chain of double adds the
 * scalar loop performs; only lanes are parallel, never the reduction.
 *
 * Material decode: fab::voxelMaterial rounds with std::lround (ties
 * away from zero).  Voxel codes are small non-negative reals, so
 * trunc(v + 0.5) in double — exact at these magnitudes — picks the
 * same code for every in-range value, and all out-of-range codes
 * collapse to index 0, which IS Material::Oxide, matching the scalar
 * fallback.
 */
HIFI_AVX2_TARGET inline void
semRowQuadAvx2(const float *base, int nx, size_t x0, size_t x1,
               const double *shaded, double count, float *out)
{
    const __m128i lane_off =
        _mm_set_epi32(3 * nx, 2 * nx, 1 * nx, 0);
    const __m256d half = _mm256_set1_pd(0.5);
    const __m128i zero32 = _mm_setzero_si128();
    const __m128i maxCode =
        _mm_set1_epi32(static_cast<int>(fab::kNumMaterials) - 1);
    // Mask-gather with an all-ones mask == plain gather, but avoids
    // GCC's spurious maybe-uninitialized warning on the pass-through
    // operand of the unmasked intrinsic.
    const __m128 all_ps =
        _mm_castsi128_ps(_mm_set1_epi32(-1));
    const __m256d all_pd =
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    __m256d sum = _mm256_setzero_pd();
    for (size_t x = x0; x < x1; ++x) {
        const __m128 v = _mm_mask_i32gather_ps(
            _mm_setzero_ps(), base + x, lane_off, all_ps, 4);
        const __m256d c =
            _mm256_add_pd(_mm256_cvtps_pd(v), half);
        __m128i code = _mm256_cvttpd_epi32(c);
        const __m128i bad = _mm_or_si128(
            _mm_cmplt_epi32(code, zero32),
            _mm_cmpgt_epi32(code, maxCode));
        code = _mm_andnot_si128(bad, code);
        sum = _mm256_add_pd(
            sum, _mm256_mask_i32gather_pd(_mm256_setzero_pd(),
                                          shaded, code, all_pd, 8));
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, sum);
    for (int j = 0; j < 4; ++j)
        out[j] = static_cast<float>(lanes[j] / count);
}

#endif // HIFI_SIMD_AVX2_COMPILED

} // namespace

double
materialContrast(fab::Material material, models::Detector detector)
{
    using fab::Material;
    if (detector == models::Detector::Se) {
        // SE contrast follows conductivity.
        switch (material) {
          case Material::Oxide:
            return 0.12;
          case Material::Silicon:
            return 0.40;
          case Material::Polysilicon:
            return 0.55;
          case Material::Tungsten:
            return 0.78;
          case Material::Copper:
            return 0.92;
          case Material::CapacitorMetal:
            return 0.85;
          default:
            break;
        }
    } else {
        // BSE contrast follows the mean atomic number.
        switch (material) {
          case Material::Oxide:
            return 0.10;
          case Material::Silicon:
            return 0.30;
          case Material::Polysilicon:
            return 0.42;
          case Material::Tungsten:
            return 0.95;
          case Material::Copper:
            return 0.70;
          case Material::CapacitorMetal:
            return 0.58;
          default:
            break;
        }
    }
    throw std::invalid_argument("materialContrast: unknown material");
}

ContrastLut
contrastLut(models::Detector detector)
{
    ContrastLut lut;
    for (size_t m = 0; m < fab::kNumMaterials; ++m)
        lut[m] =
            materialContrast(static_cast<fab::Material>(m), detector);
    return lut;
}

fab::Material
classifyIntensity(double intensity, models::Detector detector,
                  bool exclude_capacitor)
{
    return classifyIntensity(intensity, contrastLut(detector),
                             exclude_capacitor);
}

fab::Material
classifyIntensity(double intensity, const ContrastLut &lut,
                  bool exclude_capacitor)
{
    fab::Material best = fab::Material::Oxide;
    double best_err = 1e9;
    for (size_t m = 0; m < fab::kNumMaterials; ++m) {
        const auto mat = static_cast<fab::Material>(m);
        if (exclude_capacitor && mat == fab::Material::CapacitorMetal)
            continue;
        const double err = std::abs(lut[m] - intensity);
        if (err < best_err) {
            best_err = err;
            best = mat;
        }
    }
    return best;
}

void
semImageCleanInto(const image::Volume3D &materials, size_t x0,
                  size_t slice_voxels, const SemParams &params,
                  image::Image2D &img)
{
    if (x0 >= materials.nx())
        throw std::out_of_range("semImageClean: x0 out of range");
    if (slice_voxels == 0)
        throw std::invalid_argument("semImageClean: zero slice");
    if (img.width() != materials.ny() || img.height() != materials.nz())
        throw std::invalid_argument("semImageClean: frame shape");

    // Sample-dependent SE contrast compression (Section IV-B): on
    // vendors B and C the SE signal barely separates the materials,
    // which is why those chips were imaged with BSE.
    const bool se = params.detector == models::Detector::Se;
    const double q = se ? params.seQuality : 1.0;
    const double pivot = 0.45;

    // Hoist the per-voxel contrast switch AND the shading arithmetic:
    // shaded[m] is exactly the `pivot + (c - pivot) * q` the inner
    // loop used to recompute, so the per-voxel sums are bitwise
    // unchanged.
    const ContrastLut lut = contrastLut(params.detector);
    std::array<double, fab::kNumMaterials> shaded;
    for (size_t m = 0; m < fab::kNumMaterials; ++m)
        shaded[m] = pivot + (lut[m] - pivot) * q;

    const size_t x1 = std::min(materials.nx(), x0 + slice_voxels);
    // Each output row (one z) only reads the material volume and
    // writes its own pixels: row-band parallel, scheduling-invariant.
    common::parallelFor(0, materials.nz(), 4,
                        [&](size_t z0, size_t z1) {
        const size_t ny = materials.ny();
        for (size_t z = z0; z < z1; ++z) {
            size_t y = 0;
#if HIFI_SIMD_AVX2_COMPILED
            if (common::simd::avx2()) {
                for (; y + 4 <= ny; y += 4) {
                    semRowQuadAvx2(
                        materials.data() +
                            (z * ny + y) * materials.nx(),
                        static_cast<int>(materials.nx()), x0, x1,
                        shaded.data(),
                        static_cast<double>(x1 - x0), &img.at(y, z));
                }
            }
#endif
            for (; y < ny; ++y) {
                double sum = 0.0;
                for (size_t x = x0; x < x1; ++x) {
                    sum += shaded[static_cast<size_t>(
                        fab::voxelMaterial(materials.at(x, y, z)))];
                }
                img.at(y, z) = static_cast<float>(
                    sum / static_cast<double>(x1 - x0));
            }
        }
    });
}

image::Image2D
semImageClean(const image::Volume3D &materials, size_t x0,
              size_t slice_voxels, const SemParams &params)
{
    image::Image2D img(materials.ny(), materials.nz());
    semImageCleanInto(materials, x0, slice_voxels, params, img);
    return img;
}

image::Image2D
semImage(const image::Volume3D &materials, size_t x0,
         size_t slice_voxels, const SemParams &params,
         common::Rng &rng)
{
    image::Image2D img =
        semImageClean(materials, x0, slice_voxels, params);
    const double electrons = params.electronsPerUs * params.dwellUs;
    // One draw from the caller's generator seeds the whole frame; the
    // per-row counter-seeded streams inside addSensorNoise make the
    // noise field independent of thread scheduling.
    image::addSensorNoise(img, electrons, params.readNoise,
                          rng.next());
    return img;
}

} // namespace scope
} // namespace hifi
