/**
 * @file
 * SEM image formation (Section IV).
 *
 * Each material has a nominal detected intensity that depends on the
 * detector: secondary electrons (SE) respond to conductivity, back-
 * scattered electrons (BSE) to atomic number.  Shot noise scales with
 * dwell time (3 us vs 6 us in the paper); additive detector noise is
 * Gaussian.  The beam interaction volume averages the material over
 * the FIB slice thickness, which is what later allows sub-slice edge
 * interpolation during measurement.
 */

#ifndef HIFI_SCOPE_SEM_HH
#define HIFI_SCOPE_SEM_HH

#include <array>

#include "common/rng.hh"
#include "fab/materials.hh"
#include "image/image2d.hh"
#include "image/volume3d.hh"
#include "models/chip_data.hh"

namespace hifi
{
namespace scope
{

/// Nominal detected intensity of a material under a detector.
double materialContrast(fab::Material material,
                        models::Detector detector);

/// Per-material contrast table, indexed by the Material enum value.
using ContrastLut = std::array<double, fab::kNumMaterials>;

/**
 * materialContrast for every material under one detector, built once
 * so per-pixel/per-voxel loops index a table instead of re-running the
 * contrast switch.  lut[m] == materialContrast(Material(m), detector)
 * exactly.
 */
ContrastLut contrastLut(models::Detector detector);

/**
 * Classify an observed intensity to the nearest material contrast.
 * Inverse of materialContrast; used by the RE segmentation stage.
 *
 * @param exclude_capacitor drop the capacitor electrode material from
 *        the candidates; the SA region has none, and under BSE its
 *        contrast sits between copper and polysilicon, which would
 *        swallow blurred wire pixels.
 */
fab::Material classifyIntensity(double intensity,
                                models::Detector detector,
                                bool exclude_capacitor = false);

/**
 * classifyIntensity against a prebuilt contrast table — same result,
 * but callers classifying many pixels (the segmentation stage) build
 * the table once instead of re-deriving every contrast per pixel.
 */
fab::Material classifyIntensity(double intensity,
                                const ContrastLut &lut,
                                bool exclude_capacitor = false);

/** SEM acquisition parameters. */
struct SemParams
{
    models::Detector detector = models::Detector::Se;
    double dwellUs = 3.0;

    /// Full-scale detected electrons per us of dwell.
    double electronsPerUs = 300.0;

    /// Additive detector (readout) noise sigma.
    double readNoise = 0.05;

    /**
     * SE contrast quality of the sample (models::ChipSpec::seQuality).
     * For the SE detector, contrasts are compressed toward their mean
     * by this factor; BSE is unaffected.
     */
    double seQuality = 1.0;
};

/**
 * Image the cross-section of a material volume at voxel position
 * `x0`, averaging the interaction volume over `sliceVoxels` voxels
 * along X.  Output pixels are (Y, Z).
 */
image::Image2D semImage(const image::Volume3D &materials, size_t x0,
                        size_t slice_voxels, const SemParams &params,
                        common::Rng &rng);

/// Noise-free version (for ground-truth comparisons).
image::Image2D semImageClean(const image::Volume3D &materials,
                             size_t x0, size_t slice_voxels,
                             const SemParams &params);

/**
 * semImageClean into a caller-allocated (Y, Z) frame: every pixel of
 * `frame` is overwritten with the identical value.  Lets a caller
 * that renders many frames in parallel allocate them up front on its
 * own thread.  Throws std::invalid_argument on a frame of the wrong
 * shape.
 */
void semImageCleanInto(const image::Volume3D &materials, size_t x0,
                       size_t slice_voxels, const SemParams &params,
                       image::Image2D &frame);

} // namespace scope
} // namespace hifi

#endif // HIFI_SCOPE_SEM_HH
