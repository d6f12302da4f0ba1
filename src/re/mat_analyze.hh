/**
 * @file
 * MAT-region analysis (Fig. 7a): from a reconstructed volume of a
 * memory array, identify the bitlines, the buried wordlines, and the
 * storage capacitors - including the honeycomb packing the paper
 * observes on C5 ("arranged in a honeycomb structure and placed
 * above the bitlines").
 */

#ifndef HIFI_RE_MAT_ANALYZE_HH
#define HIFI_RE_MAT_ANALYZE_HH

#include "image/volume3d.hh"
#include "re/analyze.hh"

namespace hifi
{
namespace re
{

/** What the MAT analysis recovers. */
struct MatAnalysis
{
    size_t bitlines = 0;   ///< M1 lines spanning the region in X
    size_t wordlines = 0;  ///< gate strips spanning the region in Y
    size_t capacitors = 0; ///< capacitor-layer pillars

    /// Mean bitline pitch (nm).
    double blPitchNm = 0.0;

    /// Honeycomb: odd capacitor columns offset by half a pitch.
    bool honeycomb = false;

    /// Measured row offset between adjacent capacitor columns (nm).
    double rowOffsetNm = 0.0;
};

/**
 * Analyze a reconstructed MAT volume (from fab::buildMatSlice through
 * the imaging chain, or rendered clean).  InvalidArgument for an
 * empty volume.
 */
common::Result<MatAnalysis>
analyzeMatRegion(const image::Volume3D &recon, const PlanarScales &scales,
                 models::Detector detector);

} // namespace re
} // namespace hifi

#endif // HIFI_RE_MAT_ANALYZE_HH
