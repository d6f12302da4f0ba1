/**
 * @file
 * Seeded FIB/SEM fault injection (§IV-B/IV-C pathologies).
 *
 * Real acquisition campaigns fight curtaining stripes, charging
 * blooms, focus loss, detector dropout, double-mill slice skips and
 * stage-drift excursions; this module injects those pathologies into
 * the simulated acquisition so the QC/recovery layer can be exercised
 * and scored against known ground truth.
 *
 * Determinism contract: every random choice — whether a fault occurs,
 * which kind, and its magnitude/placement — is drawn from a
 * counter-seeded `common::Rng` substream that is a pure function of
 * (seed, slice index, attempt).  Fault placement therefore never
 * depends on thread count, retry history of other slices, or call
 * order, and re-imaging attempt `a` of slice `s` is reproducible in
 * isolation.
 */

#ifndef HIFI_SCOPE_FAULTS_HH
#define HIFI_SCOPE_FAULTS_HH

#include <cstdint>
#include <optional>
#include <utility>

#include "common/result.hh"
#include "common/rng.hh"
#include "image/image2d.hh"

namespace hifi
{
namespace scope
{

/// Injected acquisition pathology (stored as int in SliceProvenance).
enum class FaultKind
{
    None = 0,
    Curtaining,     ///< vertical low-frequency intensity bands
    Charging,       ///< regional brightness saturation (bloom)
    FocusLoss,      ///< defocus blur
    DetectorDropout, ///< dead rows or a fully blank frame
    SliceSkip,      ///< double mill: the face overshoots the target
    DriftExcursion, ///< stage jump beyond the re-registration bound
};

const char *faultName(FaultKind kind);

/** Fault model: per-slice rates and magnitudes. */
struct FaultParams
{
    /// Master switch.  Disabled, scope::acquire images each slice once
    /// with no fault draw and no QC; its frames are bitwise the first
    /// attempts an enabled run with every rate at 0 would render.
    bool enabled = false;

    // Per-attempt occurrence probabilities (at most one fault per
    // attempt; SliceSkip can only occur on the first attempt since a
    // re-image does not re-mill).
    double curtainingProbability = 0.03;
    double chargingProbability = 0.03;
    double focusLossProbability = 0.03;
    double dropoutProbability = 0.02;
    double sliceSkipProbability = 0.02;
    double driftExcursionProbability = 0.02;

    // Magnitudes.
    double curtainDepth = 0.35;     ///< peak multiplicative dimming
    double curtainPeriodFrac = 0.3; ///< stripe period / image width
    double chargeValue = 1.2;       ///< detector-rail value of a bloom
    double chargeAreaFrac = 0.25;   ///< bloom area / image area
    size_t blurRadius = 2;          ///< defocus box-blur radius (px)
    double dropoutRowFraction = 0.12; ///< dead-row band height
    double blankFrameFraction = 0.25; ///< dropouts that kill the frame
    size_t skipOvershootSlices = 2; ///< extra slices milled through
    long excursionPx = 3;           ///< jump beyond maxDriftPx

    /// Sum of the per-attempt fault probabilities.
    double totalProbability() const;

    /// Uniformly scale every occurrence probability (benchmarking).
    FaultParams scaled(double factor) const;
};

/// Domain check; nullopt when valid.
std::optional<common::Error> validate(const FaultParams &params);

/**
 * Sample which fault (if any) strikes one imaging attempt.  Consumes
 * one uniform draw; magnitude draws for the sampled fault come from
 * the same generator afterwards, so a single counter-seeded Rng per
 * (slice, attempt) covers both.
 */
FaultKind sampleFaultKind(const FaultParams &params,
                          common::Rng &rng);

/// Multiplicative vertical banding with random phase.
void applyCurtaining(image::Image2D &img, const FaultParams &params,
                     common::Rng &rng);

/// Saturate a random rectangular region at the detector rail.
void applyCharging(image::Image2D &img, const FaultParams &params,
                   common::Rng &rng);

/// Box blur of radius params.blurRadius (edge-clamped).
void applyFocusLoss(image::Image2D &img, const FaultParams &params);

/// Zero a random row band, or the whole frame for a blank dropout.
void applyDetectorDropout(image::Image2D &img,
                          const FaultParams &params,
                          common::Rng &rng);

/**
 * Apply an imaging fault in place.  None, SliceSkip and
 * DriftExcursion are no-ops here: skips change which face is imaged
 * and excursions change the applied shift, both handled by the
 * acquisition loop.
 */
void applyImagingFault(image::Image2D &img, FaultKind kind,
                       const FaultParams &params, common::Rng &rng);

/// Random (dy, dz) stage jump of magnitude maxDriftPx + excursionPx
/// .. maxDriftPx + excursionPx + 2 with random signs/axis split.
std::pair<long, long> sampleExcursion(const FaultParams &params,
                                      long max_drift_px,
                                      common::Rng &rng);

} // namespace scope
} // namespace hifi

#endif // HIFI_SCOPE_FAULTS_HH
