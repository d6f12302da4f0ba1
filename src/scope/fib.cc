#include "scope/fib.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/fnv.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/telemetry.hh"
#include "image/noise.hh"
#include "image/registration.hh"

namespace hifi
{
namespace scope
{

namespace
{

/// Count a per-fault-kind QC decision ("qc.<decision>.<fault>").
/// Only called when telemetry is enabled; the registry lookup is
/// per-slice, not per-pixel, so the string build is cheap enough.
void
countDecision(const char *decision, int fault_kind, uint64_t n = 1)
{
    telemetry::registry()
        .counter(std::string("qc.") + decision + "." +
                 faultName(static_cast<FaultKind>(fault_kind)))
        .add(n);
}

/// Dedicated RNG substream for the stage-drift walk (far away from
/// the per-slice attempt streams, which start at 0).
constexpr uint64_t kDriftStream = ~0ull;

/// Substreams per slice: kMaxAttemptsPerSlice attempts, each with a
/// fault stream (even) and a frame-noise stream (odd).
constexpr uint64_t kSliceStreamStride = 2 * kMaxAttemptsPerSlice;

/// One mean-reverting bounded drift step of the stage-drift walk.
long
driftStep(long drift, double probability, long max_px,
          common::Rng &rng)
{
    if (rng.uniform() >= probability)
        return drift;
    // Mean reversion: more likely to step back toward zero the
    // further out the stage has wandered.
    const double p_out = 0.5 /
        (1.0 + std::abs(static_cast<double>(drift)) /
             static_cast<double>(max_px));
    const long delta = (rng.uniform() < p_out) ? 1 : -1;
    const long next = drift + (drift >= 0 ? delta : -delta);
    return std::clamp(next, -max_px, max_px);
}

} // namespace

std::optional<common::Error>
validate(const FibSemParams &params)
{
    using common::Error;
    using common::ErrorCode;
    if (params.sliceVoxels == 0)
        return Error{ErrorCode::InvalidArgument,
                     "FibSemParams: sliceVoxels must be > 0"};
    if (!(params.driftProbability >= 0.0) ||
        !(params.driftProbability <= 1.0))
        return Error{ErrorCode::InvalidArgument,
                     "FibSemParams: driftProbability outside [0, 1]"};
    if (params.maxDriftPx < 1)
        return Error{ErrorCode::InvalidArgument,
                     "FibSemParams: maxDriftPx must be >= 1"};
    if (!(params.sem.dwellUs > 0.0))
        return Error{ErrorCode::InvalidArgument,
                     "SemParams: dwellUs must be > 0"};
    if (!(params.sem.electronsPerUs > 0.0))
        return Error{ErrorCode::InvalidArgument,
                     "SemParams: electronsPerUs must be > 0"};
    if (params.sem.readNoise < 0.0)
        return Error{ErrorCode::InvalidArgument,
                     "SemParams: readNoise must be >= 0"};
    if (!(params.sem.seQuality > 0.0) || params.sem.seQuality > 1.0)
        return Error{ErrorCode::InvalidArgument,
                     "SemParams: seQuality outside (0, 1]"};
    return std::nullopt;
}

std::optional<common::Error>
validate(const RecoveryParams &params)
{
    using common::Error;
    using common::ErrorCode;
    if (params.maxRetries + 1 > kMaxAttemptsPerSlice)
        return Error{ErrorCode::InvalidArgument,
                     "RecoveryParams: maxRetries must be < " +
                         std::to_string(kMaxAttemptsPerSlice)};
    const image::QcThresholds &qc = params.qc;
    if (qc.miBins < 2 || qc.miBins > image::kMaxMiBins)
        return Error{ErrorCode::InvalidArgument,
                     "QcThresholds: miBins must be in [2, " +
                         std::to_string(image::kMaxMiBins) + "]"};
    if (qc.history < 1)
        return Error{ErrorCode::InvalidArgument,
                     "QcThresholds: history must be >= 1"};
    if (qc.maxNeighborShiftPx < 0 || qc.shiftSearchPx < 1)
        return Error{ErrorCode::InvalidArgument,
                     "QcThresholds: shift bounds must be >= 0 / >= 1"};
    if (qc.shiftSearchPx <= qc.maxNeighborShiftPx)
        return Error{ErrorCode::FailedPrecondition,
                     "QcThresholds: shiftSearchPx must exceed "
                     "maxNeighborShiftPx or excursions are "
                     "undetectable"};
    return std::nullopt;
}

// ---- Clean-frame LRU cache -----------------------------------------

CleanFrameCache::CleanFrameCache(size_t capacity)
    : capacity_(capacity ? capacity : 1)
{
}

image::Image2D
CleanFrameCache::fetch(uint64_t key,
                       const std::function<image::Image2D()> &render)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = index_.find(key);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            if (telemetry::enabled())
                telemetry::registry()
                    .counter("sem.clean_cache.hit")
                    .add(1);
            return it->second->second;
        }
    }
    // Render outside the lock: the value is a pure function of the
    // key, so two threads racing on the same miss both produce the
    // identical frame and either insert wins.
    image::Image2D frame = render();
    if (telemetry::enabled())
        telemetry::registry().counter("sem.clean_cache.miss").add(1);
    std::lock_guard<std::mutex> lock(mu_);
    if (index_.find(key) == index_.end()) {
        lru_.emplace_front(key, frame);
        index_[key] = lru_.begin();
        while (lru_.size() > capacity_) {
            index_.erase(lru_.back().first);
            lru_.pop_back();
            ++evictions_;
            if (telemetry::enabled())
                telemetry::registry()
                    .counter("sem.clean_cache.evicted")
                    .add(1);
        }
    }
    return frame;
}

size_t
CleanFrameCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
}

uint64_t
CleanFrameCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
}

namespace
{

/// Digest of everything a clean frame depends on besides the volume:
/// mill position, slice thickness and the SEM imaging parameters.
uint64_t
cleanFrameKey(uint64_t volume_key, size_t x, size_t slice_voxels,
              const SemParams &sem)
{
    common::Fnv1a f;
    f.u64(volume_key);
    f.u64(x);
    f.u64(slice_voxels);
    f.u64(static_cast<uint64_t>(sem.detector));
    for (const double v : {sem.dwellUs, sem.electronsPerUs,
                           sem.readNoise, sem.seQuality})
        f.f64(v);
    return f.h;
}

} // namespace

RobustAcquisition
acquire(const image::Volume3D &materials, const FibSemParams &params,
        const FaultParams &faults, const RecoveryParams &recovery,
        uint64_t seed, CleanFrameCache *sharedCleanFrames,
        uint64_t volumeKey)
{
    if (const auto err = validate(params))
        throw std::invalid_argument("acquire: " + err->message);
    if (const auto err = validate(faults))
        throw std::invalid_argument("acquire: " + err->message);
    if (const auto err = validate(recovery))
        throw std::invalid_argument("acquire: " + err->message);

    const telemetry::Span span("scope.acquire");
    RobustAcquisition out;
    out.stack.sliceThicknessNm = 0.0; // caller-level metadata
    const size_t n = materials.nx() / params.sliceVoxels;
    if (n == 0)
        return out;

    // The drift walk is drawn from its own substream up front, so it
    // is a pure function of the seed no matter how many re-imaging
    // attempts individual slices need.
    std::vector<std::pair<long, long>> drift(n, {0, 0});
    {
        common::Rng drift_rng(seed, kDriftStream);
        long dy = 0, dz = 0;
        for (size_t s = 1; s < n; ++s) {
            dy = driftStep(dy, params.driftProbability,
                           params.maxDriftPx, drift_rng);
            dz = driftStep(dz, params.driftProbability,
                           params.maxDriftPx, drift_rng);
            drift[s] = {dy, dz};
        }
    }

    /// Stage shift applied to an attempt, and the fault it records
    /// (SliceSkip when the face overshot).
    struct Attempt
    {
        FaultKind fault = FaultKind::None;
        std::pair<long, long> shift{0, 0};
    };

    // Render attempt (s, a) into `frame`: the clean face (from `cache`
    // when given), sensor noise, the sampled imaging fault and the
    // stage shift.  All its randomness comes from two counter-seeded
    // substreams, fault placement (even) and frame noise (odd), so it
    // is a pure function of (seed, s, a).  `skip` carries the slice's
    // double mill across its attempts: the mill only runs once, so a
    // skip sampled on the first attempt moves every attempt's face
    // and one sampled on a retry is a no-op.  With faults disabled no
    // fault is drawn.
    const double electrons =
        params.sem.electronsPerUs * params.sem.dwellUs;
    const auto renderAttempt = [&](size_t s, size_t a,
                                   CleanFrameCache *cache, bool &skip,
                                   image::Image2D &frame) {
        common::Rng fault_rng(seed, kSliceStreamStride * s + 2 * a);
        FaultKind kind = sampleFaultKind(faults, fault_rng);
        if (kind == FaultKind::SliceSkip) {
            if (a == 0)
                skip = true;
            kind = FaultKind::None;
        }
        size_t x = s * params.sliceVoxels;
        if (skip)
            x = std::min(x + faults.skipOvershootSlices *
                                 params.sliceVoxels,
                         materials.nx() - params.sliceVoxels);
        {
            const telemetry::Span image_span("scope.sem_image");
            if (cache)
                frame = cache->fetch(
                    cleanFrameKey(volumeKey, x, params.sliceVoxels,
                                  params.sem),
                    [&] {
                        return semImageClean(materials, x,
                                             params.sliceVoxels,
                                             params.sem);
                    });
            else
                semImageCleanInto(materials, x, params.sliceVoxels,
                                  params.sem, frame);
            const uint64_t frame_seed =
                common::Rng(seed, kSliceStreamStride * s + 2 * a + 1)
                    .next();
            image::addSensorNoise(frame, electrons,
                                  params.sem.readNoise, frame_seed);
            applyImagingFault(frame, kind, faults, fault_rng);
        }
        Attempt out;
        out.fault = skip ? FaultKind::SliceSkip : kind;
        out.shift = drift[s];
        if (kind == FaultKind::DriftExcursion) {
            const auto ex =
                sampleExcursion(faults, params.maxDriftPx, fault_rng);
            out.shift.first += ex.first;
            out.shift.second += ex.second;
        }
        frame.shiftInPlace(out.shift.first, out.shift.second);
        return out;
    };

    // Frames are allocated here, on the calling thread, and filled in
    // place.
    std::vector<image::Image2D> &frames = out.stack.slices;
    frames.reserve(n);
    for (size_t s = 0; s < n; ++s)
        frames.emplace_back(materials.ny(), materials.nz());
    out.stack.provenance.resize(n);

    if (!faults.enabled) {
        // One attempt per slice and no QC: every frame is a pure
        // function of its slice, so the slices render in parallel
        // (the kernels' own row fan-outs run serially inside a slice
        // chunk).  Each frame is bitwise the faulted path's first
        // attempt when that attempt draws no fault.
        common::parallelFor(0, n, 1, [&](size_t s0, size_t s1) {
            for (size_t s = s0; s < s1; ++s) {
                bool skip = false;
                renderAttempt(s, 0, nullptr, skip, frames[s]);
            }
        });
        out.stack.trueDrift = std::move(drift);
        return out;
    }

    const size_t max_attempts = recovery.maxRetries + 1;
    image::QcMonitor monitor(recovery.qc);

    // QC checks that compare against neighbours/history rather than
    // measuring the frame itself.  A *content* change in the sample
    // trips these exactly like an imaging fault would — but unlike a
    // fault it reproduces identically on a re-image.  When a retry is
    // flagged only by these checks and agrees with the previous
    // attempt of the same slice, the anomaly is confirmed as real
    // content and the slice is accepted (re-anchoring the baselines).
    constexpr unsigned kContentFlags =
        image::kQcStripes | image::kQcDefocus | image::kQcLowMi;

    // Between two noisy images of the same face the MI fluctuates a
    // few percent, and for near-identical adjacent slices it is
    // statistically tied with the MI to the reference — so "attempts
    // agree" needs slack or it degenerates into a coin flip.
    constexpr double kAttemptAgreementRatio = 0.85;

    // Clean-frame cache: re-imaging attempts (and skip-overshoot
    // collisions) at the same mill position re-render the identical
    // deterministic clean frame, so cache the rendered faces.  Noise
    // and faults are still applied per attempt.  A shared cache (the
    // campaign service) spans jobs; otherwise a private LRU of the
    // default four mill positions covers this acquisition alone (a
    // retry re-images the position it just rendered).
    std::optional<CleanFrameCache> local_cache;
    CleanFrameCache *clean_cache =
        sharedCleanFrames ? sharedCleanFrames : &local_cache.emplace();

    out.stack.trueDrift.resize(n);
    out.qc.resize(n);
    out.audit.resize(n);
    for (size_t s = 0; s < n; ++s) {
        const telemetry::Span slice_span("scope.slice");
        image::Image2D &frame = frames[s];
        image::SliceProvenance &prov = out.stack.provenance[s];
        image::QcMetrics &qc = out.qc[s];
        SliceDecision &decision = out.audit[s];
        decision.slice = s;
        image::Image2D prev_attempt;
        bool skip = false;
        bool ok = false;

        for (size_t a = 0; a < max_attempts; ++a) {
            const Attempt attempt =
                renderAttempt(s, a, clean_cache, skip, frame);
            {
                const telemetry::Span qc_span("image.qc");
                qc = monitor.evaluate(frame);
            }

            // Persistence check: the anomaly survived a re-image of
            // the same face and the two attempts agree with each
            // other better than with the stale reference — real
            // sample content, not an imaging fault.
            bool content_confirmed = false;
            if (qc.flagged() && a > 0 &&
                (qc.flags & ~kContentFlags) == 0) {
                const double mi_attempts = image::mutualInformation(
                    prev_attempt, frame, recovery.qc.miBins);
                const double stripe_rms =
                    image::profileDifferenceRms(
                        image::smoothedColumnProfile(prev_attempt),
                        image::smoothedColumnProfile(frame));
                content_confirmed = mi_attempts >=
                        kAttemptAgreementRatio * qc.miVsPrev &&
                    stripe_rms <= recovery.qc.maxStripeScore;
            }

            const int attempt_fault = static_cast<int>(attempt.fault);
            if (a == 0) {
                prov.injectedFault = attempt_fault;
                prov.firstAttemptFlagged = qc.flagged();
                prov.firstAttemptFlags = qc.flags;
            }
            prov.attempts = a + 1;
            out.stack.trueDrift[s] = attempt.shift;

            QcAttemptRecord attempt_rec;
            attempt_rec.attempt = a;
            attempt_rec.fault = attempt_fault;
            attempt_rec.metrics = qc;
            attempt_rec.contentConfirmed = content_confirmed;
            attempt_rec.accepted =
                !qc.flagged() || content_confirmed;
            decision.attempts.push_back(attempt_rec);

            if (attempt_rec.accepted) {
                prov.acceptedFault = attempt_fault;
                ok = true;
                break;
            }
            prev_attempt = frame; // the last attempt's frame stays
                                  // in the stack if none passes
        }

        if (ok) {
            monitor.accept(frame, qc);
        } else {
            prov.accepted = false;
            monitor.noteRejected();
        }
        if (prov.attempts > 1)
            ++out.slicesRetried;
        out.retries += prov.attempts - 1;
        if (prov.injectedFault != 0) {
            ++out.faultsInjected;
            if (prov.firstAttemptFlagged)
                ++out.faultsDetected;
        }
        if (telemetry::enabled()) {
            if (ok)
                countDecision("accept", prov.injectedFault);
            if (prov.attempts > 1)
                countDecision("retry", prov.injectedFault,
                              prov.attempts - 1);
        }
        decision.injectedFault = prov.injectedFault;
        decision.accepted = ok;
    }

    // Budget-exhausted slices, in slice order: blend the nearest
    // accepted neighbours on both sides, copy the one neighbour when
    // only one side has any, and keep the last attempt's frame as
    // unrecoverable when neither does or interpolation is off.
    // Accepted frames are never rewritten, so the blends read final
    // content.
    constexpr size_t kNone = ~size_t{0};
    std::vector<size_t> right(n, kNone);
    for (size_t s = n - 1, next = kNone; s < n; --s) {
        right[s] = next;
        if (out.stack.provenance[s].accepted)
            next = s;
    }
    double weight = 0.0;
    for (size_t s = 0, left = kNone; s < n; ++s) {
        image::SliceProvenance &prov = out.stack.provenance[s];
        if (prov.accepted) {
            left = s;
            weight += 1.0;
            continue;
        }
        const telemetry::Span interp_span("scope.interpolate");
        SliceDecision &decision = out.audit[s];
        const size_t r = right[s];
        if (!recovery.interpolate || (left == kNone && r == kNone)) {
            prov.unrecoverable = true;
            decision.unrecoverable = true;
            ++out.slicesUnrecoverable;
            if (telemetry::enabled())
                countDecision("unrecoverable", prov.injectedFault);
            continue;
        }
        std::pair<long, long> &d = out.stack.trueDrift[s];
        if (left != kNone && r != kNone) {
            const image::Image2D &a = frames[left];
            const image::Image2D &b = frames[r];
            for (size_t i = 0; i < a.size(); ++i)
                frames[s].data()[i] =
                    0.5f * (a.data()[i] + b.data()[i]);
            d = {(out.stack.trueDrift[left].first +
                  out.stack.trueDrift[r].first) /
                     2,
                 (out.stack.trueDrift[left].second +
                  out.stack.trueDrift[r].second) /
                     2};
        } else {
            const size_t src = left != kNone ? left : r;
            frames[s] = frames[src];
            d = out.stack.trueDrift[src];
        }
        prov.interpolated = true;
        decision.interpolated = true;
        ++out.slicesInterpolated;
        out.interpolatedSlices.push_back(s);
        weight += 0.5;
        if (telemetry::enabled())
            countDecision("interpolate", prov.injectedFault);
    }

    out.qcConfidence = weight / static_cast<double>(n);
    return out;
}

namespace
{

void
appendFlagNames(std::string &out, unsigned flags)
{
    static const std::pair<unsigned, const char *> kNames[] = {
        {image::kQcLowSnr, "low_snr"},
        {image::kQcSaturation, "saturation"},
        {image::kQcDeadRows, "dead_rows"},
        {image::kQcStripes, "stripes"},
        {image::kQcDefocus, "defocus"},
        {image::kQcLowMi, "low_mi"},
        {image::kQcShift, "shift"},
    };
    out += '[';
    bool first = true;
    for (const auto &[bit, name] : kNames) {
        if (!(flags & bit))
            continue;
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += name;
        out += '"';
    }
    out += ']';
}

void
appendNum(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

} // namespace

std::string
qcAuditJson(const std::vector<SliceDecision> &audit)
{
    std::string out = "{\"slices\":[";
    for (size_t i = 0; i < audit.size(); ++i) {
        const SliceDecision &d = audit[i];
        out += i ? ",\n " : "\n ";
        out += "{\"slice\":" + std::to_string(d.slice) +
            ",\"injected_fault\":\"" +
            faultName(static_cast<FaultKind>(d.injectedFault)) +
            "\",\"accepted\":" + (d.accepted ? "true" : "false") +
            ",\"interpolated\":" +
            (d.interpolated ? "true" : "false") +
            ",\"unrecoverable\":" +
            (d.unrecoverable ? "true" : "false") + ",\"attempts\":[";
        for (size_t a = 0; a < d.attempts.size(); ++a) {
            const QcAttemptRecord &att = d.attempts[a];
            out += a ? ",\n  " : "\n  ";
            out += "{\"attempt\":" + std::to_string(att.attempt) +
                ",\"fault\":\"" +
                faultName(static_cast<FaultKind>(att.fault)) +
                "\",\"flags\":";
            appendFlagNames(out, att.metrics.flags);
            out += ",\"snr\":";
            appendNum(out, att.metrics.snr);
            out += ",\"focus\":";
            appendNum(out, att.metrics.focusScore);
            out += ",\"saturation\":";
            appendNum(out, att.metrics.saturationFraction);
            out += ",\"dead_rows\":";
            appendNum(out, att.metrics.deadRowFraction);
            out += ",\"stripe\":";
            appendNum(out, att.metrics.stripeScore);
            out += ",\"mi_vs_prev\":";
            appendNum(out, att.metrics.miVsPrev);
            out += ",\"shift\":[" +
                std::to_string(att.metrics.shiftX) + "," +
                std::to_string(att.metrics.shiftY) + "]";
            out += ",\"content_confirmed\":";
            out += att.contentConfirmed ? "true" : "false";
            out += ",\"accepted\":";
            out += att.accepted ? "true" : "false";
            out += "}";
        }
        out += "]}";
    }
    out += "\n]}\n";
    return out;
}

CampaignCost
campaignCost(const models::ChipSpec &chip)
{
    CampaignCost cost;
    // Square ROI of the Table I area; the imaged stack face is the
    // ROI width by a ~2 um deep IC cross-section.
    const double side_um = std::sqrt(chip.roiAreaUm2);
    const double stack_depth_um = 2.0;

    cost.slices = static_cast<size_t>(
        std::ceil(side_um * 1000.0 / chip.sliceNm));
    const double px_w = side_um * 1000.0 / chip.pixelResNm;
    const double px_h = stack_depth_um * 1000.0 / chip.pixelResNm;
    cost.pixelsPerImage = px_w * px_h;

    // Mill time grows with the cross-section width; 18 s per um of
    // face width reproduces the paper's >24 h for the 100 um^2 scans.
    cost.millSecondsPerSlice = 18.0 * side_um;
    cost.imageSecondsPerSlice =
        cost.pixelsPerImage * chip.dwellUs * 1e-6;
    cost.secondsPerSlice =
        cost.millSecondsPerSlice + cost.imageSecondsPerSlice;
    cost.totalHours = static_cast<double>(cost.slices) *
        cost.secondsPerSlice / 3600.0;
    return cost;
}

void
chargeRetries(CampaignCost &cost, size_t retries)
{
    cost.reimagedSlices += retries;
    const double hours = static_cast<double>(retries) *
        cost.imageSecondsPerSlice / 3600.0;
    cost.retryHours += hours;
    cost.totalHours += hours;
}

} // namespace scope
} // namespace hifi
