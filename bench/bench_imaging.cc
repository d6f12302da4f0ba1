/**
 * @file
 * Imaging fast-path benchmark: wall-clock of the registration / SEM /
 * denoise kernels and the fault-injected robust-acquisition campaign,
 * compared (where one exists in-binary) against the reference
 * implementation (the test oracles in tests/oracles.hh), plus the
 * clean-frame cache on/off.  Every fast-vs-reference pair is also
 * checked for exact result agreement, so the bench doubles as an
 * equivalence smoke test.
 *
 * Numbers are transcribed into BENCH_imaging.json; the "before"
 * column there was recorded with the identical workloads on the
 * pre-fast-path build.
 *
 * `--quick` shrinks the sweep and rep counts for CI smoke runs.
 * `--telemetry <prefix>` instruments the campaign + registration run
 * and writes <prefix>.trace.json / <prefix>.metrics.json (validated
 * in CI by hifi_trace_check); the metrics include the
 * sem.clean_cache.* and mi.* counters, and the run fails if the MI
 * screen re-scores every candidate it screened.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/simd.hh"
#include "common/telemetry.hh"
#include "fab/voxelizer.hh"
#include "image/denoise.hh"
#include "image/image2d.hh"
#include "image/noise.hh"
#include "image/registration.hh"
#include "image/volume3d.hh"
#include "scope/faults.hh"
#include "scope/fib.hh"
#include "scope/sem.hh"

#include "oracles.hh"

using namespace hifi;
using image::Image2D;
using image::Volume3D;

namespace
{

Image2D
testPattern(size_t w, size_t h)
{
    Image2D img(w, h, 0.1f);
    for (size_t x = 6; x < w; x += 8)
        img.fillRect(static_cast<long>(x), 0, static_cast<long>(x + 4),
                     static_cast<long>(h), 0.8f);
    img.fillRect(10, 12, 30, 26, 0.5f);
    img.fillRect(40, 30, 90, 60, 0.35f);
    return img;
}

Volume3D
makeScene(size_t nx = 120, size_t ny = 48, size_t nz = 40)
{
    Volume3D vol(nx, ny, nz, 1.0f);
    for (size_t x = 0; x < nx; ++x) {
        const size_t s = x / 2;
        const size_t tri = s % 58 < 29 ? s % 58 : 58 - s % 58;
        const size_t bar_y = 4 + tri;
        for (size_t y = 0; y < ny; ++y) {
            for (size_t z = 0; z < nz; ++z) {
                float v = 1.0f;
                if (z >= 12 && z < 16)
                    v = 0.0f;
                else if (z >= 22 && z < 26)
                    v = 2.0f;
                else if (z >= 16 && z < 22 && (y + 2000 - s) % 20 < 3)
                    v = 3.0f;
                if (z >= 30 && z < 34 && y >= bar_y && y < bar_y + 4)
                    v = 4.0f;
                vol.at(x, y, z) = v;
            }
        }
    }
    return vol;
}

template <typename F>
double
medianMs(F &&fn, size_t reps)
{
    std::vector<double> ms;
    for (size_t i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count());
    }
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
}

/// Per-voxel reference SEM formation: the pre-LUT semImageClean loop.
Image2D
semImageCleanReference(const Volume3D &materials, size_t x0,
                       size_t slice_voxels,
                       const scope::SemParams &params)
{
    const bool se = params.detector == models::Detector::Se;
    const double q = se ? params.seQuality : 1.0;
    const double pivot = 0.45;
    const size_t x1 = std::min(materials.nx(), x0 + slice_voxels);
    Image2D img(materials.ny(), materials.nz());
    for (size_t z = 0; z < materials.nz(); ++z) {
        for (size_t y = 0; y < materials.ny(); ++y) {
            double sum = 0.0;
            for (size_t x = x0; x < x1; ++x) {
                const double c = scope::materialContrast(
                    fab::voxelMaterial(materials.at(x, y, z)),
                    params.detector);
                sum += pivot + (c - pivot) * q;
            }
            img.at(y, z) = static_cast<float>(
                sum / static_cast<double>(x1 - x0));
        }
    }
    return img;
}

struct Row
{
    std::string name;
    double fastMs = 0.0;
    double referenceMs = -1.0; ///< < 0: no in-binary reference
    std::string note;
};

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::cerr << "MISMATCH: " << what << "\n";
        ++g_failures;
    }
}

/// Candidates one registerShiftMi call re-scores exactly after its
/// screen (its mi.exact_rescored count), measured outside the timing.
uint64_t
exactRescores(const Image2D &fixed, const Image2D &moving,
              const image::MiParams &mi)
{
    telemetry::Session session;
    (void)image::registerShiftMi(fixed, moving, mi);
    const auto collected = session.finish({});
    const auto &counters = collected->metrics.counters;
    const auto it = counters.find("mi.exact_rescored");
    return it == counters.end() ? 0 : it->second;
}

} // namespace

int
main(int argc, char **argv)
{
    hifi::telemetry::reportPeakRssAtExit();
    bool quick = false;
    std::string telemetry_prefix;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--telemetry") == 0 &&
                   i + 1 < argc) {
            telemetry_prefix = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--quick] [--telemetry <prefix>]\n";
            return 2;
        }
    }

    // Single-threaded so the numbers isolate the algorithmic change
    // from the PR-1 parallelism.
    const common::ScopedThreads one(1);

    const Image2D clean = testPattern(128, 96);
    Image2D fixed = clean;
    image::addSensorNoise(fixed, 900.0, 0.05, 11);
    Image2D moving = clean.shifted(3, -2);
    image::addSensorNoise(moving, 900.0, 0.05, 22);

    std::vector<Row> rows;

    // ---- Registration span sweep: quantized vs reference ----------
    const std::vector<long> spans =
        quick ? std::vector<long>{4} : std::vector<long>{4, 8, 16};
    for (long max_shift : spans) {
        image::MiParams mi;
        mi.bins = 32;
        mi.maxShift = max_shift;
        const size_t reps = quick ? 3 : (max_shift >= 16 ? 5 : 9);

        std::pair<long, long> fast_shift, ref_shift;
        Row row;
        row.name =
            "register_shift_mi_maxshift_" + std::to_string(max_shift);
        row.fastMs = medianMs([&] {
            fast_shift = image::registerShiftMi(fixed, moving, mi);
        }, reps);
        row.referenceMs = medianMs([&] {
            ref_shift =
                oracle::registerShiftMiReference(fixed, moving, mi);
        }, quick ? 1 : 3);
        check(fast_shift == ref_shift, row.name);
        row.note = "shift (" + std::to_string(fast_shift.first) + "," +
            std::to_string(fast_shift.second) + "), " +
            std::to_string(exactRescores(fixed, moving, mi)) +
            " exact re-scores";
        rows.push_back(row);
    }

    // ---- Registration at the pipeline's own shapes -----------------
    // A 74x65 SEM cross-section (the pipeline's frame) and a drifted
    // copy, each with its own sensor noise, TV-denoised as
    // post-processing does, at 16 bins: maxShift 6 is the stack
    // alignment, maxShift 8 the acquisition QC neighbour search.
    // Denoising leaves the long runs of equal bins the sub-histogram
    // scatter is built for.
    {
        const Volume3D section = makeScene(120, 74, 65);
        const scope::SemParams sem;
        const image::TvParams tv{0.05, 50};
        Image2D pf = scope::semImageClean(section, 40, 8, sem);
        Image2D pm = pf.shifted(2, -1);
        image::addSensorNoise(pf, 900.0, 0.05, 33);
        image::addSensorNoise(pm, 900.0, 0.05, 44);
        const Image2D pfixed = image::denoiseChambolle(pf, tv);
        const Image2D pmoving = image::denoiseChambolle(pm, tv);
        for (const auto &[label, max_shift] :
             {std::pair<const char *, long>{"pipeline", 6},
              std::pair<const char *, long>{"qc", 8}}) {
            image::MiParams mi;
            mi.bins = 16;
            mi.maxShift = max_shift;
            std::pair<long, long> fast_shift, ref_shift;
            Row row;
            row.name = std::string("register_shift_mi_") + label +
                "_74x65_bins16_maxshift_" + std::to_string(max_shift);
            row.fastMs = medianMs([&] {
                fast_shift = image::registerShiftMi(pfixed, pmoving, mi);
            }, quick ? 3 : 21);
            row.referenceMs = medianMs([&] {
                ref_shift =
                    oracle::registerShiftMiReference(pfixed, pmoving, mi);
            }, quick ? 1 : 5);
            check(fast_shift == ref_shift, row.name);
            row.note = "shift (" + std::to_string(fast_shift.first) +
                "," + std::to_string(fast_shift.second) + "), " +
                std::to_string(exactRescores(pfixed, pmoving, mi)) +
                " exact re-scores";
            rows.push_back(row);
        }
    }

    // ---- Plain MI ---------------------------------------------------
    {
        double fast_mi = 0.0, ref_mi = 0.0;
        Row row;
        row.name = "mutual_information";
        row.fastMs = medianMs([&] {
            fast_mi = image::mutualInformation(fixed, moving, 32);
        }, quick ? 11 : 101);
        row.referenceMs = medianMs([&] {
            ref_mi = oracle::mutualInformationAtShiftReference(
                fixed, moving, 0, 0, 32);
        }, quick ? 11 : 101);
        check(fast_mi == ref_mi, row.name);
        row.note = "fused one-shot, no quantized-plane build";
        rows.push_back(row);
    }

    // ---- SIMD kernels vs forced-portable-scalar --------------------
    // Each pair runs the same workload on the active ISA and with
    // ScopedForceScalar, asserting bitwise-identical output (and,
    // where a reference implementation exists in-binary, agreement
    // with it on BOTH paths).  On a non-AVX2 host or under
    // HIFI_SIMD=off the two columns simply coincide.
    {
        const std::string isa_note = std::string("isa ") +
            common::simd::isaName(common::simd::activeIsa()) +
            ", vs forced scalar";
        const size_t reps = quick ? 3 : 9;
        const image::TvParams tv{0.05, 50};

        Image2D tv_fast, tv_scalar;
        Row row_c;
        row_c.name = "denoise_chambolle_simd";
        row_c.fastMs = medianMs([&] {
            tv_fast = image::denoiseChambolle(fixed, tv);
        }, reps);
        {
            common::simd::ScopedForceScalar off;
            row_c.referenceMs = medianMs([&] {
                tv_scalar = image::denoiseChambolle(fixed, tv);
            }, reps);
        }
        check(tv_fast.data() == tv_scalar.data(), row_c.name);
        row_c.note = isa_note;
        rows.push_back(row_c);

        Row row_b;
        row_b.name = "denoise_split_bregman_simd";
        row_b.fastMs = medianMs([&] {
            tv_fast = image::denoiseSplitBregman(fixed, tv);
        }, reps);
        {
            common::simd::ScopedForceScalar off;
            row_b.referenceMs = medianMs([&] {
                tv_scalar = image::denoiseSplitBregman(fixed, tv);
            }, reps);
        }
        check(tv_fast.data() == tv_scalar.data(), row_b.name);
        row_b.note = isa_note;
        rows.push_back(row_b);

        double mi_fast = 0.0, mi_scalar = 0.0;
        const double mi_ref = oracle::mutualInformationAtShiftReference(
            fixed, moving, 0, 0, 32);
        Row row_mi;
        row_mi.name = "mutual_information_simd";
        row_mi.fastMs = medianMs([&] {
            mi_fast = image::mutualInformation(fixed, moving, 32);
        }, quick ? 11 : 101);
        {
            common::simd::ScopedForceScalar off;
            row_mi.referenceMs = medianMs([&] {
                mi_scalar = image::mutualInformation(fixed, moving, 32);
            }, quick ? 11 : 101);
        }
        check(mi_fast == mi_ref && mi_scalar == mi_ref, row_mi.name);
        row_mi.note = isa_note;
        rows.push_back(row_mi);
    }

    // ---- Clean SEM frame formation: LUT vs per-voxel switch --------
    const Volume3D scene = makeScene();
    const scope::SemParams sem;
    {
        Image2D fast_img, ref_img;
        Row row;
        row.name = "sem_image_clean";
        row.fastMs = medianMs([&] {
            fast_img = scope::semImageClean(scene, 0, 8, sem);
        }, quick ? 11 : 101);
        row.referenceMs = medianMs([&] {
            ref_img = semImageCleanReference(scene, 0, 8, sem);
        }, quick ? 11 : 101);
        check(fast_img.data() == ref_img.data(), row.name);
        rows.push_back(row);

        // SIMD gather-quad kernel vs forced scalar, both against the
        // per-voxel reference frame computed above.
        Image2D simd_img, scalar_img;
        Row row_s;
        row_s.name = "sem_image_clean_simd";
        row_s.fastMs = medianMs([&] {
            simd_img = scope::semImageClean(scene, 0, 8, sem);
        }, quick ? 11 : 101);
        {
            common::simd::ScopedForceScalar off;
            row_s.referenceMs = medianMs([&] {
                scalar_img = scope::semImageClean(scene, 0, 8, sem);
            }, quick ? 11 : 101);
        }
        check(simd_img.data() == ref_img.data() &&
                  scalar_img.data() == ref_img.data(),
              row_s.name);
        row_s.note = std::string("isa ") +
            common::simd::isaName(common::simd::activeIsa()) +
            ", vs forced scalar";
        rows.push_back(row_s);
    }

    // ---- Denoise (50 iterations, lambda 0.05) ----------------------
    {
        const image::TvParams tv{0.05, 50};
        const size_t reps = quick ? 3 : 9;
        Row row_c;
        row_c.name = "denoise_chambolle";
        row_c.fastMs = medianMs([&] {
            (void)image::denoiseChambolle(fixed, tv);
        }, reps);
        rows.push_back(row_c);

        Row row_b;
        row_b.name = "denoise_split_bregman";
        row_b.fastMs = medianMs([&] {
            (void)image::denoiseSplitBregman(fixed, tv);
        }, reps);
        rows.push_back(row_b);
    }

    // ---- Fault-injected robust acquisition campaign ----------------
    {
        scope::FibSemParams params;
        params.sliceVoxels = 2;
        params.driftProbability = 0.3;
        params.maxDriftPx = 3;
        scope::FaultParams faults;
        faults = faults.scaled(2.0);
        faults.enabled = true;
        scope::RecoveryParams recovery;
        const size_t reps = quick ? 1 : 5;

        size_t retries = 0;
        Row row;
        row.name = "acquire_robust_2x";
        row.fastMs = medianMs([&] {
            retries = scope::acquire(scene, params, faults,
                                     recovery, 42)
                          .retries;
        }, reps);

        // Same campaign with the clean-frame cache disabled, to
        // isolate its contribution; the results must be identical.
        scope::RecoveryParams no_cache = recovery;
        no_cache.reuseCleanFrames = false;
        size_t retries_nc = 0;
        Row row_nc;
        row_nc.name = "acquire_robust_2x_no_clean_cache";
        row_nc.fastMs = medianMs([&] {
            retries_nc = scope::acquire(scene, params, faults,
                                        no_cache, 42)
                             .retries;
        }, reps);
        check(retries == retries_nc, "clean cache changes retries");
        row.note = std::to_string(retries) + " retries";
        rows.push_back(row);
        rows.push_back(row_nc);

        // Instrumented run: spans with image./scope. prefixes plus
        // the fast-path counters land in the exported files.
        if (!telemetry_prefix.empty()) {
            telemetry::Session session;
            (void)scope::acquire(scene, params, faults,
                                 recovery, 42);
            (void)image::registerShiftMi(fixed, moving);
            telemetry::TelemetryConfig cfg;
            cfg.enabled = true;
            cfg.tracePath = telemetry_prefix + ".trace.json";
            cfg.metricsPath = telemetry_prefix + ".metrics.json";
            const auto collected = session.finish(cfg);
            const auto &counters = collected->metrics.counters;
            for (const char *name :
                 {"sem.clean_cache.hit", "sem.clean_cache.miss",
                  "mi.searches", "mi.exhaustive.evals",
                  "mi.exact_rescored"}) {
                const auto it = counters.find(name);
                std::cout << "counter " << name << " = "
                          << (it == counters.end() ? 0 : it->second)
                          << "\n";
                check(it != counters.end() && it->second > 0,
                      std::string("missing counter ") + name);
            }
            // The MI screen must keep pruning: re-scoring every
            // screened candidate would leave the counts equal.
            if (counters.count("mi.exact_rescored") &&
                counters.count("mi.exhaustive.evals"))
                check(counters.at("mi.exact_rescored") <
                          counters.at("mi.exhaustive.evals"),
                      "MI screen re-scored every candidate");
        }
    }

    // ---- Report -----------------------------------------------------
    std::cout << "\nImaging fast-path bench (1 thread, median of "
                 "reps; reference = retained original algorithm)\n\n";
    for (const Row &r : rows) {
        std::cout << "  " << r.name << ": " << r.fastMs << " ms";
        if (r.referenceMs >= 0.0)
            std::cout << " (reference " << r.referenceMs << " ms, "
                      << r.referenceMs / r.fastMs << "x)";
        if (!r.note.empty())
            std::cout << " [" << r.note << "]";
        std::cout << "\n";
    }

    // Machine-readable block (transcribed into BENCH_imaging.json).
    std::cout << "\nJSON:\n[";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::cout << (i ? ",\n " : "\n ") << "{\"name\": \"" << r.name
                  << "\", \"fast_ms\": " << r.fastMs;
        if (r.referenceMs >= 0.0)
            std::cout << ", \"reference_ms\": " << r.referenceMs
                      << ", \"speedup\": " << r.referenceMs / r.fastMs;
        std::cout << "}";
    }
    std::cout << "\n]\n";

    if (g_failures) {
        std::cerr << g_failures << " equivalence failure(s)\n";
        return 1;
    }
    return 0;
}
