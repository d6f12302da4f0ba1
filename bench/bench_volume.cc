/**
 * @file
 * Out-of-core tiled-volume benchmark: streaming cross-section
 * assembly and verified read-back of a synthetic volume through the
 * TileStore, against the dense in-RAM Volume3D path.
 *
 * The headline leg assembles a 4 GiB logical volume (1024^3 floats)
 * under a bounded working set — 256 MiB of dirty write buffers plus a
 * 128 MiB resident tile cache — and asserts that the process peak RSS
 * stays under 512 MiB, an 8x reduction versus materializing the
 * volume.  Read-back cross-sections are compared bitwise against the
 * slice generator, so the leg is self-checking without ever holding
 * the dense volume.  The comparison legs assemble a 512 MiB volume
 * in RAM and through the store at two budgets; all three read-back
 * digests must be bitwise identical.
 *
 * Numbers are transcribed into BENCH_volume.json.  `--quick` shrinks
 * the volumes for CI smoke runs (the CI leg additionally runs under
 * a ulimit -v address-space ceiling).
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "common/telemetry.hh"
#include "image/image2d.hh"
#include "image/tile_store.hh"
#include "image/tiled_volume.hh"
#include "image/volume3d.hh"

using namespace hifi;

namespace
{

struct Dims
{
    size_t nx, ny, nz;
    size_t bytes() const { return nx * ny * nz * sizeof(float); }
};

/// Deterministic synthetic voxel: cheap enough to regenerate for
/// verification, varied enough that tiles do not dedup away.
float
voxel(size_t x, size_t y, size_t z)
{
    const uint32_t h = static_cast<uint32_t>(x) * 2654435761u ^
        static_cast<uint32_t>(y) * 40503u ^
        static_cast<uint32_t>(z) * 2246822519u;
    return static_cast<float>(h & 0xFFFFu) / 65536.0f;
}

image::Image2D
makeSlice(size_t x, const Dims &d)
{
    image::Image2D img(d.ny, d.nz);
    for (size_t z = 0; z < d.nz; ++z) {
        float *row = img.row(z);
        for (size_t y = 0; y < d.ny; ++y)
            row[y] = voxel(x, y, z);
    }
    return img;
}

uint64_t
fnvImage(uint64_t h, const image::Image2D &img)
{
    const auto &v = img.data();
    const auto *p = reinterpret_cast<const unsigned char *>(v.data());
    for (size_t i = 0; i < v.size() * sizeof(float); ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

double
sinceMs(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/// Cross-sections sampled for the verified read-back sweep.
std::vector<size_t>
readbackXs(const Dims &d)
{
    return {0, d.nx / 2, d.nx - 1};
}

struct LegResult
{
    uint64_t digest = 0;
    double assembleMs = 0.0;
    double readMs = 0.0;
    size_t spilledBytes = 0;
    size_t evictions = 0;
    bool verified = true;
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

/// Assemble + read back through the tile store under a budget.
LegResult
runTiled(const Dims &d, const std::string &dir, size_t storeBudget,
         size_t dirtyBudget, bool verifySlices)
{
    std::filesystem::remove_all(dir);
    LegResult leg;
    image::TileStoreConfig tc;
    tc.dir = dir;
    tc.budgetBytes = storeBudget;
    image::TileStore store(std::move(tc));

    auto made = image::TiledVolume3D::create(
        d.nx, d.ny, d.nz, store,
        image::TiledVolume3D::kDefaultTileEdge, dirtyBudget);
    if (!made.ok()) {
        check(false, "TiledVolume3D::create: " + made.error().message);
        return leg;
    }
    image::TiledVolume3D vol = made.takeValue();

    // Windows of slices, as the post-processing chain writes them
    // (scope::kStreamWindowSlices).
    constexpr size_t kWindow = 8;
    auto t0 = std::chrono::steady_clock::now();
    std::vector<image::Image2D> window;
    for (size_t x0 = 0; x0 < d.nx; x0 += kWindow) {
        window.clear();
        for (size_t x = x0; x < std::min(d.nx, x0 + kWindow); ++x)
            window.push_back(makeSlice(x, d));
        const auto err = vol.setCrossSections(x0, window);
        if (err) {
            check(false, "setCrossSections: " + err->message);
            return leg;
        }
    }
    if (const auto err = vol.sealAll()) {
        check(false, "sealAll: " + err->message);
        return leg;
    }
    leg.assembleMs = sinceMs(t0);

    t0 = std::chrono::steady_clock::now();
    uint64_t h = 1469598103934665603ull;
    for (const size_t x : readbackXs(d)) {
        auto img = vol.crossSection(x);
        if (!img.ok()) {
            check(false, "crossSection: " + img.error().message);
            return leg;
        }
        h = fnvImage(h, img.value());
        if (verifySlices) {
            const auto expect = makeSlice(x, d);
            leg.verified = leg.verified &&
                std::memcmp(expect.data().data(),
                            img.value().data().data(),
                            expect.data().size() * sizeof(float)) ==
                    0;
        }
    }
    auto slab = vol.planarSlab(d.nz / 2, d.nz / 2 + 4);
    if (!slab.ok()) {
        check(false, "planarSlab: " + slab.error().message);
        return leg;
    }
    h = fnvImage(h, slab.value());
    leg.readMs = sinceMs(t0);
    leg.digest = h;
    leg.spilledBytes = store.stats().spilledBytes;
    leg.evictions = store.stats().evictions;

    std::filesystem::remove_all(dir);
    return leg;
}

/// The same workload fully materialized in RAM.
LegResult
runDense(const Dims &d)
{
    LegResult leg;
    auto t0 = std::chrono::steady_clock::now();
    image::Volume3D vol(d.nx, d.ny, d.nz);
    for (size_t x = 0; x < d.nx; ++x) {
        const image::Image2D slice = makeSlice(x, d);
        for (size_t z = 0; z < d.nz; ++z)
            for (size_t y = 0; y < d.ny; ++y)
                vol.at(x, y, z) = slice.at(y, z);
    }
    leg.assembleMs = sinceMs(t0);

    t0 = std::chrono::steady_clock::now();
    uint64_t h = 1469598103934665603ull;
    for (const size_t x : readbackXs(d))
        h = fnvImage(h, vol.crossSection(x).value());
    h = fnvImage(h, vol.planarSlab(d.nz / 2, d.nz / 2 + 4).value());
    leg.readMs = sinceMs(t0);
    leg.digest = h;
    return leg;
}

struct Row
{
    std::string name;
    double assembleMs = 0.0;
    double readMs = 0.0;
    size_t logicalBytes = 0;
    size_t peakRssBytes = 0;
    size_t spilledBytes = 0;
    size_t evictions = 0;
};

double
mib(size_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

} // namespace

int
main(int argc, char **argv)
{
    hifi::telemetry::reportPeakRssAtExit();
#if defined(__GLIBC__)
    // Pin the mmap threshold so the ~1 MiB tile buffers bypass the
    // main arena: glibc's adaptive threshold would otherwise retain
    // thousands of freed tile-sized blocks in the heap, and the
    // resulting fragmentation — not live data — would dominate the
    // peak-RSS number this bench exists to measure.
    mallopt(M_MMAP_THRESHOLD, 128 << 10);
#endif
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else {
            std::cerr << "usage: " << argv[0] << " [--quick]\n";
            return 2;
        }
    }

    const std::string scratch =
        (std::filesystem::temp_directory_path() / "hifi_bench_volume")
            .string();

    // Headline out-of-core leg.  Full: 4 GiB logical under a 512 MiB
    // peak-RSS ceiling (128 MiB resident tile cache + a dirty budget
    // of one 256 MiB yz tile layer + slack).  Quick: 64 MiB logical.
    const Dims big = quick ? Dims{256, 256, 256}
                           : Dims{1024, 1024, 1024};
    const size_t tileLayerBytes = ((big.ny + 63) / 64) *
        ((big.nz + 63) / 64) * 64 * 64 * 64 * sizeof(float);
    const size_t bigStoreBudget =
        quick ? (24ull << 20) : (128ull << 20);
    const size_t bigDirtyBudget = tileLayerBytes + (1ull << 20);
    constexpr size_t kRssCeiling = 512ull << 20;

    std::vector<Row> rows;

    {
        Row row;
        row.name = quick ? "tiled_64m_outofcore"
                         : "tiled_4g_outofcore";
        row.logicalBytes = big.bytes();
        const LegResult leg = runTiled(
            big, scratch + "/big", bigStoreBudget, bigDirtyBudget,
            /*verifySlices=*/true);
        row.assembleMs = leg.assembleMs;
        row.readMs = leg.readMs;
        row.spilledBytes = leg.spilledBytes;
        row.evictions = leg.evictions;
        row.peakRssBytes = telemetry::peakRssBytes();
        check(leg.verified,
              "out-of-core read-back matches the slice generator");
        if (!quick) {
            check(row.logicalBytes >= (4ull << 30),
                  "headline leg is >= 4 GiB logical");
            check(row.peakRssBytes > 0 &&
                      row.peakRssBytes <= kRssCeiling,
                  "peak RSS " + std::to_string(mib(row.peakRssBytes)) +
                      " MiB within the 512 MiB ceiling");
        }
        rows.push_back(row);
    }

    // In-RAM vs tiled comparison at a dense-feasible size; the three
    // read-back digests must agree bitwise.
    const Dims cmp = quick ? Dims{160, 160, 160} : Dims{512, 512, 512};
    const size_t budgetLow = quick ? (8ull << 20) : (64ull << 20);
    const size_t budgetHigh = quick ? (32ull << 20) : (256ull << 20);
    const size_t cmpDirty = ((cmp.ny + 63) / 64) *
            ((cmp.nz + 63) / 64) * 64 * 64 * 64 * sizeof(float) +
        (1ull << 20);

    const LegResult dense = runDense(cmp);
    {
        Row row;
        row.name = "dense_inram";
        row.logicalBytes = cmp.bytes();
        row.assembleMs = dense.assembleMs;
        row.readMs = dense.readMs;
        row.peakRssBytes = telemetry::peakRssBytes();
        rows.push_back(row);
    }
    for (const size_t budget : {budgetLow, budgetHigh}) {
        Row row;
        row.name = "tiled_budget_" +
            std::to_string(static_cast<size_t>(mib(budget))) + "m";
        row.logicalBytes = cmp.bytes();
        const LegResult leg =
            runTiled(cmp, scratch + "/" + row.name, budget, cmpDirty,
                     /*verifySlices=*/false);
        row.assembleMs = leg.assembleMs;
        row.readMs = leg.readMs;
        row.spilledBytes = leg.spilledBytes;
        row.evictions = leg.evictions;
        row.peakRssBytes = telemetry::peakRssBytes();
        check(leg.digest == dense.digest,
              row.name + " read-back digest bitwise vs dense");
        rows.push_back(row);
    }

    std::filesystem::remove_all(scratch);

    // ---- Report -----------------------------------------------------
    std::cout << "\nTiled-volume bench"
              << (quick ? " (--quick)" : "")
              << " (assembly = streamed cross-sections, read = 3 "
                 "cross-sections + one 4-slice slab)\n\n";
    for (const Row &r : rows) {
        const double writeMiBs = r.assembleMs > 0.0
            ? mib(r.logicalBytes) / (r.assembleMs / 1000.0)
            : 0.0;
        std::cout << "  " << r.name << ": assemble " << std::fixed
                  << std::setprecision(1) << r.assembleMs << " ms ("
                  << writeMiBs << " MiB/s), read " << r.readMs
                  << " ms, logical " << mib(r.logicalBytes)
                  << " MiB, peak RSS " << mib(r.peakRssBytes)
                  << " MiB";
        if (r.spilledBytes)
            std::cout << ", spilled " << mib(r.spilledBytes)
                      << " MiB, evictions " << r.evictions;
        std::cout << "\n";
    }

    // Machine-readable block (transcribed into BENCH_volume.json).
    std::cout << "\nJSON:\n[";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::cout << (i ? ",\n " : "\n ") << "{\"name\": \"" << r.name
                  << "\", \"assemble_ms\": " << std::setprecision(1)
                  << r.assembleMs << ", \"read_ms\": " << r.readMs
                  << ", \"logical_mib\": " << mib(r.logicalBytes)
                  << ", \"peak_rss_mib\": " << mib(r.peakRssBytes)
                  << ", \"spilled_mib\": " << mib(r.spilledBytes)
                  << ", \"evictions\": " << r.evictions << "}";
    }
    std::cout << "\n]\n";

    if (g_failures) {
        std::cerr << g_failures << " check failure(s)\n";
        return 1;
    }
    return 0;
}
