/**
 * @file
 * Tests for the out-of-core tiled volume subsystem: the
 * content-addressed TileStore (LRU, pinning, spill, corruption
 * taxonomy), TiledVolume3D vs the dense Volume3D (bitwise, at several
 * tile sizes), the streaming acquisition and post-processing chains vs
 * their in-RAM references (bitwise, at several thread counts and
 * window sizes), and the memory-budgeted pipeline end to end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/pipeline.hh"
#include "core/stages.hh"
#include "image/denoise.hh"
#include "image/image2d.hh"
#include "image/registration.hh"
#include "image/tile_store.hh"
#include "image/tiled_volume.hh"
#include "image/volume3d.hh"
#include "scope/fib.hh"
#include "scope/postprocess.hh"

#include "oracles.hh"

namespace
{

using namespace hifi;
using common::ErrorCode;
using image::Image2D;
using image::TiledVolume3D;
using image::TileStore;
using image::TileStoreConfig;
using image::Volume3D;

std::string
scratchDir(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path() /
        ("hifi_test_volume_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/// Deterministic pseudo-random tile payload.
std::vector<float>
tileData(uint64_t seed, size_t n = 64)
{
    common::Rng rng(seed, 7);
    std::vector<float> v(n);
    for (float &f : v)
        f = static_cast<float>(rng.uniform());
    return v;
}

/// The drifting multi-material scene used by the robustness tests.
Volume3D
makeScene(size_t nx = 120, size_t ny = 48, size_t nz = 40)
{
    Volume3D vol(nx, ny, nz, 1.0f);
    for (size_t x = 0; x < nx; ++x) {
        const size_t s = x / 2;
        const size_t tri = s % 58 < 29 ? s % 58 : 58 - s % 58;
        const size_t bar_y = 4 + tri;
        for (size_t y = 0; y < ny; ++y)
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

/// Faults tuned to exercise retry, interpolation and recovery.
scope::FaultParams
noisyFaults()
{
    scope::FaultParams faults;
    faults.enabled = true;
    faults.curtainingProbability = 0.12;
    faults.chargingProbability = 0.08;
    faults.focusLossProbability = 0.08;
    faults.dropoutProbability = 0.06;
    return faults;
}

bool
bitwiseEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
        0;
}

bool
bitwiseEqual(const Image2D &a, const Image2D &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
        bitwiseEqual(a.data(), b.data());
}

bool
bitwiseEqual(const Volume3D &a, const Volume3D &b)
{
    if (a.nx() != b.nx() || a.ny() != b.ny() || a.nz() != b.nz())
        return false;
    const size_t n = a.nx() * a.ny() * a.nz();
    return std::memcmp(a.data(), b.data(), n * sizeof(float)) == 0;
}

/// Test-local byte-at-a-time FNV-1a: the tile digest's definition.
uint64_t
fnvOracle(const std::vector<float> &data)
{
    const auto *p = reinterpret_cast<const unsigned char *>(data.data());
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < data.size() * sizeof(float); ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

float
floatFromBits(uint32_t bits)
{
    float f = 0.0f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

// ---- TileStore --------------------------------------------------------

TEST(TileStore, DigestIsBytewiseFnv1a)
{
    std::vector<std::vector<float>> cases;
    cases.push_back({});                            // empty
    cases.push_back(std::vector<float>(1, 0.0f));   // one zero float
    cases.push_back(std::vector<float>(257, 0.0f)); // all zero, odd
    cases.push_back(tileData(40, 33));              // no zeros
    // A lone zero float beside a nonzero one in the same 8-byte word,
    // in both halves, then a full zero word and an odd tail.
    cases.push_back({0.0f, 1.5f, 2.5f, 0.0f, 0.0f, 0.0f, 3.0f});
    // -0.0f and NaN payloads: nonzero bits that must not be taken for
    // zero words.
    cases.push_back({-0.0f, -0.0f, 0.0f, -0.0f});
    cases.push_back({floatFromBits(0x7fc00000u), 0.0f,
                     floatFromBits(0x7f800001u),
                     floatFromBits(0xffffffffu), 0.0f, 0.0f});
    cases.push_back({0.0f, floatFromBits(0x00000001u)}); // denormal
    // A full 64^3 tile: zero padding around a written core.
    std::vector<float> tile(64 * 64 * 64, 0.0f);
    common::Rng rng(41, 3);
    for (size_t z = 0; z < 40; ++z)
        for (size_t y = 0; y < 50; ++y)
            for (size_t x = 0; x < 7; ++x)
                tile[(z * 64 + y) * 64 + x] =
                    static_cast<float>(rng.uniform());
    cases.push_back(std::move(tile));

    for (size_t i = 0; i < cases.size(); ++i)
        EXPECT_EQ(TileStore::digestOf(cases[i]), fnvOracle(cases[i]))
            << "case " << i;

    // The digest reads the buffer at any alignment: every suffix of
    // a mixed buffer shifts the 8-byte word boundaries.
    std::vector<float> mixed = {0.0f, 0.0f, 1.0f, 0.0f, 0.0f, 0.0f,
                                0.0f, -0.0f, 0.0f, 0.0f, 2.0f};
    for (size_t k = 0; k < mixed.size(); ++k) {
        const std::vector<float> tail(mixed.begin() + k, mixed.end());
        EXPECT_EQ(TileStore::digestOf(tail), fnvOracle(tail)) << k;
    }
}

TEST(TileStore, PutFetchRoundtripAndContentAddressing)
{
    TileStore store(TileStoreConfig{}); // memory-only, unbounded
    const auto data = tileData(1);
    const auto digest = store.put(data);
    ASSERT_TRUE(digest.ok());
    EXPECT_EQ(digest.value(), TileStore::digestOf(data));

    // Content addressing: a duplicate put changes nothing.
    const auto again = store.put(data);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value(), digest.value());
    EXPECT_EQ(store.residentTiles(), 1u);

    auto ref = store.fetch(digest.value());
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(bitwiseEqual(*ref.value(), data));
    EXPECT_EQ(ref.value().digest(), digest.value());
    EXPECT_EQ(store.stats().hits, 1u);

    // Unknown digest in a memory-only store: NotFound.
    auto missing = store.fetch(digest.value() ^ 1);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, ErrorCode::NotFound);
}

TEST(TileStore, SpillsToDiskAndReloadsAfterDrop)
{
    TileStoreConfig cfg;
    cfg.dir = scratchDir("spill");
    TileStore store(std::move(cfg));

    const auto data = tileData(2);
    const auto digest = store.put(data);
    ASSERT_TRUE(digest.ok());
    EXPECT_GT(store.stats().spilledBytes, data.size() * 4);

    store.dropResident();
    EXPECT_EQ(store.residentTiles(), 0u);
    EXPECT_TRUE(store.contains(digest.value())); // on disk

    auto ref = store.fetch(digest.value());
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(bitwiseEqual(*ref.value(), data));
    EXPECT_EQ(store.stats().misses, 1u);
}

TEST(TileStore, LruEvictsColdTilesUnderBudget)
{
    const auto data = tileData(3, 256);
    const size_t tile_bytes = data.size() * sizeof(float);

    TileStoreConfig cfg;
    cfg.dir = scratchDir("lru");
    cfg.budgetBytes = 2 * tile_bytes;
    TileStore store(std::move(cfg));

    std::vector<uint64_t> digests;
    for (uint64_t s = 0; s < 4; ++s) {
        auto d = store.put(tileData(100 + s, 256));
        ASSERT_TRUE(d.ok());
        digests.push_back(d.value());
    }
    EXPECT_LE(store.residentBytes(), store.budgetBytes());
    EXPECT_GE(store.stats().evictions, 2u);

    // Evicted tiles reload transparently from the disk tier.
    auto ref = store.fetch(digests.front());
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(bitwiseEqual(*ref.value(), tileData(100, 256)));
}

TEST(TileStore, MemoryOnlyStoreRefusesLossyEviction)
{
    const auto data = tileData(4, 256);
    TileStoreConfig cfg; // no dir
    cfg.budgetBytes = data.size() * sizeof(float);
    TileStore store(std::move(cfg));

    ASSERT_TRUE(store.put(data).ok());
    auto second = store.put(tileData(5, 256));
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.error().code, ErrorCode::ResourceExhausted);
    // The failed insert rolled back; the first tile survived.
    EXPECT_EQ(store.residentTiles(), 1u);
}

TEST(TileStore, PinsBlockEvictionAndOverflowIsTyped)
{
    const auto data = tileData(6, 256);
    const size_t tile_bytes = data.size() * sizeof(float);

    TileStoreConfig cfg;
    cfg.dir = scratchDir("pins");
    cfg.budgetBytes = tile_bytes; // room for exactly one pinned tile
    TileStore store(std::move(cfg));

    const auto d1 = store.put(data);
    const auto d2 = store.put(tileData(7, 256));
    ASSERT_TRUE(d1.ok());
    ASSERT_TRUE(d2.ok());

    {
        auto pinned = store.fetch(d1.value());
        ASSERT_TRUE(pinned.ok());
        EXPECT_EQ(store.pinnedBytes(), tile_bytes);

        // A second pinned tile would exceed the budget: typed error,
        // and the first pin is untouched.
        auto overflow = store.fetch(d2.value());
        ASSERT_FALSE(overflow.ok());
        EXPECT_EQ(overflow.error().code,
                  ErrorCode::ResourceExhausted);
        EXPECT_EQ(store.pinnedBytes(), tile_bytes);
    }

    // Pin released: the same fetch now succeeds.
    EXPECT_EQ(store.pinnedBytes(), 0u);
    auto ok = store.fetch(d2.value());
    EXPECT_TRUE(ok.ok());
}

TEST(TileStore, CorruptTileFilesSurfaceAsDataLoss)
{
    const std::string dir = scratchDir("corrupt");
    TileStoreConfig cfg;
    cfg.dir = dir;
    TileStore store(std::move(cfg));

    const auto data = tileData(8);
    const auto digest = store.put(data);
    ASSERT_TRUE(digest.ok());
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.tile",
                  static_cast<unsigned long long>(digest.value()));
    const std::string path = dir + "/" + name;

    // Truncated file.
    store.dropResident();
    std::filesystem::resize_file(path, 16);
    auto truncated = store.fetch(digest.value());
    ASSERT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.error().code, ErrorCode::DataLoss);

    // Bit flip in the payload: header parses, content digest fails.
    ASSERT_TRUE(store.put(data).ok()); // rewrite... still dedup-skipped?
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(24); // first payload byte (3 x u64 header)
        char byte = 0;
        f.read(&byte, 1);
        f.seekp(24);
        byte = static_cast<char>(byte ^ 0x40);
        f.write(&byte, 1);
    }
    store.dropResident();
    auto flipped = store.fetch(digest.value());
    ASSERT_FALSE(flipped.ok());
    EXPECT_EQ(flipped.error().code, ErrorCode::DataLoss);

    // A valid tile renamed to the wrong digest: header digest check.
    const auto other = store.put(tileData(9));
    ASSERT_TRUE(other.ok());
    char othername[32];
    std::snprintf(othername, sizeof(othername), "%016llx.tile",
                  static_cast<unsigned long long>(other.value()));
    std::filesystem::copy_file(
        dir + "/" + othername, path,
        std::filesystem::copy_options::overwrite_existing);
    store.dropResident();
    auto misnamed = store.fetch(digest.value());
    ASSERT_FALSE(misnamed.ok());
    EXPECT_EQ(misnamed.error().code, ErrorCode::DataLoss);
}

// ---- TiledVolume3D ----------------------------------------------------

TEST(TiledVolume, DenseRoundTripIsBitwiseAtSeveralTileSizes)
{
    // Dims deliberately not multiples of any tile edge.
    Volume3D dense(37, 23, 11);
    common::Rng rng(11, 0);
    for (size_t i = 0; i < 37 * 23 * 11; ++i)
        dense.mutableData()[i] = static_cast<float>(rng.uniform());

    for (const size_t edge : {8u, 16u, 64u}) {
        TileStore store(TileStoreConfig{});
        auto tiled = TiledVolume3D::fromDense(dense, store, edge);
        ASSERT_TRUE(tiled.ok()) << "edge " << edge;
        auto back = tiled.value().toDense();
        ASSERT_TRUE(back.ok());
        EXPECT_TRUE(bitwiseEqual(back.value(), dense))
            << "tile edge " << edge;

        // Per-view reads match the dense views bitwise.
        for (const size_t x : {0u, 17u, 36u}) {
            auto cs = tiled.value().crossSection(x);
            ASSERT_TRUE(cs.ok());
            EXPECT_TRUE(
                bitwiseEqual(cs.value(), dense.crossSection(x).value()));
        }
        for (const size_t z : {0u, 7u, 10u}) {
            auto pv = tiled.value().planarView(z);
            ASSERT_TRUE(pv.ok());
            EXPECT_TRUE(
                bitwiseEqual(pv.value(), dense.planarView(z).value()));
        }
        auto slab = tiled.value().planarSlab(2, 9);
        ASSERT_TRUE(slab.ok());
        EXPECT_TRUE(
            bitwiseEqual(slab.value(), dense.planarSlab(2, 9).value()));
    }
}

TEST(TiledVolume, StreamedWritesMatchDenseUnderDirtyBudget)
{
    Volume3D dense(30, 19, 13);
    common::Rng rng(13, 1);
    for (size_t i = 0; i < 30 * 19 * 13; ++i)
        dense.mutableData()[i] = static_cast<float>(rng.uniform());

    TileStoreConfig cfg;
    cfg.dir = scratchDir("streamwrite");
    TileStore store(std::move(cfg));

    // Dirty budget of exactly one 8^3 tile: every cross-section write
    // churns seals, which must not change the content.
    auto made = TiledVolume3D::create(30, 19, 13, store, 8,
                                      8 * 8 * 8 * sizeof(float));
    ASSERT_TRUE(made.ok());
    TiledVolume3D tiled = made.takeValue();
    for (size_t x0 = 0; x0 < 30; x0 += 7) {
        std::vector<Image2D> window;
        for (size_t x = x0; x < std::min<size_t>(30, x0 + 7); ++x)
            window.push_back(dense.crossSection(x).value());
        ASSERT_FALSE(tiled.setCrossSections(x0, window));
    }
    ASSERT_FALSE(tiled.sealAll());

    auto back = tiled.toDense();
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(bitwiseEqual(back.value(), dense));

    // digests() round-trips through fromDigests.
    auto digests = tiled.digests();
    ASSERT_TRUE(digests.ok());
    auto relinked = TiledVolume3D::fromDigests(
        30, 19, 13, 8, digests.value(), store);
    ASSERT_TRUE(relinked.ok());
    auto again = relinked.value().toDense();
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(bitwiseEqual(again.value(), dense));
}

/// Dense oracle of a window write: slice x drawn through its shift
/// pixel by pixel.
Image2D
shiftedOracle(const Image2D &img, std::pair<long, long> shift)
{
    Image2D out(img.width(), img.height());
    for (size_t z = 0; z < img.height(); ++z)
        for (size_t y = 0; y < img.width(); ++y)
            out.at(y, z) =
                img.clampedAt(static_cast<long>(y) - shift.first,
                              static_cast<long>(z) - shift.second);
    return out;
}

TEST(TiledVolume, WindowWritesMatchDenseAtSeveralWindowSizes)
{
    constexpr size_t nx = 75, ny = 19, nz = 13, edge = 8;
    common::Rng rng(17, 2);
    std::vector<Image2D> slices;
    std::vector<std::pair<long, long>> shifts;
    for (size_t x = 0; x < nx; ++x) {
        Image2D img(ny, nz);
        for (float &v : img.data())
            v = static_cast<float>(rng.uniform());
        slices.push_back(std::move(img));
        shifts.emplace_back(static_cast<long>(rng.below(9)) - 4,
                            static_cast<long>(rng.below(9)) - 4);
    }
    Volume3D dense(nx, ny, nz);
    for (size_t x = 0; x < nx; ++x) {
        const Image2D img = shiftedOracle(slices[x], shifts[x]);
        for (size_t z = 0; z < nz; ++z)
            for (size_t y = 0; y < ny; ++y)
                dense.at(x, y, z) = img.at(y, z);
    }
    TileStore ref_store(TileStoreConfig{});
    auto ref = TiledVolume3D::fromDense(dense, ref_store, edge);
    ASSERT_TRUE(ref.ok());
    const auto ref_digests = ref.value().digests();
    ASSERT_TRUE(ref_digests.ok());

    struct Case
    {
        size_t window, dirtyBudget, threads;
        bool spill;
    };
    const size_t tile_bytes = edge * edge * edge * sizeof(float);
    const Case cases[] = {
        {1, 0, 1, false},  {3, 0, 4, false}, {8, 0, 2, false},
        {13, 0, 4, false}, {70, 0, 4, false},
        // One-tile dirty budget: every tile of a window seals the
        // previous one, and the next window reloads it.
        {3, tile_bytes, 1, true}, {13, tile_bytes, 4, true},
        {70, tile_bytes, 4, true},
    };
    for (const Case &c : cases) {
        common::ScopedThreads threads(c.threads);
        TileStoreConfig cfg;
        if (c.spill)
            cfg.dir = scratchDir("window_" + std::to_string(c.window));
        TileStore store(std::move(cfg));
        auto made = TiledVolume3D::create(nx, ny, nz, store, edge,
                                          c.dirtyBudget);
        ASSERT_TRUE(made.ok());
        TiledVolume3D tiled = made.takeValue();
        for (size_t x0 = 0; x0 < nx; x0 += c.window) {
            const size_t n = std::min(c.window, nx - x0);
            ASSERT_FALSE(tiled.setCrossSections(
                x0, std::span<const Image2D>(slices).subspan(x0, n),
                std::span<const std::pair<long, long>>(shifts)
                    .subspan(x0, n)));
            if (c.dirtyBudget != 0) {
                EXPECT_LE(tiled.dirtyBytes(), c.dirtyBudget);
            }
        }
        const auto digests = tiled.digests();
        ASSERT_TRUE(digests.ok());
        EXPECT_EQ(digests.value(), ref_digests.value())
            << "window=" << c.window << " budget=" << c.dirtyBudget;
        auto back = tiled.toDense();
        ASSERT_TRUE(back.ok());
        EXPECT_TRUE(bitwiseEqual(back.value(), dense))
            << "window=" << c.window << " budget=" << c.dirtyBudget;
    }
}

TEST(TiledVolume, WindowWriteIntoTooSmallMemoryStoreIsTyped)
{
    // A memory-only store that holds one tile cannot take the seals a
    // one-tile dirty budget forces: the write fails typed, no crash.
    constexpr size_t edge = 8;
    const size_t tile_bytes = edge * edge * edge * sizeof(float);
    TileStoreConfig cfg;
    cfg.budgetBytes = tile_bytes;
    TileStore store(std::move(cfg));
    auto made = TiledVolume3D::create(20, 20, 20, store, edge,
                                      tile_bytes);
    ASSERT_TRUE(made.ok());
    TiledVolume3D tiled = made.takeValue();
    common::Rng rng(19, 4);
    std::vector<Image2D> window(5, Image2D(20, 20));
    for (Image2D &img : window)
        for (float &v : img.data())
            v = static_cast<float>(rng.uniform());
    const auto err = tiled.setCrossSections(0, window);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::ResourceExhausted);

    // A refused seal keeps the tile's buffer: the volume stays
    // writable and readable, and fails typed again, never crashes.
    // The first tile layer (z < 8) was fully written before the
    // refusal and reads back intact.
    const auto again = tiled.setCrossSections(0, window);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->code, ErrorCode::ResourceExhausted);
    auto cs = tiled.crossSection(2);
    ASSERT_TRUE(cs.ok());
    for (size_t z = 0; z < edge; ++z)
        for (size_t y = 0; y < 20; ++y)
            ASSERT_EQ(cs.value().at(y, z), window[2].at(y, z))
                << y << "," << z;
    EXPECT_EQ(tiled.sealAll()->code, ErrorCode::ResourceExhausted);
}

TEST(TiledVolume, ZeroTilesCollapseToOneStoredTile)
{
    TileStore store(TileStoreConfig{});
    auto made = TiledVolume3D::create(20, 20, 20, store, 8);
    ASSERT_TRUE(made.ok());
    TiledVolume3D v = made.takeValue();
    auto digests = v.digests();
    ASSERT_TRUE(digests.ok());
    ASSERT_EQ(digests.value().size(), 27u);
    for (const uint64_t d : digests.value())
        EXPECT_EQ(d, digests.value().front());
    EXPECT_EQ(store.residentTiles(), 1u);
}

TEST(TiledVolume, TypedErrors)
{
    TileStore store(TileStoreConfig{});
    auto zero = TiledVolume3D::create(0, 4, 4, store);
    ASSERT_FALSE(zero.ok());
    EXPECT_EQ(zero.error().code, ErrorCode::InvalidArgument);

    auto made = TiledVolume3D::create(4, 4, 4, store, 4);
    ASSERT_TRUE(made.ok());
    TiledVolume3D v = made.takeValue();
    EXPECT_EQ(v.crossSection(4).error().code,
              ErrorCode::InvalidArgument);
    EXPECT_EQ(v.planarView(7).error().code,
              ErrorCode::InvalidArgument);
    EXPECT_EQ(v.planarSlab(2, 2).error().code,
              ErrorCode::InvalidArgument);
    EXPECT_EQ(v.at(0, 0, 9).error().code,
              ErrorCode::InvalidArgument);
    const std::vector<Image2D> window(2, Image2D(4, 4));
    EXPECT_EQ(v.setCrossSections(3, window)->code,
              ErrorCode::InvalidArgument);
    EXPECT_EQ(v.setCrossSections(0, std::vector<Image2D>{
                                           Image2D(4, 4), Image2D(3, 4)})
                  ->code,
              ErrorCode::InvalidArgument);
    const std::vector<std::pair<long, long>> one_shift{{1, 1}};
    EXPECT_EQ(v.setCrossSections(0, window, one_shift)->code,
              ErrorCode::InvalidArgument);
    EXPECT_FALSE(v.setCrossSections(4, {}));

    auto short_list = TiledVolume3D::fromDigests(
        4, 4, 4, 4, std::vector<uint64_t>{1, 2}, store);
    ASSERT_FALSE(short_list.ok());
    EXPECT_EQ(short_list.error().code, ErrorCode::DataLoss);

    auto unknown = TiledVolume3D::fromDigests(
        4, 4, 4, 4, std::vector<uint64_t>{42}, store);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.error().code, ErrorCode::DataLoss);
}

// ---- Volume3D typed validation ---------------------------------------

TEST(Volume3DChecked, ConstructionAndViewRangesAreTyped)
{
    const Volume3D v(4, 3, 2, 0.5f);
    EXPECT_TRUE(v.crossSection(3).ok());
    EXPECT_EQ(v.crossSection(4).error().code,
              ErrorCode::InvalidArgument);
    EXPECT_TRUE(v.planarView(1).ok());
    EXPECT_EQ(v.planarView(2).error().code,
              ErrorCode::InvalidArgument);
    EXPECT_TRUE(v.planarSlab(0, 2).ok());
    EXPECT_EQ(v.planarSlab(1, 1).error().code,
              ErrorCode::InvalidArgument);
    EXPECT_EQ(v.planarSlab(0, 3).error().code,
              ErrorCode::InvalidArgument);
}

TEST(Volume3DChecked, ZeroDimensionIsTheEmptyVolume)
{
    const size_t dims[][3] = {{0, 3, 3}, {3, 0, 3}, {3, 3, 0}};
    for (const auto &d : dims) {
        const Volume3D v(d[0], d[1], d[2], 0.5f);
        EXPECT_TRUE(v.empty());
        EXPECT_EQ(v.nx() + v.ny() + v.nz(), 0u);
        EXPECT_EQ(v.crossSection(0).error().code,
                  ErrorCode::InvalidArgument);
        EXPECT_EQ(v.planarView(0).error().code,
                  ErrorCode::InvalidArgument);
        EXPECT_EQ(v.planarSlab(0, 1).error().code,
                  ErrorCode::InvalidArgument);

        // Consumers answer an empty volume with a typed error (or,
        // for acquisition, an empty stack the Acquire stage rejects).
        TileStore store(TileStoreConfig{});
        EXPECT_EQ(TiledVolume3D::fromDense(v, store).error().code,
                  ErrorCode::InvalidArgument);
        const auto acquired = scope::acquire(
            v, scope::FibSemParams{}, scope::FaultParams{},
            scope::RecoveryParams{}, 1);
        EXPECT_TRUE(acquired.stack.slices.empty());
    }
}

// ---- Streaming post-processing ---------------------------------------

/// Dense reference of the post-processing chain: denoise every
/// slice, align the whole stack with chained MI, assemble in core.
struct DenseChain
{
    Volume3D volume;
    std::vector<std::pair<long, long>> shifts;
    double alignmentResidualPx = 0.0;
};

DenseChain
denseChain(const image::SliceStack &stack,
           const scope::PostprocessParams &pp)
{
    EXPECT_EQ(pp.algo, scope::DenoiseAlgo::Chambolle);
    std::vector<Image2D> denoised;
    for (const Image2D &slice : stack.slices)
        denoised.push_back(image::denoiseChambolle(slice, pp.tv));
    DenseChain out;
    out.shifts = oracle::alignStack(denoised, pp.mi);
    out.alignmentResidualPx =
        image::alignmentResidual(out.shifts, stack.trueDrift);
    out.volume = oracle::assembleVolume(denoised, out.shifts);
    return out;
}

TEST(StreamingPostprocess, BitwiseIdenticalToDenseChain)
{
    const auto vol = makeScene();
    const auto robust = scope::acquire(
        vol, sceneParams(), noisyFaults(), scope::RecoveryParams{},
        33);
    const scope::PostprocessParams pp;

    const DenseChain dense = denseChain(robust.stack, pp);

    struct Case
    {
        size_t threads, tileEdge, window;
        size_t dirtyBudget;
        bool spill; ///< disk tier vs memory-only store
    };
    const Case cases[] = {
        {1, 16, 3, 0, true},
        // The in-RAM pipeline's shape: memory-only store, default
        // tiles and window, unbounded dirty tiles.
        {4, 64, scope::kStreamWindowSlices, 0, false},
        {2, 64, scope::kStreamWindowSlices, 0, true},
        // Dirty budget of two tiles: assembly churns seal/reload.
        {8, 16, 5, 2 * 16 * 16 * 16 * sizeof(float), true},
    };
    for (const Case &c : cases) {
        common::ScopedThreads threads(c.threads);
        TileStoreConfig cfg;
        if (c.spill)
            cfg.dir = scratchDir(
                "pp_" + std::to_string(c.threads) + "_" +
                std::to_string(c.tileEdge) + "_" +
                std::to_string(c.window));
        TileStore store(std::move(cfg));
        auto streamed = scope::postprocessStreamed(
            robust.stack, store, pp, c.tileEdge, c.dirtyBudget,
            c.window);
        ASSERT_TRUE(streamed.ok());
        EXPECT_EQ(streamed.value().shifts, dense.shifts);
        EXPECT_EQ(streamed.value().alignmentResidualPx,
                  dense.alignmentResidualPx);
        auto back = streamed.value().volume.toDense();
        ASSERT_TRUE(back.ok());
        EXPECT_TRUE(bitwiseEqual(back.value(), dense.volume))
            << "threads=" << c.threads << " edge=" << c.tileEdge
            << " window=" << c.window << " spill=" << c.spill;
    }
}

// ---- Memory-budgeted pipeline ----------------------------------------

TEST(MemoryBudget, BudgetedPipelineReportMatchesInRam)
{
    core::PipelineConfig config;
    config.chipId = "B5";
    config.pairs = 2;
    config.faults.enabled = true;
    config.seed = 42;
    config.threads = 2;

    auto baseline = core::runPipelineChecked(config);
    ASSERT_TRUE(baseline.ok());

    core::PipelineConfig budgeted = config;
    budgeted.memoryBudget = 32ull << 20;
    budgeted.spillDir = scratchDir("budgeted");
    auto tiled = core::runPipelineChecked(budgeted);
    ASSERT_TRUE(tiled.ok());

    EXPECT_EQ(core::reportDigest(baseline.value()),
              core::reportDigest(tiled.value()));
}

TEST(MemoryBudget, ConfigValidationIsTyped)
{
    core::PipelineConfig config;
    config.chipId = "B5";
    config.pairs = 2;
    config.seed = 1;

    config.memoryBudget = 1024; // below the floor
    auto small = core::runPipelineChecked(config);
    ASSERT_FALSE(small.ok());
    EXPECT_EQ(small.error().code, ErrorCode::InvalidArgument);

    config.memoryBudget = 0;
    config.spillDir = "/tmp/never-used"; // spill dir without budget
    auto orphan = core::runPipelineChecked(config);
    ASSERT_FALSE(orphan.ok());
    EXPECT_EQ(orphan.error().code, ErrorCode::InvalidArgument);
}

} // namespace
