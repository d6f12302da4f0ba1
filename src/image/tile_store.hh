/**
 * @file
 * Content-addressed, spill-to-disk store of float tiles — the storage
 * substrate of the out-of-core volume path (image/tiled_volume.hh).
 *
 * A tile is an immutable vector<float> addressed by the FNV-1a digest
 * of its bytes.  The store keeps a bounded LRU of resident tiles and
 * writes every sealed tile through to `<dir>/<digest>.tile`
 * (atomically: temp file + rename), so evicting a resident tile never
 * loses data and a reload verifies the content digest — truncation or
 * bit rot surfaces as a typed DataLoss, never as silent corruption.
 *
 * Pinning: fetch() returns a TileRef that pins the tile resident for
 * its lifetime; pinned tiles are never evicted, and a working set of
 * pins that alone exceeds the budget is a typed ResourceExhausted
 * (the caller's tiling is too coarse for its budget — growing the LRU
 * past the budget instead would silently void the RSS bound).
 *
 * Content addressing is what makes checkpoints cheap: a re-save of an
 * unchanged volume re-puts the same digests and the store skips the
 * disk writes entirely.
 *
 * Thread-safe.  Counters: "volume.tile.hit" / ".miss" / ".evicted" /
 * ".spilled_bytes" (mirrored in the always-on stats() so benches work
 * with telemetry off).
 */

#ifndef HIFI_IMAGE_TILE_STORE_HH
#define HIFI_IMAGE_TILE_STORE_HH

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.hh"

namespace hifi
{
namespace image
{

class TileStore;
class TiledVolume3D;

/**
 * Shared handle to a resident tile.  While any TileRef to a digest is
 * alive the tile is pinned: it stays resident and counts against the
 * store's budget as pinned bytes.  Copyable; the pin drops when the
 * last copy dies.
 */
class TileRef
{
  public:
    TileRef() = default;

    const std::vector<float> &operator*() const { return *data_; }
    const std::vector<float> *operator->() const { return data_.get(); }
    const float *floats() const { return data_->data(); }
    size_t size() const { return data_ ? data_->size() : 0; }
    bool valid() const { return data_ != nullptr; }
    uint64_t digest() const { return digest_; }

  private:
    friend class TileStore;
    struct Pin; ///< RAII pin-count holder (defined in tile_store.cc)

    std::shared_ptr<const std::vector<float>> data_;
    std::shared_ptr<Pin> pin_;
    uint64_t digest_ = 0;
};

/** TileStore configuration. */
struct TileStoreConfig
{
    /**
     * Spill directory (created on demand).  Empty disables the disk
     * tier: tiles then live in memory only, and an over-budget store
     * that would need to evict fails with ResourceExhausted instead.
     */
    std::string dir;

    /**
     * Resident budget in bytes (pinned + LRU tile payloads).
     * 0 = unbounded (no eviction).  Tiles are spilled through to disk
     * on put() either way when `dir` is set.
     */
    size_t budgetBytes = 0;
};

/** Lifetime totals (always on, unlike the telemetry counters). */
struct TileStoreStats
{
    uint64_t hits = 0;         ///< fetch served from the resident LRU
    uint64_t misses = 0;       ///< fetch that had to read the disk tier
    uint64_t evictions = 0;    ///< resident tiles dropped under pressure
    uint64_t spilledBytes = 0; ///< bytes written to the disk tier
};

/** Content-addressed tile store with a bounded resident LRU. */
class TileStore
{
  public:
    explicit TileStore(TileStoreConfig config);
    ~TileStore(); ///< out of line: Entry is incomplete here

    TileStore(const TileStore &) = delete;
    TileStore &operator=(const TileStore &) = delete;

    /**
     * Seal a tile: digest the payload, write it through to the disk
     * tier (atomic temp + rename; skipped when the content-addressed
     * file already exists), keep it resident, and evict LRU tiles
     * beyond the budget.  Returns the tile digest.  Typed failures:
     * Internal for I/O errors, ResourceExhausted when the budget
     * cannot be met (no disk tier, or pins alone exceed it).
     */
    common::Result<uint64_t> put(std::vector<float> data);

    /**
     * Pin and return the tile for `digest` — from the resident LRU on
     * a hit, re-read and digest-verified from the disk tier on a
     * miss.  Typed failures: NotFound for an unknown digest, DataLoss
     * for a truncated or corrupted tile file, ResourceExhausted when
     * pinning it would exceed the budget.
     */
    common::Result<TileRef> fetch(uint64_t digest);

    /// Whether the store can currently serve `digest` (resident or on
    /// disk; the disk check is existence-only, not a verification).
    bool contains(uint64_t digest) const;

    /// Drop every unpinned resident tile (the disk tier survives).
    void dropResident();

    size_t residentBytes() const;
    size_t pinnedBytes() const;
    size_t residentTiles() const;
    size_t budgetBytes() const { return cfg_.budgetBytes; }
    const std::string &dir() const { return cfg_.dir; }

    TileStoreStats stats() const;

    /// Digest used for tile content addressing: FNV-1a over the
    /// payload bytes, bit for bit (zero words take an exact fast
    /// path, so tile files and checkpoints never change).
    static uint64_t digestOf(const std::vector<float> &data);

  private:
    friend class TileRef; ///< TileRef::Pin returns pins on destruction

    /// TiledVolume3D::sealAll hashes its dirty tiles in parallel and
    /// inserts them serially with the digests it computed.
    friend class TiledVolume3D;

    struct Entry;

    /// put() with `digest` == digestOf(data) already computed.
    /// Takes `data` only when it stores it; on failure the caller
    /// keeps its buffer.
    common::Result<uint64_t> putDigested(std::vector<float> &data,
                                         uint64_t digest);

    std::string pathFor(uint64_t digest) const;
    bool evictUntilLocked(size_t wantedBytes);
    void noteUnpinned(uint64_t digest, size_t bytes);

    TileStoreConfig cfg_;
    mutable std::mutex mu_;

    /// digest -> resident entry; `lru_` orders the unpinned ones.
    std::map<uint64_t, Entry> resident_;
    std::list<uint64_t> lru_; ///< front = most recently used
    size_t residentBytes_ = 0;
    size_t pinnedBytes_ = 0;
    bool dirReady_ = false;
    TileStoreStats stats_;
};

} // namespace image
} // namespace hifi

#endif // HIFI_IMAGE_TILE_STORE_HH
