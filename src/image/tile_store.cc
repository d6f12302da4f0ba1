#include "image/tile_store.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/fnv.hh"
#include "common/telemetry.hh"

namespace hifi
{
namespace image
{

namespace
{

constexpr uint64_t kTileMagic = 0x48494649544c3154ull; // "HIFITL1T"

/// On-disk layout: magic, content digest, float count, payload.  The
/// digest is stored redundantly (file name and header) so a tile
/// renamed to the wrong digest is caught as DataLoss, not served.
constexpr size_t kTileHeaderBytes = 3 * sizeof(uint64_t);

void
countTile(const char *which, uint64_t n = 1)
{
    if (telemetry::enabled())
        telemetry::registry()
            .counter(std::string("volume.tile.") + which)
            .add(n);
}

} // namespace

/// Held (shared) by every TileRef copy of one fetch; the destructor
/// returns the pin.  Must not outlive the store.
struct TileRef::Pin
{
    TileStore *store;
    uint64_t digest;
    size_t bytes;

    Pin(TileStore *s, uint64_t d, size_t b)
        : store(s), digest(d), bytes(b)
    {
    }

    // Non-copyable: a stray temporary's destructor would return the
    // pin a second time (and deadlock if the store lock is held).
    Pin(const Pin &) = delete;
    Pin &operator=(const Pin &) = delete;

    ~Pin() { store->noteUnpinned(digest, bytes); }
};

struct TileStore::Entry
{
    std::shared_ptr<const std::vector<float>> data;
    size_t bytes = 0;
    size_t pins = 0;

    /// Position in lru_; meaningful only while pins == 0.
    std::list<uint64_t>::iterator lruIt;
    bool inLru = false;
};

TileStore::TileStore(TileStoreConfig config) : cfg_(std::move(config))
{
}

TileStore::~TileStore() = default;

uint64_t
TileStore::digestOf(const std::vector<float> &data)
{
    return common::fnv1a(data.data(), data.size() * sizeof(float));
}

std::string
TileStore::pathFor(uint64_t digest) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.tile",
                  static_cast<unsigned long long>(digest));
    return cfg_.dir + "/" + name;
}

bool
TileStore::evictUntilLocked(size_t wantedBytes)
{
    if (cfg_.budgetBytes == 0)
        return true;
    while (residentBytes_ + wantedBytes > cfg_.budgetBytes &&
           !lru_.empty()) {
        // A memory-only store must not evict: the tile has no disk
        // copy, so dropping it would be silent data loss.
        if (cfg_.dir.empty())
            return false;
        const uint64_t victim = lru_.back();
        lru_.pop_back();
        auto it = resident_.find(victim);
        residentBytes_ -= it->second.bytes;
        resident_.erase(it);
        ++stats_.evictions;
        countTile("evicted");
    }
    return residentBytes_ + wantedBytes <= cfg_.budgetBytes;
}

common::Result<uint64_t>
TileStore::put(std::vector<float> data)
{
    const uint64_t digest = digestOf(data);
    return putDigested(data, digest);
}

common::Result<uint64_t>
TileStore::putDigested(std::vector<float> &data, uint64_t digest)
{
    using R = common::Result<uint64_t>;
    const size_t bytes = data.size() * sizeof(float);

    std::unique_lock<std::mutex> lk(mu_);

    // Refuse before touching state when the budget can never admit
    // this tile in a memory-only store.
    if (cfg_.dir.empty() && cfg_.budgetBytes != 0 &&
        pinnedBytes_ + bytes > cfg_.budgetBytes)
        return R::failure(
            common::ErrorCode::ResourceExhausted,
            "TileStore::put: tile of " + std::to_string(bytes) +
                " bytes cannot fit the " +
                std::to_string(cfg_.budgetBytes) +
                "-byte budget without a spill directory");

    // Write-through to the disk tier (atomic temp + rename), skipped
    // when the content-addressed file already exists.
    if (!cfg_.dir.empty()) {
        std::error_code ec;
        if (!dirReady_) {
            std::filesystem::create_directories(cfg_.dir, ec);
            dirReady_ = true;
        }
        const std::string path = pathFor(digest);
        if (!std::filesystem::exists(path, ec)) {
            const std::string tmp = path + ".tmp";
            {
                std::ofstream out(tmp,
                                  std::ios::binary | std::ios::trunc);
                if (!out)
                    return R::failure(common::ErrorCode::Internal,
                                      "TileStore: cannot open " + tmp);
                const uint64_t header[3] = {
                    kTileMagic, digest,
                    static_cast<uint64_t>(data.size())};
                out.write(reinterpret_cast<const char *>(header),
                          sizeof(header));
                out.write(reinterpret_cast<const char *>(data.data()),
                          static_cast<std::streamsize>(bytes));
                out.flush();
                if (!out)
                    return R::failure(common::ErrorCode::Internal,
                                      "TileStore: short write to " +
                                          tmp);
            }
            if (std::rename(tmp.c_str(), path.c_str()) != 0)
                return R::failure(common::ErrorCode::Internal,
                                  "TileStore: rename to " + path +
                                      " failed");
            stats_.spilledBytes += kTileHeaderBytes + bytes;
            countTile("spilled_bytes", kTileHeaderBytes + bytes);
        }
    }

    auto it = resident_.find(digest);
    if (it != resident_.end()) {
        // Already resident (content-addressed duplicate): refresh.
        if (it->second.inLru)
            lru_.splice(lru_.begin(), lru_, it->second.lruIt);
        return R(uint64_t(digest));
    }

    // A memory-only store cannot evict (the tile would have no other
    // copy), so a tile its budget cannot admit is refused rather than
    // silently exceeding the bound.
    if (cfg_.dir.empty() && cfg_.budgetBytes != 0 &&
        residentBytes_ + bytes > cfg_.budgetBytes)
        return R::failure(
            common::ErrorCode::ResourceExhausted,
            "TileStore::put: resident budget exhausted and no spill "
            "directory to evict to");

    Entry e;
    e.data = std::make_shared<const std::vector<float>>(
        std::move(data));
    e.bytes = bytes;
    lru_.push_front(digest);
    e.lruIt = lru_.begin();
    e.inLru = true;
    resident_.emplace(digest, std::move(e));
    residentBytes_ += bytes;
    evictUntilLocked(0);
    return R(uint64_t(digest));
}

common::Result<TileRef>
TileStore::fetch(uint64_t digest)
{
    using R = common::Result<TileRef>;
    std::unique_lock<std::mutex> lk(mu_);

    auto it = resident_.find(digest);
    if (it == resident_.end()) {
        ++stats_.misses;
        countTile("miss");
        if (cfg_.dir.empty())
            return R::failure(common::ErrorCode::NotFound,
                              "TileStore::fetch: unknown tile digest");

        const std::string path = pathFor(digest);
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return R::failure(common::ErrorCode::NotFound,
                              "TileStore::fetch: no tile file at " +
                                  path);
        uint64_t header[3] = {0, 0, 0};
        in.read(reinterpret_cast<char *>(header), sizeof(header));
        if (!in || header[0] != kTileMagic)
            return R::failure(common::ErrorCode::DataLoss,
                              "TileStore: bad tile header in " + path);
        if (header[1] != digest)
            return R::failure(common::ErrorCode::DataLoss,
                              "TileStore: tile file " + path +
                                  " carries a different digest "
                                  "(misnamed or tampered file)");
        std::vector<float> data(header[2]);
        in.read(reinterpret_cast<char *>(data.data()),
                static_cast<std::streamsize>(data.size() *
                                             sizeof(float)));
        if (!in || in.peek() != std::ifstream::traits_type::eof())
            return R::failure(common::ErrorCode::DataLoss,
                              "TileStore: truncated or oversized "
                              "tile file " + path);
        if (digestOf(data) != digest)
            return R::failure(common::ErrorCode::DataLoss,
                              "TileStore: content digest mismatch in " +
                                  path + " (bit rot or torn write)");

        Entry e;
        e.bytes = data.size() * sizeof(float);
        e.data = std::make_shared<const std::vector<float>>(
            std::move(data));
        it = resident_.emplace(digest, std::move(e)).first;
        residentBytes_ += it->second.bytes;
        evictUntilLocked(0); // push colder tiles out, never this one
    } else {
        ++stats_.hits;
        countTile("hit");
        if (it->second.inLru)
            lru_.splice(lru_.begin(), lru_, it->second.lruIt);
    }

    Entry &e = it->second;
    if (e.pins == 0) {
        if (e.inLru) {
            lru_.erase(e.lruIt);
            e.inLru = false;
        }
        pinnedBytes_ += e.bytes;
    }
    ++e.pins;

    if (cfg_.budgetBytes != 0 && pinnedBytes_ > cfg_.budgetBytes) {
        // Undo the pin: granting it would void the budget invariant.
        --e.pins;
        if (e.pins == 0) {
            pinnedBytes_ -= e.bytes;
            lru_.push_front(digest);
            e.lruIt = lru_.begin();
            e.inLru = true;
            evictUntilLocked(0);
        }
        return R::failure(
            common::ErrorCode::ResourceExhausted,
            "TileStore::fetch: pinned working set would exceed the " +
                std::to_string(cfg_.budgetBytes) + "-byte budget");
    }

    TileRef ref;
    ref.data_ = e.data;
    ref.digest_ = digest;
    ref.pin_ =
        std::make_shared<TileRef::Pin>(this, digest, e.bytes);
    return R(std::move(ref));
}

void
TileStore::noteUnpinned(uint64_t digest, size_t bytes)
{
    std::unique_lock<std::mutex> lk(mu_);
    auto it = resident_.find(digest);
    if (it == resident_.end())
        return; // unreachable: pinned entries are never evicted
    Entry &e = it->second;
    --e.pins;
    if (e.pins > 0)
        return;
    pinnedBytes_ -= bytes;
    lru_.push_front(digest);
    e.lruIt = lru_.begin();
    e.inLru = true;
    evictUntilLocked(0);
}

bool
TileStore::contains(uint64_t digest) const
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (resident_.count(digest))
            return true;
    }
    if (cfg_.dir.empty())
        return false;
    std::error_code ec;
    return std::filesystem::exists(pathFor(digest), ec);
}

void
TileStore::dropResident()
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const uint64_t digest : lru_) {
        auto it = resident_.find(digest);
        residentBytes_ -= it->second.bytes;
        resident_.erase(it);
    }
    lru_.clear();
}

size_t
TileStore::residentBytes() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return residentBytes_;
}

size_t
TileStore::pinnedBytes() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return pinnedBytes_;
}

size_t
TileStore::residentTiles() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return resident_.size();
}

TileStoreStats
TileStore::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

} // namespace image
} // namespace hifi
