/**
 * @file
 * Out-of-core 3-D float volume: fixed-size cubic tiles backed by a
 * content-addressed TileStore, so the resident working set — not the
 * logical volume — bounds peak memory.
 *
 * The volume mirrors image::Volume3D's reslicing API (crossSection /
 * planarView / planarSlab, plus setCrossSections to write a window of
 * cross-sections) with the same axis convention and, critically,
 * the same per-pixel arithmetic order: every accessor visits voxels in strictly increasing z (then y/x)
 * exactly like the dense loops, so a tiled read is bitwise identical
 * to the dense one at any tile size, budget and thread count
 * (asserted by tests/test_volume.cc).
 *
 * Tile lifecycle: a tile slot is Zero (never written, implicit
 * zeros), Dirty (an owned write buffer), or Sealed (a digest in the
 * TileStore; the buffer has been spilled and dropped).  Writes
 * unseal on demand; a dirty-byte budget seals the least recently
 * written tiles back into the store, which is what keeps a
 * front-to-back assembly's working set to one tile layer.  Border
 * tiles are zero-padded to the full tile cube so tile identity is a
 * pure function of content.
 */

#ifndef HIFI_IMAGE_TILED_VOLUME_HH
#define HIFI_IMAGE_TILED_VOLUME_HH

#include <list>
#include <optional>
#include <span>
#include <utility>

#include "image/tile_store.hh"
#include "image/volume3d.hh"

namespace hifi
{
namespace image
{

/** Tiled float volume over a TileStore. */
class TiledVolume3D
{
  public:
    /// Default tile edge: 64^3 floats = 1 MiB per tile, small enough
    /// that a full yz tile layer of the paper's stacks fits a few
    /// hundred MiB, large enough to amortise the store round trips.
    static constexpr size_t kDefaultTileEdge = 64;

    TiledVolume3D() = default;

    /**
     * Create an all-zero volume of (nx, ny, nz) voxels in tiles of
     * `tileEdge`^3 floats.  `dirtyBudgetBytes` bounds the owned write
     * buffers (0 = unbounded): beyond it the least recently written
     * tiles are sealed into `store`.  The store must outlive the
     * volume.  Typed InvalidArgument on zero dimensions or a tile
     * edge of 0 / a dirty budget smaller than one tile.
     */
    static common::Result<TiledVolume3D>
    create(size_t nx, size_t ny, size_t nz, TileStore &store,
           size_t tileEdge = kDefaultTileEdge,
           size_t dirtyBudgetBytes = 0);

    /// Tile a dense volume (used by tests and the checkpoint codec).
    static common::Result<TiledVolume3D>
    fromDense(const Volume3D &dense, TileStore &store,
              size_t tileEdge = kDefaultTileEdge);

    size_t nx() const { return nx_; }
    size_t ny() const { return ny_; }
    size_t nz() const { return nz_; }
    size_t tileEdge() const { return edge_; }
    bool empty() const { return nx_ == 0; }

    /// Owned (unsealed) write-buffer bytes currently held.
    size_t dirtyBytes() const { return dirtyBytes_; }

    // ---- Reads (bitwise identical to the Volume3D loops) ----------

    /// Cross-section at X: image over (Y, Z).  Typed InvalidArgument
    /// out of range; store failures (DataLoss, ...) pass through.
    common::Result<Image2D> crossSection(size_t x) const;

    /// Planar (top-down) view at Z: image over (X, Y).
    common::Result<Image2D> planarView(size_t z) const;

    /// Average planar view over [z0, z1), accumulated per pixel in
    /// increasing z exactly like Volume3D::planarSlab.
    common::Result<Image2D> planarSlab(size_t z0, size_t z1) const;

    /// Single-voxel read (slow; tests and spot checks).
    common::Result<float> at(size_t x, size_t y, size_t z) const;

    /// Materialize the full dense volume (the caller is opting out of
    /// the memory bound, e.g. for the in-core analysis stage).
    common::Result<Volume3D> toDense() const;

    // ---- Writes ---------------------------------------------------

    /**
     * Write a window of (Y, Z) cross-sections at X = x0, x0 + 1, ...
     * Slice i is written as images[i].shifted(shifts[i]) without
     * materializing the shifted copy (empty `shifts` = no shift):
     * voxel (x0 + i, y, z) = images[i].clampedAt(y - dx, z - dy).
     * The window is written tile-major, so each touched tile is
     * unsealed once per window; cold tiles beyond the dirty budget
     * are sealed after every tile.  Typed InvalidArgument on a window
     * outside the volume, a slice of the wrong shape, or a shift list
     * of the wrong length; store failures pass through.
     */
    std::optional<common::Error> setCrossSections(
        size_t x0, std::span<const Image2D> images,
        std::span<const std::pair<long, long>> shifts = {});

    // ---- Sealing / identity ---------------------------------------

    /**
     * Spill every dirty tile into the store (digests computed in
     * parallel, inserts in deterministic slot order) and drop the
     * write buffers; zero slots are sealed as the shared all-zero
     * tile.  Afterwards the volume owns no voxel
     * memory and digests() identifies its full content.
     */
    std::optional<common::Error> sealAll();

    /**
     * Per-slot content digests in slot order
     * ((tz * tilesY + ty) * tilesX + tx), valid after sealAll().
     * Together with the dimensions this is the volume's identity —
     * what the checkpoint codec stores instead of voxels.
     */
    common::Result<std::vector<uint64_t>> digests();

    /**
     * Rebuild a volume from dimensions + digests (the checkpoint
     * resume path: tiles re-pin from the store on demand rather than
     * being re-read eagerly).  DataLoss when a digest has no backing
     * tile or fails verification on first access.
     */
    static common::Result<TiledVolume3D>
    fromDigests(size_t nx, size_t ny, size_t nz, size_t tileEdge,
                std::vector<uint64_t> digests, TileStore &store);

    size_t tilesX() const { return tx_; }
    size_t tilesY() const { return ty_; }
    size_t tilesZ() const { return tz_; }

  private:
    enum class SlotState : uint8_t { Zero, Dirty, Sealed };

    struct Slot
    {
        SlotState state = SlotState::Zero;
        std::shared_ptr<std::vector<float>> dirty; ///< Dirty only
        uint64_t digest = 0;                       ///< Sealed only

        /// Position in dirtyLru_; meaningful while state == Dirty.
        std::list<size_t>::iterator lruIt;
    };

    size_t slotIndex(size_t tx, size_t ty, size_t tz) const
    {
        return (tz * ty_ + ty) * tx_ + tx;
    }

    /// Read access to one tile's floats (nullptr floats = all-zero).
    /// `ref` keeps a fetched tile pinned while the caller copies.
    common::Result<const float *> tileFloats(size_t slot,
                                             TileRef &ref) const;

    /// Writable buffer for one tile, unsealing if needed.
    common::Result<std::vector<float> *> tileMutable(size_t slot);

    /// Seal one dirty slot; `digest` is TileStore::digestOf(buffer).
    std::optional<common::Error> sealSlot(size_t slot, uint64_t digest);
    std::optional<common::Error> enforceDirtyBudget();
    void touchDirty(size_t slot);

    TileStore *store_ = nullptr;
    size_t nx_ = 0, ny_ = 0, nz_ = 0;
    size_t edge_ = 0;
    size_t tx_ = 0, ty_ = 0, tz_ = 0;
    size_t tileBytes_ = 0;
    size_t dirtyBudgetBytes_ = 0;
    size_t dirtyBytes_ = 0;

    std::vector<Slot> slots_;
    std::list<size_t> dirtyLru_; ///< front = most recently written
};

} // namespace image
} // namespace hifi

#endif // HIFI_IMAGE_TILED_VOLUME_HH
