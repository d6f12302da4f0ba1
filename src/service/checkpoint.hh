/**
 * @file
 * Crash-safe checkpointing of staged pipeline runs.
 *
 * After every completed stage the campaign service serializes the
 * `core::StagedState` — stage cursor, partial report, and the one
 * intermediate artifact the remaining stages still need — to a binary
 * checkpoint file, written atomically (temp file + rename).  A service
 * killed mid-job reloads the newest checkpoint on restart and replays
 * only the unfinished stages; because every stage is a pure function
 * of (config, state), the resumed run's report is bitwise-identical
 * to an uninterrupted one (asserted by tests/test_service.cc).
 *
 * Two digests guard a load: the config identity digest (the
 * result-affecting configuration fields) rejects a checkpoint written
 * under a different job configuration, and a trailing FNV-1a payload
 * digest rejects torn or corrupted files.  Both failures come back as
 * typed errors, never as garbage state.
 */

#ifndef HIFI_SERVICE_CHECKPOINT_HH
#define HIFI_SERVICE_CHECKPOINT_HH

#include <memory>
#include <string>

#include "core/stages.hh"
#include "image/tile_store.hh"

namespace hifi
{
namespace service
{

/**
 * Digest of the result-affecting configuration fields: everything a
 * stage body reads (chip, geometry, seed, corner, defects, fault and
 * recovery policies, denoise, overrides) and nothing purely
 * operational (threads, telemetry sinks).  Two configs with equal
 * digests produce bitwise-identical reports, so this is both the
 * checkpoint-compatibility check and the fab-cache key.
 */
uint64_t configDigest(const core::PipelineConfig &config);

/// Fab-stage identity: the configDigest fields that the Fab stage
/// depends on (acquisition/postprocess knobs excluded).  Equal fab
/// digests mean an identical post-Fab state — the service's
/// content-addressed volume cache keys on this.
uint64_t fabDigest(const core::PipelineConfig &config);

/**
 * Serialize `state` for `config` into a byte string (the in-memory
 * checkpoint image).  Only the artifact the cursor still needs is
 * stored, and its voxels are sealed into `tiles` (content-addressed,
 * deduplicated across saves): the image holds just their digests, so
 * repeated saves of an unchanged artifact write almost nothing and
 * the image stays small at every stage.  Typed errors:
 * FailedPrecondition without a tile store, store I/O failures as the
 * store reports them.
 */
common::Result<std::string>
encodeCheckpoint(const core::PipelineConfig &config,
                 const core::StagedState &state,
                 const std::shared_ptr<image::TileStore> &tiles);

/**
 * Decode a checkpoint image back into a StagedState, verifying the
 * payload digest and the config identity.  Typed failures:
 * DataLoss for truncation/corruption — including a referenced tile
 * that is missing, truncated or fails its digest check —
 * FailedPrecondition for a config mismatch, an unsupported version
 * (the retired version-1 images with inline voxels included), or a
 * missing tile store.  A decoded postprocessed volume re-pins lazily:
 * tiles are verified and fetched when the resumed stage reads them,
 * not eagerly here.
 */
common::Result<core::StagedState>
decodeCheckpoint(const std::string &bytes,
                 const core::PipelineConfig &config,
                 const std::shared_ptr<image::TileStore> &tiles);

/**
 * Atomically write the checkpoint for (config, state) to `path`:
 * the image is written to "<path>.tmp" and renamed over `path`, so a
 * crash mid-write leaves either the previous checkpoint or none —
 * never a torn file.  Typed Internal error on I/O failure, otherwise
 * the encodeCheckpoint failure taxonomy.
 */
std::optional<common::Error>
saveCheckpoint(const std::string &path,
               const core::PipelineConfig &config,
               const core::StagedState &state,
               const std::shared_ptr<image::TileStore> &tiles);

/**
 * Load and decode the checkpoint at `path`.  NotFound when the file
 * does not exist (callers treat that as "start from scratch"),
 * otherwise the decodeCheckpoint failure taxonomy.
 */
common::Result<core::StagedState>
loadCheckpoint(const std::string &path,
               const core::PipelineConfig &config,
               const std::shared_ptr<image::TileStore> &tiles);

/// Remove a checkpoint file if present (best-effort; used after a
/// job completes so a rerun starts fresh).
void removeCheckpoint(const std::string &path);

} // namespace service
} // namespace hifi

#endif // HIFI_SERVICE_CHECKPOINT_HH
