/**
 * @file
 * Analyze a layout straight from a GDSII file: read, voxelize, render
 * a clean image volume, and run the reverse-engineering analysis.
 * This is how a downstream user consumes the paper's open-sourced
 * layouts without any microscope at all.
 */

#ifndef HIFI_RE_GDS_PIPELINE_HH
#define HIFI_RE_GDS_PIPELINE_HH

#include <string>

#include "re/analyze.hh"

namespace hifi
{
namespace re
{

/**
 * Read a GDSII file and analyze it at the given voxel pitch under a
 * noise-free SE rendering.  A voxelization error (bad pitch, empty
 * layout) is passed on; an unreadable or malformed file throws from
 * the GDSII reader.
 */
common::Result<RegionAnalysis> analyzeGdsFile(const std::string &path,
                                              double voxel_nm = 5.0);

} // namespace re
} // namespace hifi

#endif // HIFI_RE_GDS_PIPELINE_HH
