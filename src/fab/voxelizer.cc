#include "fab/voxelizer.hh"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/telemetry.hh"

namespace hifi
{
namespace fab
{

namespace
{

/// Edge ids for the LER noise streams of one shape.
enum EdgeId : uint64_t
{
    kEdgeX0 = 0,
    kEdgeX1,
    kEdgeY0,
    kEdgeY1
};

/**
 * Smooth line-edge roughness profile: value noise with knots every
 * `corrLen` nm along the edge, each knot a counter-seeded gaussian
 * draw.  Pure function of (seed, shape, edge, knot) — independent of
 * evaluation order and thread count.
 */
double
lerOffsetNm(uint64_t seed, uint64_t shape, uint64_t edge, double t_nm,
            double corr_len_nm, double sigma_nm)
{
    const double t = std::max(0.0, t_nm) / corr_len_nm;
    const auto k0 = static_cast<uint64_t>(t);
    const double frac = t - static_cast<double>(k0);
    auto knot = [&](uint64_t k) {
        common::Rng rng(seed, ((shape * 4 + edge) << 24) | k);
        return rng.gaussian(0.0, sigma_nm);
    };
    return knot(k0) * (1.0 - frac) + knot(k0 + 1) * frac;
}

struct VoxelBox
{
    size_t x0, x1, y0, y1, z0, z1;
    float mat;

    // LER edge-offset tables (nm), indexed relative to the box's
    // voxel bounds: xoff*[yy - y0], yoff*[xx - x0].  Empty when the
    // shape rasterizes crisp edges.
    std::vector<double> xoff0, xoff1, yoff0, yoff1;
    common::Rect rect; ///< drawn rect (nm), for the rough-edge test
};

image::Volume3D
rasterize(const layout::Cell &cell, const common::Rect &bounds,
          const VoxelizeParams &params)
{
    const telemetry::Span span("fab.voxelize");
    const double v = params.voxelNm;
    const auto nx = static_cast<size_t>(
        std::ceil(bounds.width() / v));
    const auto ny = static_cast<size_t>(
        std::ceil(bounds.height() / v));
    const auto nz = static_cast<size_t>(
        std::ceil(params.zMaxNm / v));

    image::Volume3D vol(nx, ny, nz,
                        static_cast<float>(Material::Oxide));

    const double sigma = params.lerSigmaNm;
    const double corr = std::max(params.lerCorrLenNm, 2.0 * v);

    // Clip every drawn shape to voxel index boxes once, serially.
    std::vector<VoxelBox> boxes;
    size_t shape_idx = 0;
    for (const auto &shape : cell.flatten()) {
        const uint64_t sid = shape_idx++;
        const Material mat = materialForLayer(shape.layer);
        const double mat_sigma = sigma * lerScale(mat);
        const layout::LayerZ z = layout::layerZ(shape.layer);

        // Inflate the candidate rect by the largest credible edge
        // excursion so rough edges are not cut at the crisp bbox.
        const double guard = mat_sigma > 0.0 ? 4.0 * mat_sigma : 0.0;
        const common::Rect r =
            shape.rect.inflate(guard).intersect(bounds);
        if (r.empty())
            continue;

        VoxelBox box;
        box.mat = static_cast<float>(mat);
        box.rect = shape.rect;
        box.x0 = static_cast<size_t>(
            std::max(0.0, (r.x0 - bounds.x0) / v));
        box.y0 = static_cast<size_t>(
            std::max(0.0, (r.y0 - bounds.y0) / v));
        box.z0 = static_cast<size_t>(std::max(0.0, z.z0 / v));
        box.x1 = std::min(
            nx, static_cast<size_t>(std::ceil((r.x1 - bounds.x0) / v)));
        box.y1 = std::min(
            ny, static_cast<size_t>(std::ceil((r.y1 - bounds.y0) / v)));
        box.z1 = std::min(
            nz, static_cast<size_t>(std::ceil(z.z1 / v)));

        if (mat_sigma > 0.0 && box.x1 > box.x0 && box.y1 > box.y0) {
            // Precompute the four edge profiles over the box span;
            // the rasterizer then tests voxel centres against the
            // perturbed edges.
            box.xoff0.resize(box.y1 - box.y0);
            box.xoff1.resize(box.y1 - box.y0);
            for (size_t yy = box.y0; yy < box.y1; ++yy) {
                const double cy =
                    bounds.y0 + (static_cast<double>(yy) + 0.5) * v;
                box.xoff0[yy - box.y0] = lerOffsetNm(
                    params.lerSeed, sid, kEdgeX0, cy, corr, mat_sigma);
                box.xoff1[yy - box.y0] = lerOffsetNm(
                    params.lerSeed, sid, kEdgeX1, cy, corr, mat_sigma);
            }
            box.yoff0.resize(box.x1 - box.x0);
            box.yoff1.resize(box.x1 - box.x0);
            for (size_t xx = box.x0; xx < box.x1; ++xx) {
                const double cx =
                    bounds.x0 + (static_cast<double>(xx) + 0.5) * v;
                box.yoff0[xx - box.x0] = lerOffsetNm(
                    params.lerSeed, sid, kEdgeY0, cx, corr, mat_sigma);
                box.yoff1[xx - box.x0] = lerOffsetNm(
                    params.lerSeed, sid, kEdgeY1, cx, corr, mat_sigma);
            }
        }
        boxes.push_back(std::move(box));
    }

    // Rasterize z-slab parallel: each slab owns its voxels and paints
    // every shape in drawing order, so the per-voxel last writer (and
    // therefore the volume) is identical at any thread count.
    common::parallelFor(0, nz, 8, [&](size_t slab0, size_t slab1) {
        for (const auto &box : boxes) {
            const size_t zb = std::max(box.z0, slab0);
            const size_t ze = std::min(box.z1, slab1);
            if (zb >= ze)
                continue;
            if (box.xoff0.empty()) {
                // Crisp edges: the exact legacy index-box fill.
                for (size_t zz = zb; zz < ze; ++zz)
                    for (size_t yy = box.y0; yy < box.y1; ++yy)
                        for (size_t xx = box.x0; xx < box.x1; ++xx)
                            vol.at(xx, yy, zz) = box.mat;
                continue;
            }
            for (size_t yy = box.y0; yy < box.y1; ++yy) {
                const double cy = bounds.y0 +
                    (static_cast<double>(yy) + 0.5) *
                        params.voxelNm;
                const double ex0 =
                    box.rect.x0 + box.xoff0[yy - box.y0];
                const double ex1 =
                    box.rect.x1 + box.xoff1[yy - box.y0];
                for (size_t xx = box.x0; xx < box.x1; ++xx) {
                    const double cx = bounds.x0 +
                        (static_cast<double>(xx) + 0.5) *
                            params.voxelNm;
                    if (cx < ex0 || cx >= ex1)
                        continue;
                    const double ey0 =
                        box.rect.y0 + box.yoff0[xx - box.x0];
                    const double ey1 =
                        box.rect.y1 + box.yoff1[xx - box.x0];
                    if (cy < ey0 || cy >= ey1)
                        continue;
                    for (size_t zz = zb; zz < ze; ++zz)
                        vol.at(xx, yy, zz) = box.mat;
                }
            }
        }
    });
    return vol;
}

/// Largest distance (nm) a rect extends beyond the bounds.
double
boundsOverflowNm(const common::Rect &r, const common::Rect &bounds)
{
    return std::max({0.0, bounds.x0 - r.x0, r.x1 - bounds.x1,
                     bounds.y0 - r.y0, r.y1 - bounds.y1});
}

} // namespace

common::Result<image::Volume3D>
voxelize(const layout::Cell &cell, const common::Rect &bounds,
         const VoxelizeParams &params)
{
    using R = common::Result<image::Volume3D>;
    const auto positive = [](double v) {
        return std::isfinite(v) && v > 0.0;
    };
    if (bounds.empty() || !std::isfinite(bounds.width()) ||
        !std::isfinite(bounds.height()))
        return R::failure(common::ErrorCode::InvalidArgument,
                          "voxelize: empty or non-finite bounds");
    if (!positive(params.voxelNm))
        return R::failure(common::ErrorCode::InvalidArgument,
                          "voxelize: bad voxel size");
    if (!positive(params.zMaxNm))
        return R::failure(common::ErrorCode::InvalidArgument,
                          "voxelize: bad z extent");
    if (!(params.outOfBoundsTolNm >= 0.0))
        return R::failure(common::ErrorCode::InvalidArgument,
                          "voxelize: negative bounds tolerance");

    size_t idx = 0;
    for (const auto &shape : cell.flatten()) {
        const double overflow =
            boundsOverflowNm(shape.rect, bounds);
        if (overflow > params.outOfBoundsTolNm)
            return R::failure(
                common::ErrorCode::FailedPrecondition,
                "voxelize: shape #" + std::to_string(idx) +
                    " on layer " + layout::layerName(shape.layer) +
                    (shape.net.empty() ? std::string()
                                       : " (net " + shape.net + ")") +
                    " extends " + std::to_string(overflow) +
                    " nm beyond the volume bounds (tolerance " +
                    std::to_string(params.outOfBoundsTolNm) + " nm)");
        ++idx;
    }
    return R(rasterize(cell, bounds, params));
}

Material
voxelMaterial(float value)
{
    const long code = std::lround(value);
    if (code < 0 || code >= static_cast<long>(kNumMaterials))
        return Material::Oxide;
    return static_cast<Material>(code);
}

} // namespace fab
} // namespace hifi
