#include "re/mat_analyze.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "layout/layer.hh"
#include "re/segmentation.hh"

namespace hifi
{
namespace re
{

common::Result<MatAnalysis>
analyzeMatRegion(const image::Volume3D &recon,
                 const PlanarScales &scales,
                 models::Detector detector)
{
    if (recon.empty())
        return common::Error{common::ErrorCode::InvalidArgument,
                             "analyzeMatRegion: empty volume"};

    using fab::Material;
    using layout::Layer;

    auto slab_of = [&](Layer layer, Material material,
                       size_t min_px) {
        const auto z = layout::layerZ(layer);
        auto z0 = static_cast<size_t>(z.z0 / scales.zNm);
        auto z1 = static_cast<size_t>(
            std::ceil(std::min(z.z1,
                               static_cast<double>(recon.nz()) *
                                   scales.zNm) /
                      scales.zNm));
        z0 = std::min(z0, recon.nz() - 1);
        z1 = std::max(z0 + 1, std::min(z1, recon.nz()));
        const auto intensity = recon.planarSlab(z0, z1).takeValue();
        const auto mask = morphologicalOpen(
            materialMask(intensity, material, detector));
        return connectedComponents(mask, min_px);
    };

    const double region_w =
        static_cast<double>(recon.nx()) * scales.xNm;
    const double region_h =
        static_cast<double>(recon.ny()) * scales.yNm;

    MatAnalysis out;

    // Bitlines: M1 spanning X.
    std::vector<double> bl_centers;
    for (const auto &c :
         slab_of(Layer::Metal1, Material::Copper, 8)) {
        if (static_cast<double>(c.width()) * scales.xNm >=
            0.85 * region_w) {
            ++out.bitlines;
            bl_centers.push_back(c.centerY() * scales.yNm);
        }
    }
    std::sort(bl_centers.begin(), bl_centers.end());
    if (bl_centers.size() > 1) {
        out.blPitchNm = (bl_centers.back() - bl_centers.front()) /
            static_cast<double>(bl_centers.size() - 1);
    }

    // Buried wordlines: gate strips spanning Y.
    for (const auto &c :
         slab_of(Layer::Gate, Material::Polysilicon, 8)) {
        if (static_cast<double>(c.height()) * scales.yNm >=
            0.85 * region_h)
            ++out.wordlines;
    }

    // Capacitors: pillars on the capacitor layer, clustered into
    // columns by X to test the honeycomb offset.
    std::map<long, std::vector<double>> columns; // x-bucket -> y list
    for (const auto &c : slab_of(Layer::Capacitor,
                                 Material::CapacitorMetal, 4)) {
        ++out.capacitors;
        const double cx = c.centerX() * scales.xNm;
        const double cy = c.centerY() * scales.yNm;
        const long bucket = std::lround(cx / 25.0); // ~column pitch
        columns[bucket].push_back(cy);
    }

    if (columns.size() >= 2 && out.blPitchNm > 0.0) {
        // Mean y (mod pitch) per column; adjacent columns should
        // alternate by half a pitch in a honeycomb.
        std::vector<double> phases;
        for (const auto &[bucket, ys] : columns) {
            double sum = 0.0;
            for (double y : ys)
                sum += std::fmod(y, out.blPitchNm);
            phases.push_back(sum / static_cast<double>(ys.size()));
        }
        double offset_sum = 0.0;
        size_t n = 0;
        for (size_t i = 0; i + 1 < phases.size(); ++i) {
            double d = std::abs(phases[i + 1] - phases[i]);
            d = std::min(d, out.blPitchNm - d); // wraparound
            offset_sum += d;
            ++n;
        }
        out.rowOffsetNm = n ? offset_sum / static_cast<double>(n)
                            : 0.0;
        out.honeycomb =
            std::abs(out.rowOffsetNm - out.blPitchNm / 2.0) <
            0.25 * out.blPitchNm;
    }
    return out;
}

} // namespace re
} // namespace hifi
