#include "scope/postprocess.hh"

#include <algorithm>
#include <utility>

#include "common/parallel.hh"
#include "common/telemetry.hh"

namespace hifi
{
namespace scope
{

namespace
{

image::Image2D
denoiseOne(const image::Image2D &slice, const PostprocessParams &p)
{
    switch (p.algo) {
      case DenoiseAlgo::SplitBregman:
        return image::denoiseSplitBregman(slice, p.tv);
      case DenoiseAlgo::Chambolle:
        return image::denoiseChambolle(slice, p.tv);
      case DenoiseAlgo::None:
        break;
    }
    return slice;
}

} // namespace

common::Result<StreamedPostprocessResult>
postprocessStreamed(const image::SliceStack &stack,
                    image::TileStore &store,
                    const PostprocessParams &params, size_t tileEdge,
                    size_t dirtyBudgetBytes, size_t windowSlices)
{
    using R = common::Result<StreamedPostprocessResult>;
    const telemetry::Span span("scope.postprocess");
    const size_t n = stack.slices.size();
    StreamedPostprocessResult result;
    if (n == 0)
        return R(std::move(result));

    // The volume's (Y, Z) extent is the slice extent.
    auto created = image::TiledVolume3D::create(
        n, stack.slices.front().width(), stack.slices.front().height(),
        store, tileEdge, dirtyBudgetBytes);
    if (!created.ok())
        return R(created.error());
    image::TiledVolume3D volume = created.takeValue();

    const size_t window = windowSlices ? windowSlices : kStreamWindowSlices;
    result.shifts.reserve(n);
    image::Image2D anchor; // previous window's last denoised slice
    long acc_x = 0, acc_y = 0;
    for (size_t begin = 0; begin < n; begin += window) {
        const size_t count = std::min(window, n - begin);

        // 1. Edge-preserving denoise, independent per slice.
        std::vector<image::Image2D> den(count);
        {
            const telemetry::Span denoise_span("image.denoise");
            common::parallelFor(0, count, 1, [&](size_t i0, size_t i1) {
                for (size_t i = i0; i < i1; ++i)
                    den[i] = denoiseOne(stack.slices[begin + i], params);
            });
        }

        // 2. Pairwise MI registration against each slice's
        //    predecessor, then the sequential chained accumulation.
        std::vector<std::pair<long, long>> pairwise(count, {0, 0});
        {
            const telemetry::Span register_span("image.register");
            common::parallelFor(0, count, 1, [&](size_t i0, size_t i1) {
                for (size_t i = i0; i < i1; ++i) {
                    if (begin + i == 0)
                        continue; // slice 0: identity shift
                    const image::Image2D &fixed =
                        i == 0 ? anchor : den[i - 1];
                    pairwise[i] =
                        image::registerShiftMi(fixed, den[i], params.mi);
                }
            });
            for (size_t i = 0; i < count; ++i) {
                acc_x -= pairwise[i].first;
                acc_y -= pairwise[i].second;
                result.shifts.emplace_back(acc_x, acc_y);
            }
        }

        // 3. Write the window into the tiled volume, each slice read
        //    through its correcting shift.
        {
            const telemetry::Span assemble_span("image.assemble");
            std::vector<std::pair<long, long>> correction(count);
            for (size_t i = 0; i < count; ++i)
                correction[i] = {-result.shifts[begin + i].first,
                                 -result.shifts[begin + i].second};
            if (auto err =
                    volume.setCrossSections(begin, den, correction))
                return R(*err);
        }
        anchor = std::move(den.back());
    }

    if (auto err = volume.sealAll())
        return R(*err);
    result.volume = std::move(volume);
    if (stack.trueDrift.size() == n)
        result.alignmentResidualPx =
            image::alignmentResidual(result.shifts, stack.trueDrift);
    return R(std::move(result));
}

} // namespace scope
} // namespace hifi
