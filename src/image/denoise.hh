/**
 * @file
 * Total-variation denoising, matching Section IV-C of the paper which
 * uses edge-preserving split-Bregman [27] or Chambolle [11] filters
 * before slice alignment.
 *
 * Both solve the ROF model: minimize TV(u) + (1 / 2 lambda) ||u - f||^2.
 * Chambolle iterates the dual projection; split-Bregman alternates a
 * Gauss-Seidel solve with shrinkage on the split gradient variables.
 */

#ifndef HIFI_IMAGE_DENOISE_HH
#define HIFI_IMAGE_DENOISE_HH

#include <cstddef>

#include "image/image2d.hh"

namespace hifi
{
namespace image
{

/** Parameters shared by the TV denoisers. */
struct TvParams
{
    /// Regularization weight: larger means smoother output.
    double lambda = 0.1;

    /// Outer iterations (always all of them: the paper's recipe is a
    /// fixed iteration count, not a convergence test).
    size_t iterations = 50;
};

/// Chambolle's dual projection algorithm (isotropic TV).
Image2D denoiseChambolle(const Image2D &input, const TvParams &params);

/// Split-Bregman (anisotropic TV) with Gauss-Seidel inner solves.
Image2D denoiseSplitBregman(const Image2D &input, const TvParams &params);

} // namespace image
} // namespace hifi

#endif // HIFI_IMAGE_DENOISE_HH
