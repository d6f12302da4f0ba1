/**
 * @file
 * 2-D grayscale image container used by the microscope simulator and the
 * post-processing pipeline (Section IV of the paper).
 *
 * Pixels are stored as floats in row-major order; intensity is nominally
 * in [0, 1] but intermediate processing may exceed that range.
 */

#ifndef HIFI_IMAGE_IMAGE2D_HH
#define HIFI_IMAGE_IMAGE2D_HH

#include <cstddef>
#include <vector>

namespace hifi
{
namespace image
{

/** Row-major float image. (x, y) with x the column index. */
class Image2D
{
  public:
    Image2D() = default;
    Image2D(size_t width, size_t height, float fill = 0.0f);

    size_t width() const { return width_; }
    size_t height() const { return height_; }
    size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &at(size_t x, size_t y) { return data_[y * width_ + x]; }
    float at(size_t x, size_t y) const { return data_[y * width_ + x]; }

    /// Direct pointer to the first pixel of row y (row-major layout).
    float *row(size_t y) { return data_.data() + y * width_; }
    const float *row(size_t y) const { return data_.data() + y * width_; }

    /// Clamped access: coordinates outside the image clamp to the edge.
    float clampedAt(long x, long y) const;

    std::vector<float> &data() { return data_; }
    const std::vector<float> &data() const { return data_; }

    void fill(float value);

    /// Set every pixel inside the (clipped) rectangle.
    void fillRect(long x0, long y0, long x1, long y1, float value);

    float minValue() const;
    float maxValue() const;
    float meanValue() const;

    /// Clamp all pixels into [lo, hi].
    void clamp(float lo, float hi);

    /// Anisotropic total variation: sum |dx| + |dy|.
    double totalVariation() const;

    /// Mean squared error against another image of identical shape.
    double mse(const Image2D &other) const;

    /// Peak signal-to-noise ratio in dB (peak = 1.0).
    double psnr(const Image2D &other) const;

    /// Image translated by integer (dx, dy); edge pixels replicate.
    Image2D shifted(long dx, long dy) const;

    /// shifted(dx, dy) in place, without a second frame: pixel (x, y)
    /// becomes the old clampedAt(x - dx, y - dy), bit for bit.
    void shiftInPlace(long dx, long dy);

    /// Sub-image [x0,x1) x [y0,y1); throws on bad bounds.
    Image2D crop(size_t x0, size_t y0, size_t x1, size_t y1) const;

  private:
    size_t width_ = 0;
    size_t height_ = 0;
    std::vector<float> data_;
};

} // namespace image
} // namespace hifi

#endif // HIFI_IMAGE_IMAGE2D_HH
