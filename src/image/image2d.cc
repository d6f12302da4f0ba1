#include "image/image2d.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace hifi
{
namespace image
{

Image2D::Image2D(size_t width, size_t height, float fill)
    : width_(width), height_(height),
      data_(width * height, fill)
{
    if (width == 0 || height == 0)
        throw std::invalid_argument("Image2D: zero dimension");
}

float
Image2D::clampedAt(long x, long y) const
{
    const long mx = static_cast<long>(width_) - 1;
    const long my = static_cast<long>(height_) - 1;
    x = std::clamp(x, 0l, mx);
    y = std::clamp(y, 0l, my);
    return data_[static_cast<size_t>(y) * width_ + static_cast<size_t>(x)];
}

void
Image2D::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Image2D::fillRect(long x0, long y0, long x1, long y1, float value)
{
    const long w = static_cast<long>(width_);
    const long h = static_cast<long>(height_);
    x0 = std::clamp(x0, 0l, w);
    x1 = std::clamp(x1, 0l, w);
    y0 = std::clamp(y0, 0l, h);
    y1 = std::clamp(y1, 0l, h);
    for (long y = y0; y < y1; ++y)
        for (long x = x0; x < x1; ++x)
            data_[static_cast<size_t>(y) * width_ +
                  static_cast<size_t>(x)] = value;
}

float
Image2D::minValue() const
{
    return data_.empty() ? 0.0f :
        *std::min_element(data_.begin(), data_.end());
}

float
Image2D::maxValue() const
{
    return data_.empty() ? 0.0f :
        *std::max_element(data_.begin(), data_.end());
}

float
Image2D::meanValue() const
{
    if (data_.empty())
        return 0.0f;
    double sum = 0.0;
    for (float v : data_)
        sum += v;
    return static_cast<float>(sum / static_cast<double>(data_.size()));
}

void
Image2D::clamp(float lo, float hi)
{
    for (float &v : data_)
        v = std::clamp(v, lo, hi);
}

double
Image2D::totalVariation() const
{
    double tv = 0.0;
    for (size_t y = 0; y < height_; ++y) {
        for (size_t x = 0; x < width_; ++x) {
            const float v = at(x, y);
            if (x + 1 < width_)
                tv += std::abs(at(x + 1, y) - v);
            if (y + 1 < height_)
                tv += std::abs(at(x, y + 1) - v);
        }
    }
    return tv;
}

double
Image2D::mse(const Image2D &other) const
{
    if (other.width_ != width_ || other.height_ != height_)
        throw std::invalid_argument("Image2D::mse: shape mismatch");
    if (data_.empty())
        return 0.0;
    double sum = 0.0;
    for (size_t i = 0; i < data_.size(); ++i) {
        const double d = data_[i] - other.data_[i];
        sum += d * d;
    }
    return sum / static_cast<double>(data_.size());
}

double
Image2D::psnr(const Image2D &other) const
{
    const double e = mse(other);
    if (e <= 0.0)
        return 1e9; // identical images: "infinite" PSNR sentinel
    return 10.0 * std::log10(1.0 / e);
}

namespace
{

/**
 * In place over `count` consecutive elements of `len` floats: element
 * i becomes the old element clamp(i - d, 0, count - 1).  The kept
 * elements move as one memmove; the vacated ones replicate the edge
 * element, which after the move sits next to them.
 */
void
shiftElements(float *base, size_t count, size_t len, long d)
{
    if (d == 0 || count == 0)
        return;
    const size_t k = std::min(
        count, static_cast<size_t>(d > 0 ? d : -d));
    const size_t keep = count - k;
    size_t fill_begin = 0, fill_end = k;
    size_t src = keep ? k : 0; // the old element 0
    if (d > 0) {
        std::memmove(base + k * len, base, keep * len * sizeof(float));
    } else {
        std::memmove(base, base + k * len, keep * len * sizeof(float));
        fill_begin = keep;
        fill_end = count;
        src = keep ? keep - 1 : count - 1; // the old last element
    }
    for (size_t i = fill_begin; i < fill_end; ++i)
        if (i != src)
            std::copy_n(base + src * len, len, base + i * len);
}

} // namespace

Image2D
Image2D::shifted(long dx, long dy) const
{
    Image2D out = *this;
    out.shiftInPlace(dx, dy);
    return out;
}

void
Image2D::shiftInPlace(long dx, long dy)
{
    // The shift is separable: out(x, y) = in(cx(x), cy(y)).  Shift
    // each row along x, then the rows along y.
    if (dx != 0)
        for (size_t y = 0; y < height_; ++y)
            shiftElements(row(y), width_, 1, dx);
    shiftElements(data_.data(), height_, width_, dy);
}

Image2D
Image2D::crop(size_t x0, size_t y0, size_t x1, size_t y1) const
{
    if (x1 <= x0 || y1 <= y0 || x1 > width_ || y1 > height_)
        throw std::invalid_argument("Image2D::crop: bad bounds");
    Image2D out(x1 - x0, y1 - y0);
    for (size_t y = y0; y < y1; ++y)
        for (size_t x = x0; x < x1; ++x)
            out.at(x - x0, y - y0) = at(x, y);
    return out;
}

} // namespace image
} // namespace hifi
