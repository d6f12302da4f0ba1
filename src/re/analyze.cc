#include "re/analyze.hh"

#include <algorithm>
#include <cmath>

#include "common/telemetry.hh"
#include "layout/layer.hh"
#include "re/segmentation.hh"

namespace hifi
{
namespace re
{

using models::Role;
using models::Topology;

size_t
RegionAnalysis::countRole(Role role) const
{
    size_t n = 0;
    for (const auto &d : devices)
        if (d.role == role)
            ++n;
    return n;
}

std::optional<models::Dims>
RegionAnalysis::meanDims(Role role) const
{
    double w = 0.0, l = 0.0;
    size_t n = 0;
    for (const auto &d : devices) {
        if (d.role == role && d.wNm > 0.0 && d.lNm > 0.0) {
            w += d.wNm;
            l += d.lNm;
            ++n;
        }
    }
    if (n == 0)
        return std::nullopt;
    return models::Dims{w / static_cast<double>(n),
                        l / static_cast<double>(n)};
}

bool
RegionAnalysis::crossCouplingConsistent() const
{
    bool any = false;
    for (const auto &d : devices) {
        if (d.role != Role::Nsa && d.role != Role::Psa)
            continue;
        if (d.couplesTo < 0 || d.bitline < 0)
            return false;
        if (d.couplesTo == d.bitline)
            return false;
        // The partner device of the same role must mirror us.
        bool mirrored = false;
        for (const auto &o : devices) {
            if (&o != &d && o.role == d.role &&
                o.bitline == d.couplesTo && o.couplesTo == d.bitline) {
                mirrored = true;
                break;
            }
        }
        if (!mirrored)
            return false;
        any = true;
    }
    return any;
}

namespace
{

struct Slab
{
    image::Image2D intensity;
    image::Image2D mask;
    std::vector<Component> comps;
};

Slab
makeSlab(const image::Volume3D &vol, layout::Layer layer,
         fab::Material material, models::Detector detector,
         const PlanarScales &scales, size_t min_pixels)
{
    const telemetry::Span span("re.segmentation");
    const layout::LayerZ z = layout::layerZ(layer);
    const double shrink = 0.2 * (z.z1 - z.z0);
    auto z0 = static_cast<size_t>((z.z0 + shrink) / scales.zNm);
    auto z1 = static_cast<size_t>(
        std::ceil((z.z1 - shrink) / scales.zNm));
    z0 = std::min(z0, vol.nz() - 1);
    z1 = std::max(z0 + 1, std::min(z1, vol.nz()));

    Slab slab;
    slab.intensity = vol.planarSlab(z0, z1).takeValue();
    slab.mask = morphologicalOpen(
        materialMask(slab.intensity, material, detector));
    slab.comps = connectedComponents(slab.mask, min_pixels);
    return slab;
}

common::Rect
toNm(const Component &c, const PlanarScales &s)
{
    return common::Rect(static_cast<double>(c.x0) * s.xNm,
                        static_cast<double>(c.y0) * s.yNm,
                        static_cast<double>(c.x1) * s.xNm,
                        static_cast<double>(c.y1) * s.yNm);
}

/**
 * Vertical mask run at (px, py), robust to degenerate columns.  A
 * feature whose drawn edge straddles a FIB slice boundary leaves a
 * partially-filled slice whose diluted intensity fragments the mask,
 * collapsing the run at that column far below the feature height.
 * When the centre-column run comes out shorter than 60% of the
 * component's extent, re-measure across the component's columns and
 * take the longest run instead.  Healthy features measure identically
 * (the guard never fires), so the typical-corner path is unchanged.
 */
double
robustVerticalRun(const image::Image2D &intensity,
                  const image::Image2D &mask, size_t x0, size_t x1,
                  size_t px, size_t py, size_t extent_rows)
{
    double run = measureRun(intensity, mask, px, py, false);
    if (run >= 0.6 * static_cast<double>(extent_rows))
        return run;
    for (size_t x = x0; x <= x1 && x < mask.width(); ++x)
        run = std::max(run, measureRun(intensity, mask, x, py, false));
    return run;
}

} // namespace

common::Result<RegionAnalysis>
analyzeRegion(const image::Volume3D &recon, const PlanarScales &scales,
              models::Detector detector)
{
    const telemetry::Span span("re.analyze");
    if (recon.empty())
        return common::Error{common::ErrorCode::InvalidArgument,
                             "analyzeRegion: empty volume"};

    using fab::Material;
    using layout::Layer;

    // (i) Layer slabs and material masks.
    const Slab active = makeSlab(recon, Layer::Active,
                                 Material::Silicon, detector, scales, 4);
    const Slab gate = makeSlab(recon, Layer::Gate,
                               Material::Polysilicon, detector, scales,
                               4);
    const Slab contact = makeSlab(recon, Layer::Contact,
                                  Material::Tungsten, detector, scales,
                                  2);
    const Slab metal = makeSlab(recon, Layer::Metal1, Material::Copper,
                                detector, scales, 4);

    const double region_w =
        static_cast<double>(recon.nx()) * scales.xNm;
    const double region_h =
        static_cast<double>(recon.ny()) * scales.yNm;

    RegionAnalysis out;

    // (ii) Bitline anchors: M1 components spanning the region in X.
    // Components that deviate from the expected geometry are silicon
    // defect candidates: a double-height full-span component is two
    // bitlines merged by a short, and collinear partial components
    // that reunite to a full span are one bitline broken by an open.
    std::vector<common::Rect> full_span, partial;
    for (const auto &c : metal.comps) {
        const common::Rect r = toNm(c, scales);
        if (r.width() >= 0.85 * region_w)
            full_span.push_back(r);
        else if (r.width() >= 0.05 * region_w)
            partial.push_back(r);
    }
    std::vector<double> heights;
    for (const auto &r : full_span)
        heights.push_back(r.height());
    for (const auto &r : partial)
        heights.push_back(r.height());
    double med_h = 0.0;
    if (!heights.empty()) {
        std::sort(heights.begin(), heights.end());
        med_h = heights[heights.size() / 2];
    }

    // Defects found while repairing the anchors; bitline indices are
    // resolved once the repaired list is sorted.
    struct PendingDefect
    {
        fab::DefectKind kind;
        common::Rect where;
        double yA, yB; // bitline centre y (nm); yB < 0 if unused
    };
    std::vector<PendingDefect> pending;

    std::vector<common::Rect> bitlines;
    for (const auto &r : full_span) {
        if (med_h <= 0.0 || r.height() <= 1.75 * med_h) {
            bitlines.push_back(r);
            continue;
        }
        // Bitline short: split the merged component back into its
        // two lines and locate the bridge (mask runs at the midline).
        const common::Rect top(r.x0, r.y0, r.x1, r.y0 + med_h);
        const common::Rect bot(r.x0, r.y1 - med_h, r.x1, r.y1);
        bitlines.push_back(top);
        bitlines.push_back(bot);
        const auto clamp_py = [&](double y_nm) {
            return static_cast<size_t>(std::min(
                y_nm / scales.yNm,
                static_cast<double>(metal.mask.height() - 1)));
        };
        const size_t mid_py = clamp_py(r.center().y);
        const size_t top_py = clamp_py(top.center().y);
        const size_t bot_py = clamp_py(bot.center().y);
        // A column is a bridge only if the mask is on all the way
        // from one line's centre to the other's — edge fray from
        // roughness or blur lights the midline without connecting.
        const auto column_bridges = [&](size_t x) {
            for (size_t y = top_py; y <= bot_py; ++y)
                if (metal.mask.at(x, y) <= 0.5f)
                    return false;
            return true;
        };
        const auto px0 = static_cast<size_t>(r.x0 / scales.xNm);
        const auto px1 = std::min(
            static_cast<size_t>(r.x1 / scales.xNm),
            metal.mask.width());
        // Report the extent of the bridging columns, not the whole
        // midline run: roughness fray can stretch the run across the
        // entire region while only the actual short connects, and a
        // region-wide rect would mislocate the defect.
        bool in_run = false;
        bool run_bridges = false;
        size_t bridge_x0 = 0, bridge_x1 = 0;
        for (size_t x = px0; x <= px1; ++x) {
            const bool on =
                x < px1 && metal.mask.at(x, mid_py) > 0.5f;
            if (on && !in_run) {
                in_run = true;
                run_bridges = false;
            }
            if (on && column_bridges(x)) {
                if (!run_bridges)
                    bridge_x0 = x;
                bridge_x1 = x;
                run_bridges = true;
            }
            if (!on && in_run) {
                in_run = false;
                if (!run_bridges)
                    continue;
                pending.push_back(
                    {fab::DefectKind::BitlineShort,
                     common::Rect(
                         static_cast<double>(bridge_x0) * scales.xNm,
                         top.y1,
                         static_cast<double>(bridge_x1 + 1) *
                             scales.xNm,
                         bot.y0),
                     top.center().y, bot.center().y});
            }
        }
    }

    // Bitline opens: group the partial components by row (same
    // bitline iff centres within ~half a line height) and reunite
    // groups that jointly span the region.
    std::sort(partial.begin(), partial.end(),
              [](const common::Rect &a, const common::Rect &b) {
                  return a.center().y < b.center().y;
              });
    for (size_t i = 0; i < partial.size();) {
        size_t j = i + 1;
        while (j < partial.size() &&
               partial[j].center().y - partial[i].center().y <
                   0.75 * med_h)
            ++j;
        std::vector<common::Rect> group(partial.begin() + i,
                                        partial.begin() + j);
        i = j;
        double ux0 = group.front().x0, ux1 = group.front().x1;
        double uy0 = group.front().y0, uy1 = group.front().y1;
        for (const auto &g : group) {
            ux0 = std::min(ux0, g.x0);
            ux1 = std::max(ux1, g.x1);
            uy0 = std::min(uy0, g.y0);
            uy1 = std::max(uy1, g.y1);
        }
        if (group.size() < 2 || ux1 - ux0 < 0.85 * region_w)
            continue; // stray fragment, not a broken bitline
        const common::Rect repaired(ux0, uy0, ux1, uy1);
        bitlines.push_back(repaired);
        std::sort(group.begin(), group.end(),
                  [](const common::Rect &a, const common::Rect &b) {
                      return a.x0 < b.x0;
                  });
        for (size_t k = 0; k + 1 < group.size(); ++k) {
            if (group[k + 1].x0 <= group[k].x1)
                continue;
            pending.push_back({fab::DefectKind::BitlineOpen,
                               common::Rect(group[k].x1, uy0,
                                            group[k + 1].x0, uy1),
                               repaired.center().y, -1.0});
        }
    }

    std::sort(bitlines.begin(), bitlines.end(),
              [](const common::Rect &a, const common::Rect &b) {
                  return a.y0 < b.y0;
              });
    out.bitlines = bitlines;

    // Nearest bitline by centre distance, within one pitch.
    double pitch_nm = region_h;
    for (size_t i = 0; i + 1 < bitlines.size(); ++i) {
        pitch_nm = std::min(pitch_nm, bitlines[i + 1].center().y -
                                          bitlines[i].center().y);
    }
    auto bitline_at = [&, pitch_nm](double y_nm) -> long {
        long best = -1;
        double best_d = pitch_nm;
        for (size_t i = 0; i < bitlines.size(); ++i) {
            const double d = std::abs(y_nm - bitlines[i].center().y);
            if (d < best_d) {
                best_d = d;
                best = static_cast<long>(i);
            }
        }
        return best;
    };

    // Resolve the anchor-repair defects to bitline indices now that
    // the repaired list is sorted.
    for (const auto &p : pending) {
        DetectedDefect d;
        d.kind = p.kind;
        d.where = p.where;
        d.bitlineA = bitline_at(p.yA);
        if (p.yB >= 0.0)
            d.bitlineB = bitline_at(p.yB);
        out.defects.push_back(d);
    }

    // Particle scan: a contact-slab component dwarfing a via is a
    // conductive particle, not a legitimate contact.  Flag it and
    // keep it out of the cross-coupling trace below.
    std::vector<char> is_particle(contact.comps.size(), 0);
    for (size_t ci = 0; ci < contact.comps.size(); ++ci) {
        const common::Rect r = toNm(contact.comps[ci], scales);
        if (std::min(r.width(), r.height()) < 70.0)
            continue;
        is_particle[ci] = 1;
        out.defects.push_back(
            {fab::DefectKind::Particle, r, -1, -1});
    }

    // (iv) Gate classes: common-gate strips vs small gates.
    std::vector<Component> strips, small_gates;
    for (const auto &c : gate.comps) {
        const common::Rect r = toNm(c, scales);
        if (r.height() >= 0.8 * region_h)
            strips.push_back(c);
        else
            small_gates.push_back(c);
    }
    std::sort(strips.begin(), strips.end(),
              [](const Component &a, const Component &b) {
                  return a.x0 < b.x0;
              });

    // (iv-b) Rejoin strips severed by the opening.  The classic PEQ
    // strap lives at the region edge; when a shrunk process corner
    // leaves it only two voxel rows tall the Y-opening erases it and
    // the bridged pair shows up as two strips.  The raw (pre-open)
    // mask still carries the strap, so merge adjacent strips that it
    // connects wall-to-wall inside an edge band.
    if (strips.size() >= 2) {
        const image::Image2D raw_gate = materialMask(
            gate.intensity, Material::Polysilicon, detector);
        const size_t ny = raw_gate.height();
        const auto band = std::max<size_t>(
            1, static_cast<size_t>(std::ceil(20.0 / scales.yNm)));
        const auto bridged = [&](const Component &a,
                                 const Component &b) {
            if (b.x0 <= a.x1 + 1)
                return true; // touching or overlapping in x
            const auto column_on = [&](size_t x, size_t y0,
                                       size_t y1) {
                for (size_t y = y0; y < y1; ++y)
                    if (raw_gate.at(x, y) > 0.5f)
                        return true;
                return false;
            };
            bool top = true, bottom = true;
            for (size_t x = a.x1 + 1; x < b.x0 && (top || bottom);
                 ++x) {
                if (top && !column_on(x, ny - std::min(band, ny), ny))
                    top = false;
                if (bottom && !column_on(x, 0, std::min(band, ny)))
                    bottom = false;
            }
            return top || bottom;
        };
        std::vector<Component> merged;
        for (const auto &s : strips) {
            if (!merged.empty() && bridged(merged.back(), s)) {
                Component &m = merged.back();
                m.x1 = std::max(m.x1, s.x1);
                m.y0 = std::min(m.y0, s.y0);
                m.y1 = std::max(m.y1, s.y1);
                m.pixels += s.pixels;
            } else {
                merged.push_back(s);
            }
        }
        strips = std::move(merged);
    }
    out.commonGateStrips = strips.size();

    // (vii) Topology: three independent strips = OCSA; one bridged
    // component (containing the precharge and equalizer bars) =
    // classic.
    out.topology = strips.size() >= 3 ? Topology::Ocsa
                                      : Topology::Classic;

    // Strip bars: x-runs of the gate mask at mid height (the classic
    // PEQ bridge only exists at the region edge).
    struct Bar
    {
        size_t x0, x1; // pixel bounds
    };
    std::vector<Bar> bars;
    const size_t mid_y = recon.ny() / 2;
    for (const auto &s : strips) {
        bool in_run = false;
        size_t run_start = 0;
        for (size_t x = s.x0; x <= s.x1 && x < gate.mask.width();
             ++x) {
            const bool on =
                x < s.x1 && gate.mask.at(x, mid_y) > 0.5f;
            if (on && !in_run) {
                in_run = true;
                run_start = x;
            } else if (!on && in_run) {
                in_run = false;
                bars.push_back({run_start, x});
            }
        }
    }
    std::sort(bars.begin(), bars.end(),
              [](const Bar &a, const Bar &b) { return a.x0 < b.x0; });

    // Role order along X (Section V-C: column first, then for OCSA
    // the ISO and OC strips, the latch, and the precharge).  With two
    // stacked SAs the layout is mirrored, so bars in the right half
    // carry the template in reverse.
    std::vector<Role> bar_roles;
    if (out.topology == Topology::Ocsa)
        bar_roles = {Role::Iso, Role::Oc, Role::Precharge};
    else
        bar_roles = {Role::Precharge, Role::Equalizer};

    // A mirrored (two-stacked-SA) region has its bars in symmetric
    // pairs: bar i and bar n-1-i reflect about the region centre.
    const double nx_px = static_cast<double>(recon.nx());
    auto bar_center = [](const Bar &b) {
        return 0.5 * static_cast<double>(b.x0 + b.x1);
    };
    bool mirrored = bars.size() >= 2 && bars.size() % 2 == 0;
    if (mirrored) {
        for (size_t i = 0; i < bars.size() / 2; ++i) {
            const double sum = bar_center(bars[i]) +
                bar_center(bars[bars.size() - 1 - i]);
            if (std::abs(sum - nx_px) > 0.1 * nx_px) {
                mirrored = false;
                break;
            }
        }
    }

    auto role_of_bar = [&](size_t bi) {
        size_t idx = bi;
        if (mirrored && bi >= bars.size() / 2)
            idx = bars.size() - 1 - bi; // reversed in the mirror half
        return idx < bar_roles.size() ? bar_roles[idx]
                                      : Role::Precharge;
    };

    // Strip devices: active segments under each bar.
    for (size_t bi = 0; bi < bars.size(); ++bi) {
        const Role role = role_of_bar(bi);
        const auto bar_cx =
            static_cast<size_t>((bars[bi].x0 + bars[bi].x1) / 2);
        for (const auto &a : active.comps) {
            if (bar_cx < a.x0 || bar_cx >= a.x1)
                continue;
            const auto cy = static_cast<size_t>(a.centerY());
            if (active.mask.at(bar_cx, cy) <= 0.5f)
                continue;
            ExtractedDevice dev;
            dev.role = role;
            dev.gate = toNm(a, scales);
            dev.wNm = robustVerticalRun(active.intensity, active.mask,
                                        a.x0, a.x1, bar_cx, cy,
                                        a.y1 - a.y0 + 1) *
                scales.yNm;
            dev.lNm = measureRun(gate.intensity, gate.mask, bar_cx,
                                 cy, true) *
                scales.xNm;
            dev.bitline = bitline_at(a.centerY() * scales.yNm);
            out.devices.push_back(dev);
        }
    }

    // (iii)/(iv) Small gates grouped per active region.
    struct GateOnActive
    {
        const Component *gate;
        const Component *active;
    };
    std::vector<std::vector<const Component *>> gates_per_active(
        active.comps.size());
    for (const auto &g : small_gates) {
        for (size_t ai = 0; ai < active.comps.size(); ++ai) {
            const auto &a = active.comps[ai];
            if (g.centerX() >= a.x0 && g.centerX() < a.x1 &&
                g.centerY() >= a.y0 && g.centerY() < a.y1) {
                gates_per_active[ai].push_back(&g);
                break;
            }
        }
    }

    // (vi) Latch pairs: two gates on one active.  Measure W along X
    // at the gate's body centre row and L along Y at the body centre
    // column; trace the cross-coupling through contacts.
    std::vector<ExtractedDevice> latch, singles;
    std::vector<std::pair<double, double>> latch_act_y; // nm, per dev
    for (size_t ai = 0; ai < active.comps.size(); ++ai) {
        const auto &gats = gates_per_active[ai];
        const auto &act = active.comps[ai];
        if (gats.size() == 2) {
            for (const auto *g : gats) {
                // Gate body: the intersection with the active.
                const size_t bx0 = std::max(g->x0, act.x0);
                const size_t bx1 = std::min(g->x1, act.x1);
                const size_t by0 = std::max(g->y0, act.y0);
                const size_t by1 = std::min(g->y1, act.y1);
                const size_t cx = (bx0 + bx1) / 2;
                const size_t cy = (by0 + by1) / 2;

                ExtractedDevice dev;
                dev.role = Role::Nsa; // refined below
                dev.gate = toNm(*g, scales);
                dev.wNm = measureRun(gate.intensity, gate.mask, cx,
                                     cy, true) *
                    scales.xNm;
                dev.lNm = robustVerticalRun(gate.intensity, gate.mask,
                                            bx0, bx1, cx, cy,
                                            by1 - by0 + 1) *
                    scales.yNm;

                // Contacts overlapping the gate component trace the
                // poly tab to the partner bitline.  Particle blobs
                // are not contacts and must not fake a coupling.
                for (size_t ci = 0; ci < contact.comps.size(); ++ci) {
                    if (is_particle[ci])
                        continue;
                    const auto &ct = contact.comps[ci];
                    const bool overlaps = ct.centerX() >= g->x0 &&
                        ct.centerX() < g->x1 &&
                        ct.centerY() >= g->y0 && ct.centerY() < g->y1;
                    if (!overlaps)
                        continue;
                    const long bl =
                        bitline_at(ct.centerY() * scales.yNm);
                    if (bl >= 0)
                        dev.couplesTo = bl;
                }
                latch.push_back(dev);
                latch_act_y.emplace_back(
                    static_cast<double>(act.y0) * scales.yNm,
                    static_cast<double>(act.y1) * scales.yNm);
            }
        } else if (gats.size() == 1) {
            const auto *g = gats.front();
            ExtractedDevice dev;
            dev.role = Role::Column; // refined below
            dev.gate = toNm(*g, scales);
            dev.bitline =
                bitline_at(g->centerY() * scales.yNm);
            singles.push_back(dev);
        }
    }

    // Latch devices within one active serve the two bitlines of the
    // pair: each side's own bitline is the partner's coupling target.
    for (size_t i = 0; i + 1 < latch.size(); i += 2) {
        latch[i].bitline = latch[i + 1].couplesTo;
        latch[i + 1].bitline = latch[i].couplesTo;
    }

    // Missing-via scan: a latch gate with no coupling contact is an
    // unfilled via.  The partner's own bitline (unresolvable through
    // the broken link) is repaired from the pair's active extent: the
    // shared active overlaps exactly the pair's two bitlines.
    for (size_t i = 0; i + 1 < latch.size(); i += 2) {
        for (size_t s = 0; s < 2; ++s) {
            ExtractedDevice &broken = latch[i + s];
            ExtractedDevice &partner = latch[i + 1 - s];
            if (broken.couplesTo >= 0)
                continue;
            if (partner.bitline < 0) {
                const auto [ay0, ay1] = latch_act_y[i + s];
                for (size_t bi = 0; bi < bitlines.size(); ++bi) {
                    const double cy = bitlines[bi].center().y;
                    if (cy < ay0 || cy > ay1 ||
                        static_cast<long>(bi) == broken.bitline)
                        continue;
                    partner.bitline = static_cast<long>(bi);
                    break;
                }
            }
            out.defects.push_back({fab::DefectKind::MissingVia,
                                   broken.gate, broken.bitline,
                                   partner.bitline});
        }
    }

    // (viii) nSA vs pSA: split the latch devices by measured width
    // (1-D two-means); the wider cluster is the NMOS latch.
    if (!latch.empty()) {
        std::vector<double> widths;
        for (const auto &d : latch)
            widths.push_back(d.wNm);
        const auto [mn, mx] =
            std::minmax_element(widths.begin(), widths.end());
        double lo = *mn, hi = *mx;
        if (hi - lo > 0.12 * hi) {
            // Two-means on widths.
            for (int it = 0; it < 16; ++it) {
                double slo = 0.0, shi = 0.0;
                size_t nlo = 0, nhi = 0;
                for (double w : widths) {
                    if (std::abs(w - lo) < std::abs(w - hi)) {
                        slo += w;
                        ++nlo;
                    } else {
                        shi += w;
                        ++nhi;
                    }
                }
                if (nlo)
                    lo = slo / static_cast<double>(nlo);
                if (nhi)
                    hi = shi / static_cast<double>(nhi);
            }
            for (auto &d : latch) {
                d.role = std::abs(d.wNm - hi) <= std::abs(d.wNm - lo)
                             ? Role::Nsa
                             : Role::Psa;
            }
        }
        for (auto &d : latch)
            out.devices.push_back(d);
    }

    // (v) Column transistors are the multiplexers nearest the MATs:
    // before the first strip, and with a mirrored second SA also
    // after the last strip.  Everything else is the LSA datapath.
    double first_strip_x = region_w, last_strip_x = 0.0;
    for (const auto &bar : bars) {
        first_strip_x = std::min(
            first_strip_x, static_cast<double>(bar.x0) * scales.xNm);
        last_strip_x = std::max(
            last_strip_x, static_cast<double>(bar.x1) * scales.xNm);
    }
    double latch_min_x = region_w;
    for (const auto &d : latch)
        latch_min_x = std::min(latch_min_x, d.gate.x0);
    // Classic single-SA regions have their strips after the latch;
    // fall back to the latch boundary there.
    const double left_limit = std::min(first_strip_x, latch_min_x);
    for (auto &d : singles) {
        const double cx = d.gate.center().x;
        const auto px =
            static_cast<size_t>(d.gate.center().x / scales.xNm);
        const auto py =
            static_cast<size_t>(d.gate.center().y / scales.yNm);
        const auto gx0 =
            static_cast<size_t>(d.gate.x0 / scales.xNm);
        const auto gx1 =
            static_cast<size_t>(d.gate.x1 / scales.xNm);
        const auto grows = static_cast<size_t>(
            (d.gate.y1 - d.gate.y0) / scales.yNm) +
            1;
        if (cx < left_limit || (mirrored && cx > last_strip_x)) {
            d.role = Role::Column;
            // W along Y, L along X (series device in the bitline).
            d.wNm = robustVerticalRun(gate.intensity, gate.mask,
                                      gx0, gx1, px, py, grows) *
                scales.yNm;
            d.lNm = measureRun(gate.intensity, gate.mask, px, py,
                               true) *
                scales.xNm;
        } else {
            d.role = Role::Lsa;
            d.wNm = measureRun(gate.intensity, gate.mask, px, py,
                               true) *
                scales.xNm;
            d.lNm = robustVerticalRun(gate.intensity, gate.mask,
                                      gx0, gx1, px, py, grows) *
                scales.yNm;
        }
        out.devices.push_back(d);
    }

    return out;
}

} // namespace re
} // namespace hifi
