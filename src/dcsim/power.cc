#include "dcsim/power.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "dcsim/thermal.hh"

namespace tapas {

Watts
PowerModel::gpuPower(const ServerSpec &spec, double load_frac,
                     double freq_frac) const
{
    const double load = std::clamp(load_frac, 0.0, 1.0);
    const double freq = std::clamp(freq_frac, 0.0, 1.0);
    const double dynamic_span =
        spec.gpuMaxPower.value() - spec.gpuIdlePower.value();
    // pow(1, e) == 1 exactly; most servers run uncapped, so skip
    // the libm call on that path.
    const double freq_factor =
        freq == 1.0 ? 1.0 : std::pow(freq, cfg.freqPowerExponent);
    return Watts(spec.gpuIdlePower.value() +
                 dynamic_span * load * freq_factor);
}

double
PowerModel::heatFraction(const ServerSpec &spec,
                         const std::vector<Watts> &gpu_draws)
{
    double total = 0.0;
    for (const Watts &w : gpu_draws)
        total += w.value();
    const double idle =
        spec.gpuIdlePower.value() * spec.gpusPerServer;
    const double max =
        spec.gpuMaxPower.value() * spec.gpusPerServer;
    if (max <= idle)
        return 0.0;
    return std::clamp((total - idle) / (max - idle), 0.0, 1.0);
}

Watts
PowerModel::serverPower(const ServerSpec &spec,
                        const std::vector<Watts> &gpu_draws,
                        double heat_frac) const
{
    tapas_assert(static_cast<int>(gpu_draws.size()) ==
                 spec.gpusPerServer,
                 "expected %d GPU draws, got %zu", spec.gpusPerServer,
                 gpu_draws.size());
    const double heat = std::clamp(heat_frac, 0.0, 1.0);
    double total = spec.chassisIdlePower.value() +
        spec.chassisActivePower.value() * heat;
    for (const Watts &w : gpu_draws)
        total += w.value();
    const double speed = ThermalModel::fanSpeed(heat);
    total += spec.fanMaxPower.value() * speed * speed * speed;
    return Watts(total);
}

Watts
PowerModel::serverPowerAtLoad(const ServerSpec &spec, double load_frac,
                              double freq_frac) const
{
    std::vector<Watts> draws(
        static_cast<std::size_t>(spec.gpusPerServer),
        gpuPower(spec, load_frac, freq_frac));
    return serverPower(spec, draws, load_frac);
}

Watts
PowerModel::serverPeakPower(const ServerSpec &spec) const
{
    return serverPowerAtLoad(spec, 1.0, 1.0);
}

PowerHierarchy::PowerHierarchy(const DatacenterLayout &layout_,
                               const PowerModel &model)
    : layout(layout_)
{
    rowProvisionW.resize(layout.rowCount(), 0.0);
    upsProvisionW.resize(layout.upsCount(), 0.0);
    upsFailed.resize(layout.upsCount(), false);
    upsRemainingFrac.resize(layout.upsCount(), 1.0);

    const double row_factor = model.config().rowProvisionFactor;
    const double ups_factor = model.config().upsProvisionFactor;

    for (const Row &row : layout.rows()) {
        double peak = 0.0;
        for (ServerId sid : row.servers)
            peak += model.serverPeakPower(layout.specOf(sid)).value();
        rowProvisionW[row.id.index] = peak * row_factor;
    }
    for (const Ups &ups : layout.upses()) {
        double total = 0.0;
        for (RowId rid : ups.rows)
            total += rowProvisionW[rid.index];
        upsProvisionW[ups.id.index] = total * ups_factor;
    }
    rowUps.reserve(layout.rowCount());
    for (const Row &row : layout.rows())
        rowUps.push_back(layout.pdu(row.pdu).ups.index);
}

Watts
PowerHierarchy::rowProvision(RowId id) const
{
    tapas_assert(id.index < rowProvisionW.size(), "unknown row %u",
                 id.index);
    return Watts(rowProvisionW[id.index]);
}

Watts
PowerHierarchy::effectiveRowProvision(RowId id) const
{
    return Watts(rowProvisionW[id.index] * deratingFrac);
}

Watts
PowerHierarchy::effectiveUpsProvision(UpsId id) const
{
    return Watts(upsProvisionW[id.index] * deratingFrac);
}

Watts
PowerHierarchy::totalProvision() const
{
    double total = 0.0;
    for (double w : rowProvisionW)
        total += w;
    return Watts(total);
}

void
PowerHierarchy::failUps(UpsId id, double remaining_frac)
{
    tapas_assert(id.index < upsFailed.size(), "unknown UPS %u",
                 id.index);
    tapas_assert(remaining_frac > 0.0 && remaining_frac <= 1.0,
                 "derating fraction must be in (0,1]");
    upsFailed[id.index] = true;
    upsRemainingFrac[id.index] = remaining_frac;
    recomputeDerating();
}

void
PowerHierarchy::restoreUps(UpsId id)
{
    tapas_assert(id.index < upsFailed.size(), "unknown UPS %u",
                 id.index);
    upsFailed[id.index] = false;
    upsRemainingFrac[id.index] = 1.0;
    recomputeDerating();
}

void
PowerHierarchy::recomputeDerating()
{
    double frac = 1.0;
    for (std::size_t i = 0; i < upsFailed.size(); ++i) {
        if (upsFailed[i])
            frac = std::min(frac, upsRemainingFrac[i]);
    }
    deratingFrac = frac;
}

double
PowerHierarchy::upsDerate(UpsId id) const
{
    tapas_assert(id.index < upsRemainingFrac.size(),
                 "unknown UPS %u", id.index);
    return upsRemainingFrac[id.index];
}

bool
PowerHierarchy::anyFailure() const
{
    for (bool failed : upsFailed) {
        if (failed)
            return true;
    }
    return false;
}

PowerAssessment
PowerHierarchy::assess(std::span<const double> server_draws_w) const
{
    PowerAssessment out;
    assess(server_draws_w, out);
    return out;
}

void
PowerHierarchy::assess(std::span<const double> server_draws_w,
                       PowerAssessment &out) const
{
    tapas_assert(server_draws_w.size() == layout.serverCount(),
                 "per-server draw vector has wrong size: %zu vs %zu",
                 server_draws_w.size(), layout.serverCount());

    out.clear();
    out.rowDrawW.resize(layout.rowCount(), 0.0);
    out.rowBudgetW.resize(layout.rowCount(), 0.0);
    out.upsDrawW.resize(layout.upsCount(), 0.0);
    out.upsBudgetW.resize(layout.upsCount(), 0.0);

    for (const Server &server : layout.servers()) {
        out.rowDrawW[server.row.index] +=
            server_draws_w[server.id.index];
    }
    for (const Row &row : layout.rows()) {
        out.rowBudgetW[row.id.index] =
            effectiveRowProvision(row.id).value();
        out.upsDrawW[rowUps[row.id.index]] +=
            out.rowDrawW[row.id.index];
        if (out.rowDrawW[row.id.index] >
            out.rowBudgetW[row.id.index]) {
            out.overBudgetRows.push_back(row.id);
        }
    }
    for (const Ups &ups : layout.upses()) {
        out.upsBudgetW[ups.id.index] =
            effectiveUpsProvision(ups.id).value();
        if (out.upsDrawW[ups.id.index] > out.upsBudgetW[ups.id.index])
            out.overBudgetUpses.push_back(ups.id);
    }
}

} // namespace tapas
