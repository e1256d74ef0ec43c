#include "core/migration.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tapas {

void
MigrationPlanner::rowPeakPowers(const ClusterView &view)
{
    const DatacenterLayout &layout = *view.layout;
    // Shared per-server peak accounting (SaaS at the controllable
    // floor, free servers at 0), one fleet-wide batched power pass,
    // then a per-row accumulation in ascending server order — the
    // same row sums the allocator's placement basis holds.
    TapasAllocator::peakLoadByServer(view, peaksScratch);
    powerScratch.resize(layout.serverCount());
    view.profiles->predictPower(
        ServerBatch::firstN(layout.serverCount()), peaksScratch.data(),
        powerScratch.data());
    rowPowerScratch.assign(layout.rowCount(), 0.0);
    for (const Server &server : layout.servers()) {
        rowPowerScratch[server.row.index] +=
            powerScratch[server.id.index];
    }
}

std::optional<MigrationPlan>
MigrationPlanner::planOne(const ClusterView &view)
{
    tapas_assert(view.profiles, "migration planning needs profiles");
    const DatacenterLayout &layout = *view.layout;

    // Rank rows by predicted peak power utilization.
    rowPeakPowers(view);
    RowId donor;
    double worst_util = 0.0;
    for (const Row &row : layout.rows()) {
        const double demand = rowPowerScratch[row.id.index];
        const double budget =
            view.power->effectiveRowProvision(row.id).value();
        if (budget <= 0.0)
            continue;
        const double util = demand / budget;
        if (util > worst_util) {
            worst_util = util;
            donor = row.id;
        }
    }
    if (!donor.valid())
        return std::nullopt;
    const double donor_before = rowPowerScratch[donor.index];

    // Candidate: the SaaS VM with the highest predicted peak in the
    // donor row (moving it relieves the most pressure). SaaS VMs of
    // one endpoint share a predicted peak, so ties go to the lowest
    // VM id, whatever server hosts it.
    std::uint32_t candidate = VmId::invalidIndex;
    ServerId from;
    for (ServerId sid : layout.row(donor).servers) {
        const std::uint32_t vm = view.serverVm[sid.index];
        if (vm == VmId::invalidIndex ||
            view.vmSlot[vm] != VmSlot::Saas) {
            continue;
        }
        if (candidate == VmId::invalidIndex ||
            view.vmPeakLoad[vm] > view.vmPeakLoad[candidate] ||
            (view.vmPeakLoad[vm] == view.vmPeakLoad[candidate] &&
             vm < candidate)) {
            candidate = vm;
            from = sid;
        }
    }
    if (candidate == VmId::invalidIndex)
        return std::nullopt;

    // What-if: lift the candidate out of the map; a rejected move
    // puts it back.
    serverVmScratch[from.index] = VmId::invalidIndex;
    PlacementRequest request;
    request.id = VmId(candidate);
    request.kind = VmKind::SaaS;
    request.predictedPeakLoad = view.vmPeakLoad[candidate];

    const auto target = alloc.place(request, view);
    // A move within the same row relieves nothing.
    if (!target.has_value() ||
        layout.server(*target).row == donor) {
        serverVmScratch[from.index] = candidate;
        return std::nullopt;
    }

    // Donor-row relief, evaluated with the candidate lifted out.
    rowPeakPowers(view);
    const double donor_after = rowPowerScratch[donor.index];
    if (donor_after >= donor_before) {
        serverVmScratch[from.index] = candidate;
        return std::nullopt;
    }

    // Accept: later rounds see the VM at its target.
    serverVmScratch[target->index] = candidate;

    MigrationPlan plan;
    plan.vm = request.id;
    plan.from = from;
    plan.to = *target;
    plan.donorRowPeakW = donor_before;
    plan.donorRowAfterW = donor_after;
    return plan;
}

std::vector<MigrationPlan>
MigrationPlanner::plan(const ClusterView &view, int max_moves)
{
    serverVmScratch.assign(view.serverVm.begin(), view.serverVm.end());
    ClusterView what_if = view;
    what_if.serverVm = serverVmScratch;
    std::vector<MigrationPlan> out;
    for (int i = 0; i < max_moves; ++i) {
        const auto move = planOne(what_if);
        if (!move.has_value())
            break;
        out.push_back(*move);
    }
    return out;
}

} // namespace tapas
