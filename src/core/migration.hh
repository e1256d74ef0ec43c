/**
 * @file
 * SaaS VM migration planning (paper Section 4.1, "Migration").
 *
 * Beyond initial placement, TAPAS can recompute better placements to
 * correct mispredictions or drift: for SaaS VMs the platform creates
 * a replacement instance elsewhere, shifts traffic, and decommissions
 * the old VM. IaaS VMs are never moved (GPU live migration is
 * unsupported, as the paper notes).
 */

#ifndef TAPAS_CORE_MIGRATION_HH
#define TAPAS_CORE_MIGRATION_HH

#include <optional>
#include <vector>

#include "core/allocator.hh"
#include "core/context.hh"

namespace tapas {

/** One proposed SaaS move. */
struct MigrationPlan
{
    VmId vm;
    ServerId from;
    ServerId to;
    /** Predicted peak power of the donor row before the move, W. */
    double donorRowPeakW = 0.0;
    /** Predicted donor-row peak after the move, W. */
    double donorRowAfterW = 0.0;
};

/** Plans pressure-relieving SaaS migrations. */
class MigrationPlanner
{
  public:
    explicit MigrationPlanner(const TapasPolicyConfig &config)
        : cfg(config), alloc(config)
    {}

    /**
     * Propose up to @p max_moves migrations, each taking a SaaS VM
     * out of the row with the least predicted power headroom and
     * re-placing it through the TAPAS allocator. Returns an empty
     * vector when no move improves the donor row.
     *
     * What-ifs run on a scratch copy of the view's server->VM map,
     * and accepted moves are applied to that copy so later rounds
     * see them; the caller's tables are left untouched for the
     * caller to apply the returned plans.
     */
    std::vector<MigrationPlan>
    plan(const ClusterView &view, int max_moves);

  private:
    TapasPolicyConfig cfg;
    /** Re-placement allocator; member so its batched-prediction
     *  scratch persists across planning rounds. */
    TapasAllocator alloc;

    /** Reusable fleet-wide buffers for the donor ranking pass. */
    std::vector<double> peaksScratch;
    std::vector<double> powerScratch;
    std::vector<double> rowPowerScratch;
    /** What-if server->VM map (the planner's view binds to it). */
    std::vector<std::uint32_t> serverVmScratch;

    /** One planning round on a view whose serverVm is bound to
     *  serverVmScratch (moves are tried and applied there). */
    std::optional<MigrationPlan> planOne(const ClusterView &view);

    /** Predicted peak power of every row in one batched pass. */
    void rowPeakPowers(const ClusterView &view);
};

} // namespace tapas

#endif // TAPAS_CORE_MIGRATION_HH
