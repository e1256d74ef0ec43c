#include "core/router.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace tapas {

void
RequestRouter::distribute(std::span<const RouteCandidate> candidates,
                          double demandTps, std::span<double> shares)
{
    double total_cap = 0.0;
    double total_weight = 0.0;
    std::size_t routed = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (shares[i] == kUnrouted)
            continue;
        total_cap += candidates[i].engine->profile().goodputTps;
        total_weight += shares[i];
        ++routed;
    }
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (shares[i] == kUnrouted)
            continue;
        const double cap = candidates[i].engine->profile().goodputTps;
        double share = total_weight > 0.0
            ? demandTps * shares[i] / total_weight
            : demandTps / static_cast<double>(routed);
        if (demandTps > total_cap) {
            share = cap +
                (demandTps - total_cap) / static_cast<double>(routed);
        }
        shares[i] = std::min(share, cap * 1.2);
    }
}

VmId
BaselineRouter::route(const Request &request,
                      std::span<const RouteCandidate> candidates,
                      const RiskAssessor *risk)
{
    (void)request;
    (void)risk;
    VmId best;
    double best_ttft = 1e300;
    for (const RouteCandidate &cand : candidates) {
        if (!cand.engine->accepting())
            continue;
        const double ttft = cand.engine->estimatedTtftS();
        if (ttft < best_ttft) {
            best_ttft = ttft;
            best = cand.vm;
        }
    }
    return best;
}

void
BaselineRouter::split(std::span<const RouteCandidate> candidates,
                      double demandTps, const ClusterView &,
                      const RiskAssessor *, std::span<double> shares)
{
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        shares[i] = candidates[i].engine->accepting()
            ? candidates[i].engine->profile().goodputTps
            : kUnrouted;
    }
    distribute(candidates, demandTps, shares);
}

VmId
TapasRouter::route(const Request &request,
                   std::span<const RouteCandidate> candidates,
                   const RiskAssessor *risk)
{
    // Load thresholds expressed against the TTFT SLO: a VM whose
    // projected TTFT already consumes most of the SLO is a
    // performance risk; one under the concentration bar can absorb
    // more load without endangering latency.
    const double slo_ttft = candidates.empty()
        ? 1.0
        : candidates.front().engine->slo().ttftS;
    const double perf_bar = cfg.perfRiskLoad * slo_ttft;
    const double concentrate_bar =
        cfg.concentrationCeiling * slo_ttft;

    // --- Stage 0: risk filter at server/row/aisle levels. ---
    // Never drop a request on the floor: if everything is filtered,
    // fall back to any accepting VM (least loaded).
    if (!collectSafe(candidates, risk, perf_bar))
        return BaselineRouter().route(request, candidates, nullptr);
    const std::vector<const RouteCandidate *> &safe = safeScratch;

    auto commit = [&](VmId vm) {
        affinity[request.customer.index] = vm;
        return vm;
    };

    // --- Stage 1: KV-cache affinity. ---
    const auto it = affinity.find(request.customer.index);
    if (it != affinity.end()) {
        for (const RouteCandidate *cand : safe) {
            if (cand->vm == it->second)
                return commit(cand->vm);
        }
    }

    // --- Stage 2: energy concentration — pick the most loaded VM
    // still under the concentration bar. ---
    const RouteCandidate *concentrated = nullptr;
    double concentrated_ttft = -1.0;
    for (const RouteCandidate *cand : safe) {
        const double ttft = cand->engine->estimatedTtftS();
        if (ttft <= concentrate_bar && ttft > concentrated_ttft) {
            concentrated_ttft = ttft;
            concentrated = cand;
        }
    }
    if (concentrated)
        return commit(concentrated->vm);

    // --- Stage 3: performance spread — least loaded. ---
    const RouteCandidate *spread = nullptr;
    double spread_ttft = 1e300;
    for (const RouteCandidate *cand : safe) {
        const double ttft = cand->engine->estimatedTtftS();
        if (ttft < spread_ttft) {
            spread_ttft = ttft;
            spread = cand;
        }
    }
    tapas_assert(spread, "non-empty safe set must yield a pick");
    return commit(spread->vm);
}

bool
TapasRouter::collectSafe(std::span<const RouteCandidate> candidates,
                         const RiskAssessor *risk, double perfBar)
{
    // tapas-hot begin(router-safe-set): split()'s stage 0, once per
    // endpoint per step; safeScratch keeps its capacity.
    safeScratch.clear();
    for (const RouteCandidate &cand : candidates) {
        if (!cand.engine->accepting())
            continue;
        if (risk && risk->fresh() && risk->risk(cand.server).any())
            continue;
        if (cand.engine->estimatedTtftS() > perfBar)
            continue;
        safeScratch.push_back(&cand);
    }
    if (!safeScratch.empty())
        return true;
    for (const RouteCandidate &cand : candidates) {
        if (cand.engine->accepting())
            safeScratch.push_back(&cand);
    }
    return false;
    // tapas-hot end(router-safe-set)
}

void
TapasRouter::split(std::span<const RouteCandidate> candidates,
                   double demandTps, const ClusterView &view,
                   const RiskAssessor *risk, std::span<double> shares)
{
    // tapas-hot begin(router-split): flow-level routing (paper 4.2:
    // route on the power and thermal slacks of the infrastructure).
    // Weight = capacity x row-power headroom.
    const bool live = risk && risk->fresh();
    collectSafe(candidates, risk, std::numeric_limits<double>::infinity());
    std::fill(shares.begin(), shares.end(), kUnrouted);
    for (const RouteCandidate *cand : safeScratch) {
        double slack = 1.0;
        if (live) {
            const double budget = view.power->effectiveRowProvision(
                view.layout->server(cand->server).row).value();
            slack = budget > 0.0
                ? std::clamp(risk->risk(cand->server).rowHeadroomW /
                                 budget, 0.05, 1.0)
                : 1.0;
        }
        shares[static_cast<std::size_t>(cand - candidates.data())] =
            cand->engine->profile().goodputTps * slack;
    }
    distribute(candidates, demandTps, shares);
    // tapas-hot end(router-split)
}

void
TapasRouter::checkpointState(Archive &ar)
{
    // Unordered-map iteration order is a determinism hazard: the
    // table travels sorted by key so the serialized bytes (and the
    // state digest built from them) are canonical.
    std::vector<std::pair<std::uint32_t, VmId>> entries(
        affinity.begin(), affinity.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    ar.each(entries,
            [](Archive &a, std::pair<std::uint32_t, VmId> &e) {
                a.value(e.first);
                a.value(e.second);
            });
    if (!ar.writing()) {
        affinity.clear();
        affinity.reserve(entries.size());
        for (const auto &[customer, vm] : entries)
            affinity.emplace(customer, vm);
    }
}

} // namespace tapas
