#include "sample/controller.hh"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "cpu/core.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "trace/expand.hh"

namespace cgp::sample
{

namespace
{

/**
 * Warm the machine for the configured prefix: restore a checkpoint
 * when the store has one, functionally fast-forward otherwise, and
 * offer freshly cut warm state back to the store.
 * @return instructions the prefix consumed outside the core's own
 *         fastForward accounting (i.e. via checkpoint replay).
 */
std::uint64_t
warmPrefix(Core &core, InstructionExpander &stream,
           const SampleConfig &config, const CheckpointParts &parts,
           const std::string &workload,
           const std::string &configLabel, SampledStats &stats)
{
    if (config.warmupInstrs == 0)
        return 0;

    const bool store = config.useCheckpoints &&
        config.functionalWarming && config.checkpoints.any();
    const std::string key = store
        ? checkpointKey(workload, configLabel, config.warmupInstrs)
        : std::string();

    if (store && config.checkpoints.load) {
        if (auto doc = config.checkpoints.load(key)) {
            std::optional<std::uint64_t> consumed;
            try {
                consumed = checkCheckpoint(*doc, workload, configLabel,
                                           config.warmupInstrs);
            } catch (const std::exception &) {
                // The metadata checks touch no state: a rejected
                // checkpoint leaves the machine in its reset state,
                // so re-warm from scratch.
            }
            if (consumed) {
                // Past the metadata the machine is no longer in its
                // reset state: a failure from here fails the run.
                applyCheckpoint(*doc, parts);
                if (stream.advance(*consumed) != *consumed)
                    throw std::runtime_error(
                        "trace shorter than checkpoint replay");
                stats.checkpointUsed = true;
                return *consumed;
            }
        }
    }

    const std::uint64_t consumed =
        core.fastForward(config.warmupInstrs,
                         config.functionalWarming);
    if (store && config.checkpoints.save && consumed > 0) {
        config.checkpoints.save(
            key, buildCheckpoint(parts, workload, configLabel,
                                 config.warmupInstrs, consumed));
        stats.checkpointSaved = true;
    }
    // The core's own fastForward accounting already covers this
    // prefix — only checkpoint replay is external.
    return 0;
}

} // namespace

SampledStats
runSampled(Core &core, MemoryHierarchy &mem,
           InstructionExpander &stream, const SampleConfig &config,
           const CheckpointParts &parts, const std::string &workload,
           const std::string &configLabel)
{
    SampledStats stats;
    WindowEstimator cpiE, l1iE, l1dE, stallE;

    core.beginRun();
    const std::uint64_t replayed = warmPrefix(
        core, stream, config, parts, workload, configLabel, stats);

    Cycle totalSkip = 0;
    const Cycle ffCycles =
        config.periodCycles > config.windowCycles
        ? config.periodCycles - config.windowCycles
        : 0;

    while (!core.finished()) {
        // 1. Detailed window: cycle-accurate, counters live.
        const Cycle winStart = core.cycles();
        const std::uint64_t i0 = core.committedInstrs();
        const std::uint64_t iAcc0 = mem.l1i().demandAccesses();
        const std::uint64_t iMiss0 = mem.l1i().demandMisses();
        const std::uint64_t dAcc0 = mem.l1d().demandAccesses();
        const std::uint64_t dMiss0 = mem.l1d().demandMisses();
        const std::uint64_t stall0 = core.fetchIcacheStallCycles();

        while (!core.finished() &&
               core.cycles() - winStart < config.windowCycles) {
            core.stepCycle();
            core.skipIdle(winStart + config.windowCycles + 1);
        }

        const Cycle winCycles = core.cycles() - winStart;
        const std::uint64_t winInstrs =
            core.committedInstrs() - i0;
        if (winCycles > 0 && winInstrs > 0) {
            ++stats.windows;
            cpiE.add(static_cast<double>(winCycles) /
                     static_cast<double>(winInstrs));
            const std::uint64_t iAcc =
                mem.l1i().demandAccesses() - iAcc0;
            if (iAcc > 0)
                l1iE.add(static_cast<double>(
                             mem.l1i().demandMisses() - iMiss0) /
                         static_cast<double>(iAcc));
            const std::uint64_t dAcc =
                mem.l1d().demandAccesses() - dAcc0;
            if (dAcc > 0)
                l1dE.add(static_cast<double>(
                             mem.l1d().demandMisses() - dMiss0) /
                         static_cast<double>(dAcc));
            stallE.add(
                static_cast<double>(
                    core.fetchIcacheStallCycles() - stall0) /
                static_cast<double>(winInstrs));
        }
        if (core.finished())
            break;

        // 2. Drain: no in-flight instruction may straddle the jump.
        // A drained core does not skip: the fast-forward starts in
        // the cycle it drained, with any fill still in flight.
        core.suspendFetch(true);
        while (!core.finished() && !core.drained()) {
            core.stepCycle();
            if (!core.drained())
                core.skipIdle();
        }
        core.suspendFetch(false);
        if (core.finished())
            break;

        // 3 + 4. Fast-forward the rest of the period at the
        // window's measured IPC, then jump the clock by the cycles
        // the warmed instructions would have taken.  max(·,1)
        // guards keep a fully stalled window (zero commits) from
        // dividing by zero while still making forward progress.
        const std::uint64_t budget = ffCycles *
            std::max<std::uint64_t>(winInstrs, 1) /
            std::max<Cycle>(winCycles, 1);
        if (budget == 0)
            continue;
        const std::uint64_t consumed =
            core.fastForward(budget, config.functionalWarming);
        const Cycle skip = consumed *
            std::max<Cycle>(winCycles, 1) /
            std::max<std::uint64_t>(winInstrs, 1);
        core.advanceClock(skip);
        totalSkip += skip;
    }

    mem.finalize();

    stats.detailedCycles = core.cycles() - totalSkip;
    stats.detailedInstrs = core.committedInstrs();
    stats.warmedInstrs = replayed + core.warmedInstrs();
    stats.skippedCycles = totalSkip;
    stats.cpi = cpiE.estimate();
    stats.l1iMissRate = l1iE.estimate();
    stats.l1dMissRate = l1dE.estimate();
    stats.fetchStallPerInstr = stallE.estimate();
    return stats;
}

} // namespace cgp::sample
