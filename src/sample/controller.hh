/**
 * @file
 * The sampling controller, the simulator's only sampling loop:
 * drives a single core through the SMARTS-style alternation of
 * detailed windows and fast-forward functional warming (DESIGN.md
 * §11.2).  server::DbServer calls it on core 0 of a single-stream
 * machine; sampling is single-stream only (§11.4).
 *
 * One sampling period:
 *
 *   1. *Detailed window* — stepCycle() (and skipIdle() over dead
 *      cycles) for windowCycles, recording counter deltas (CPI,
 *      L1-I/L1-D miss rate, fetch stall per instruction) as one
 *      observation per estimator.
 *   2. *Drain* — fetch suspends and the pipeline runs dry so no
 *      in-flight instruction straddles the clock jump (skipIdle()
 *      while it is not yet dry).
 *   3. *Fast-forward* — Core::fastForward consumes the instructions
 *      the skipped portion of the period would have executed
 *      (budgeted from the window's measured IPC), functionally
 *      warming all predictive state.
 *   4. *Clock jump* — the cycle clock advances by the skipped
 *      cycles, scaled by the same IPC, so downstream cycle math
 *      sees a continuous clock.
 *
 * Before the first window the controller functionally warms
 * warmupInstrs instructions — or restores that prefix from a
 * checkpoint when the configured store has one (cut checkpoints are
 * offered back to the store for future runs).
 */

#ifndef CGP_SAMPLE_CONTROLLER_HH
#define CGP_SAMPLE_CONTROLLER_HH

#include <string>

#include "sample/checkpoint.hh"
#include "sample/config.hh"
#include "sample/estimator.hh"

namespace cgp
{

class Core;
class InstructionExpander;
class MemoryHierarchy;

namespace sample
{

/**
 * Run @p core to completion under sampling.  Replaces Core::run()
 * when sampling is enabled: like run() it calls beginRun() itself
 * and finalizes @p mem once the core finishes (a borrowing
 * hierarchy leaves the shared L2 to its owner), so the caller
 * treats it as a drop-in substitute.
 *
 * @param stream The expander feeding @p core (checkpoint replay).
 * @param parts Checkpointable structures; ignored unless the config
 *        enables checkpoints and provides hooks.
 * @param workload / @p configLabel identify the run for checkpoint
 *        keying.
 */
SampledStats runSampled(Core &core, MemoryHierarchy &mem,
                        InstructionExpander &stream,
                        const SampleConfig &config,
                        const CheckpointParts &parts,
                        const std::string &workload,
                        const std::string &configLabel);

} // namespace sample
} // namespace cgp

#endif // CGP_SAMPLE_CONTROLLER_HH
