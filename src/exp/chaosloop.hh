/**
 * @file
 * Chaos-loop harness: the campaign engine's torture loop.
 *
 * One run() first executes the campaign uninterrupted, in memory, to
 * obtain the reference BENCH document.  It then loops: arm a random
 * fault (point, kind, hit number — all drawn from a seeded Rng, so a
 * failing triple replays exactly) at one of the engine's "exp.*"
 * crash points, run the campaign against a persistent run directory,
 * and let the injected crash kill it mid-flight.  The point and hit
 * number are drawn from the hits the previous cycle made, so the
 * fault lands where a resume actually goes.  Between cycles it
 * optionally corrupts a surviving intact artifact — a bit flip or a
 * truncation of a job file, the manifest or a warm checkpoint —
 * exactly the damage a torn sector or a buggy copy leaves behind.  After all cycles a
 * clean resume must finish the campaign with zero manual
 * intervention (quarantine absorbs the corruption) and its BENCH
 * document, with the volatile execution section stripped
 * (deterministicBenchText), must be byte-identical to the reference.
 *
 * That byte-compare is the whole point: no matter where the kills
 * land or what got corrupted, resume + quarantine must converge on
 * exactly the result an undisturbed run produces.
 */

#ifndef CGP_EXP_CHAOSLOOP_HH
#define CGP_EXP_CHAOSLOOP_HH

#include <cstdint>
#include <string>

#include "exp/campaign.hh"
#include "exp/engine.hh"

namespace cgp::exp
{

struct ChaosLoopConfig
{
    /** Kill/resume cycles before the final clean resume. */
    unsigned cycles = 25;

    std::uint64_t seed = 0xc6a0'05ull;

    /** Worker threads for every campaign invocation. */
    unsigned threads = 2;

    /** Run directory the kills land on (wiped by run()). */
    std::string dir;

    /** Chance per cycle of corrupting a surviving artifact.  Also
     *  what keeps later cycles honest: corruption forces jobs back
     *  to pending, so resumes keep exercising the crash points. */
    double corruptProbability = 0.5;

    bool verbose = false;
};

struct ChaosLoopResult
{
    unsigned cycles = 0;      ///< kill/resume cycles performed
    unsigned crashes = 0;     ///< injected crashes that unwound a run
    unsigned cleanRuns = 0;   ///< cycles whose fault never fired
    unsigned corruptions = 0; ///< artifacts deliberately damaged
    /** Artifacts quarantined across cycles, crashed ones included:
     *  job files, manifests and warm checkpoints. */
    std::size_t quarantined = 0;
    /** Simulations finished across cycles, crashed ones included. */
    std::size_t executedJobs = 0;

    /** Final BENCH (deterministic text) matches the reference. */
    bool identical = false;

    /** First point of divergence when !identical (for triage). */
    std::string mismatch;

    bool ok() const { return identical; }
};

class ChaosLoopHarness
{
  public:
    ChaosLoopHarness(CampaignSpec spec, WorkloadProvider &provider,
                     const ChaosLoopConfig &config)
        : spec_(std::move(spec)), provider_(provider),
          config_(config)
    {
    }

    /** @throws std::invalid_argument when config.dir is empty. */
    ChaosLoopResult run();

  private:
    CampaignSpec spec_;
    WorkloadProvider &provider_;
    ChaosLoopConfig config_;
};

} // namespace cgp::exp

#endif // CGP_EXP_CHAOSLOOP_HH
