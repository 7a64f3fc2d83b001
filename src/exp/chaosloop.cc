#include "exp/chaosloop.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "exp/artifact.hh"
#include "exp/integrity.hh"
#include "fault/fault.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace cgp::exp
{

namespace
{

/** The crash points a campaign run can die at, and the kinds that
 *  make sense there. */
struct ChaosPoint
{
    const char *point;
    fault::FaultKind kind;
};

const std::vector<ChaosPoint> &
chaosPoints()
{
    static const std::vector<ChaosPoint> points = {
        {"exp.job", fault::FaultKind::Crash},
        {"exp.pre_record", fault::FaultKind::Crash},
        {"exp.record", fault::FaultKind::Crash},
        {"exp.artifact_write", fault::FaultKind::Crash},
        {"exp.artifact_write", fault::FaultKind::TornWrite},
    };
    return points;
}

/** Artifacts worth corrupting: job files and the manifest. */
std::vector<std::string>
corruptibleFiles(const std::string &dir)
{
    std::vector<std::string> out;
    if (!std::filesystem::is_directory(dir))
        return out;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name == "manifest.json" ||
            (name.rfind("job-", 0) == 0 &&
             name.size() > 5 &&
             name.compare(name.size() - 5, 5, ".json") == 0)) {
            out.push_back(entry.path().string());
        }
    }
    std::sort(out.begin(), out.end()); // deterministic pick order
    return out;
}

/** Damage @p path the way real corruption does: flip one byte or
 *  truncate the tail. */
void
corruptFile(const std::string &path, Rng &rng)
{
    std::string bytes = readFileOrThrow(path);
    if (bytes.empty())
        return;
    if (rng.nextBool(0.5)) {
        const std::size_t pos = static_cast<std::size_t>(
            rng.nextBelow(bytes.size()));
        bytes[pos] = static_cast<char>(bytes[pos] ^ 0x40);
    } else {
        bytes.resize(static_cast<std::size_t>(
            rng.nextBelow(bytes.size())));
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

} // anonymous namespace

ChaosLoopResult
ChaosLoopHarness::run()
{
    if (config_.dir.empty()) {
        throw std::invalid_argument(
            "chaos loop needs a run directory");
    }

    ChaosLoopResult result;

    // Reference: the same campaign, uninterrupted and in memory.
    EngineOptions refOpts;
    refOpts.threads = config_.threads;
    refOpts.verbose = false;
    const CampaignRun reference =
        runCampaign(spec_, provider_, refOpts);
    const std::string refText =
        deterministicBenchText(benchJson(reference));

    std::filesystem::remove_all(config_.dir);

    EngineOptions opts;
    opts.threads = config_.threads;
    opts.runDir = config_.dir;
    opts.resume = true;
    opts.verbose = false;

    // The hit budget a fault can be delayed by.  Deliberately small:
    // once the campaign has completed, a resumed cycle only touches
    // its crash points a handful of times (the lock and the manifest
    // plus whatever corruption forced back to pending), so a fault
    // scheduled deep into the run would never fire and the cycle
    // would audit nothing.
    const std::uint64_t maxHits = reference.jobs.size() + 4;

    Rng rng(config_.seed);
    for (unsigned cycle = 0; cycle < config_.cycles; ++cycle) {
        const ChaosPoint &cp = chaosPoints()[static_cast<std::size_t>(
            rng.nextBelow(chaosPoints().size()))];
        fault::FaultSpec spec;
        spec.kind = cp.kind;
        spec.afterHits = rng.nextBelow(maxHits);
        // One firing per cycle: every point kills the run, so the
        // first firing ends it.
        spec.count = 1;

        fault::FaultInjector injector;
        injector.arm(cp.point, spec);

        bool crashed = false;
        try {
            fault::ScopedGlobalInjector scoped(injector);
            const CampaignRun run =
                runCampaign(spec_, provider_, opts);
            result.executedJobs += run.executed;
            result.quarantined += run.quarantined;
        } catch (const fault::CrashInjected &e) {
            crashed = true;
            if (config_.verbose) {
                cgp_inform("chaos cycle ", cycle, ": died at ",
                           e.point(), " (afterHits=",
                           spec.afterHits, ")");
            }
        }
        ++result.cycles;
        if (crashed)
            ++result.crashes;
        else
            ++result.cleanRuns;

        // Occasionally damage what survived, like a torn sector.
        if (rng.nextBool(config_.corruptProbability)) {
            const std::vector<std::string> files =
                corruptibleFiles(config_.dir);
            if (!files.empty()) {
                const std::string &victim =
                    files[static_cast<std::size_t>(
                        rng.nextBelow(files.size()))];
                corruptFile(victim, rng);
                ++result.corruptions;
                if (config_.verbose) {
                    cgp_inform("chaos cycle ", cycle,
                               ": corrupted ",
                               std::filesystem::path(victim)
                                   .filename()
                                   .string());
                }
            }
        }
    }

    // Final clean resume: no faults armed, no manual repair.  This
    // must complete and converge on the reference result.
    const CampaignRun finalRun =
        runCampaign(spec_, provider_, opts);
    result.executedJobs += finalRun.executed;
    result.quarantined += finalRun.quarantined;

    const std::string finalText =
        deterministicBenchText(benchJson(finalRun));
    result.identical = finalText == refText;
    if (!result.identical) {
        std::size_t pos = 0;
        const std::size_t n =
            std::min(refText.size(), finalText.size());
        while (pos < n && refText[pos] == finalText[pos])
            ++pos;
        const std::size_t from = pos > 40 ? pos - 40 : 0;
        result.mismatch = "diverges at byte " +
            std::to_string(pos) + ": ref \"" +
            refText.substr(from, 80) + "\" vs final \"" +
            finalText.substr(from, 80) + "\"";
    }
    return result;
}

} // namespace cgp::exp
