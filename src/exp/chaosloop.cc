#include "exp/chaosloop.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/artifact.hh"
#include "exp/checkpoint.hh"
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

/** Artifacts worth corrupting: the job files, the manifest and the
 *  warm checkpoints of a sampled campaign whose seal still checks.
 *  A cycle that dies before reading a damaged file leaves it in
 *  place; damaging it again would count a second corruption that
 *  only one quarantine answers. */
std::vector<std::string>
corruptibleFiles(const std::string &dir)
{
    const auto jsonNamed = [](const std::string &name,
                              const std::string &prefix) {
        return name.size() > prefix.size() + 5 &&
            name.compare(0, prefix.size(), prefix) == 0 &&
            name.compare(name.size() - 5, 5, ".json") == 0;
    };
    std::vector<std::string> out;
    for (const std::string &d : {dir, checkpointStoreDir(dir)}) {
        if (!std::filesystem::is_directory(d))
            continue;
        for (const auto &entry :
             std::filesystem::directory_iterator(d)) {
            if (!entry.is_regular_file())
                continue;
            const std::string name = entry.path().filename().string();
            if ((name == "manifest.json" || jsonNamed(name, "job-") ||
                 jsonNamed(name, "warm-")) &&
                readSealedJson(entry.path().string()).doc)
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

    // Each cycle's fault is one hit drawn uniformly from the hits the
    // previous cycle made: at every point it reached, one more at the
    // point it died (the run would have gone on past it), and the
    // first hit of every point it never reached (a crash before the
    // first job keeps the jobs' points out of reach, but the next run
    // may well get there).  A resume reaches only what its pending
    // work needs — once the campaign is done, little more than the
    // lock write — so drawing from these keeps the faults firing
    // where the next run goes.  The first cycle starts from an empty
    // run dir, which writes the lock, the manifest and every job.
    std::map<std::string, std::uint64_t> budget;
    for (const ChaosPoint &cp : chaosPoints())
        budget[cp.point] = reference.jobs.size() + 4;

    Rng rng(config_.seed);
    for (unsigned cycle = 0; cycle < config_.cycles; ++cycle) {
        std::uint64_t total = 0;
        for (const ChaosPoint &cp : chaosPoints())
            total += budget[cp.point];
        std::uint64_t pick = rng.nextBelow(total);
        const ChaosPoint *cp = &chaosPoints().front();
        for (const ChaosPoint &candidate : chaosPoints()) {
            cp = &candidate;
            if (pick < budget[candidate.point])
                break;
            pick -= budget[candidate.point];
        }
        fault::FaultSpec spec;
        spec.kind = cp->kind;
        spec.afterHits = pick;
        // One firing per cycle: every point kills the run, so the
        // first firing ends it.
        spec.count = 1;

        fault::FaultInjector injector;
        injector.arm(cp->point, spec);

        std::string died; // the crash point, if the run crashed
        try {
            fault::ScopedGlobalInjector scoped(injector);
            runCampaign(spec_, provider_, opts);
        } catch (const fault::CrashInjected &e) {
            died = e.point();
            if (config_.verbose) {
                cgp_inform("chaos cycle ", cycle, ": died at ",
                           e.point(), " (afterHits=",
                           spec.afterHits, ")");
            }
        }
        // Every finished simulation passes exp.pre_record once, also
        // in a cycle that died after it.
        result.executedJobs += injector.hitCount("exp.pre_record");
        for (auto &[point, hits] : budget)
            hits = std::max<std::uint64_t>(injector.hitCount(point), 1);
        ++result.cycles;
        if (!died.empty()) {
            ++result.crashes;
            ++budget[died];
        } else {
            ++result.cleanRuns;
        }

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
    // Every quarantined file is kept, crashed cycles' included: the
    // run dir's and the checkpoint store's quarantine directories.
    for (const std::string &q :
         {config_.dir + "/quarantine",
          checkpointStoreDir(config_.dir) + "/quarantine"}) {
        if (std::filesystem::is_directory(q)) {
            result.quarantined += static_cast<std::size_t>(
                std::distance(std::filesystem::directory_iterator(q),
                              std::filesystem::directory_iterator()));
        }
    }

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
