#include "metrics.hh"

#include <cmath>

#include "workloads.hh"

namespace perfbench
{

using namespace cgp;

void
Metrics::add(std::string name, double value, std::string unit)
{
    metrics_.push_back({std::move(name), value, std::move(unit)});
}

Json
Metrics::json() const
{
    Json out = Json::object();
    for (const Metric &m : metrics_) {
        Json v = Json::object();
        v.set("value", m.value);
        v.set("unit", m.unit);
        out.set(m.name, std::move(v));
    }
    return out;
}

bool
isPrimary(const SimConfig &config)
{
    return config.prefetch == PrefetchKind::Cgp && config.depth == 4 &&
        config.layout == LayoutKind::PettisHansen &&
        !config.perfectICache;
}

namespace
{

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Instructions and cycles simulated in detail (a sampled run's
 *  counters only move inside its detailed windows). */
std::uint64_t
detailedInstrs(const SimResult &r)
{
    return r.sampledEnabled ? r.sampled.detailedInstrs : r.instrs;
}

/** Core-cycles: a server run counts every core's clock; with
 *  @p busyOnly, only the cycles a core had a session to run. */
std::uint64_t
coreCycles(const SimResult &r, bool busyOnly = false)
{
    if (!r.serverEnabled)
        return r.cycles;
    std::uint64_t c = 0;
    for (const auto &core : r.server.perCore)
        c += core.cycles - (busyOnly ? core.idleCycles : 0);
    return c;
}

std::uint64_t
detailedCycles(const SimResult &r)
{
    return r.sampledEnabled && !r.serverEnabled
        ? r.sampled.detailedCycles
        : coreCycles(r);
}

void
addTo(PrefetchBreakdown &sum, const PrefetchBreakdown &b)
{
    sum.issued += b.issued;
    sum.prefHits += b.prefHits;
    sum.delayedHits += b.delayedHits;
    sum.useless += b.useless;
}

/** Σ cycles over the jobs whose config @p pick selects. */
template <typename Pick>
double
sumCycles(const std::vector<JobOutcome> &jobs, Pick pick)
{
    double c = 0.0;
    for (const JobOutcome &j : jobs) {
        if (pick(j.job.config))
            c += static_cast<double>(j.result.cycles);
    }
    return c;
}

} // namespace

void
addOutcomeMetrics(Metrics &m, const std::vector<JobOutcome> &timed,
                  const std::vector<JobOutcome> &reference)
{
    double cycles = 0.0, instrs = 0.0, calls = 0.0;
    for (const JobOutcome &j : timed) {
        if (!isPrimary(j.job.config))
            continue;
        const SimResult &r = j.result;
        cycles += static_cast<double>(coreCycles(r, true));
        instrs += static_cast<double>(r.instrs);
        calls += ratio(static_cast<double>(r.instrs), r.instrsPerCall);
    }
    m.add("cpi_cgp", ratio(cycles, instrs), "cycles/instr");

    const auto isNl = [](const SimConfig &c) {
        return c.prefetch == PrefetchKind::NextNLine && c.depth == 4 &&
            !c.perfectICache;
    };
    const auto isPerfect = [](const SimConfig &c) {
        return c.perfectICache;
    };
    const double cgp = sumCycles(timed, isPrimary);
    m.add("cgp_over_nl", ratio(sumCycles(timed, isNl), cgp), "ratio");
    m.add("cgp_over_perfect", ratio(cgp, sumCycles(timed, isPerfect)),
          "ratio");

    double p50 = 0.0, p95 = 0.0, qpm = 0.0;
    for (const JobOutcome &j : timed) {
        if (j.result.serverEnabled) {
            p50 = static_cast<double>(j.result.server.latencyP50) / 1e3;
            p95 = static_cast<double>(j.result.server.latencyP95) / 1e3;
            qpm = j.result.server.queriesPerMcycle();
        }
    }
    m.add("query_p50_kcycles", p50, "kcycles");
    m.add("query_p95_kcycles", p95, "kcycles");
    m.add("queries_per_mcycle", qpm, "1/Mcycle");

    // Whole-run CPI of the sampled jobs against their full-detail
    // twins, summed over the mixes.
    double sc = 0.0, si = 0.0, fc = 0.0, fi = 0.0;
    for (const JobOutcome &j : timed) {
        if (!j.result.sampledEnabled)
            continue;
        for (const JobOutcome &f : reference) {
            if (f.job.workload == j.job.workload &&
                f.job.label == fullDetailLabel(j.job.label)) {
                sc += static_cast<double>(j.result.cycles);
                si += static_cast<double>(j.result.instrs);
                fc += static_cast<double>(f.result.cycles);
                fi += static_cast<double>(f.result.instrs);
            }
        }
    }
    const double full_cpi = ratio(fc, fi);
    m.add("sampled_cpi_err",
          ratio(std::abs(ratio(sc, si) - full_cpi), full_cpi), "ratio");

    m.add("trace.instrs_per_call", ratio(instrs, calls), "instrs/call");
}

void
addLayerMetrics(Metrics &m, const std::vector<JobOutcome> &traced)
{
    double instrs = 0.0, cycles = 0.0, stall = 0.0, idle = 0.0;
    double mispredicts = 0.0, l1iMiss = 0.0, squashed = 0.0;
    double l1dMiss = 0.0, l2Miss = 0.0, lines = 0.0, portWait = 0.0;
    double cghcHits = 0.0, cghcAccesses = 0.0;
    double arbAttempts = 0.0, arbDeferred = 0.0, arbDropped = 0.0;
    double binds = 0.0, utilSum = 0.0, utilCores = 0.0;
    double windows = 0.0, smpDetailed = 0.0, smpCycles = 0.0;
    double ciRel = 0.0, smpJobs = 0.0;
    PrefetchBreakdown nl, cghc, dpf;

    for (const JobOutcome &j : traced) {
        if (!isPrimary(j.job.config))
            continue;
        const SimResult &r = j.result;
        instrs += static_cast<double>(detailedInstrs(r));
        cycles += static_cast<double>(detailedCycles(r));
        stall += static_cast<double>(j.extras.fetchStallCycles);
        idle += static_cast<double>(j.extras.idleCycles);
        portWait += static_cast<double>(j.extras.portWaitCycles);
        mispredicts += static_cast<double>(r.branchMispredicts);
        l1iMiss += static_cast<double>(r.icacheMisses);
        squashed += static_cast<double>(r.squashedPrefetches);
        l1dMiss += static_cast<double>(r.dcacheMisses);
        l2Miss += static_cast<double>(r.l2Misses);
        lines += static_cast<double>(r.busLines);
        cghcHits += static_cast<double>(r.cghcHits);
        cghcAccesses += static_cast<double>(r.cghcAccesses);
        addTo(nl, r.nl);
        addTo(cghc, r.cghc);
        addTo(dpf, r.dpf);
        for (const ArbiterBreakdown *a : {&r.arbNl, &r.arbCghc, &r.arbDpf}) {
            arbAttempts += static_cast<double>(a->issued + a->dropped +
                                               a->duplicateMerged);
            arbDeferred += static_cast<double>(a->deferred);
            arbDropped += static_cast<double>(a->dropped);
        }
        if (r.serverEnabled) {
            binds += static_cast<double>(r.server.binds);
            for (const auto &c : r.server.perCore) {
                utilSum += c.utilization();
                utilCores += 1.0;
            }
        }
        if (r.sampledEnabled) {
            windows += static_cast<double>(r.sampled.windows);
            smpDetailed += static_cast<double>(r.sampled.detailedCycles);
            smpCycles += static_cast<double>(r.cycles);
            const auto &cpi = r.sampled.cpi;
            ciRel += ratio(cpi.ciHigh - cpi.ciLow, 2.0 * cpi.mean);
            smpJobs += 1.0;
        }
    }
    const double kinst = instrs / 1e3;

    m.add("cpu.ipc", ratio(instrs, cycles), "instrs/cycle");
    m.add("cpu.fetch_stall_frac", ratio(stall, cycles), "ratio");
    m.add("cpu.idle_frac", ratio(idle, cycles), "ratio");
    m.add("branch.mispredict_pki", ratio(mispredicts, kinst), "1/kinstr");
    m.add("l1i.mpki", ratio(l1iMiss, kinst), "1/kinstr");
    m.add("l1i.squashed_pki", ratio(squashed, kinst), "1/kinstr");
    m.add("nl.useful_frac", nl.usefulFraction(), "ratio");
    m.add("cgp.useful_frac", cghc.usefulFraction(), "ratio");
    m.add("cghc.hit_rate", ratio(cghcHits, cghcAccesses), "ratio");
    m.add("prefetch.issued_pki",
          ratio(static_cast<double>(nl.issued + cghc.issued), kinst),
          "1/kinstr");
    m.add("l1d.mpki", ratio(l1dMiss, kinst), "1/kinstr");
    m.add("l2.mpki", ratio(l2Miss, kinst), "1/kinstr");
    m.add("port.lines_pki", ratio(lines, kinst), "1/kinstr");
    m.add("port.wait_cycles", portWait, "cycles");
    m.add("dpf.useful_frac", dpf.usefulFraction(), "ratio");
    m.add("dpf.issued_pki", ratio(static_cast<double>(dpf.issued), kinst),
          "1/kinstr");
    m.add("arb.deferred_frac", ratio(arbDeferred, arbAttempts), "ratio");
    m.add("arb.dropped_frac", ratio(arbDropped, arbAttempts), "ratio");
    m.add("server.binds", binds, "count");
    m.add("server.core_util", ratio(utilSum, utilCores), "ratio");
    m.add("sample.windows", windows, "count");
    m.add("sample.detailed_frac", ratio(smpDetailed, smpCycles), "ratio");
    m.add("sample.cpi_ci_rel", ratio(ciRel, smpJobs), "ratio");
}

} // namespace perfbench
