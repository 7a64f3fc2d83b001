#include "exp/figures.hh"

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "codegen/layout.hh"
#include "codegen/profile.hh"
#include "exp/artifact.hh"
#include "exp/campaigns.hh"
#include "harness/workload.hh"
#include "trace/expand.hh"
#include "util/table.hh"

namespace cgp::exp
{

namespace
{

void
addTo(PrefetchBreakdown &sum, const PrefetchBreakdown &p)
{
    sum.issued += p.issued;
    sum.prefHits += p.prefHits;
    sum.delayedHits += p.delayedHits;
    sum.useless += p.useless;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0
        ? 0.0
        : static_cast<double>(num) / static_cast<double>(den);
}

double
relErr(double estimate, double truth)
{
    return truth == 0.0 ? 0.0
                        : std::abs(estimate - truth) /
            std::abs(truth);
}

/** "  <what><geomean speedup of b over a>  (paper ~<paper>)" */
void
geomeanLine(std::ostream &os, const CampaignRun &run,
            const char *what, const char *a, const char *b,
            const char *paper)
{
    os << "  " << what
       << TablePrinter::fixed(geomeanSpeedup(run, a, b), 3)
       << "  (paper ~" << paper << ")\n";
}

/** Calls @p row(job, result) for every completed job of @p run that
 *  @p keep accepts, adding a rule to each of @p tables after every
 *  workload that had such a job. */
template <typename Keep, typename Row>
void
forEachJob(const CampaignRun &run,
           std::initializer_list<TablePrinter *> tables, Keep keep,
           Row row)
{
    for (const std::string &w : run.workloadNames()) {
        bool any = false;
        for (const JobSpec &j : run.jobs) {
            if (j.workload != w)
                continue;
            const SimResult *r = run.find(j.workload, j.label);
            if (r == nullptr || !keep(*r))
                continue;
            any = true;
            row(j, *r);
        }
        if (any) {
            for (TablePrinter *t : tables)
                t->addRule();
        }
    }
}

bool
anyJob(const CampaignRun &run, bool SimResult::*flag)
{
    for (const JobSpec &j : run.jobs) {
        const SimResult *r = run.find(j.workload, j.label);
        if (r != nullptr && r->*flag)
            return true;
    }
    return false;
}

void
printServerTables(const CampaignRun &run, std::ostream &os)
{
    TablePrinter s("Server — throughput and latency");
    s.setHeader({"job", "workload", "config", "cores", "sessions",
                 "queries", "q/Mcycle", "q/sec @1GHz", "p50", "p95",
                 "p99", "port wait"});
    TablePrinter pc("Server — per-core breakdown");
    pc.setHeader({"job", "workload", "config", "core", "util",
                  "instrs", "I$ misses", "D$ misses", "bus lines",
                  "port wait", "queries", "binds"});
    forEachJob(
        run, {&s}, [](const SimResult &r) { return r.serverEnabled; },
        [&](const JobSpec &j, const SimResult &r) {
            const auto &srv = r.server;
            const std::string job = std::to_string(j.index);
            s.addRow({job, j.workload, j.label,
                      TablePrinter::num(srv.cores),
                      TablePrinter::num(srv.sessions),
                      TablePrinter::num(srv.queriesServed),
                      TablePrinter::fixed(srv.queriesPerMcycle(), 2),
                      TablePrinter::fixed(
                          srv.queriesPerMcycle() * 1000.0, 0),
                      TablePrinter::num(srv.latencyP50),
                      TablePrinter::num(srv.latencyP95),
                      TablePrinter::num(srv.latencyP99),
                      TablePrinter::num(srv.portWaitCycles)});
            for (std::size_t c = 0; c < srv.perCore.size(); ++c) {
                const auto &core = srv.perCore[c];
                pc.addRow({job, j.workload, j.label,
                           std::to_string(c),
                           TablePrinter::percent(core.utilization()),
                           TablePrinter::num(core.instrs),
                           TablePrinter::num(core.icacheMisses),
                           TablePrinter::num(core.dcacheMisses),
                           TablePrinter::num(core.busLines),
                           TablePrinter::num(core.portWaitCycles),
                           TablePrinter::num(core.queries),
                           TablePrinter::num(core.binds)});
            }
            pc.addRule();
        });
    s.print(os);
    os << "\n";
    pc.print(os);
}

std::string
ciCell(const sample::SampledEstimate &e, int digits)
{
    return TablePrinter::fixed(e.mean, digits) + " [" +
        TablePrinter::fixed(e.ciLow, digits) + ", " +
        TablePrinter::fixed(e.ciHigh, digits) + "]";
}

/** The full-detail job of the same workload and machine config as
 *  sampled job @p j (its label up to "+smp"); null if absent. */
const SimResult *
fullDetailTwin(const CampaignRun &run, const JobSpec &j)
{
    const std::string base = j.label.substr(0, j.label.find("+smp"));
    const SimResult *r = run.find(j.workload, base);
    return r == nullptr || r->sampledEnabled ? nullptr : r;
}

/** Sampled jobs: each estimate with its 95% CI, and the cycle-loop
 *  speedup; the truth columns need a full-detail twin, "-" without. */
void
printSampledTables(const CampaignRun &run, std::ostream &os)
{
    TablePrinter acc("Sampled accuracy — estimate vs full detail");
    acc.setHeader({"job", "workload", "config", "metric",
                   "estimate [95% CI]", "truth", "in CI",
                   "rel err"});
    TablePrinter spd("Sampled speedup — detailed cycles vs full");
    spd.setHeader({"job", "workload", "config", "windows",
                   "detailed cyc", "full cyc", "speedup",
                   "clock err"});
    forEachJob(
        run, {&acc, &spd},
        [](const SimResult &r) { return r.sampledEnabled; },
        [&](const JobSpec &j, const SimResult &r) {
            const SimResult *base = fullDetailTwin(run, j);
            const SimResult none;
            const SimResult &t = base ? *base : none;
            const std::string job = std::to_string(j.index);
            struct MetricRow
            {
                const char *name;
                const sample::SampledEstimate &est;
                double truth;
                int digits;
            };
            const MetricRow rows[] = {
                {"CPI", r.sampled.cpi, ratio(t.cycles, t.instrs), 3},
                {"L1-I miss", r.sampled.l1iMissRate,
                 ratio(t.icacheMisses, t.icacheAccesses), 4},
                {"L1-D miss", r.sampled.l1dMissRate,
                 ratio(t.dcacheMisses, t.dcacheAccesses), 4},
            };
            for (const MetricRow &m : rows) {
                acc.addRow(
                    {job, j.workload, j.label, m.name,
                     ciCell(m.est, m.digits),
                     base ? TablePrinter::fixed(m.truth, m.digits)
                          : "-",
                     !base                   ? "-"
                         : m.est.contains(m.truth) ? "yes"
                                                   : "NO",
                     base ? TablePrinter::percent(
                                relErr(m.est.mean, m.truth))
                          : "-"});
            }
            const std::uint64_t detailed = r.sampled.detailedCycles;
            spd.addRow(
                {job, j.workload, j.label,
                 TablePrinter::num(r.sampled.windows),
                 TablePrinter::num(detailed),
                 base ? TablePrinter::num(base->cycles) : "-",
                 base && detailed != 0
                     ? TablePrinter::fixed(
                           ratio(base->cycles, detailed), 1) +
                         "x"
                     : "-",
                 base ? TablePrinter::percent(relErr(
                            static_cast<double>(r.cycles),
                            static_cast<double>(base->cycles)))
                      : "-"});
        });
    acc.print(os);
    os << "\n";
    spd.print(os);
}

} // anonymous namespace

void
printFailures(const CampaignRun &run, std::ostream &os)
{
    if (run.failures.empty())
        return;
    TablePrinter t("Failed jobs (degraded campaign)");
    t.setHeader({"job", "workload", "config", "kind", "error"});
    for (const JobFailure &f : run.failures) {
        t.addRow({std::to_string(f.index),
                  run.jobs[f.index].workload,
                  run.jobs[f.index].label, f.kind, f.message});
    }
    t.print(os);
}

void
printCampaign(const CampaignRun &run, std::ostream &os)
{
    const CampaignEntry *entry = findCampaign(run.name);
    std::size_t normIndex = 0;
    if (entry != nullptr && entry->normalizeTo != nullptr) {
        const std::vector<std::string> labels = run.configLabels();
        for (std::size_t i = 0; i < labels.size(); ++i) {
            if (labels[i] == entry->normalizeTo)
                normIndex = i;
        }
    }
    printCycleTables(run, os, normIndex);

    if (entry != nullptr && entry->print != nullptr) {
        os << "\n";
        if (run.failures.empty()) {
            entry->print(run, os);
        } else {
            os << "figure section skipped: " << run.failures.size()
               << " job(s) failed\n";
        }
    }
    if (anyJob(run, &SimResult::serverEnabled)) {
        os << "\n";
        printServerTables(run, os);
    }
    if (anyJob(run, &SimResult::sampledEnabled)) {
        os << "\n";
        printSampledTables(run, os);
    }
    if (!run.failures.empty()) {
        os << "\n";
        printFailures(run, os);
    }
}

void
printFig4(const CampaignRun &run, std::ostream &os)
{
    os << "Geometric-mean speedups (paper reference in "
          "parentheses):\n";
    geomeanLine(os, run, "OM over O5:        ", "O5", "O5+OM", "1.11");
    geomeanLine(os, run, "CGP_4 over O5:     ", "O5", "O5+CGP_4",
                "1.40");
    geomeanLine(os, run, "OM+CGP_4 over O5:  ", "O5", "O5+OM+CGP_4",
                "1.45");
    geomeanLine(os, run, "OM+CGP_4 over OM:  ", "O5+OM",
                "O5+OM+CGP_4", "1.30");
}

void
printFig5(const CampaignRun &, std::ostream &os)
{
    os << "Paper reference: CGHC-1K ~1.12x the infinite CGHC's "
          "cycles; CGHC-2K+32K and CGHC-32K within a few percent of "
          "infinite; on wisc+tpch the infinite CGHC is slightly "
          "worse than the best finite configurations.\n";
}

namespace
{

/** @name Figures 7 to 9: views of fig6's runs, printed after its
 *  Figure 6 section. */
/** @{ */
void
printFig7Misses(const CampaignRun &run, std::ostream &os)
{
    TablePrinter t("Figure 7 — L1 I-cache demand misses");
    t.setHeader({"workload", "O5", "O5+OM", "OM+NL_4", "OM+CGP_4",
                 "OM/O5", "NL/O5", "CGP/O5"});
    double om_sum = 0, nl_sum = 0, cgp_sum = 0, o5_sum = 0;
    for (const std::string &w : run.workloadNames()) {
        const auto &o5 = run.at(w, "O5");
        const auto &om = run.at(w, "O5+OM");
        const auto &nl = run.at(w, "O5+OM+NL_4");
        const auto &cg = run.at(w, "O5+OM+CGP_4");
        o5_sum += static_cast<double>(o5.icacheMisses);
        om_sum += static_cast<double>(om.icacheMisses);
        nl_sum += static_cast<double>(nl.icacheMisses);
        cgp_sum += static_cast<double>(cg.icacheMisses);
        const auto frac = [&o5](std::uint64_t v) {
            return TablePrinter::fixed(ratio(v, o5.icacheMisses), 3);
        };
        t.addRow({w, TablePrinter::num(o5.icacheMisses),
                  TablePrinter::num(om.icacheMisses),
                  TablePrinter::num(nl.icacheMisses),
                  TablePrinter::num(cg.icacheMisses),
                  frac(om.icacheMisses), frac(nl.icacheMisses),
                  frac(cg.icacheMisses)});
    }
    t.print(os);

    os << "\nAggregate miss reduction vs O5 "
          "(paper: OM ~21%, OM+NL ~77%, OM+CGP ~87%):\n";
    os << "  OM:     " << TablePrinter::percent(1.0 - om_sum / o5_sum)
       << "\n";
    os << "  OM+NL:  " << TablePrinter::percent(1.0 - nl_sum / o5_sum)
       << "\n";
    os << "  OM+CGP: "
       << TablePrinter::percent(1.0 - cgp_sum / o5_sum) << "\n";
}

/** Figure 8's prefetchers, in its row order. */
const char *const fig8Configs[] = {"O5+OM+NL_2", "O5+OM+NL_4",
                                   "O5+OM+CGP_2", "O5+OM+CGP_4"};

void
printFig8Breakdown(const CampaignRun &run, std::ostream &os)
{
    TablePrinter t("Figure 8 — prefetch classification (all "
                   "workloads summed)");
    t.setHeader({"config", "issued", "pref hits", "delayed hits",
                 "useless", "useful frac", "bus lines"});
    for (const char *c : fig8Configs) {
        PrefetchBreakdown sum;
        std::uint64_t bus = 0;
        for (const std::string &w : run.workloadNames()) {
            const SimResult &r = run.at(w, c);
            addTo(sum, r.totalPrefetch());
            bus += r.busLines;
        }
        t.addRow({c, TablePrinter::num(sum.issued),
                  TablePrinter::num(sum.prefHits),
                  TablePrinter::num(sum.delayedHits),
                  TablePrinter::num(sum.useless),
                  TablePrinter::percent(sum.usefulFraction()),
                  TablePrinter::num(bus)});
    }
    t.print(os);
    os << "\n";

    TablePrinter pw("Figure 8 — per-workload breakdown");
    pw.setHeader({"workload", "config", "pref hits", "delayed hits",
                  "useless"});
    for (const std::string &w : run.workloadNames()) {
        for (const char *c : fig8Configs) {
            const auto p = run.at(w, c).totalPrefetch();
            pw.addRow({w, c, TablePrinter::num(p.prefHits),
                       TablePrinter::num(p.delayedHits),
                       TablePrinter::num(p.useless)});
        }
        pw.addRule();
    }
    pw.print(os);

    os << "\nPaper reference: CGP issues ~3% more useful prefetches "
          "than NL with comparable useless counts; CGP_4's delayed "
          "hits are fewer than NL_4's (better timeliness).\n";
}

void
printFig9Sources(const CampaignRun &run, std::ostream &os)
{
    TablePrinter t("Figure 9 — CGP_4 prefetches by source");
    t.setHeader({"workload", "source", "issued", "pref hits",
                 "delayed hits", "useless", "useful frac"});
    const auto add_row = [&t](const std::string &w, const char *src,
                              const PrefetchBreakdown &p) {
        t.addRow({w, src, TablePrinter::num(p.issued),
                  TablePrinter::num(p.prefHits),
                  TablePrinter::num(p.delayedHits),
                  TablePrinter::num(p.useless),
                  TablePrinter::percent(p.usefulFraction())});
    };

    PrefetchBreakdown nl_sum, cghc_sum;
    for (const std::string &w : run.workloadNames()) {
        const SimResult &r = run.at(w, "O5+OM+CGP_4");
        add_row(w, "NL", r.nl);
        add_row(w, "CGHC", r.cghc);
        t.addRule();
        addTo(nl_sum, r.nl);
        addTo(cghc_sum, r.cghc);
    }
    add_row("TOTAL", "NL", nl_sum);
    add_row("TOTAL", "CGHC", cghc_sum);
    t.print(os);

    os << "\nUseless prefetches issued by the NL part: "
       << TablePrinter::percent(ratio(
              nl_sum.useless, nl_sum.useless + cghc_sum.useless))
       << "  (paper ~82%)\n";
    os << "NL useful fraction (paper ~40%):   "
       << TablePrinter::percent(nl_sum.usefulFraction()) << "\n";
    os << "CGHC useful fraction (paper ~77%): "
       << TablePrinter::percent(cghc_sum.usefulFraction()) << "\n";
}
/** @} */

} // anonymous namespace

void
printFig6(const CampaignRun &run, std::ostream &os)
{
    os << "Geometric-mean comparisons (paper reference):\n";
    geomeanLine(os, run, "OM+CGP_4 over OM+NL_4:      ", "O5+OM+NL_4",
                "O5+OM+CGP_4", "1.07");
    geomeanLine(os, run, "perf-Icache over OM+CGP_4:  ", "O5+OM+CGP_4",
                "O5+OM+perf-Icache", "1.19");

    os << "\nInstructions between successive calls (paper ~43):\n";
    for (const std::string &w : run.workloadNames()) {
        os << "  " << w << ": "
           << TablePrinter::fixed(run.at(w, "O5").instrsPerCall, 1)
           << "\n";
    }

    os << "\n";
    printFig7Misses(run, os);
    os << "\n";
    printFig8Breakdown(run, os);
    os << "\n";
    printFig9Sources(run, os);
}

void
printFig10(const CampaignRun &run, std::ostream &os)
{
    TablePrinter t("Figure 10 — CPU2000 under OM, NL_4, CGP_4, "
                   "perfect I-cache");
    t.setHeader({"benchmark", "O5+OM cycles", "I$ miss ratio",
                 "NL_4 speedup", "CGP_4 speedup", "perf-I$ gap"});
    for (const std::string &w : run.workloadNames()) {
        const auto &om = run.at(w, "O5+OM");
        const auto &nl = run.at(w, "O5+OM+NL_4");
        const auto &cg = run.at(w, "O5+OM+CGP_4");
        const auto &pf = run.at(w, "O5+OM+perf-Icache");
        t.addRow({w, TablePrinter::num(om.cycles),
                  TablePrinter::percent(
                      ratio(om.icacheMisses, om.icacheAccesses), 2),
                  TablePrinter::fixed(ratio(om.cycles, nl.cycles), 3),
                  TablePrinter::fixed(ratio(om.cycles, cg.cycles), 3),
                  TablePrinter::percent(ratio(om.cycles, pf.cycles) -
                                        1.0)});
    }
    t.print(os);

    os << "\nPaper reference: only gcc (17% gap, 0.5% miss ratio) and "
          "crafty (9%, 0.3%) leave room for prefetching, and there "
          "NL_4 ~= CGP_4; the other five are I-cache insensitive, so "
          "CGP is unnecessary for them.\n";
}

void
printFigD(const CampaignRun &run, std::ostream &os)
{
    TablePrinter t("Figure D — L1-D demand misses");
    t.setHeader({"workload", "config", "D$ accesses", "D$ misses",
                 "vs none", "L2 misses"});
    for (const std::string &w : run.workloadNames()) {
        const std::uint64_t base =
            run.at(w, run.configLabels().front()).dcacheMisses;
        for (const std::string &c : run.configLabels()) {
            const SimResult &r = run.at(w, c);
            t.addRow({w, c, TablePrinter::num(r.dcacheAccesses),
                      TablePrinter::num(r.dcacheMisses),
                      base > 0 ? TablePrinter::fixed(
                                     ratio(r.dcacheMisses, base), 3)
                               : "-",
                      TablePrinter::num(r.l2Misses)});
        }
        t.addRule();
    }
    t.print(os);
    os << "\n";

    TablePrinter p("Figure D — D-prefetch classification");
    p.setHeader({"workload", "config", "issued", "pref hits",
                 "delayed hits", "useless", "useful frac",
                 "squashed"});
    for (const std::string &w : run.workloadNames()) {
        for (const std::string &c : run.configLabels()) {
            const SimResult &r = run.at(w, c);
            if (r.dpf.issued == 0)
                continue;
            p.addRow({w, c, TablePrinter::num(r.dpf.issued),
                      TablePrinter::num(r.dpf.prefHits),
                      TablePrinter::num(r.dpf.delayedHits),
                      TablePrinter::num(r.dpf.useless),
                      TablePrinter::percent(r.dpf.usefulFraction()),
                      TablePrinter::num(r.dSquashedPrefetches)});
        }
        p.addRule();
    }
    p.print(os);

    os << "\nExpectation: the combined engine cuts L1-D demand misses "
          "below the no-dprefetch baseline on both workloads; "
          "semantic hints cover pointer-chasing B-tree descents that "
          "stride cannot.\n";
}

void
printFigID(const CampaignRun &run, std::ostream &os)
{
    TablePrinter t("Figure ID — prefetch traffic");
    t.setHeader({"workload", "config", "issued I", "issued D",
                 "useful", "squashed+dup", "bus lines"});
    for (const std::string &w : run.workloadNames()) {
        for (const std::string &c : run.configLabels()) {
            const SimResult &r = run.at(w, c);
            const std::uint64_t useful = r.nl.prefHits +
                r.nl.delayedHits + r.cghc.prefHits +
                r.cghc.delayedHits + r.dpf.prefHits +
                r.dpf.delayedHits;
            const std::uint64_t wasted = r.squashedPrefetches +
                r.dSquashedPrefetches + r.arbNl.duplicateMerged +
                r.arbCghc.duplicateMerged + r.arbDpf.duplicateMerged;
            t.addRow({w, c,
                      TablePrinter::num(r.nl.issued + r.cghc.issued),
                      TablePrinter::num(r.dpf.issued),
                      TablePrinter::num(useful),
                      TablePrinter::num(wasted),
                      TablePrinter::num(r.busLines)});
        }
        t.addRule();
    }
    t.print(os);
    os << "\n";

    TablePrinter a("Figure ID — arbiter accounting (throttled point)");
    a.setHeader({"workload", "engine", "issued", "deferred",
                 "dropped", "dup-merged"});
    for (const std::string &w : run.workloadNames()) {
        for (const std::string &c : run.configLabels()) {
            const SimResult &r = run.at(w, c);
            const auto row = [&](const char *name,
                                 const ArbiterBreakdown &b) {
                if (!b.any())
                    return;
                a.addRow({w, name, TablePrinter::num(b.issued),
                          TablePrinter::num(b.deferred),
                          TablePrinter::num(b.dropped),
                          TablePrinter::num(b.duplicateMerged)});
            };
            row("NL", r.arbNl);
            row("CGHC", r.arbCghc);
            row("D", r.arbDpf);
        }
        a.addRule();
    }
    a.print(os);

    os << "\nExpectation: the throttled I+D point shows fewer "
          "squashed+duplicate prefetches than the un-throttled one on "
          "wisc-large-1, while keeping at least 95% of its "
          "useful-prefetch count.\n";
}

void
printServerScale(const CampaignRun &, std::ostream &os)
{
    os << "Expectation: adding cores raises throughput sub-linearly "
          "(shared-port wait cycles grow with the core count), and "
          "the prefetching configuration recovers part of the gap "
          "by hiding the per-core cold-cache penalty after each "
          "session bind.\n";
}

void
printFigSampled(const CampaignRun &, std::ostream &os)
{
    os << "Expectation: every 95% CI contains its full-detail ground "
          "truth with single-digit relative error, while the 10:1 "
          "window/period points run the detailed cycle loop at "
          "least 5x less than the full-detail baseline.\n";
}

void
printAblationRanl(const CampaignRun &run, std::ostream &os)
{
    TablePrinter t("Useful prefetch fractions");
    t.setHeader({"config", "useful frac", "useless"});
    for (const std::string &c : run.configLabels()) {
        PrefetchBreakdown sum;
        for (const std::string &w : run.workloadNames())
            addTo(sum, run.at(w, c).totalPrefetch());
        if (sum.issued == 0) // the no-prefetch baseline
            continue;
        t.addRow({c, TablePrinter::percent(sum.usefulFraction()),
                  TablePrinter::num(sum.useless)});
    }
    t.print(os);

    os << "\nPaper reference: run-ahead NL prefetches too many "
          "useless far-ahead lines and misses needed near lines; "
          "overall performance is much worse than plain NL.\n";
}

void
printAblationSwCgp(const CampaignRun &run, std::ostream &os)
{
    TablePrinter t("I-cache misses");
    t.setHeader({"workload", "OM", "OM+NL_4", "OM+SWCGP_4",
                 "OM+CGP_4"});
    for (const std::string &w : run.workloadNames()) {
        std::vector<std::string> row{w};
        for (const std::string &c : run.configLabels())
            row.push_back(
                TablePrinter::num(run.at(w, c).icacheMisses));
        t.addRow(row);
    }
    t.print(os);
}

void
printAblationAssoc(const CampaignRun &run, std::ostream &os)
{
    TablePrinter t("CGHC associativity (§3.2: direct-mapped "
                   "suffices)");
    std::vector<std::string> header{"workload"};
    const std::vector<std::string> labels = run.configLabels();
    header.insert(header.end(), labels.begin(), labels.end());
    t.setHeader(header);
    for (const std::string &w : run.workloadNames()) {
        std::vector<std::string> row{w};
        const std::uint64_t base = run.at(w, labels[0]).cycles;
        for (const std::string &c : labels) {
            row.push_back(TablePrinter::fixed(
                ratio(run.at(w, c).cycles, base), 4));
        }
        t.addRow(row);
    }
    t.print(os);

    os << "\nExpected: SW-CGP recovers much of hardware CGP's benefit "
          "using profile feedback alone, but cannot adapt to runtime "
          "call sequences; CGHC associativity barely matters, "
          "confirming the paper's direct-mapped choice.\n";
}

void
showTable1(std::ostream &os)
{
    const SimConfig c = SimConfig::o5();

    TablePrinter t("Table 1. Microarchitecture Parameter Values");
    t.setHeader({"Parameter", "Value"});
    t.addRow({"Fetch, Decode & Issue Width",
              std::to_string(c.core.fetchWidth)});
    t.addRow({"Inst Fetch & L/S Queue Size",
              std::to_string(c.core.fetchQueueSize)});
    t.addRow({"Reservation stations",
              std::to_string(c.core.rsSize)});
    t.addRow({"Functional Units",
              std::to_string(c.core.intAlus) + "add/" +
                  std::to_string(c.core.multipliers) + "mult"});
    t.addRow({"Memory system ports to CPU",
              std::to_string(c.core.memPorts)});
    t.addRow({"L1 I and D cache each",
              std::to_string(c.mem.l1i.sizeBytes / 1024) + "KB," +
                  std::to_string(c.mem.l1i.assoc) + "-way," +
                  std::to_string(c.mem.l1i.lineBytes) + "byte"});
    t.addRow({"Unified L2 cache",
              std::to_string(c.mem.l2.sizeBytes / (1024 * 1024)) +
                  "MB," + std::to_string(c.mem.l2.assoc) + "-way," +
                  std::to_string(c.mem.l2.lineBytes) + "byte"});
    t.addRow({"L1 hit latency(cycles)",
              std::to_string(c.mem.l1i.hitLatency)});
    t.addRow({"L2 hit latency(cycles)",
              std::to_string(c.mem.l2.hitLatency)});
    t.addRow({"Mem latency (cycles)", "80"});
    t.addRow({"Branch Predictor",
              "2-lev," +
                  std::to_string((1u << c.core.branch.phtBits) /
                                 1024) +
                  "K-entry"});
    t.print(os);
}

void
showCallGraph(std::ostream &os)
{
    std::cerr << "building database workloads...\n";
    DbWorkloadSet set = WorkloadFactory::buildDbSet();

    TablePrinter t("Call graph statistics (paper §3.2)");
    t.setHeader({"program", "calling funcs", "<8 distinct callees",
                 "max callees"});
    const auto add_row = [&t](const std::string &name,
                              const ExecutionProfile &profile) {
        const CallGraphAnalyzer a(profile);
        t.addRow({name, TablePrinter::num(a.callerCount()),
                  TablePrinter::percent(
                      a.fractionWithFewerCalleesThan(8)),
                  TablePrinter::num(a.maxDistinctCallees())});
    };
    add_row("dbms (wisc-prof + wisc+tpch profile)", *set.omProfile);
    for (const Workload &w : WorkloadFactory::buildCpu2000Suite())
        add_row(w.name, *w.omProfile);
    t.print(os);

    os << "\nPaper reference: ~80% of functions call fewer than 8 "
          "distinct functions, justifying 8 callee slots per CGHC "
          "entry (one 32-byte line).\n";
}

void
showAnatomy(std::ostream &os)
{
    std::cerr << "building database workloads...\n";
    DbWorkloadSet set = WorkloadFactory::buildDbSet();

    TablePrinter t("Workload anatomy");
    t.setHeader({"workload", "events", "instrs", "calls",
                 "instr/call", "I-lines(O5)", "I-KB(O5)",
                 "I-lines(OM)", "I-KB(OM)"});

    for (const Workload &w : set.workloads) {
        LayoutBuilder builder(*w.registry);
        std::uint64_t instrs = 0, calls = 0;
        // Distinct 32-byte I-cache lines the trace touches.
        const auto lines = [&w](const CodeImage &image,
                                std::uint64_t *instrsOut,
                                std::uint64_t *callsOut) {
            InstructionExpander ex(*w.registry, image, *w.trace);
            std::unordered_set<Addr> seen;
            DynInst i;
            while (ex.next(i))
                seen.insert(i.pc >> 5);
            if (instrsOut != nullptr) {
                *instrsOut = ex.emittedInstrs();
                *callsOut = ex.emittedCalls();
            }
            return seen.size();
        };
        const std::size_t lines_o5 =
            lines(builder.buildOriginal(), &instrs, &calls);
        const std::size_t lines_om = lines(
            builder.buildPettisHansen(*w.omProfile), nullptr, nullptr);
        const auto kb = [](std::size_t n) {
            return TablePrinter::fixed(
                static_cast<double>(n) * 32.0 / 1024.0, 1);
        };

        t.addRow({w.name, TablePrinter::num(w.trace->size()),
                  TablePrinter::num(instrs), TablePrinter::num(calls),
                  TablePrinter::fixed(ratio(instrs, calls), 1),
                  TablePrinter::num(lines_o5), kb(lines_o5),
                  TablePrinter::num(lines_om), kb(lines_om)});
    }
    t.print(os);

    // Conflict-vs-capacity: misses under higher associativity.
    os << "\nL1I misses vs associativity (O5 | OM):\n";
    for (const Workload &w : set.workloads) {
        os << "  " << w.name << ":";
        for (const unsigned assoc : {2u, 8u, 32u}) {
            SimConfig c = SimConfig::o5();
            c.mem.l1i.assoc = assoc;
            const SimResult r5 = runSimulation(w, c);
            SimConfig cm = SimConfig::o5Om();
            cm.mem.l1i.assoc = assoc;
            const SimResult rm = runSimulation(w, cm);
            os << "  " << assoc << "way:" << r5.icacheMisses << "|"
               << rm.icacheMisses;
        }
        os << "\n";
    }

    // CGHC behaviour under CGP_4.
    os << "\nCGHC behaviour (OM+CGP_4):\n";
    for (const Workload &w : set.workloads) {
        const SimResult r = runSimulation(
            w, SimConfig::withCgp(LayoutKind::PettisHansen, 4));
        os << "  " << w.name << ": accesses=" << r.cghcAccesses
           << " hits=" << r.cghcHits
           << " cghc_issued=" << r.cghc.issued
           << " nl_issued=" << r.nl.issued
           << " squashed=" << r.squashedPrefetches << "\n";
    }
}

} // namespace cgp::exp
