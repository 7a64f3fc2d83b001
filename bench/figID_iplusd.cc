/**
 * @file
 * Figure ID (beyond the paper): I-side CGP and the D-side combined
 * engine sharing the L2 port.  Four points per workload — CGP alone,
 * D-combined alone, both un-throttled, both behind the accuracy-gated
 * arbiter — on a Wisconsin mix and the Wisconsin+TPC-H mix.
 *
 * The table of interest is the wasted-traffic one: throttling should
 * cut squashed + duplicate-merged prefetches versus the un-throttled
 * I+D point without giving up useful prefetches.
 */

#include <cstdint>
#include <iostream>

#include "common.hh"

namespace
{

std::uint64_t
usefulCount(const cgp::SimResult &r)
{
    return r.nl.prefHits + r.nl.delayedHits + r.cghc.prefHits +
        r.cghc.delayedHits + r.dpf.prefHits + r.dpf.delayedHits;
}

std::uint64_t
wastedCount(const cgp::SimResult &r)
{
    return r.squashedPrefetches + r.dSquashedPrefetches +
        r.arbNl.duplicateMerged + r.arbCghc.duplicateMerged +
        r.arbDpf.duplicateMerged;
}

} // anonymous namespace

int
main()
{
    using namespace cgp;
    using namespace cgp::bench;

    const exp::CampaignRun run = runPaperCampaign("figID_interaction");

    exp::printCycleTables(run, std::cout);
    std::cout << "\n";

    TablePrinter t("Figure ID — prefetch traffic");
    t.setHeader({"workload", "config", "issued I", "issued D",
                 "useful", "squashed+dup", "bus lines"});
    for (const auto &w : run.workloadNames()) {
        for (const auto &c : run.configLabels()) {
            const auto &r = run.at(w, c);
            t.addRow({w, c,
                      TablePrinter::num(r.nl.issued + r.cghc.issued),
                      TablePrinter::num(r.dpf.issued),
                      TablePrinter::num(usefulCount(r)),
                      TablePrinter::num(wastedCount(r)),
                      TablePrinter::num(r.busLines)});
        }
        t.addRule();
    }
    t.print(std::cout);
    std::cout << "\n";

    TablePrinter a("Figure ID — arbiter accounting (throttled point)");
    a.setHeader({"workload", "engine", "issued", "deferred",
                 "dropped", "dup-merged"});
    for (const auto &w : run.workloadNames()) {
        for (const auto &c : run.configLabels()) {
            const auto &r = run.at(w, c);
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
    a.print(std::cout);

    std::cout
        << "\nExpectation: the throttled I+D point shows fewer "
           "squashed+duplicate prefetches than the un-throttled one "
           "on wisc-large-1, while keeping at least 95% of its "
           "useful-prefetch count.\n";
    return 0;
}
