/**
 * @file
 * Figure D (beyond the paper): data-side prefetching on the L1-D
 * path.  Compares no-dprefetch against stride, miss-correlation,
 * DB-semantic, and the combined engine on a Wisconsin mix and the
 * Wisconsin+TPC-H mix: L1-D demand misses, plus issued D-prefetches
 * split into pref hits / delayed hits / useless.
 */

#include <iostream>

#include "common.hh"

int
main()
{
    using namespace cgp;
    using namespace cgp::bench;

    const exp::CampaignRun run = runPaperCampaign("figD_dstall");

    exp::printCycleTables(run, std::cout);
    std::cout << "\n";

    TablePrinter t("Figure D — L1-D demand misses");
    t.setHeader({"workload", "config", "D$ accesses", "D$ misses",
                 "vs none", "L2 misses"});
    for (const auto &w : run.workloadNames()) {
        const auto base = static_cast<double>(
            run.at(w, run.configLabels().front()).dcacheMisses);
        for (const auto &c : run.configLabels()) {
            const auto &r = run.at(w, c);
            t.addRow({w, c, TablePrinter::num(r.dcacheAccesses),
                      TablePrinter::num(r.dcacheMisses),
                      base > 0
                          ? TablePrinter::fixed(
                                static_cast<double>(r.dcacheMisses)
                                    / base,
                                3)
                          : "-",
                      TablePrinter::num(r.l2Misses)});
        }
        t.addRule();
    }
    t.print(std::cout);

    TablePrinter p("Figure D — D-prefetch classification");
    p.setHeader({"workload", "config", "issued", "pref hits",
                 "delayed hits", "useless", "useful frac",
                 "squashed"});
    for (const auto &w : run.workloadNames()) {
        for (const auto &c : run.configLabels()) {
            const auto &r = run.at(w, c);
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
    p.print(std::cout);

    std::cout << "\nExpectation: the combined engine cuts L1-D "
                 "demand misses below the no-dprefetch baseline on "
                 "both workloads; semantic hints cover pointer-chasing "
                 "B-tree descents that stride cannot.\n";
    return 0;
}
