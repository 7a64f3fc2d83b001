/**
 * @file
 * Server-scale figure (beyond the paper): the multi-core DB server
 * model serving closed-loop client sessions.  Points are the cross
 * product of cores {1, 2, 4} x sessions {16, 256} x {no prefetch,
 * CGP_4 + D-combined behind the arbiter} on the two concurrent
 * mixes; every point serves the same query population, so
 * cycles-to-serve, throughput and the latency percentiles compare
 * directly.
 *
 * Interesting reads: how throughput scales with cores once the
 * shared L2 port is the bottleneck (port-wait column), and whether
 * prefetching buys more at high session counts, where the per-core
 * I-cache is cold after every bind.
 */

#include <cstdint>
#include <iostream>

#include "common.hh"

int
main()
{
    using namespace cgp;
    using namespace cgp::bench;

    const exp::CampaignRun run = runPaperCampaign("server-scale");

    exp::printCycleTables(run, std::cout);
    std::cout << "\n";

    TablePrinter t("Server scale — throughput and latency");
    t.setHeader({"workload", "config", "cores", "sessions",
                 "queries", "q/Mcycle", "p50", "p95", "p99",
                 "port wait"});
    for (const auto &w : run.workloadNames()) {
        for (const auto &c : run.configLabels()) {
            const auto &r = run.at(w, c);
            if (!r.serverEnabled)
                continue;
            const auto &srv = r.server;
            t.addRow({w, c, TablePrinter::num(srv.cores),
                      TablePrinter::num(srv.sessions),
                      TablePrinter::num(srv.queriesServed),
                      TablePrinter::fixed(srv.queriesPerMcycle(), 2),
                      TablePrinter::num(srv.latencyP50),
                      TablePrinter::num(srv.latencyP95),
                      TablePrinter::num(srv.latencyP99),
                      TablePrinter::num(srv.portWaitCycles)});
        }
        t.addRule();
    }
    t.print(std::cout);
    std::cout << "\n";

    TablePrinter u("Server scale — per-core utilization");
    u.setHeader({"workload", "config", "core", "util", "instrs",
                 "I$ misses", "bus lines", "port wait", "queries"});
    for (const auto &w : run.workloadNames()) {
        for (const auto &c : run.configLabels()) {
            const auto &r = run.at(w, c);
            if (!r.serverEnabled || r.server.perCore.size() < 2)
                continue;
            for (std::size_t i = 0; i < r.server.perCore.size();
                 ++i) {
                const auto &core = r.server.perCore[i];
                u.addRow({w, c, std::to_string(i),
                          TablePrinter::percent(core.utilization()),
                          TablePrinter::num(core.instrs),
                          TablePrinter::num(core.icacheMisses),
                          TablePrinter::num(core.busLines),
                          TablePrinter::num(core.portWaitCycles),
                          TablePrinter::num(core.queries)});
            }
        }
        u.addRule();
    }
    u.print(std::cout);

    std::cout
        << "\nExpectation: adding cores raises throughput "
           "sub-linearly (shared-port wait cycles grow with the "
           "core count), and the prefetching configuration recovers "
           "part of the gap by hiding the per-core cold-cache "
           "penalty after each session bind.\n";
    return 0;
}
