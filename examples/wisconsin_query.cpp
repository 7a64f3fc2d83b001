/**
 * @file
 * Run the Wisconsin benchmark through the full pipeline, one query
 * at a time: load the database, record each query's trace, and show
 * how CGP changes its I-cache behaviour.  Demonstrates the
 * lower-level API (DbSystem + Wisconsin + InstructionExpander)
 * beneath the WorkloadFactory convenience layer.
 */

#include <iostream>
#include <memory>

#include "db/dbsys.hh"
#include "db/wisconsin.hh"
#include "harness/simulator.hh"
#include "util/table.hh"

int
main()
{
    using namespace cgp;

    const std::uint32_t n = 2000;

    std::cout << "Loading a " << n
              << "-tuple Wisconsin database (big1, big2, small + "
                 "indexes)...\n";
    auto registry = std::make_shared<FunctionRegistry>();
    db::DbSystem dbsys(*registry);
    db::Wisconsin::load(dbsys, n);
    std::cout << "  " << registry->size()
              << " traced DBMS functions, "
              << registry->totalCodeBytes() / 1024
              << " KB of synthesized code\n\n";

    TablePrinter t("Wisconsin queries under O5 vs O5+OM+CGP_4");
    t.setHeader({"query", "rows", "instrs", "I$ misses (O5)",
                 "I$ misses (CGP)", "speedup"});

    for (int q : {1, 2, 5, 6, 7, 9}) {
        // Record the query's execution as a trace.
        auto trace = std::make_shared<TraceBuffer>();
        dbsys.record(*trace);
        Rng rng(1000 + static_cast<std::uint64_t>(q));
        const std::uint64_t rows =
            db::Wisconsin::runQuery(dbsys, q, n, rng);

        // Wrap it as a workload; the OM profile comes from the same
        // trace (self-profiling, fine for a demo).
        Workload w;
        w.name = db::Wisconsin::queryName(q);
        w.registry = registry;
        w.trace = trace;
        {
            LayoutBuilder builder(*registry);
            const CodeImage o5 = builder.buildOriginal();
            InstructionExpander ex(*registry, o5, *trace);
            auto profile = std::make_shared<ExecutionProfile>();
            ex.setProfile(profile.get());
            DynInst inst;
            while (ex.next(inst)) {
            }
            w.omProfile = profile;
        }

        const SimResult base = runSimulation(w, SimConfig::o5());
        const SimResult cgp = runSimulation(
            w, SimConfig::withCgp(LayoutKind::PettisHansen, 4));

        t.addRow({db::Wisconsin::queryName(q),
                  TablePrinter::num(rows),
                  TablePrinter::num(base.instrs),
                  TablePrinter::num(base.icacheMisses),
                  TablePrinter::num(cgp.icacheMisses),
                  TablePrinter::fixed(
                      static_cast<double>(base.cycles) /
                          static_cast<double>(cgp.cycles),
                      2) + "x"});
    }
    t.print(std::cout);

    std::cout << "\nNote: single queries in isolation have small "
                 "working sets; the paper's gains appear with the "
                 "concurrent mixes (see cgpbench run fig4).\n";
    return 0;
}
