/**
 * @file
 * The paper's Figure 2 scenario, live: create records through the
 * storage manager and watch the Create_rec call sequence that CGP
 * learns — Find_page_in_buffer_pool, Lock_page, Update_page (page
 * insert), Unlock_page — then print the dynamic call-graph statistics
 * that motivated the CGHC's 8-slot entries (§3.2).
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "codegen/profile.hh"
#include "db/dbsys.hh"
#include "trace/expand.hh"
#include "util/table.hh"

int
main()
{
    using namespace cgp;

    auto registry = std::make_shared<FunctionRegistry>();
    db::DbSystem dbsys(*registry);
    TraceBuffer trace;
    dbsys.record(trace);

    // A heap file to insert into (the Figure 2 scenario).
    db::Schema schema({{"id", db::ColumnType::Int32, 4},
                       {"payload", db::ColumnType::Char, 32}});
    dbsys.createTable("records", std::move(schema));

    std::cout << "Creating 500 records through "
                 "HeapFile::createRec (Create_rec)...\n\n";
    const db::TxnId txn = dbsys.txns().begin();
    for (int i = 0; i < 500; ++i) {
        db::Tuple t(dbsys.catalog().table("records").schema.get());
        t.setInt(0, i);
        t.setString(1, "payload" + std::to_string(i));
        dbsys.insertRow(txn, "records", t);
    }
    dbsys.txns().commit(txn);

    // Replay the trace to build the dynamic call graph.
    LayoutBuilder builder(*registry);
    const CodeImage image = builder.buildOriginal();
    InstructionExpander ex(*registry, image, trace);
    ExecutionProfile profile;
    ex.setProfile(&profile);
    DynInst inst;
    while (ex.next(inst)) {
    }

    // Show Create_rec's callee sequence — what a CGHC entry holds.
    const auto create_rec = registry->lookup("HeapFile::createRec");
    std::cout << "Direct callees of HeapFile::createRec (the call "
                 "sequence a CGHC entry predicts):\n";
    std::vector<std::pair<std::uint64_t, std::string>> callees;
    for (const auto &e : profile.callees(create_rec))
        callees.push_back({e.weight, registry->function(e.callee).name});
    std::sort(callees.rbegin(), callees.rend());
    for (const auto &[weight, name] : callees)
        std::cout << "  " << name << "  (x" << weight << ")\n";

    // The §3.2 statistic that sized the CGHC data entry.
    const CallGraphAnalyzer analyzer(profile);
    std::cout << "\nDynamic call-graph statistics:\n";
    std::cout << "  functions that make calls: "
              << analyzer.callerCount() << "\n";
    std::cout << "  with < 8 distinct callees: "
              << TablePrinter::percent(
                     analyzer.fractionWithFewerCalleesThan(8))
              << "  (paper: ~80%, motivating 8 slots per CGHC "
                 "entry)\n";
    std::cout << "  max distinct callees:      "
              << analyzer.maxDistinctCallees() << "\n";

    std::cout << "\nTrace anatomy: " << trace.size() << " events, ~"
              << trace.approxInstrs() << " instructions, "
              << trace.calls() << " calls ("
              << TablePrinter::fixed(
                     static_cast<double>(trace.approxInstrs()) /
                         static_cast<double>(trace.calls()),
                     1)
              << " instructions/call; paper reports ~43 for DBMS "
                 "code)\n";
    return 0;
}
