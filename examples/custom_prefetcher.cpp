/**
 * @file
 * Plugging a custom instruction prefetcher into the simulator.
 *
 * The InstrPrefetcher interface exposes the same three hook points
 * the paper's hardware uses (demand fetch of a new line, predicted
 * call, predicted return).  This example implements a simple
 * "call-target" prefetcher — on every predicted call, prefetch the
 * first N lines of the callee, with no history at all — and races it
 * against NL and full CGP on a database workload.  The gap between
 * call-target prefetching and CGP isolates the value of the CGHC's
 * one-call-ahead lookahead.
 *
 * The data side has the same extension point: implement
 * cgp::DataPrefetcher (src/dprefetch/dprefetcher.hh) and pass it as
 * the Core's fifth constructor argument to plug a custom D-side
 * engine into the L1-D access/miss/hint streams — see the stride,
 * correlation and semantic engines in src/dprefetch for examples.
 */

#include <functional>
#include <iostream>
#include <memory>

#include "codegen/layout.hh"
#include "cpu/core.hh"
#include "harness/workload.hh"
#include "mem/hierarchy.hh"
#include "prefetch/cgp.hh"
#include "prefetch/nextline.hh"
#include "trace/expand.hh"
#include "util/table.hh"

namespace
{

/**
 * Prefetch the target of every predicted call — no history, no
 * timeliness: by the time the call is predicted, fetch is about to
 * redirect there anyway, so most of the benefit evaporates.  That is
 * precisely why CGP prefetches one call *ahead* via the CGHC.
 */
class CallTargetPrefetcher : public cgp::InstrPrefetcher
{
  public:
    CallTargetPrefetcher(cgp::Cache &l1i, unsigned depth)
        : l1i_(l1i), nl_(l1i, depth), depth_(depth)
    {
    }

    void
    onFetchLine(cgp::Addr line, cgp::Cycle now) override
    {
        nl_.onFetchLine(line, now);
    }

    void
    onCall(cgp::Addr callee_start, cgp::Addr caller_start,
           cgp::Cycle now) override
    {
        (void)caller_start;
        if (callee_start == cgp::invalidAddr)
            return;
        const cgp::Addr base = l1i_.lineAlign(callee_start);
        for (unsigned i = 0; i < depth_; ++i) {
            l1i_.prefetch(base + i * l1i_.lineBytes(), now + 1,
                          cgp::AccessSource::PrefetchCGHC);
        }
    }

    const char *name() const override { return "call-target"; }

  private:
    cgp::Cache &l1i_;
    cgp::NextNLinePrefetcher nl_;
    unsigned depth_;
};

/** Run one workload/prefetcher pair manually (no SimConfig). */
cgp::Cycle
runWith(const cgp::Workload &w,
        const std::function<std::unique_ptr<cgp::InstrPrefetcher>(
            cgp::Cache &)> &make_prefetcher,
        std::uint64_t *misses)
{
    using namespace cgp;
    LayoutBuilder builder(*w.registry);
    const CodeImage image = builder.buildPettisHansen(*w.omProfile);
    ExpanderConfig cfg;
    cfg.instrScale = 0.88; // OM binary
    InstructionExpander stream(*w.registry, image, *w.trace, cfg);
    MemoryHierarchy mem;
    auto prefetcher = make_prefetcher
        ? make_prefetcher(mem.l1i())
        : nullptr;
    Core core(stream, mem, prefetcher.get(), CoreConfig{});
    core.run();
    if (misses != nullptr)
        *misses = mem.l1i().demandMisses();
    return core.cycles();
}

} // namespace

int
main()
{
    using namespace cgp;

    ::setenv("CGP_SCALE", "0.1", 0);
    std::cout << "Building the wisc-large-2 workload...\n";
    DbWorkloadSet set = WorkloadFactory::buildDbSet();
    const Workload &w = set.workloads[2];

    TablePrinter t("Custom prefetcher vs the built-ins "
                   "(OM binary, N=4)");
    t.setHeader({"prefetcher", "cycles", "I$ misses", "vs none"});

    std::uint64_t base_misses = 0;
    const Cycle base = runWith(w, nullptr, &base_misses);

    struct Row
    {
        const char *name;
        std::function<std::unique_ptr<InstrPrefetcher>(Cache &)>
            make;
    };
    const Row rows[] = {
        {"none", nullptr},
        {"NL_4",
         [](Cache &l1i) {
             return std::make_unique<NextNLinePrefetcher>(l1i, 4);
         }},
        {"call-target (custom)",
         [](Cache &l1i) {
             return std::make_unique<CallTargetPrefetcher>(l1i, 4);
         }},
        {"CGP_4",
         [](Cache &l1i) {
             return std::make_unique<CgpPrefetcher>(
                 l1i, CghcConfig::twoLevel2K32K(), 4);
         }},
    };

    for (const auto &row : rows) {
        std::uint64_t misses = 0;
        const Cycle cycles =
            row.make ? runWith(w, row.make, &misses) : base;
        if (!row.make)
            misses = base_misses;
        t.addRow({row.name, TablePrinter::num(cycles),
                  TablePrinter::num(misses),
                  TablePrinter::fixed(static_cast<double>(base) /
                                          static_cast<double>(cycles),
                                      3) +
                      "x"});
    }
    t.print(std::cout);

    std::cout << "\nThe custom call-target prefetcher covers many "
                 "of the same lines as CGP, but it issues them at "
                 "call-predict time — fetch redirects to the callee "
                 "on the very next cycle, so its fills arrive as "
                 "delayed hits that still stall the front end.  The "
                 "CGHC issues the same prefetches one call earlier "
                 "(and adds return-time prefetches), which is where "
                 "CGP's timeliness advantage comes from (paper "
                 "S5.6).\n";
    return 0;
}
