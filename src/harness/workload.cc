#include "harness/workload.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "db/dbsys.hh"
#include "db/tpch.hh"
#include "db/wisconsin.hh"
#include "server/compat.hh"
#include "trace/expand.hh"
#include "util/logging.hh"

namespace cgp
{

namespace
{

/** Record one Wisconsin query into a fresh buffer. */
TraceBuffer
recordWiscQuery(db::DbSystem &dbsys, int query, std::uint32_t n,
                std::uint64_t seed)
{
    TraceBuffer buf;
    dbsys.record(buf);
    Rng rng(seed);
    db::Wisconsin::runQuery(dbsys, query, n, rng);
    return buf;
}

TraceBuffer
recordTpchQuery(db::DbSystem &dbsys, int query, std::uint64_t seed)
{
    TraceBuffer buf;
    dbsys.record(buf);
    Rng rng(seed);
    db::Tpch::runQuery(dbsys, query, rng);
    return buf;
}

/**
 * Record the OS-scheduler stub once.  The stub body is stateless and
 * balanced, so replaying this buffer at every context switch emits
 * exactly the events the old per-switch onSwitch callback recorded.
 */
std::shared_ptr<TraceBuffer>
recordSwitchStub(const db::DbFuncs &fn)
{
    auto buf = std::make_shared<TraceBuffer>();
    TraceRecorder rec(*buf);
    TraceScope s(rec, fn.osSchedule);
    s.work(60);
    s.branch(true);
    {
        TraceScope save(rec, fn.osCtxSave);
        save.work(35);
    }
    {
        TraceScope restore(rec, fn.osCtxRestore);
        restore.work(35);
    }
    s.work(20);
    return buf;
}

/** Merge per-query buffers into one scheduled trace via the server
 *  model's legacy-compatible shim (the retired offline merger's
 *  schedule, pinned by tests/golden/interleave_*.txt). */
std::shared_ptr<TraceBuffer>
schedule(const std::vector<TraceBuffer> &queries,
         const TraceBuffer &stub)
{
    std::vector<const TraceBuffer *> ptrs;
    ptrs.reserve(queries.size());
    for (const auto &q : queries)
        ptrs.push_back(&q);
    return std::make_shared<TraceBuffer>(server::legacyMerge(
        ptrs, WorkloadFactory::quantumInstrs(), &stub));
}

/** Build a layout-independent profile by replaying over O5. */
ExecutionProfile
profileOf(const FunctionRegistry &registry, const TraceBuffer &trace)
{
    LayoutBuilder builder(registry);
    const CodeImage o5 = builder.buildOriginal();
    InstructionExpander expander(registry, o5, trace);
    ExecutionProfile profile;
    expander.setProfile(&profile);
    // The profile hooks fire inside the expander: advance() walks
    // the trace a block at a time, so draining it fills the profile
    // without building an instruction.
    expander.advance(~0ull);
    return profile;
}

/** max(@p perUnit * @p s, @p floor) rows, as the DB counts them.
 *  @throws std::invalid_argument when that does not fit. */
std::uint32_t
rowCount(double s, double perUnit, double floor)
{
    const double rows = std::max(perUnit * s, floor);
    if (!(rows <= std::numeric_limits<std::uint32_t>::max()))
        throw std::invalid_argument(
            "workload scale " + std::to_string(s) +
            " needs more rows than a table holds");
    return static_cast<std::uint32_t>(rows);
}

} // anonymous namespace

double
WorkloadFactory::scale()
{
    constexpr double fallback = 0.25;
    const char *env = std::getenv("CGP_SCALE");
    if (env == nullptr)
        return fallback;
    // The whole value must parse, to a finite positive number.
    const char *end = env + std::strlen(env);
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(env, end, v);
    if (ec == std::errc() && ptr == end && std::isfinite(v) && v > 0.0)
        return v;
    cgp_warn("ignoring bad CGP_SCALE value '", env, "'; using ",
             fallback);
    return fallback;
}

std::uint64_t
WorkloadFactory::quantumInstrs()
{
    // Query threads in the paper's server switch at I/O / lock-wait
    // granularity, far coarser than an OS time slice; each slice is
    // long enough that a query's loop warms the L1-I and the switch
    // costs a full working-set refill.
    return 60000;
}

DbWorkloadSet
WorkloadFactory::buildDbSet()
{
    return buildDbSet(scale());
}

DbWorkloadSet
WorkloadFactory::buildDbSet(double s)
{
    if (!(s > 0.0))
        throw std::invalid_argument("workload scale must be > 0");
    const std::uint32_t wisc_prof_n = rowCount(s, 1000.0, 200.0);
    const std::uint32_t wisc_large_n = rowCount(s, 10000.0, 500.0);
    const std::uint32_t tpch_lines = rowCount(s, 8000.0, 400.0);

    DbWorkloadSet set;
    set.registry = std::make_shared<FunctionRegistry>();
    FunctionRegistry &reg = *set.registry;

    // ---- wisc-prof: queries 1, 5, 9 on the small database --------
    db::DbConfig small_cfg;
    small_cfg.bufferFrames = 2048;
    db::DbSystem db_prof(reg, small_cfg);
    db::Wisconsin::load(db_prof, wisc_prof_n);
    auto prof_queries = std::make_shared<std::vector<TraceBuffer>>();
    prof_queries->push_back(
        recordWiscQuery(db_prof, 1, wisc_prof_n, 11));
    prof_queries->push_back(
        recordWiscQuery(db_prof, 5, wisc_prof_n, 15));
    prof_queries->push_back(
        recordWiscQuery(db_prof, 9, wisc_prof_n, 19));
    const db::DbFuncs fn = db_prof.ctx().fn;
    auto stub = recordSwitchStub(fn);
    auto wisc_prof_trace = schedule(*prof_queries, *stub);

    // ---- wisc-large-1: same queries, full-size database ----------
    db::DbConfig large_cfg;
    large_cfg.bufferFrames = 4096;
    db::DbSystem db_large(reg, large_cfg);
    db::Wisconsin::load(db_large, wisc_large_n);
    auto large1_queries = std::make_shared<std::vector<TraceBuffer>>();
    large1_queries->push_back(
        recordWiscQuery(db_large, 1, wisc_large_n, 21));
    large1_queries->push_back(
        recordWiscQuery(db_large, 5, wisc_large_n, 25));
    large1_queries->push_back(
        recordWiscQuery(db_large, 9, wisc_large_n, 29));
    auto wisc_large1_trace = schedule(*large1_queries, *stub);

    // ---- wisc-large-2: all eight queries --------------------------
    auto large2_queries = std::make_shared<std::vector<TraceBuffer>>();
    for (int q : {1, 2, 3, 4, 5, 6, 7, 9}) {
        large2_queries->push_back(
            recordWiscQuery(db_large, q, wisc_large_n,
                            static_cast<std::uint64_t>(30 + q)));
    }
    auto wisc_large2_trace = schedule(*large2_queries, *stub);

    // ---- wisc+tpch: eight Wisconsin + five TPC-H queries ----------
    db::DbConfig tpch_cfg;
    tpch_cfg.bufferFrames = 8192;
    tpch_cfg.bufferSegment = 0x3000'0000;
    db::DbSystem db_tpch(reg, tpch_cfg);
    const auto tpch_scale = db::Tpch::Scale::fromLineitems(tpch_lines);
    db::Tpch::load(db_tpch, tpch_scale);

    auto mixed_queries = std::make_shared<std::vector<TraceBuffer>>();
    for (int q : {1, 2, 3, 4, 5, 6, 7, 9}) {
        mixed_queries->push_back(
            recordWiscQuery(db_large, q, wisc_large_n,
                            static_cast<std::uint64_t>(50 + q)));
    }
    for (int q : {1, 2, 3, 5, 6}) {
        mixed_queries->push_back(
            recordTpchQuery(db_tpch, q,
                            static_cast<std::uint64_t>(70 + q)));
    }
    auto wisc_tpch_trace = schedule(*mixed_queries, *stub);

    // ---- OM feedback: wisc-prof + wisc+tpch profiles merged -------
    auto om = std::make_shared<ExecutionProfile>(
        profileOf(reg, *wisc_prof_trace));
    om->merge(profileOf(reg, *wisc_tpch_trace));
    set.omProfile = om;

    auto add =
        [&set, &stub](const std::string &name,
                      std::shared_ptr<TraceBuffer> trace,
                      std::shared_ptr<std::vector<TraceBuffer>> lib) {
            Workload w;
            w.name = name;
            w.registry = set.registry;
            w.trace = std::move(trace);
            w.omProfile = set.omProfile;
            w.queryLibrary = std::move(lib);
            w.switchStub = stub;
            set.workloads.push_back(std::move(w));
        };
    add("wisc-prof", wisc_prof_trace, prof_queries);
    add("wisc-large-1", wisc_large1_trace, large1_queries);
    add("wisc-large-2", wisc_large2_trace, large2_queries);
    add("wisc+tpch", wisc_tpch_trace, mixed_queries);
    return set;
}

Workload
WorkloadFactory::buildSpec(const spec::SpecProgramSpec &spec)
{
    return buildSpec(spec, scale());
}

Workload
WorkloadFactory::buildSpec(const spec::SpecProgramSpec &spec,
                           double s)
{
    if (!(s > 0.0))
        throw std::invalid_argument("workload scale must be > 0");
    Workload w;
    w.name = spec.name;
    w.registry = std::make_shared<FunctionRegistry>();

    spec::SpecProgram program(*w.registry, spec);

    // Profile from the SPEC-provided "test" input (paper §5.7) ...
    TraceBuffer test;
    program.emitTest(test);
    w.omProfile = std::make_shared<ExecutionProfile>(
        profileOf(*w.registry, test));

    // ... measurement on the "train" input.
    auto train = std::make_shared<TraceBuffer>();
    spec::SpecProgramSpec scaled = spec;
    scaled.trainInstrs = static_cast<std::uint64_t>(
        static_cast<double>(spec.trainInstrs) * std::min(s * 4, 1.0));
    program.emit(*train, scaled.trainInstrs,
                 0x7 + w.registry->lookup(spec.name + "::fn0") * 131);
    w.trace = train;
    return w;
}

std::vector<Workload>
WorkloadFactory::buildCpu2000Suite()
{
    return buildCpu2000Suite(scale());
}

std::vector<Workload>
WorkloadFactory::buildCpu2000Suite(double s)
{
    std::vector<Workload> out;
    for (const auto &spec : spec::cpu2000Suite())
        out.push_back(buildSpec(spec, s));
    return out;
}

} // namespace cgp
