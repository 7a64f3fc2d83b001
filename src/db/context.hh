/**
 * @file
 * DbContext: plumbing shared by every storage-manager and operator
 * component — the trace recorder plus the FunctionIds of all traced
 * DBMS functions.
 *
 * The function inventory mirrors the layered architecture of
 * paper Figure 1 (storage manager at the bottom, relational
 * operators above, scheduler/optimizer/parser on top) and includes
 * the Create_rec example chain from Figure 2.
 */

#ifndef CGP_DB_CONTEXT_HH
#define CGP_DB_CONTEXT_HH

#include "codegen/registry.hh"
#include "trace/recorder.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace cgp::db
{

/**
 * A set of per-call-site copies of a function small enough that the
 * -O5 -inline compiler of the paper's testbed would inline it.  Each
 * call site then owns a distinct copy of those instructions in the
 * text segment — which is how inlined accessors actually occupy
 * I-cache space in an optimized DBMS binary.  Call sites index the
 * set with a stable site id.
 */
struct InlinedFn
{
    static constexpr std::size_t sites = 6;
    FunctionId at[sites];

    FunctionId
    site(std::size_t i) const
    {
        return at[i % sites];
    }
};

/** Ids of every traced function in the database system. */
struct DbFuncs
{
    /// @{ Buffer manager
    FunctionId bpFix;        ///< Find_page_in_buffer_pool
    FunctionId bpUnfix;
    FunctionId bpLookup;     ///< hash-table probe
    FunctionId bpEvict;
    FunctionId bpReadDisk;   ///< Getpage_from_disk
    FunctionId bpWriteDisk;
    FunctionId bpFlush;
    FunctionId bpPin;
    FunctionId bpUnpin;
    FunctionId bpLruTouch;
    FunctionId bpBucketScan;
    /// @}

    /// @{ Slotted pages
    FunctionId pageInit;
    FunctionId pageInsert;   ///< Update_page (insert path)
    FunctionId pageRead;
    FunctionId pageUpdate;   ///< Update_page (overwrite path)
    InlinedFn pageSlotLookup;
    InlinedFn pageRecordCopy;
    /// @}

    /// @{ Volume / disk
    FunctionId diskRead;
    FunctionId diskWrite;
    FunctionId diskAlloc;
    /// @}

    /// @{ Lock manager (two-phase locking)
    FunctionId lockAcquire;  ///< Lock_page
    FunctionId lockRelease;  ///< Unlock_page
    FunctionId lockTableProbe;
    FunctionId lockUpgrade;
    FunctionId lockGrantCheck;
    FunctionId lockHolderScan;
    /// @}

    /// @{ Write-ahead log
    FunctionId logAppend;
    FunctionId logForce;
    FunctionId logReserve;
    FunctionId logCopy;
    /// @}

    /// @{ Transactions
    FunctionId txnBegin;
    FunctionId txnCommit;
    /// @}

    /// @{ Heap files
    FunctionId hfCreateRec;  ///< Create_rec (Figure 2 entry point)
    FunctionId hfFindFree;
    FunctionId hfGetRec;
    FunctionId hfUpdateRec;
    FunctionId hfScanOpen;
    FunctionId hfScanNext;
    FunctionId hfScanClose;
    /// @}

    /// @{ B+-tree
    FunctionId btSearch;
    FunctionId btDescend;
    FunctionId btLeafInsert;
    FunctionId btRemove;
    FunctionId btLeafRemove;
    FunctionId btInsert;
    FunctionId btSplit;
    FunctionId btRangeOpen;
    FunctionId btRangeNext;
    InlinedFn btKeyCompare;
    InlinedFn btNodeSearch;
    /// @}

    /// @{ Catalog
    FunctionId catTableLookup;
    FunctionId catIndexLookup;
    /// @}

    /// @{ Tuples and expressions (inlined at -O5: per-site copies)
    InlinedFn tupGetInt;
    InlinedFn tupGetString;
    InlinedFn tupCopy;
    InlinedFn tupHash;
    InlinedFn tupDeserialize;
    InlinedFn predEvalRange;
    InlinedFn predEvalEq;
    /// @}

    /**
     * Per-query-class instances of the hot operator-layer loop
     * functions.  Each in-flight query runs its own plan-node
     * instances, and different query shapes exercise different
     * slices of a DBMS's large operator code base; one instance per
     * query class models that code-path diversity (the storage
     * manager below stays shared, as it is in the real system).
     */
    static constexpr std::size_t opClasses = 13;
    FunctionId scanNextC[opClasses];
    FunctionId idxSelNextC[opClasses];
    FunctionId hfScanNextC[opClasses];
    FunctionId btRangeNextC[opClasses];
    FunctionId inljNextC[opClasses];
    FunctionId ghjProbeC[opClasses];
    FunctionId ghjNextC[opClasses];
    FunctionId aggAccumC[opClasses];
    FunctionId execNextC[opClasses];
    FunctionId pageReadC[opClasses];
    FunctionId predDispatchC[opClasses];
    FunctionId hfGetRecC[opClasses];
    FunctionId btDescendC[opClasses];
    FunctionId btNodeSearchC[opClasses];
    FunctionId pageSlotLookupC[opClasses];
    FunctionId pageRecordCopyC[opClasses];
    FunctionId tupDeserializeC[opClasses];
    FunctionId tupGetIntC[opClasses];
    FunctionId predEvalRangeC[opClasses];

    /// @{ Relational operators
    FunctionId scanOpen;
    FunctionId scanNext;
    FunctionId scanClose;
    FunctionId idxSelOpen;
    FunctionId idxSelNext;
    FunctionId idxSelClose;
    FunctionId nljOpen;
    FunctionId nljNext;
    FunctionId nljClose;
    FunctionId inljOpen;
    FunctionId inljNext;
    FunctionId inljClose;
    FunctionId ghjOpen;
    FunctionId ghjPartition;
    FunctionId ghjBuild;
    FunctionId ghjProbe;
    FunctionId ghjNext;
    FunctionId ghjClose;
    FunctionId aggOpen;
    FunctionId aggAccumulate;
    FunctionId aggNext;
    FunctionId aggClose;
    FunctionId sortOpen;
    FunctionId sortCompare;
    FunctionId sortNext;
    FunctionId sortClose;
    FunctionId projNext;
    /// @}

    /// @{ Query layer (parser / optimizer / scheduler, Figure 1)
    FunctionId queryParse;
    FunctionId queryOptimize;
    FunctionId querySchedule;
    FunctionId planBuild;
    FunctionId execOpen;
    FunctionId execNext;
    FunctionId execDeliver;
    FunctionId execClose;

    /**
     * Each query class walks its own route through the large
     * front-end code (different grammar productions, different
     * plan-enumeration branches).  The walk model executes fixed
     * paths, so path diversity inside the parser/optimizer/plan
     * generator is represented as one code path per query class.
     */
    static constexpr std::size_t queryClasses = 14;
    FunctionId parsePath[queryClasses];
    FunctionId optimizePath[queryClasses];
    FunctionId planPath[queryClasses];
    /// @}

    /// @{ Cross-cutting service layers (latching, statistics,
    ///    monitoring, memory management — SHORE runs these on every
    ///    storage operation)
    FunctionId bpLatch;
    FunctionId bpStats;
    FunctionId lockLatch;
    FunctionId lockCompat;
    FunctionId lockStats;
    FunctionId pageChecksum;
    FunctionId pageStats;
    FunctionId btLatch;
    FunctionId btIterAdvance;
    FunctionId hfIterAdvance;
    FunctionId hfStats;
    FunctionId logMutex;
    FunctionId memArenaAlloc;
    FunctionId memArenaFree;
    FunctionId statsBump;
    FunctionId threadCheck;
    FunctionId exprSetup;
    FunctionId ridDecode;
    FunctionId probeSetup;
    FunctionId bucketCalc;
    FunctionId groupHash;
    FunctionId schedCheck;
    FunctionId cursorCheck;
    FunctionId bufGuard;
    /// @}

    /// @{ OS-scheduler stub (context-switch interleaving)
    FunctionId osSchedule;
    FunctionId osCtxSave;
    FunctionId osCtxRestore;
    /// @}

    /** Declare every function in @p reg. */
    static DbFuncs declareAll(FunctionRegistry &reg);
};

/**
 * Shared execution context threaded through the database system.
 * One DbContext per database instance; the recorder records nothing
 * until retargeted, then into the buffer of the query running.
 */
struct DbContext
{
    /**
     * Straight-line work calibration for the DBMS skeleton (see
     * TraceRecorder): sized so traces average ~43 instructions
     * between calls, the paper's measured DBMS value (§5.4).
     */
    static constexpr double dbWorkScale = 5.0;

    explicit DbContext(FunctionRegistry &reg)
        : fn(DbFuncs::declareAll(reg)), rng(0x5eed'cafe)
    {
    }

    /** Redirect recording into a different buffer (per-query). */
    void
    retarget(TraceBuffer &buffer)
    {
        rec = TraceRecorder(buffer, dbWorkScale);
    }

    DbFuncs fn;
    TraceRecorder rec;
    Rng rng;

    /** Class of the query currently executing (set per query). */
    std::size_t queryClass = 0;

    /** Operator-instance index for the running query. */
    std::size_t
    opClass() const
    {
        return queryClass % DbFuncs::opClasses;
    }
};

} // namespace cgp::db

#endif // CGP_DB_CONTEXT_HH
