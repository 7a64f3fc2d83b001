#include "db/context.hh"

namespace cgp::db
{

namespace
{

/** Declare one per-call-site copy set of an inlinable function. */
InlinedFn
declareInlined(FunctionRegistry &reg, const std::string &name,
               const FunctionTraits &traits)
{
    InlinedFn fn;
    for (std::size_t i = 0; i < InlinedFn::sites; ++i) {
        fn.at[i] = reg.declare(
            name + "@site" + std::to_string(i), traits);
    }
    return fn;
}

} // anonymous namespace

DbFuncs
DbFuncs::declareAll(FunctionRegistry &reg)
{
    using T = FunctionTraits;
    DbFuncs f;

    // Buffer manager ---------------------------------------------------
    f.bpFix = reg.declare("BufferPool::fix", T::medium());
    f.bpUnfix = reg.declare("BufferPool::unfix", T::tiny());
    f.bpLookup = reg.declare("BufferPool::hashLookup", T::small());
    f.bpEvict = reg.declare("BufferPool::evictVictim", T::medium());
    f.bpReadDisk = reg.declare("BufferPool::getPageFromDisk",
                               T::large());
    f.bpWriteDisk = reg.declare("BufferPool::writePageToDisk",
                                T::large());
    f.bpFlush = reg.declare("BufferPool::flushAll", T::medium());
    f.bpPin = reg.declare("BufferPool::pin", T::tiny());
    f.bpUnpin = reg.declare("BufferPool::unpin", T::tiny());
    f.bpLruTouch = reg.declare("BufferPool::lruTouch", T::tiny());
    f.bpBucketScan = reg.declare("BufferPool::bucketScan",
                                 T::small());

    // Slotted pages ----------------------------------------------------
    f.pageInit = reg.declare("SlottedPage::init", T::small());
    f.pageInsert = reg.declare("SlottedPage::insert", T::medium());
    f.pageRead = reg.declare("SlottedPage::read", T::small());
    f.pageUpdate = reg.declare("SlottedPage::update", T::small());
    f.pageSlotLookup =
        declareInlined(reg, "SlottedPage::slotLookup", T::small());
    f.pageRecordCopy =
        declareInlined(reg, "SlottedPage::recordCopy", T::small());

    // Volume / disk ----------------------------------------------------
    f.diskRead = reg.declare("Volume::readPage", T::large());
    f.diskWrite = reg.declare("Volume::writePage", T::large());
    f.diskAlloc = reg.declare("Volume::allocPage", T::small());

    // Lock manager -----------------------------------------------------
    f.lockAcquire = reg.declare("LockManager::acquire", T::medium());
    f.lockRelease = reg.declare("LockManager::release", T::small());
    f.lockTableProbe = reg.declare("LockManager::tableProbe",
                                   T::small());
    f.lockUpgrade = reg.declare("LockManager::upgrade", T::small());
    f.lockGrantCheck = reg.declare("LockManager::grantCheck",
                                   T::small());
    f.lockHolderScan = reg.declare("LockManager::holderScan",
                                   T::small());

    // Log ----------------------------------------------------------------
    f.logAppend = reg.declare("Log::append", T::small());
    f.logForce = reg.declare("Log::force", T::medium());
    f.logReserve = reg.declare("Log::reserve", T::tiny());
    f.logCopy = reg.declare("Log::copyPayload", T::tiny());

    // Transactions -------------------------------------------------------
    f.txnBegin = reg.declare("Transaction::begin", T::small());
    f.txnCommit = reg.declare("Transaction::commit", T::medium());
    // Never called; declared so the code image keeps its layout.
    reg.declare("Transaction::abort", T::medium());

    // Heap files ---------------------------------------------------------
    f.hfCreateRec = reg.declare("HeapFile::createRec", T::medium());
    f.hfFindFree = reg.declare("HeapFile::findFreePage", T::medium());
    f.hfGetRec = reg.declare("HeapFile::getRec", T::small());
    f.hfUpdateRec = reg.declare("HeapFile::updateRec", T::medium());
    f.hfScanOpen = reg.declare("HeapFile::scanOpen", T::small());
    f.hfScanNext = reg.declare("HeapFile::scanNext", T::medium());
    f.hfScanClose = reg.declare("HeapFile::scanClose", T::tiny());

    // B+-tree --------------------------------------------------------------
    f.btSearch = reg.declare("BTree::search", T::medium());
    f.btDescend = reg.declare("BTree::descend", T::small());
    f.btLeafInsert = reg.declare("BTree::leafInsert", T::medium());
    f.btRemove = reg.declare("BTree::remove", T::medium());
    f.btLeafRemove = reg.declare("BTree::leafRemove", T::medium());
    f.btInsert = reg.declare("BTree::insert", T::medium());
    f.btSplit = reg.declare("BTree::split", T::large());
    f.btRangeOpen = reg.declare("BTree::rangeOpen", T::medium());
    f.btRangeNext = reg.declare("BTree::rangeNext", T::small());
    f.btKeyCompare =
        declareInlined(reg, "BTree::keyCompare", T::tiny());
    f.btNodeSearch =
        declareInlined(reg, "BTree::nodeSearch", T::small());

    // Catalog ----------------------------------------------------------------
    f.catTableLookup = reg.declare("Catalog::tableLookup", T::small());
    f.catIndexLookup = reg.declare("Catalog::indexLookup", T::small());

    // Tuples / expressions -----------------------------------------------------
    f.tupGetInt = declareInlined(reg, "Tuple::getInt", T::tiny());
    f.tupGetString =
        declareInlined(reg, "Tuple::getString", T::tiny());
    f.tupCopy = declareInlined(reg, "Tuple::copy", T::tiny());
    f.tupHash = declareInlined(reg, "Tuple::hash", T::tiny());
    f.tupDeserialize =
        declareInlined(reg, "Tuple::deserialize", T::small());
    f.predEvalRange =
        declareInlined(reg, "Predicate::evalRange", T::small());
    f.predEvalEq =
        declareInlined(reg, "Predicate::evalEq", T::small());

    // Per-query-class operator-layer instances --------------------------
    for (std::size_t q = 0; q < DbFuncs::opClasses; ++q) {
        const std::string c = "<plan" + std::to_string(q) + ">";
        f.scanNextC[q] = reg.declare("SeqScan::next" + c, T::medium());
        f.idxSelNextC[q] =
            reg.declare("IndexSelect::next" + c, T::medium());
        f.hfScanNextC[q] =
            reg.declare("HeapFile::scanNext" + c, T::medium());
        f.btRangeNextC[q] =
            reg.declare("BTree::rangeNext" + c, T::small());
        f.inljNextC[q] =
            reg.declare("IndexedNLJoin::next" + c, T::medium());
        f.ghjProbeC[q] =
            reg.declare("GraceHashJoin::probe" + c, T::medium());
        f.aggAccumC[q] =
            reg.declare("HashAggregate::accumulate" + c, T::small());
        f.execNextC[q] =
            reg.declare("Executor::next" + c, T::small());
        f.pageReadC[q] =
            reg.declare("SlottedPage::read" + c, T::small());
        f.predDispatchC[q] =
            reg.declare("Predicate::dispatch" + c, T::small());
        f.ghjNextC[q] =
            reg.declare("GraceHashJoin::next" + c, T::medium());
        f.hfGetRecC[q] =
            reg.declare("HeapFile::getRec" + c, T::small());
        f.btDescendC[q] =
            reg.declare("BTree::descend" + c, T::small());
        f.btNodeSearchC[q] =
            reg.declare("BTree::nodeSearch" + c, T::small());
        f.pageSlotLookupC[q] =
            reg.declare("SlottedPage::slotLookup" + c, T::small());
        f.pageRecordCopyC[q] =
            reg.declare("SlottedPage::recordCopy" + c, T::small());
        f.tupDeserializeC[q] =
            reg.declare("Tuple::deserialize" + c, T::small());
        f.tupGetIntC[q] =
            reg.declare("Tuple::getInt" + c, T::tiny());
        f.predEvalRangeC[q] =
            reg.declare("Predicate::evalRange" + c, T::small());
    }

    // Operators -------------------------------------------------------------
    f.scanOpen = reg.declare("SeqScan::open", T::medium());
    f.scanNext = reg.declare("SeqScan::next", T::medium());
    f.scanClose = reg.declare("SeqScan::close", T::tiny());
    f.idxSelOpen = reg.declare("IndexSelect::open", T::medium());
    f.idxSelNext = reg.declare("IndexSelect::next", T::medium());
    f.idxSelClose = reg.declare("IndexSelect::close", T::tiny());
    f.nljOpen = reg.declare("NestedLoopsJoin::open", T::medium());
    f.nljNext = reg.declare("NestedLoopsJoin::next", T::large());
    f.nljClose = reg.declare("NestedLoopsJoin::close", T::tiny());
    f.inljOpen = reg.declare("IndexedNLJoin::open", T::medium());
    f.inljNext = reg.declare("IndexedNLJoin::next", T::large());
    f.inljClose = reg.declare("IndexedNLJoin::close", T::tiny());
    f.ghjOpen = reg.declare("GraceHashJoin::open", T::medium());
    f.ghjPartition = reg.declare("GraceHashJoin::partition",
                                 T::large());
    f.ghjBuild = reg.declare("GraceHashJoin::build", T::medium());
    f.ghjProbe = reg.declare("GraceHashJoin::probe", T::medium());
    f.ghjNext = reg.declare("GraceHashJoin::next", T::medium());
    f.ghjClose = reg.declare("GraceHashJoin::close", T::tiny());
    f.aggOpen = reg.declare("HashAggregate::open", T::medium());
    f.aggAccumulate = reg.declare("HashAggregate::accumulate",
                                  T::small());
    f.aggNext = reg.declare("HashAggregate::next", T::small());
    f.aggClose = reg.declare("HashAggregate::close", T::tiny());
    f.sortOpen = reg.declare("Sort::open", T::large());
    f.sortCompare = reg.declare("Sort::compare", T::tiny());
    f.sortNext = reg.declare("Sort::next", T::tiny());
    f.sortClose = reg.declare("Sort::close", T::tiny());
    f.projNext = reg.declare("Project::next", T::small());

    // Query layer ---------------------------------------------------------
    f.queryParse = reg.declare("QueryParser::parse", T::huge());
    f.queryOptimize = reg.declare("QueryOptimizer::optimize",
                                  T::huge());
    f.querySchedule = reg.declare("QueryScheduler::schedule",
                                  T::medium());
    f.planBuild = reg.declare("PlanBuilder::build", T::large());
    for (std::size_t q = 0; q < DbFuncs::queryClasses; ++q) {
        f.parsePath[q] = reg.declare(
            "QueryParser::path" + std::to_string(q), T::huge());
        f.optimizePath[q] = reg.declare(
            "QueryOptimizer::path" + std::to_string(q), T::huge());
        f.planPath[q] = reg.declare(
            "PlanBuilder::path" + std::to_string(q), T::large());
    }
    f.execOpen = reg.declare("Executor::open", T::medium());
    f.execNext = reg.declare("Executor::next", T::small());
    f.execDeliver = reg.declare("Executor::deliverRow", T::small());
    f.execClose = reg.declare("Executor::close", T::small());

    // Cross-cutting service layers ------------------------------------
    f.bpLatch = reg.declare("BufferPool::latch", T::small());
    f.bpStats = reg.declare("BufferPool::statsBump", T::small());
    f.lockLatch = reg.declare("LockManager::latch", T::small());
    f.lockCompat = reg.declare("LockManager::modeCompat", T::small());
    f.lockStats = reg.declare("LockManager::statsBump", T::small());
    f.pageChecksum = reg.declare("SlottedPage::checksum", T::small());
    f.pageStats = reg.declare("SlottedPage::statsBump", T::small());
    f.btLatch = reg.declare("BTree::latch", T::small());
    f.btIterAdvance = reg.declare("BTree::iterAdvance", T::small());
    f.hfIterAdvance = reg.declare("HeapFile::iterAdvance",
                                  T::small());
    f.hfStats = reg.declare("HeapFile::statsBump", T::small());
    f.logMutex = reg.declare("Log::mutex", T::small());
    f.memArenaAlloc = reg.declare("MemArena::alloc", T::small());
    f.memArenaFree = reg.declare("MemArena::free", T::small());
    f.statsBump = reg.declare("Stats::bump", T::small());
    f.threadCheck = reg.declare("Thread::check", T::small());
    f.exprSetup = reg.declare("Expr::setup", T::small());
    f.ridDecode = reg.declare("Rid::decode", T::small());
    f.probeSetup = reg.declare("Join::probeSetup", T::small());
    f.bucketCalc = reg.declare("Hash::bucketCalc", T::small());
    f.groupHash = reg.declare("Aggregate::groupHash", T::small());
    f.schedCheck = reg.declare("Scheduler::check", T::small());
    f.cursorCheck = reg.declare("Cursor::check", T::small());
    f.bufGuard = reg.declare("BufferGuard::ctor", T::small());

    // OS scheduler stub -------------------------------------------------------
    f.osSchedule = reg.declare("os::schedule", T::medium());
    f.osCtxSave = reg.declare("os::contextSave", T::small());
    f.osCtxRestore = reg.declare("os::contextRestore", T::small());

    return f;
}

} // namespace cgp::db
