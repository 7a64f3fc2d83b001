#include "db/ops/joins.hh"

#include "util/logging.hh"

namespace cgp::db
{

IndexedNLJoin::IndexedNLJoin(DbContext &ctx, Operator &outer,
                             BTree &inner_index, HeapFile &inner_file,
                             TxnId txn, std::size_t outer_col,
                             std::size_t inner_col,
                             Predicate inner_residual)
    : ctx_(ctx), outer_(outer), innerIndex_(inner_index),
      innerFile_(inner_file), txn_(txn), outerCol_(outer_col),
      innerCol_(inner_col),
      innerResidual_(std::move(inner_residual)),
      outSchema_(concatSchemas(*outer.schema(), *inner_file.schema()))
{
}

void
IndexedNLJoin::open()
{
    TraceScope ts(ctx_.rec, ctx_.fn.inljOpen);
    ts.work(14);
    outer_.open();
    haveOuter_ = false;
    matches_.clear();
    matchIdx_ = 0;
}

bool
IndexedNLJoin::next(Tuple &out)
{
    TraceScope ts(ctx_.rec, ctx_.fn.inljNextC[ctx_.opClass()]);
    ts.work(12);
    {
        TraceScope hs(ctx_.rec, ctx_.fn.probeSetup);
        hs.work(5);
    }

    while (true) {
        if (haveOuter_ && matchIdx_ < matches_.size()) {
            const Rid rid = matches_[matchIdx_++];
            Tuple inner_tuple = innerFile_.getRec(txn_, rid);
            // Verify the key (duplicates share a probe list) and
            // apply the non-indexable residual filter.
            if (tracedGetInt(ctx_, inner_tuple, innerCol_,
                             callsite::nlj) ==
                    tracedGetInt(ctx_, outerTuple_, outerCol_,
                                 callsite::nlj) &&
                (innerResidual_.empty() ||
                 innerResidual_.eval(ctx_, inner_tuple,
                                     callsite::nlj))) {
                out = concatTuples(&outSchema_, outerTuple_,
                                   inner_tuple);
                return true;
            }
            continue;
        }

        if (!outer_.next(outerTuple_))
            return false;
        haveOuter_ = true;
        matches_.clear();
        matchIdx_ = 0;

        const std::int32_t key = tracedGetInt(
            ctx_, outerTuple_, outerCol_, callsite::nlj);
        BTree::RangeScan probe(innerIndex_, txn_, key, key);
        std::int32_t k;
        Rid rid;
        while (probe.next(k, rid))
            matches_.push_back(rid);
        probe.close();
        ts.branch(!matches_.empty());
    }
}

void
IndexedNLJoin::close()
{
    TraceScope ts(ctx_.rec, ctx_.fn.inljClose);
    ts.work(5);
    outer_.close();
}

GraceHashJoin::GraceHashJoin(DbContext &ctx, BufferPool &pool,
                             Volume &volume, LockManager &locks,
                             WriteAheadLog &log, Operator &left,
                             Operator &right, TxnId txn,
                             std::size_t left_col,
                             std::size_t right_col,
                             unsigned partitions)
    : ctx_(ctx), pool_(pool), volume_(volume), locks_(locks),
      log_(log), left_(left), right_(right), txn_(txn),
      leftCol_(left_col), rightCol_(right_col),
      numPartitions_(partitions),
      outSchema_(concatSchemas(*left.schema(), *right.schema()))
{
    cgp_assert(partitions > 0, "grace join needs partitions");
}

void
GraceHashJoin::partitionInput(
    Operator &input, std::size_t col,
    std::vector<std::unique_ptr<HeapFile>> &parts)
{
    TraceScope ts(ctx_.rec, ctx_.fn.ghjPartition);
    ts.work(20);

    parts.clear();
    for (unsigned p = 0; p < numPartitions_; ++p) {
        parts.push_back(std::make_unique<HeapFile>(
            ctx_, pool_, volume_, locks_, log_, input.schema()));
    }

    Tuple t;
    while (input.next(t)) {
        const std::uint64_t h =
            tracedHash(ctx_, t, col, callsite::ghj);
        const auto p =
            static_cast<std::size_t>(h % numPartitions_);
        // Temporary partitions are written through Create_rec —
        // the paper's Figure 2 path.
        parts[p]->createRec(txn_, t);
    }
}

void
GraceHashJoin::buildPartition(std::size_t p)
{
    TraceScope ts(ctx_.rec, ctx_.fn.ghjBuild);
    ts.work(18);

    hashTable_.clear();
    HeapFile::Scan scan(*leftParts_[p], txn_);
    Tuple t;
    while (scan.next(t)) {
        const std::int32_t key =
            tracedGetInt(ctx_, t, leftCol_, callsite::ghj);
        hashTable_.emplace(key, tracedCopy(ctx_, t, callsite::ghj));
    }
    scan.close();
}

void
GraceHashJoin::open()
{
    TraceScope ts(ctx_.rec, ctx_.fn.ghjOpen);
    ts.work(16);

    left_.open();
    right_.open();
    partitionInput(left_, leftCol_, leftParts_);
    partitionInput(right_, rightCol_, rightParts_);

    curPartition_ = 0;
    buildPartition(0);
    probeScan_ = std::make_unique<HeapFile::Scan>(*rightParts_[0],
                                                  txn_);
    probeMatches_.clear();
    probeMatchIdx_ = 0;
    opened_ = true;
}

bool
GraceHashJoin::probeStep(Tuple &out)
{
    TraceScope ts(ctx_.rec, ctx_.fn.ghjProbeC[ctx_.opClass()]);
    ts.work(12);
    {
        TraceScope hs(ctx_.rec, ctx_.fn.bucketCalc);
        hs.work(5);
    }

    while (true) {
        if (probeMatchIdx_ < probeMatches_.size()) {
            const Tuple *build_tuple =
                probeMatches_[probeMatchIdx_++];
            out = concatTuples(&outSchema_, *build_tuple,
                               probeTuple_);
            return true;
        }

        if (!probeScan_->next(probeTuple_)) {
            // Partition exhausted.
            probeScan_->close();
            probeScan_.reset();
            return false;
        }
        const std::int32_t key = tracedGetInt(
            ctx_, probeTuple_, rightCol_, callsite::ghj);
        probeMatches_.clear();
        probeMatchIdx_ = 0;
        auto [lo, hi] = hashTable_.equal_range(key);
        for (auto it = lo; it != hi; ++it)
            probeMatches_.push_back(&it->second);
        ts.branch(!probeMatches_.empty());
    }
}

bool
GraceHashJoin::next(Tuple &out)
{
    TraceScope ts(ctx_.rec, ctx_.fn.ghjNextC[ctx_.opClass()]);
    ts.work(6);
    cgp_assert(opened_, "next() before open()");

    while (true) {
        if (probeScan_ != nullptr && probeStep(out))
            return true;

        // Move to the next partition.
        ++curPartition_;
        if (curPartition_ >= numPartitions_)
            return false;
        buildPartition(curPartition_);
        probeScan_ = std::make_unique<HeapFile::Scan>(
            *rightParts_[curPartition_], txn_);
        probeMatches_.clear();
        probeMatchIdx_ = 0;
    }
}

void
GraceHashJoin::close()
{
    TraceScope ts(ctx_.rec, ctx_.fn.ghjClose);
    ts.work(6);
    if (probeScan_ != nullptr) {
        probeScan_->close();
        probeScan_.reset();
    }
    hashTable_.clear();
    left_.close();
    right_.close();
    opened_ = false;
}

} // namespace cgp::db
