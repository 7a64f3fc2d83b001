#include "db/heapfile.hh"

#include "util/logging.hh"

namespace cgp::db
{

HeapFile::HeapFile(DbContext &ctx, BufferPool &pool, Volume &volume,
                   LockManager &locks, WriteAheadLog &log,
                   const Schema *schema)
    : ctx_(ctx), pool_(pool), volume_(volume), locks_(locks),
      log_(log), schema_(schema)
{
    cgp_assert(schema_ != nullptr, "heap file needs a schema");
    cgp_assert(schema_->recordBytes() > 0, "empty record schema");
}

PageId
HeapFile::findFreePage(std::uint16_t len, std::uint8_t *&frame)
{
    // Find_page_in_buffer_pool (Figure 2): records append to the
    // tail page, so the common case is one pinned resident page.
    TraceScope ts(ctx_.rec, ctx_.fn.hfFindFree);
    ts.work(10);

    if (!pages_.empty()) {
        const PageId tail = pages_.back();
        frame = pool_.fix(tail);
        SlottedPage page(frame);
        const bool fits = page.fits(len);
        ts.branch(fits);
        if (fits)
            return tail;
        pool_.unfix(tail, false);
    } else {
        ts.branch(false);
    }

    // Tail full (or empty file): extend.
    const PageId fresh = volume_.allocPage();
    frame = pool_.fix(fresh);
    {
        TraceScope is(ctx_.rec, ctx_.fn.pageInit);
        is.work(12);
        SlottedPage page(frame);
        page.init();
    }
    pages_.push_back(fresh);
    return fresh;
}

Rid
HeapFile::createRec(TxnId txn, const Tuple &tuple)
{
    TraceScope ts(ctx_.rec, ctx_.fn.hfCreateRec);
    ts.work(8);
    cgp_assert(tuple.size() == schema_->recordBytes(),
               "tuple does not match heap file schema");

    std::uint8_t *frame = nullptr;
    const PageId pid = findFreePage(tuple.size(), frame);

    locks_.acquire(txn, pid, LockMode::Exclusive);

    std::uint16_t slot;
    {
        TraceScope us(ctx_.rec, ctx_.fn.pageInsert);
        us.work(18);
        SlottedPage page(frame);
        slot = page.insert(tuple.data(), tuple.size());
        cgp_assert(slot != SlottedPage::invalidSlot,
                   "findFreePage returned a full page");
        us.storeAt(pool_.frameAddr(pid, 64u + slot * tuple.size()));
    }

    log_.append(txn, LogRecordType::Insert, pid, slot);
    locks_.release(txn, pid);
    pool_.unfix(pid, true);

    ++records_;
    return Rid{pid, slot};
}

Tuple
HeapFile::getRec(TxnId txn, Rid rid)
{
    TraceScope ts(ctx_.rec, ctx_.fn.hfGetRecC[ctx_.opClass()]);
    ts.work(8);
    {
        TraceScope hs(ctx_.rec, ctx_.fn.ridDecode);
        hs.work(5);
    }
    {
        TraceScope hs(ctx_.rec, ctx_.fn.hfStats);
        hs.work(5);
    }

    // The RID names the record before any lock/fix work happens:
    // announce its (approximate) location so a semantic prefetcher
    // can cover it during the lock acquisition path.
    ts.hint(DataHintKind::HeapRecord,
            pool_.frameAddrIfResident(
                rid.page,
                64u + rid.slot * schema_->recordBytes()));

    locks_.acquire(txn, rid.page, LockMode::Shared);
    std::uint8_t *frame = pool_.fix(rid.page);

    Tuple out;
    {
        TraceScope rs(ctx_.rec, ctx_.fn.pageRead);
        rs.work(6);
        {
            TraceScope hs(ctx_.rec, ctx_.fn.pageChecksum);
            hs.work(5);
        }
        SlottedPage page(frame);
        std::uint16_t len = 0;
        const std::uint8_t *bytes = nullptr;
        {
            TraceScope sl(ctx_.rec,
                          ctx_.fn.pageSlotLookupC[ctx_.opClass()]);
            sl.work(10);
            bytes = page.read(rid.slot, &len);
        }
        cgp_assert(bytes != nullptr, "getRec of missing slot");
        cgp_assert(len == schema_->recordBytes(), "corrupt record");
        rs.loadAt(pool_.frameAddr(
            rid.page,
            static_cast<std::uint32_t>(bytes -
                                       frame)));
        {
            TraceScope rc(ctx_.rec,
                          ctx_.fn.pageRecordCopyC[ctx_.opClass()]);
            rc.work(8);
            out = Tuple(schema_, bytes);
        }
        {
            TraceScope de(ctx_.rec,
                          ctx_.fn.tupDeserializeC[ctx_.opClass()]);
            de.work(7);
        }
    }

    pool_.unfix(rid.page, false);
    locks_.release(txn, rid.page);
    return out;
}

HeapFile::Scan::Scan(HeapFile &file, TxnId txn)
    : file_(file), txn_(txn)
{
    TraceScope ts(file_.ctx_.rec, file_.ctx_.fn.hfScanOpen);
    ts.work(12);
}

HeapFile::Scan::~Scan()
{
    if (open_)
        close();
}

bool
HeapFile::Scan::next(Tuple &out, Rid *rid)
{
    TraceScope ts(file_.ctx_.rec,
                  file_.ctx_.fn.hfScanNextC[file_.ctx_.opClass()]);
    ts.work(13);
    {
        TraceScope hs(file_.ctx_.rec, file_.ctx_.fn.hfIterAdvance);
        hs.work(6);
    }
    {
        TraceScope hs(file_.ctx_.rec, file_.ctx_.fn.cursorCheck);
        hs.work(5);
    }

    while (true) {
        if (frame_ == nullptr) {
            const bool more = pageIdx_ < file_.pages_.size();
            ts.branch(more);
            if (!more)
                return false;
            const PageId pid = file_.pages_[pageIdx_];
            file_.locks_.acquire(txn_, pid, LockMode::Shared);
            frame_ = file_.pool_.fix(pid);
            slot_ = 0;
        }

        SlottedPage page(frame_);
        if (slot_ < page.slotCount()) {
            TraceScope rs(file_.ctx_.rec,
                          file_.ctx_.fn.pageReadC[
                              file_.ctx_.opClass()]);
            rs.work(8);
            {
                TraceScope hs(file_.ctx_.rec,
                              file_.ctx_.fn.pageStats);
                hs.work(5);
            }
            std::uint16_t len = 0;
            const std::uint8_t *bytes = nullptr;
            {
                TraceScope sl(file_.ctx_.rec,
                              file_.ctx_.fn.pageSlotLookupC[
                                  file_.ctx_.opClass()]);
                sl.work(10);
                bytes = page.read(slot_, &len);
            }
            const auto rec_off =
                static_cast<std::uint32_t>(bytes - frame_);
            rs.loadAt(file_.pool_.frameAddr(file_.pages_[pageIdx_],
                                            rec_off));
            // Sequential cursor: the next call reads the next slot
            // of this page — or the head of the next page when this
            // one is nearly done.
            if (rec_off + len < pageBytes) {
                rs.hint(DataHintKind::HeapNextSlot,
                        file_.pool_.frameAddrIfResident(
                            file_.pages_[pageIdx_], rec_off + len));
            }
            if (slot_ + 4 >= page.slotCount() &&
                pageIdx_ + 1 < file_.pages_.size()) {
                rs.hint(DataHintKind::HeapNextPage,
                        file_.pool_.frameAddrIfResident(
                            file_.pages_[pageIdx_ + 1], 64u));
            }
            {
                TraceScope rc(file_.ctx_.rec,
                              file_.ctx_.fn.pageRecordCopyC[
                                  file_.ctx_.opClass()]);
                rc.work(7);
                out = Tuple(file_.schema_, bytes);
            }
            if (rid != nullptr)
                *rid = Rid{file_.pages_[pageIdx_], slot_};
            ++slot_;
            return true;
        }

        // Page exhausted: release and advance.
        const PageId pid = file_.pages_[pageIdx_];
        file_.pool_.unfix(pid, false);
        file_.locks_.release(txn_, pid);
        frame_ = nullptr;
        ++pageIdx_;
    }
}

void
HeapFile::Scan::close()
{
    TraceScope ts(file_.ctx_.rec, file_.ctx_.fn.hfScanClose);
    ts.work(5);
    if (frame_ != nullptr) {
        const PageId pid = file_.pages_[pageIdx_];
        file_.pool_.unfix(pid, false);
        file_.locks_.release(txn_, pid);
        frame_ = nullptr;
    }
    open_ = false;
}

} // namespace cgp::db
