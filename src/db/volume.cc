#include "db/volume.hh"

#include <cstring>

#include "util/logging.hh"

namespace cgp::db
{

PageId
Volume::allocPage()
{
    TraceScope ts(ctx_.rec, ctx_.fn.diskAlloc);
    ts.work(14);
    pages_.push_back(std::make_unique<std::uint8_t[]>(pageBytes));
    std::memset(pages_.back().get(), 0, pageBytes);
    return static_cast<PageId>(pages_.size() - 1);
}

void
Volume::readPage(PageId pid, std::uint8_t *out)
{
    TraceScope ts(ctx_.rec, ctx_.fn.diskRead);
    cgp_assert(pid < pages_.size(), "read of unallocated page ", pid);
    // Modeled cost of the block-copy path (the I/O itself is assumed
    // masked by concurrent execution per paper §1).
    ts.work(120);
    std::memcpy(out, pages_[pid].get(), pageBytes);
}

void
Volume::writePage(PageId pid, const std::uint8_t *in)
{
    TraceScope ts(ctx_.rec, ctx_.fn.diskWrite);
    cgp_assert(pid < pages_.size(), "write of unallocated page ", pid);
    ts.work(120);
    std::memcpy(pages_[pid].get(), in, pageBytes);
}

} // namespace cgp::db
