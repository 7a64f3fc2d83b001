#include "trace/events.hh"

#include <algorithm>

namespace cgp
{

TraceBuffer &
TraceBuffer::operator=(TraceBuffer &&other) noexcept
{
    if (this != &other) {
        runs_ = std::move(other.runs_);
        own_ = std::move(other.own_);
        ownRuns_ = other.ownRuns_;
        flat_ = other.flat_;
        size_ = other.size_;
        approxInstrs_ = other.approxInstrs_;
        calls_ = other.calls_;
        other.clear();
    }
    return *this;
}

void
TraceBuffer::startRun()
{
    if (own_ == nullptr ||
        own_.use_count() != static_cast<long>(1 + ownRuns_)) {
        own_ = std::make_shared<Chunk>();
        ownRuns_ = 0;
    }
    runs_.push_back({own_, own_->size(), own_->size(), size_});
    ++ownRuns_;
    setFlat();
}

void
TraceBuffer::appendRange(const TraceBuffer &src, std::size_t begin,
                         std::size_t end)
{
    cgp_assert(&src != this, "trace appended to itself");
    cgp_assert(begin <= end && end <= src.size(),
               "trace range out of bounds");
    if (begin == end)
        return;
    for (std::size_t r = src.runAt(begin); begin < end; ++r) {
        const Run &s = src.runs_[r];
        const std::size_t from = s.begin + (begin - s.start);
        const std::size_t to = std::min(s.end, from + (end - begin));
        std::uint64_t instrs = 0;
        std::uint64_t calls = 0;
        for (std::size_t k = from; k < to; ++k)
            count(TraceEvent::fromRaw((*s.chunk)[k]), instrs, calls);
        approxInstrs_ += instrs;
        calls_ += calls;
        if (!runs_.empty() && runs_.back().chunk == s.chunk &&
            runs_.back().end == from) {
            runs_.back().end = to;
        } else {
            runs_.push_back({s.chunk, from, to, size_});
        }
        size_ += to - from;
        begin += to - from;
    }
    setFlat();
}

std::size_t
TraceBuffer::eventsSharedWith(const TraceBuffer &other) const
{
    std::vector<const Chunk *> theirs;
    for (const Run &r : other.runs_)
        theirs.push_back(r.chunk.get());
    std::sort(theirs.begin(), theirs.end());
    std::size_t n = 0;
    for (const Run &r : runs_) {
        if (std::binary_search(theirs.begin(), theirs.end(),
                               r.chunk.get()))
            n += r.end - r.begin;
    }
    return n;
}

std::size_t
TraceBuffer::runAt(std::size_t i) const
{
    const auto it = std::upper_bound(
        runs_.begin(), runs_.end(), i,
        [](std::size_t pos, const Run &r) { return pos < r.start; });
    return static_cast<std::size_t>(it - runs_.begin()) - 1;
}

TraceBuffer::Cursor::Cursor(const TraceBuffer &buffer) : buf_(&buffer)
{
    if (buffer.runs_.empty())
        return;
    const Run &r = buffer.runs_.front();
    p_ = r.chunk->data() + r.begin;
    end_ = r.chunk->data() + r.end;
}

std::size_t
TraceBuffer::Cursor::position() const
{
    if (run_ == buf_->runs_.size())
        return buf_->size();
    const Run &r = buf_->runs_[run_];
    return r.start + static_cast<std::size_t>(
                         p_ - (r.chunk->data() + r.begin));
}

bool
TraceBuffer::Cursor::nextRun()
{
    const std::vector<Run> &runs = buf_->runs_;
    if (run_ + 1 >= runs.size()) {
        run_ = runs.size();
        return false;
    }
    const Run &r = runs[++run_];
    p_ = r.chunk->data() + r.begin;
    end_ = r.chunk->data() + r.end;
    return true;
}

} // namespace cgp
