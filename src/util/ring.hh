/**
 * @file
 * Ring: a fixed-capacity FIFO over one array allocated at
 * construction.  The core's fetch queue and reorder buffer are
 * bounded by their Table 1 sizes and touched every cycle, so they
 * never allocate after the core is built.
 *
 * push_back() hands out the slot itself: the caller writes every
 * field in place (the slot still holds the last entry that used it).
 */

#ifndef CGP_UTIL_RING_HH
#define CGP_UTIL_RING_HH

#include <cstddef>
#include <vector>

#include "util/logging.hh"

namespace cgp
{

template <typename T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity) : slots_(capacity) {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ >= slots_.size(); }

    /** The @p i-th entry counted from the oldest (0 = front). */
    T &operator[](std::size_t i) { return slots_[slotOf(i)]; }
    const T &operator[](std::size_t i) const { return slots_[slotOf(i)]; }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }

    /** Append a slot at the back; the caller overwrites it. */
    T &
    push_back()
    {
        cgp_assert(!full(), "push_back on a full ring");
        T &slot = slots_[slotOf(size_)];
        ++size_;
        return slot;
    }

    void
    pop_front()
    {
        cgp_assert(!empty(), "pop_front on an empty ring");
        if (++head_ == slots_.size())
            head_ = 0;
        --size_;
    }

  private:
    std::size_t
    slotOf(std::size_t i) const
    {
        std::size_t slot = head_ + i;
        if (slot >= slots_.size())
            slot -= slots_.size();
        return slot;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace cgp

#endif // CGP_UTIL_RING_HH
