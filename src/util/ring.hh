/**
 * @file
 * Ring: a fixed-capacity FIFO over one array allocated at
 * construction.  The core's instruction window is bounded by its
 * Table 1 sizes and touched every cycle, so it never allocates after
 * the core is built.
 *
 * The array is rounded up to a power of two so that every index is
 * a mask, not a compare or a division; the capacity the ring admits
 * is held apart from it.
 *
 * push_back() hands out the slot itself: the caller writes every
 * field in place (the slot still holds the last entry that used it).
 */

#ifndef CGP_UTIL_RING_HH
#define CGP_UTIL_RING_HH

#include <bit>
#include <cstddef>
#include <vector>

#include "util/logging.hh"

namespace cgp
{

template <typename T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity)
        : slots_(std::bit_ceil(capacity)), mask_(slots_.size() - 1),
          capacity_(capacity)
    {
        cgp_assert(capacity > 0, "a ring needs a capacity of at least 1");
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ >= capacity_; }

    /** The @p i-th entry counted from the oldest (0 = front). */
    T &operator[](std::size_t i) { return slots_[(head_ + i) & mask_]; }
    const T &
    operator[](std::size_t i) const
    {
        return slots_[(head_ + i) & mask_];
    }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }

    /** Append a slot at the back; the caller overwrites it. */
    T &
    push_back()
    {
        cgp_assert(!full(), "push_back on a full ring");
        T &slot = slots_[(head_ + size_) & mask_];
        ++size_;
        return slot;
    }

    void
    pop_front()
    {
        cgp_assert(!empty(), "pop_front on an empty ring");
        head_ = (head_ + 1) & mask_;
        --size_;
    }

  private:
    std::vector<T> slots_;
    std::size_t mask_;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace cgp

#endif // CGP_UTIL_RING_HH
