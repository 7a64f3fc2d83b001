/**
 * @file
 * Slotted pages: records grow from the front, the slot directory
 * grows from the back (offset/length pairs).  A SlottedPage is a
 * non-owning view over an 8KB frame in the buffer pool.
 */

#ifndef CGP_DB_PAGE_HH
#define CGP_DB_PAGE_HH

#include <cstdint>

#include "db/common.hh"

namespace cgp::db
{

class SlottedPage
{
  public:
    static constexpr std::uint16_t invalidSlot = 0xffff;

    explicit SlottedPage(std::uint8_t *frame) : frame_(frame) {}

    /** Format an empty page. */
    void init();

    /** Number of occupied slots. */
    std::uint16_t slotCount() const;

    /** Free bytes available for one more record (incl. slot entry). */
    std::uint16_t freeBytes() const;

    /** True if a record of @p len bytes fits. */
    bool fits(std::uint16_t len) const;

    /**
     * Insert a record.
     * @return the new slot index, or invalidSlot when full.
     */
    std::uint16_t insert(const std::uint8_t *bytes, std::uint16_t len);

    /**
     * Pointer to the record in slot @p slot (nullptr if bad).  A slot
     * whose directory entry points outside the page reads as absent
     * rather than as a wild pointer.
     */
    const std::uint8_t *read(std::uint16_t slot,
                             std::uint16_t *len = nullptr) const;

  private:
    struct Header
    {
        std::uint16_t slots;
        std::uint16_t freeOffset; ///< first free byte after records
    };

    struct Slot
    {
        std::uint16_t offset;
        std::uint16_t length;
    };

    Header *header() { return reinterpret_cast<Header *>(frame_); }
    const Header *
    header() const
    {
        return reinterpret_cast<const Header *>(frame_);
    }

    Slot *slotEntry(std::uint16_t slot);
    const Slot *slotEntry(std::uint16_t slot) const;

    std::uint8_t *frame_;
};

} // namespace cgp::db

#endif // CGP_DB_PAGE_HH
