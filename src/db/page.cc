#include "db/page.hh"

#include <cstring>

#include "util/logging.hh"

namespace cgp::db
{

void
SlottedPage::init()
{
    header()->slots = 0;
    header()->freeOffset = sizeof(Header);
}

std::uint16_t
SlottedPage::slotCount() const
{
    return header()->slots;
}

SlottedPage::Slot *
SlottedPage::slotEntry(std::uint16_t slot)
{
    return reinterpret_cast<Slot *>(
        frame_ + pageBytes - (slot + 1) * sizeof(Slot));
}

const SlottedPage::Slot *
SlottedPage::slotEntry(std::uint16_t slot) const
{
    return reinterpret_cast<const Slot *>(
        frame_ + pageBytes - (slot + 1) * sizeof(Slot));
}

std::uint16_t
SlottedPage::freeBytes() const
{
    const std::uint32_t dir = static_cast<std::uint32_t>(
        (header()->slots) * sizeof(Slot));
    const std::uint32_t used = header()->freeOffset + dir;
    if (used + sizeof(Slot) >= pageBytes)
        return 0;
    return static_cast<std::uint16_t>(pageBytes - used - sizeof(Slot));
}

bool
SlottedPage::fits(std::uint16_t len) const
{
    return freeBytes() >= len;
}

std::uint16_t
SlottedPage::insert(const std::uint8_t *bytes, std::uint16_t len)
{
    cgp_assert(len > 0, "empty record");
    if (!fits(len))
        return invalidSlot;
    Header *h = header();
    const std::uint16_t slot = h->slots;
    Slot *s = slotEntry(slot);
    s->offset = h->freeOffset;
    s->length = len;
    std::memcpy(frame_ + h->freeOffset, bytes, len);
    h->freeOffset = static_cast<std::uint16_t>(h->freeOffset + len);
    ++h->slots;
    return slot;
}

const std::uint8_t *
SlottedPage::read(std::uint16_t slot, std::uint16_t *len) const
{
    if (slot >= header()->slots)
        return nullptr;
    const Slot *s = slotEntry(slot);
    if (s->offset < sizeof(Header) ||
        static_cast<std::uint32_t>(s->offset) + s->length > pageBytes)
        return nullptr;
    if (len != nullptr)
        *len = s->length;
    return frame_ + s->offset;
}

} // namespace cgp::db
