#include "trace/serialize.hh"

#include <array>
#include <ostream>

#include "util/fnv.hh"

namespace cgp
{

namespace
{

/** @p w as the file stores it: 8 bytes, least significant first. */
std::array<char, 8>
wordBytes(std::uint64_t w)
{
    std::array<char, 8> bytes;
    for (int b = 0; b < 8; ++b)
        bytes[b] = static_cast<char>((w >> (b * 8)) & 0xff);
    return bytes;
}

/** Continue the checksum @p h over the stored bytes of @p w. */
std::uint64_t
hashWord(std::uint64_t h, std::uint64_t w)
{
    const std::array<char, 8> bytes = wordBytes(w);
    return fnv1a({bytes.data(), bytes.size()}, h);
}

void
putWord(std::ostream &os, std::uint64_t w)
{
    os.write(wordBytes(w).data(), 8);
}

} // anonymous namespace

bool
saveTrace(const TraceBuffer &trace, std::ostream &os)
{
    putWord(os, traceFileMagic);
    putWord(os, (static_cast<std::uint64_t>(traceFileVersion) << 32));
    putWord(os, trace.size());

    std::uint64_t checksum = fnv1aBasis;
    TraceBuffer::Cursor cursor(trace);
    for (TraceEvent e = TraceEvent::fromRaw(0); cursor.next(e);) {
        putWord(os, e.raw());
        checksum = hashWord(checksum, e.raw());
    }
    putWord(os, checksum);
    return static_cast<bool>(os);
}

} // namespace cgp
