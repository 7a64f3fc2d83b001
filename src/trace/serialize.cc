#include "trace/serialize.hh"

#include <array>
#include <fstream>
#include <vector>

#include "util/fnv.hh"
#include "util/logging.hh"

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

bool
getWord(std::istream &is, std::uint64_t &w)
{
    std::uint8_t bytes[8];
    is.read(reinterpret_cast<char *>(bytes), 8);
    if (!is)
        return false;
    w = 0;
    for (int b = 0; b < 8; ++b)
        w |= static_cast<std::uint64_t>(bytes[b]) << (b * 8);
    return true;
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

bool
saveTraceFile(const TraceBuffer &trace, const std::string &path)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        return false;
    return saveTrace(trace, os);
}

bool
loadTrace(TraceBuffer &trace, std::istream &is)
{
    trace.clear();

    std::uint64_t magic = 0, version_word = 0, count = 0;
    if (!getWord(is, magic) || magic != traceFileMagic) {
        cgp_warn("trace load: bad magic");
        return false;
    }
    if (!getWord(is, version_word) ||
        (version_word >> 32) != traceFileVersion) {
        cgp_warn("trace load: unsupported version");
        return false;
    }
    if (!getWord(is, count))
        return false;

    std::uint64_t checksum = fnv1aBasis;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t raw = 0;
        if (!getWord(is, raw)) {
            trace.clear();
            cgp_warn("trace load: truncated event stream");
            return false;
        }
        checksum = hashWord(checksum, raw);
        trace.append(TraceEvent::fromRaw(raw));
    }

    std::uint64_t stored = 0;
    if (!getWord(is, stored) || stored != checksum) {
        trace.clear();
        cgp_warn("trace load: checksum mismatch");
        return false;
    }
    return true;
}

bool
loadTraceFile(TraceBuffer &trace, const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    return loadTrace(trace, is);
}

} // namespace cgp
