#include "util/crc.hh"

#include <array>

namespace cgp
{

namespace
{

/**
 * Slicing-by-8 tables: t[0] is the bytewise table, and t[k][b] is
 * the CRC of byte b followed by k zero bytes, so eight table reads
 * advance the CRC by eight bytes at once.
 */
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
        for (std::size_t k = 1; k < 8; ++k)
            t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
    return t;
}

/** Little-endian load of four bytes. */
std::uint32_t
load32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
        static_cast<std::uint32_t>(p[1]) << 8 |
        static_cast<std::uint32_t>(p[2]) << 16 |
        static_cast<std::uint32_t>(p[3]) << 24;
}

} // anonymous namespace

std::uint32_t
crc32Update(std::uint32_t crc, std::string_view data)
{
    static const Tables t = makeTables();
    const auto *p = reinterpret_cast<const unsigned char *>(data.data());
    std::size_t n = data.size();
    for (; n >= 8; n -= 8, p += 8) {
        const std::uint32_t lo = load32(p) ^ crc;
        const std::uint32_t hi = load32(p + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p)
        crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
    return crc;
}

} // namespace cgp
