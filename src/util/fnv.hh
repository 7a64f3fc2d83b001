/**
 * @file
 * 64-bit FNV-1a, the one non-cryptographic hash behind every stable
 * digest and name in the repo: trace checksums, function-name
 * hashes, warm-checkpoint keys and campaign fingerprints.  Those
 * values land in files (traces, checkpoint names, job files and the
 * digest goldens), so the function must never change.
 */

#ifndef CGP_UTIL_FNV_HH
#define CGP_UTIL_FNV_HH

#include <cstdint>
#include <string_view>

namespace cgp
{

inline constexpr std::uint64_t fnv1aBasis = 0xcbf29ce484222325ull;

/** Continue the FNV-1a hash @p h over @p bytes (a fresh hash starts
 *  from fnv1aBasis). */
inline std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h = fnv1aBasis)
{
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace cgp

#endif // CGP_UTIL_FNV_HH
