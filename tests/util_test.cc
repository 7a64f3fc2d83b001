/**
 * @file
 * Unit tests for the util module: RNG determinism and distribution
 * sanity, bit helpers, table formatting, the fixed-capacity ring, and
 * the panic/fatal error paths.
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/bitops.hh"
#include "util/crc.hh"
#include "util/logging.hh"
#include "util/ring.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace cgp
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversDomain)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliApproximatesP)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i) {
        if (rng.nextBool(0.3))
            ++hits;
    }
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, GeometricMeanApproximatesTarget)
{
    Rng rng(19);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(40.0));
    EXPECT_NEAR(sum / n, 40.0, 3.0);
}

TEST(Rng, GeometricNeverZero)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.nextGeometric(1.5), 1u);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(29);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
    auto w = v;
    rng.shuffle(w);
    auto ws = w;
    std::sort(ws.begin(), ws.end());
    EXPECT_EQ(ws, v);
}

TEST(Rng, ForkIsIndependent)
{
    Rng a(31);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Zipf, SkewsTowardLowRanks)
{
    Rng rng(37);
    ZipfGenerator zipf(100, 0.99);
    std::uint64_t low = 0, high = 0;
    for (int i = 0; i < 10000; ++i) {
        const auto v = zipf.next(rng);
        ASSERT_LT(v, 100u);
        if (v < 10)
            ++low;
        if (v >= 90)
            ++high;
    }
    EXPECT_GT(low, high * 3);
}

TEST(Bitops, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(1023));
}

TEST(Bitops, FloorAndCeilLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(Bitops, Alignment)
{
    EXPECT_EQ(alignDown(37, 32), 32u);
    EXPECT_EQ(alignUp(37, 32), 64u);
    EXPECT_EQ(alignUp(64, 32), 64u);
    EXPECT_EQ(alignDown(64, 32), 64u);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(TablePrinter::num(1234567), "1,234,567");
    EXPECT_EQ(TablePrinter::num(12), "12");
    EXPECT_EQ(TablePrinter::fixed(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::percent(0.256, 1), "25.6%");
}

TEST(Table, RendersAlignedRows)
{
    TablePrinter t("title");
    t.setHeader({"a", "bbbb"});
    t.addRow({"x", "1"});
    t.addRule();
    t.addRow({"longer", "2"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("bbbb"), std::string::npos);
}

TEST(Ring, FifoOrder)
{
    Ring<int> ring(4);
    EXPECT_TRUE(ring.empty());
    for (int i = 0; i < 4; ++i)
        ring.push_back() = i;
    EXPECT_TRUE(ring.full());
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(ring[static_cast<std::size_t>(i)], i);
    }
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(ring.front(), i);
        ring.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(Ring, PushBackAtCapacityMinusOneFillsIt)
{
    Ring<int> ring(3);
    ring.push_back() = 10;
    ring.push_back() = 11;
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_FALSE(ring.full());
    ring.push_back() = 12; // the last free slot
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring[2], 12);

    detail::setThrowOnError(true);
    EXPECT_THROW(ring.push_back(), std::logic_error);
    detail::setThrowOnError(false);
    EXPECT_EQ(ring.size(), 3u);

    // Freeing the head makes room for exactly one more, in the slot
    // the head left (the tail wraps).
    ring.pop_front();
    EXPECT_FALSE(ring.full());
    ring.push_back() = 13;
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring.front(), 11);
    EXPECT_EQ(ring[1], 12);
    EXPECT_EQ(ring[2], 13);
}

TEST(Ring, WrapsAroundManyTimesInOrder)
{
    // Interleaved pushes and pops move head and tail past the end of
    // the array thousands of times; the ring must behave exactly like
    // an unbounded FIFO holding the same elements.
    Ring<std::uint64_t> ring(5);
    std::deque<std::uint64_t> model;
    Rng rng(11);
    std::uint64_t next = 0;
    for (int step = 0; step < 20'000; ++step) {
        const bool push = !ring.full() &&
            (ring.empty() || rng.nextBool(0.5));
        if (push) {
            ring.push_back() = next;
            model.push_back(next);
            ++next;
        } else {
            ASSERT_EQ(ring.front(), model.front());
            ring.pop_front();
            model.pop_front();
        }
        ASSERT_EQ(ring.size(), model.size());
        for (std::size_t i = 0; i < model.size(); ++i)
            ASSERT_EQ(ring[i], model[i]);
    }
    EXPECT_GT(next, 5000u);
}

TEST(Ring, RejectsZeroCapacity)
{
    detail::setThrowOnError(true);
    EXPECT_THROW(Ring<int>(0), std::logic_error);
    detail::setThrowOnError(false);
}

TEST(Ring, RandomOpsMatchADeque)
{
    // Seeded pushes, pops and indexing against std::deque at every
    // small capacity and at the core's window sizes, powers of two
    // and not.
    for (const std::size_t capacity :
         {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 16u, 64u, 80u}) {
        Ring<std::uint64_t> ring(capacity);
        std::deque<std::uint64_t> model;
        Rng rng(capacity);
        std::uint64_t next = 0;
        for (int step = 0; step < 4'000; ++step) {
            const std::uint64_t op = rng.nextBelow(3);
            if (op == 0 && !ring.full()) {
                ring.push_back() = next;
                model.push_back(next);
                ++next;
            } else if (op == 1 && !ring.empty()) {
                ASSERT_EQ(ring.front(), model.front()) << capacity;
                ring.pop_front();
                model.pop_front();
            } else if (!model.empty()) {
                const std::size_t i =
                    static_cast<std::size_t>(rng.nextBelow(model.size()));
                ASSERT_EQ(ring[i], model[i]) << capacity;
            }
            ASSERT_EQ(ring.size(), model.size()) << capacity;
            ASSERT_EQ(ring.empty(), model.empty()) << capacity;
            ASSERT_EQ(ring.full(), model.size() == capacity) << capacity;
        }
        EXPECT_GT(next, capacity) << capacity;
    }
}

TEST(Logging, PanicThrowsInTestMode)
{
    detail::setThrowOnError(true);
    EXPECT_THROW(cgp_panic("boom ", 42), std::logic_error);
    EXPECT_THROW(cgp_fatal("bad config"), std::runtime_error);
    EXPECT_THROW(cgp_assert(1 == 2, "math broke"), std::logic_error);
    detail::setThrowOnError(false);
}

TEST(Crc32, MatchesTheIeeeKnownAnswer)
{
    // The CRC32 check value every IEEE 802.3 implementation must
    // reproduce.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0x00000000u);
}

TEST(Crc32, IncrementalEqualsOneShot)
{
    const std::string text = "the quick brown fox";
    std::uint32_t state = crc32Init;
    state = crc32Update(state, text.substr(0, 7));
    state = crc32Update(state, text.substr(7));
    EXPECT_EQ(crc32Final(state), crc32(text));
}

TEST(Crc32, DetectsSingleBitFlips)
{
    std::string text = "{\"cycles\": 123456, \"instrs\": 7890}";
    const std::uint32_t clean = crc32(text);
    for (std::size_t i = 0; i < text.size(); ++i) {
        std::string flipped = text;
        flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
        EXPECT_NE(crc32(flipped), clean) << "flip at " << i;
    }
    // Truncation is also caught.
    EXPECT_NE(crc32(text.substr(0, text.size() / 2)), clean);
}

/** Bit-at-a-time CRC32 update: the definition crc32Update must
 *  reproduce however many bytes it folds per step. */
std::uint32_t
bytewiseCrc32Update(std::uint32_t crc, std::string_view data)
{
    for (const char ch : data) {
        crc ^= static_cast<std::uint8_t>(ch);
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc;
}

TEST(Crc32, SlicedMatchesBytewiseReference)
{
    // An 8-byte-aligned buffer, so offsets 0..7 cover every start
    // alignment of the 8-byte steps.
    std::vector<std::uint64_t> storage(4096 / 8 + 2);
    Rng rng(0xc0ffee);
    for (std::uint64_t &word : storage)
        word = rng.next();
    const char *base = reinterpret_cast<const char *>(storage.data());

    // Every length up to 64 (each tail length of every alignment),
    // then random lengths up to 4 KiB, and 4 KiB itself.
    std::vector<std::size_t> lengths;
    for (std::size_t len = 0; len <= 64; ++len)
        lengths.push_back(len);
    for (int i = 0; i < 48; ++i)
        lengths.push_back(65 + rng.nextBelow(4096 - 65));
    lengths.push_back(4096);

    for (std::size_t align = 0; align < 8; ++align) {
        for (const std::size_t len : lengths) {
            const std::string_view data(base + align, len);
            EXPECT_EQ(crc32(data),
                      crc32Final(bytewiseCrc32Update(crc32Init, data)))
                << "alignment " << align << " length " << len;
        }
    }

    // Chained updates agree at every split point of 1 KiB.
    const std::string_view kib(base + 3, 1024);
    const std::uint32_t want =
        crc32Final(bytewiseCrc32Update(crc32Init, kib));
    for (std::size_t split = 0; split <= kib.size(); ++split) {
        const std::uint32_t head =
            crc32Update(crc32Init, kib.substr(0, split));
        EXPECT_EQ(crc32Final(crc32Update(head, kib.substr(split))),
                  want)
            << "split at " << split;
    }
}

} // namespace
} // namespace cgp
