#include "calib.hh"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <vector>

namespace perfbench
{

namespace
{

/** Work of one calibrateOnce(): instructions the front-end model
 *  fetches and operations the scoreboard issues.  On an unloaded host
 *  the front end takes about 70% of the time: with that mix the
 *  kernel's slowdown came closest to the simulator's over the slow
 *  spells seen on a shared VM (all front end over-corrected by about
 *  12%, half and half under-corrected by about 8%). */
constexpr std::uint64_t fetchInstrs = 1'050'000;
constexpr std::uint64_t scoreboardOps = 1'700'000;

constexpr std::uint64_t codeBytes = 1u << 20;
constexpr unsigned lineShift = 5;
constexpr std::size_t l1Sets = 512, l1Ways = 2;   // 32 KiB
constexpr std::size_t l2Sets = 8192, l2Ways = 4;  // 1 MiB
constexpr std::size_t bpEntries = 1u << 14;

std::uint64_t
nextRandom(std::uint64_t &state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state;
}

/**
 * The memory-bound part: an instruction stream with branches, calls and
 * returns through two levels of set-associative tags, a gshare
 * predictor and a call-target table.
 */
class FrontEnd
{
  public:
    std::uint64_t
    run()
    {
        std::fill(l1_.begin(), l1_.end(), ~0ull);
        std::fill(l2_.begin(), l2_.end(), ~0ull);
        std::fill(bp_.begin(), bp_.end(), 1);
        callTargets_.clear();

        std::uint64_t rng = 0x9E3779B97F4A7C15ull, pc = 0, history = 0;
        std::uint64_t stack[64];
        unsigned depth = 0;
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < fetchInstrs; ++i) {
            const std::uint64_t r64 = nextRandom(rng);
            const std::uint64_t line = pc >> lineShift;
            if (!access(l1_, l1Sets, l1Ways, line))
                sum += access(l2_, l2Sets, l2Ways, line) ? 1 : 10;
            const unsigned r = static_cast<unsigned>(r64 >> 56);
            if (r < 24) {
                const std::size_t idx = ((pc >> 2) ^ history) % bpEntries;
                const bool taken = (r64 >> 40) & 1;
                sum += (bp_[idx] >= 2) != taken;
                bp_[idx] = taken ? std::min(3, bp_[idx] + 1)
                                 : std::max(0, bp_[idx] - 1);
                history = (history << 1) | taken;
                pc = taken ? (pc + (r64 >> 48) * 4) % codeBytes : pc + 4;
            } else if (r < 28 && depth < 64) {
                stack[depth++] = pc + 4;
                const std::uint64_t target = ((r64 >> 20) % codeBytes) & ~3ull;
                sum += ++callTargets_[pc ^ (target << 20)];
                pc = target;
            } else if (r < 32 && depth > 0) {
                pc = stack[--depth];
            } else {
                pc = (pc + 4) % codeBytes;
            }
        }
        return sum;
    }

  private:
    /** Look @p line up with move-to-front replacement; true on a hit. */
    static bool
    access(std::vector<std::uint64_t> &tags, std::size_t sets,
           std::size_t ways, std::uint64_t line)
    {
        std::uint64_t *set = &tags[(line % sets) * ways];
        std::size_t w = 0;
        while (w < ways - 1 && set[w] != line)
            ++w;
        const bool hit = set[w] == line;
        for (; w > 0; --w)
            set[w] = set[w - 1];
        set[0] = line;
        return hit;
    }

    std::vector<std::uint64_t> l1_ =
        std::vector<std::uint64_t>(l1Sets * l1Ways);
    std::vector<std::uint64_t> l2_ =
        std::vector<std::uint64_t>(l2Sets * l2Ways);
    std::vector<std::uint8_t> bp_ = std::vector<std::uint8_t>(bpEntries);
    std::unordered_map<std::uint64_t, std::uint32_t> callTargets_;
};

/** The compute-bound part: a register scoreboard that issues
 *  dependent operations with random latencies. */
std::uint64_t
scoreboard()
{
    std::uint64_t ready[64] = {};
    std::uint64_t rng = 12345, cycle = 0, sum = 0;
    for (std::uint64_t i = 0; i < scoreboardOps; ++i) {
        const std::uint64_t r = nextRandom(rng);
        const unsigned src = (r >> 33) & 63, dst = (r >> 45) & 63;
        cycle = std::max(cycle + 1, ready[src]);
        ready[dst] = cycle + ((r >> 60) & 3) + 1;
        if ((r >> 58) == 0)
            sum += cycle;
    }
    return sum + cycle;
}

} // namespace

double
calibrateOnce(std::uint64_t &sink)
{
    static FrontEnd frontEnd;
    const auto t0 = std::chrono::steady_clock::now();
    sink += frontEnd.run() + scoreboard();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace perfbench
