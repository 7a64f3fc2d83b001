/**
 * @file
 * Warm-state checkpoints: everything functional warming touches,
 * serialized through util/json into one document (DESIGN.md §11.3).
 *
 * A checkpoint is cut only at the end of the *pure* warmup prefix —
 * the machine has never executed a detailed cycle, so every
 * statistics counter is still zero, no MSHR is in flight and the
 * cycle clock reads zero.  That choice keeps the format small
 * (counters need not be serialized) and makes restore trivially
 * exact: reset each structure and load its saved state, then replay
 * the trace expander forward by the recorded instruction count
 * (expansion is deterministic, so the expander's internal state is
 * reconstructed rather than serialized).
 *
 * Format 2 is sparse: the cache, CGHC, BTB, stride and correlation
 * sections store only the entries that hold state, and each
 * loadState resets its table before filling those entries in (see
 * emptyRuns below).  The PHT, the RAS and the semantic dedup filter
 * stay dense.  A format-1 document fails checkCheckpoint, so the
 * sampler re-warms and overwrites it.
 */

#ifndef CGP_SAMPLE_CHECKPOINT_HH
#define CGP_SAMPLE_CHECKPOINT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.hh"

namespace cgp
{

class BranchUnit;
class Cache;
class Cghc;
class CorrelationDataPrefetcher;
class Core;
class SemanticDataPrefetcher;
class StrideDataPrefetcher;

namespace sample
{

/**
 * Borrowed pointers to every structure a checkpoint covers.  The
 * machine fills the caches, branch unit and core; each prefetch
 * engine fills its own pointer through addCheckpointParts, so the
 * engine pointers are null when the corresponding prefetcher is not
 * part of the configuration (the checkpoint records which sections
 * are present and restore demands the same shape — guaranteed in
 * practice because the configuration string is part of the
 * checkpoint key).
 */
struct CheckpointParts
{
    Cache *l1i = nullptr;
    Cache *l1d = nullptr;
    Cache *l2 = nullptr;
    BranchUnit *branch = nullptr;
    Cghc *cghc = nullptr;
    StrideDataPrefetcher *stride = nullptr;
    CorrelationDataPrefetcher *correlation = nullptr;
    SemanticDataPrefetcher *semantic = nullptr;
    Core *core = nullptr;
};

/**
 * @name Sparse table sections
 * A table section lists its empty slots under "empty" as runs
 * [start0, length0, start1, length1, ...]: sorted, in range, each at
 * least one slot long and separated from the next by at least one
 * filled slot, so one table state has exactly one encoding.  Every
 * value array of the section holds one element (or a fixed number of
 * elements) per filled slot, in slot order.  A full table writes
 * "empty": [] and costs exactly what a dense array did; every empty
 * run saves its slots' values for two numbers.  These helpers are
 * header-only because the table modules that use them (mem, branch,
 * prefetch, dprefetch) sit below cgp_sample, which links them.
 * @{
 */

/** The runs of slots in [0, @p slots) for which @p filled is false. */
template <typename Filled>
Json
emptyRuns(std::size_t slots, Filled filled)
{
    Json runs = Json::array();
    for (std::size_t i = 0; i < slots;) {
        if (filled(i)) {
            ++i;
            continue;
        }
        const std::size_t start = i;
        while (i < slots && !filled(i))
            ++i;
        runs.push(start);
        runs.push(i - start);
    }
    return runs;
}

/**
 * The filled slots, in slot order, of a @p slots-entry table whose
 * empty slots are @p runs.  Throws std::runtime_error naming @p what
 * on unpaired, unsorted, overlapping, adjacent, empty or
 * out-of-range runs.
 */
inline std::vector<std::size_t>
filledSlots(const Json &runs, std::size_t slots, const std::string &what)
{
    const Json::Array &items = runs.items();
    if (items.size() % 2 != 0)
        throw std::runtime_error(what + " checkpoint has an unpaired run");
    std::vector<std::size_t> filled;
    std::size_t next = 0; // first slot not yet classified
    for (std::size_t r = 0; r < items.size(); r += 2) {
        const std::uint64_t start = items[r].asUint();
        const std::uint64_t length = items[r + 1].asUint();
        if (start < next || (r > 0 && start == next))
            throw std::runtime_error(
                what + " checkpoint runs are unsorted or overlap");
        if (length == 0 || start >= slots || length > slots - start)
            throw std::runtime_error(
                what + " checkpoint run is empty or out of range");
        for (; next < start; ++next)
            filled.push_back(next);
        next = static_cast<std::size_t>(start + length);
    }
    for (; next < slots; ++next)
        filled.push_back(next);
    return filled;
}

/**
 * @p section's array @p key, demanded to hold @p perSlot values for
 * each of @p filled slots.
 */
inline const Json::Array &
slotValues(const Json &section, const char *key, std::size_t filled,
           const std::string &what, std::size_t perSlot = 1)
{
    const Json::Array &values = section.at(key).items();
    if (values.size() != filled * perSlot)
        throw std::runtime_error(what + " checkpoint '" + key +
                                 "' does not match its runs");
    return values;
}

/** @} */

/**
 * Store key for a warmup checkpoint: FNV-1a hash (hex) of the
 * workload name, the full configuration label and the warmup length
 * — any of which changing must miss the store.
 */
std::string checkpointKey(const std::string &workload,
                          const std::string &configLabel,
                          std::uint64_t warmup_instrs);

/**
 * Serialize the warmed state plus identifying metadata.
 * @param consumed Instructions the warmup actually consumed (may be
 *        short of the requested warmup on a small trace); restore
 *        replays the expander by exactly this count.
 */
Json buildCheckpoint(const CheckpointParts &parts,
                     const std::string &workload,
                     const std::string &configLabel,
                     std::uint64_t warmup_instrs,
                     std::uint64_t consumed);

/**
 * Validate @p doc's metadata against the expected identity without
 * touching any machine state.  Throws std::runtime_error on an
 * unknown format, an identity mismatch or a consumed count past the
 * warmup budget: the caller may then re-warm from scratch.
 * @return the recorded consumed-instruction count for the caller to
 *         replay through InstructionExpander::advance().
 */
std::uint64_t checkCheckpoint(const Json &doc,
                              const std::string &workload,
                              const std::string &configLabel,
                              std::uint64_t warmup_instrs);

/**
 * Load every state section of a checkCheckpoint()-validated @p doc
 * into @p parts.  Throws std::runtime_error on malformed state,
 * possibly after earlier sections loaded: the machine is then
 * neither reset nor restored.
 */
void applyCheckpoint(const Json &doc, const CheckpointParts &parts);

} // namespace sample
} // namespace cgp

#endif // CGP_SAMPLE_CHECKPOINT_HH
