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
 * exact: load the state arrays into freshly constructed structures,
 * then replay the trace expander forward by the recorded instruction
 * count (expansion is deterministic, so the expander's internal
 * state is reconstructed rather than serialized).
 */

#ifndef CGP_SAMPLE_CHECKPOINT_HH
#define CGP_SAMPLE_CHECKPOINT_HH

#include <cstdint>
#include <string>

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
