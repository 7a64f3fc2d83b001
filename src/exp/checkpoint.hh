/**
 * @file
 * Sealed warm-state checkpoint store for campaign run directories.
 *
 * Sampling's checkpoint interface (sample::CheckpointHooks) is a
 * pair of key-value callbacks; this module binds them to the same
 * integrity machinery the per-job artifacts use: every checkpoint
 * is a CRC32-sealed JSON document written with the durable
 * tmp-rename path and read back through readSealedJson
 * (exp/integrity), and a damaged artifact — torn write, bit flip,
 * truncation, unparsable text — goes to the store's quarantine/
 * directory through quarantineFile and is reported as a miss, so the
 * sampler transparently re-warms.
 *
 * Layout, under the run directory:
 *
 *     <dir>/checkpoints/<key>.json   one sealed warm checkpoint
 *     <dir>/checkpoints/quarantine/  artifacts that failed checks
 *
 * Keys come from sample::checkpointKey (workload + config + warmup
 * fingerprint), so repeated campaign jobs over the same workload
 * prefix skip warming while any change to the configuration misses.
 */

#ifndef CGP_EXP_CHECKPOINT_HH
#define CGP_EXP_CHECKPOINT_HH

#include <string>

#include "sample/config.hh"

namespace cgp::exp
{

/**
 * Hooks backed by `<runDir>/checkpoints/`.  The directory is created
 * lazily on first save; load treats a missing directory as a miss.
 * I/O failures on save are logged and swallowed — a checkpoint is an
 * optimization, never worth failing the job over — but an injected
 * crash (fault::CrashInjected) still ends the run, as the process
 * death it stands for would.
 */
sample::CheckpointHooks
makeSealedCheckpointStore(const std::string &runDir);

/** The store's directory for @p runDir (test introspection). */
std::string checkpointStoreDir(const std::string &runDir);

} // namespace cgp::exp

#endif // CGP_EXP_CHECKPOINT_HH
