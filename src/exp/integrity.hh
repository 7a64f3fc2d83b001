/**
 * @file
 * Artifact integrity for the experiment engine.
 *
 * Every JSON artifact the engine persists — per-job result files,
 * the run-directory manifest, warm checkpoints, BENCH_*.json — is
 * *sealed* by sealedJsonText(): a "crc32" member carries the CRC32
 * of the pretty-printed document with the seal itself removed.  A
 * torn write, bit flip, or truncation is caught by readSealedJson()
 * on resume; the corrupt file goes to quarantineFile() and its job
 * re-runs instead of poisoning results.
 *
 * writeFileAtomicDurable() is the one write path for all sealed
 * artifacts: tmp file -> flush -> fsync -> rename -> fsync(dir), so
 * a crash at any instant leaves either the old file, the new file,
 * or a sweepable *.tmp — never a half-visible artifact under the
 * final name.  The "exp.artifact_write" crash point lives inside it:
 * a TornWrite fault publishes a truncated file under the *final*
 * name and then simulates process death, which is exactly the state
 * quarantine exists to catch.
 */

#ifndef CGP_EXP_INTEGRITY_HH
#define CGP_EXP_INTEGRITY_HH

#include <optional>
#include <string>

#include "util/json.hh"

namespace cgp::exp
{

/**
 * The sealed file text of @p obj, an unsealed JSON object: obj with
 * a last "crc32" member (the CRC32 of obj.dump(2)), dumped with
 * dump(2) + "\n", from a single dump and without copying the
 * document.  Every sealed artifact is written through it.
 * @throws std::invalid_argument if @p obj is not an object or
 *         already carries a seal.
 */
std::string sealedJsonText(const Json &obj);

/** True iff @p obj carries a seal matching its other members. */
bool verifySealedJson(const Json &obj);

/** A sealed artifact read back: missing (neither member set), usable
 *  (doc) or unusable (problem). */
struct SealedRead
{
    std::optional<Json> doc;
    std::string problem;
};

/** Read, parse and seal-check the artifact at @p path. */
SealedRead readSealedJson(const std::string &path);

/**
 * Move the damaged artifact @p file into @p qdir (created on demand)
 * under a free name, so a human can autopsy it, and warn with
 * @p why.  If the rename fails the file is removed instead, so it
 * cannot poison the run.
 */
void quarantineFile(const std::string &file, const std::string &qdir,
                    const std::string &why);

/**
 * The resume-stable portion of a BENCH document: the document with
 * the volatile "execution" section (threads, wall time, executed vs
 * skipped counts), each sampled result's checkpoint_used and
 * checkpoint_saved flags (they record what the warm-state store held
 * when the job ran) and any seal stripped.  Two runs of the same
 * campaign — interrupted any number of times or not at all — must
 * produce byte-identical deterministic text; the chaos audit
 * byte-compares exactly this.
 */
std::string deterministicBenchText(const Json &bench);

/**
 * Durable atomic file write: write @p contents to @p path + ".tmp",
 * flush + fsync, rename over @p path, then fsync the parent
 * directory.  Contains the "exp.artifact_write" crash point (Crash
 * and TornWrite kinds).
 * @throws std::runtime_error on I/O failure.
 */
void writeFileAtomicDurable(const std::string &path,
                            const std::string &contents);

/** Read a whole file; @throws std::runtime_error if unreadable. */
std::string readFileOrThrow(const std::string &path);

} // namespace cgp::exp

#endif // CGP_EXP_INTEGRITY_HH
