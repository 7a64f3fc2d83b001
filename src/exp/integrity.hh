/**
 * @file
 * Artifact integrity for the experiment engine.
 *
 * Every JSON artifact the engine persists — per-job result files,
 * the run-directory manifest, BENCH_*.json — is *sealed*: a "crc32"
 * member carries the CRC32 of the pretty-printed document with the
 * seal itself removed.  A torn write, bit flip, or truncation is
 * detected by verifySealedJson() on resume; the corrupt file is
 * quarantined and its job re-run instead of poisoning results.
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

#include <string>

#include "util/json.hh"

namespace cgp::exp
{

/**
 * Stamp @p obj (a JSON object) with its "crc32" seal.  Any existing
 * seal is replaced; the CRC covers obj.dump(2) without the seal.
 */
void sealJson(Json &obj);

/**
 * The sealed file text of @p obj, an unsealed JSON object: exactly
 * what sealJson(obj) and then obj.dump(2) + "\n" would produce, but
 * from a single dump(2) and without copying the document (the seal
 * becomes the last member).  Checkpoints, job files and manifests
 * are written through it.
 * @throws std::invalid_argument if @p obj is not an object or
 *         already carries a seal.
 */
std::string sealedJsonText(const Json &obj);

/** True iff @p obj carries a seal matching its other members. */
bool verifySealedJson(const Json &obj);

/**
 * The resume-stable portion of a BENCH document: the document with
 * the volatile "execution" section (threads, wall time, executed vs
 * skipped counts) and the seal stripped.  Two runs of the same
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
