#include "exp/checkpoint.hh"

#include <filesystem>

#include "exp/integrity.hh"
#include "fault/fault.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace cgp::exp
{

namespace
{

std::string
checkpointPath(const std::string &dir, const std::string &key)
{
    return dir + "/" + key + ".json";
}

} // namespace

std::string
checkpointStoreDir(const std::string &runDir)
{
    return runDir + "/checkpoints";
}

sample::CheckpointHooks
makeSealedCheckpointStore(const std::string &runDir)
{
    const std::string dir = checkpointStoreDir(runDir);

    sample::CheckpointHooks hooks;
    hooks.load =
        [dir](const std::string &key) -> std::optional<Json> {
        const std::string path = checkpointPath(dir, key);
        SealedRead read = readSealedJson(path);
        if (!read.problem.empty())
            quarantineFile(path, dir + "/quarantine", read.problem);
        return std::move(read.doc);
    };
    hooks.save = [dir](const std::string &key, Json &&doc) {
        try {
            std::filesystem::create_directories(dir);
            writeFileAtomicDurable(checkpointPath(dir, key),
                                   sealedJsonText(doc));
        } catch (const fault::CrashInjected &) {
            throw; // simulated process death, not an I/O failure
        } catch (const std::exception &e) {
            cgp_warn("could not save checkpoint ", key, ": ",
                     e.what());
        }
    };
    return hooks;
}

} // namespace cgp::exp
