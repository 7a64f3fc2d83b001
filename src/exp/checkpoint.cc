#include "exp/checkpoint.hh"

#include <filesystem>
#include <system_error>

#include "exp/integrity.hh"
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

/** Move a damaged artifact aside (never delete) and report it. */
void
quarantineCheckpoint(const std::string &dir, const std::string &file,
                     const std::string &why)
{
    std::error_code ec;
    const std::string qdir = dir + "/quarantine";
    std::filesystem::create_directories(qdir, ec);
    std::string dest =
        qdir + "/" + std::filesystem::path(file).filename().string();
    for (int n = 1; std::filesystem::exists(dest, ec); ++n) {
        dest = qdir + "/" +
            std::filesystem::path(file).filename().string() + "." +
            std::to_string(n);
    }
    std::filesystem::rename(file, dest, ec);
    if (ec) {
        cgp_warn("could not quarantine checkpoint ", file, ": ",
                 ec.message());
        return;
    }
    cgp_warn("quarantined checkpoint ", file, " (", why,
             "); re-warming");
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
        std::error_code ec;
        if (!std::filesystem::exists(path, ec))
            return std::nullopt;
        std::string text;
        try {
            text = readFileOrThrow(path);
        } catch (const std::exception &e) {
            cgp_warn("unreadable checkpoint ", path, ": ", e.what());
            return std::nullopt;
        }
        Json doc;
        try {
            doc = Json::parse(text);
        } catch (const std::exception &e) {
            quarantineCheckpoint(dir, path, e.what());
            return std::nullopt;
        }
        if (!verifySealedJson(doc)) {
            quarantineCheckpoint(dir, path, "seal mismatch");
            return std::nullopt;
        }
        return doc;
    };
    hooks.save = [dir](const std::string &key, Json &&doc) {
        try {
            std::filesystem::create_directories(dir);
            writeFileAtomicDurable(checkpointPath(dir, key),
                                   sealedJsonText(doc));
        } catch (const std::exception &e) {
            cgp_warn("could not save checkpoint ", key, ": ",
                     e.what());
        }
    };
    return hooks;
}

} // namespace cgp::exp
