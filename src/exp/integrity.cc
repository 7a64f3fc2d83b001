#include "exp/integrity.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

#include "fault/fault.hh"
#include "util/crc.hh"
#include "util/logging.hh"

namespace cgp::exp
{

namespace
{

constexpr const char *sealKey = "crc32";

std::uint32_t
payloadCrc(const Json &obj)
{
    Json copy = obj;
    copy.remove(sealKey);
    return crc32(copy.dump(2));
}

/** fsync a path (file or directory); best-effort for directories
 *  (some filesystems refuse O_RDONLY fsync on dirs). */
void
syncPath(const std::string &path, bool required)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (required)
            throw std::runtime_error("cannot open for fsync: " + path);
        return;
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0 && required)
        throw std::runtime_error("fsync failed: " + path);
}

} // anonymous namespace

std::string
sealedJsonText(const Json &obj)
{
    if (!obj.isObject() || obj.contains(sealKey))
        throw std::invalid_argument(
            "sealedJsonText needs an unsealed JSON object");
    std::string text = obj.dump(2);
    const std::uint32_t crc = crc32(text);
    // Reopen the object ("{}" or "...\n}") and append the seal as
    // its last member, in dump(2)'s layout.
    if (obj.members().empty()) {
        text.pop_back();
    } else {
        text.resize(text.size() - 2);
        text += ',';
    }
    text += "\n  \"";
    text += sealKey;
    text += "\": " + std::to_string(crc) + "\n}\n";
    return text;
}

bool
verifySealedJson(const Json &obj)
{
    if (!obj.isObject())
        return false;
    const Json *seal = obj.find(sealKey);
    if (seal == nullptr || !seal->isNumber())
        return false;
    return seal->asUint() == payloadCrc(obj);
}

SealedRead
readSealedJson(const std::string &path)
{
    SealedRead read;
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        return read;
    try {
        Json doc = Json::parse(readFileOrThrow(path));
        if (verifySealedJson(doc))
            read.doc = std::move(doc);
        else
            read.problem = "CRC seal mismatch (torn write or bit flip)";
    } catch (const std::exception &e) {
        read.problem = std::string("unreadable: ") + e.what();
    }
    return read;
}

void
quarantineFile(const std::string &file, const std::string &qdir,
               const std::string &why)
{
    std::error_code ec;
    std::filesystem::create_directories(qdir, ec);
    const std::string base =
        std::filesystem::path(file).filename().string();
    std::string dest = qdir + "/" + base;
    for (int n = 1; std::filesystem::exists(dest, ec); ++n)
        dest = qdir + "/" + base + "." + std::to_string(n);
    std::filesystem::rename(file, dest, ec);
    if (ec)
        std::filesystem::remove(file, ec);
    cgp_warn("quarantined ", file, ": ", why);
}

std::string
deterministicBenchText(const Json &bench)
{
    Json copy = bench;
    copy.remove("execution");
    copy.remove(sealKey);
    // Whether a sampled job warmed from a checkpoint, or cut one,
    // depends on what earlier runs left in the store, not on what the
    // job computed.
    if (const Json *jobs = copy.find("jobs")) {
        Json kept = Json::array();
        for (Json job : jobs->items()) {
            const Json *result = job.find("result");
            if (result != nullptr && result->contains("sampled")) {
                Json r = *result;
                Json sampled = r.at("sampled");
                sampled.remove("checkpoint_used");
                sampled.remove("checkpoint_saved");
                r.set("sampled", std::move(sampled));
                job.set("result", std::move(r));
            }
            kept.push(std::move(job));
        }
        copy.set("jobs", std::move(kept));
    }
    return copy.dump(2) + "\n";
}

void
writeFileAtomicDurable(const std::string &path,
                       const std::string &contents)
{
    // A TornWrite fault truncates the payload and then simulates
    // process death *after* the rename: the torn bytes become
    // visible under the final name, as a real torn sector would.
    bool torn = false;
    if (const auto kind = fault::hit("exp.artifact_write");
        kind == fault::FaultKind::TornWrite) {
        torn = true;
    }
    const std::string payload =
        torn ? contents.substr(0, contents.size() / 2) : contents;

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw std::runtime_error("cannot write " + tmp);
        out << payload;
        out.flush();
        if (!out)
            throw std::runtime_error("short write to " + tmp);
    }
    syncPath(tmp, true);
    std::filesystem::rename(tmp, path);
    syncPath(std::filesystem::path(path).parent_path().string(),
             false);
    if (torn)
        throw fault::CrashInjected("exp.artifact_write");
}

std::string
readFileOrThrow(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace cgp::exp
