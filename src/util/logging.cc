#include "util/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

namespace cgp
{

namespace
{

/**
 * Guards the print path.  The experiment engine logs per-job
 * progress from worker threads; the lock keeps whole messages
 * unsplit on the output streams.
 */
std::mutex &
logMutex()
{
    static std::mutex m;
    return m;
}

} // anonymous namespace

const char *
toString(LogLevel level)
{
    switch (level) {
      case LogLevel::Info:
        return "info";
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Error:
        return "error";
    }
    return "?";
}

namespace detail
{

namespace
{

/**
 * When set (by tests), panic/fatal throw instead of terminating so
 * death paths can be exercised without forking.
 */
bool throwOnError = false;

} // anonymous namespace

void
setThrowOnError(bool enable)
{
    throwOnError = enable;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    if (throwOnError)
        throw std::logic_error("panic: " + msg);
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (throwOnError)
        throw std::runtime_error("fatal: " + msg);
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
logImpl(LogLevel level, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(logMutex());
    if (level >= LogLevel::Warn)
        std::fprintf(stderr, "%s: %s\n", toString(level), msg.c_str());
    else
        std::fprintf(stdout, "%s: %s\n", toString(level), msg.c_str());
}

} // namespace detail
} // namespace cgp
