/**
 * @file
 * Error/diagnostic reporting in the gem5 spirit: panic() for internal
 * invariant violations (aborts), fatal() for user configuration errors
 * (clean exit), error()/warn()/inform() for leveled advisory output.
 */

#ifndef CGP_UTIL_LOGGING_HH
#define CGP_UTIL_LOGGING_HH

#include <cstdint>
#include <sstream>
#include <string>

namespace cgp
{

/** Message severity, least to most severe. */
enum class LogLevel : std::uint8_t
{
    Info,
    Warn,
    Error
};

const char *toString(LogLevel level);

namespace detail
{

/** Concatenate a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

/**
 * Test hook: when enabled, panic/fatal throw std::logic_error /
 * std::runtime_error instead of terminating the process.
 */
void setThrowOnError(bool enable);

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void logImpl(LogLevel level, const std::string &msg);

} // namespace detail

/**
 * Abort on a condition that indicates a simulator bug — something that
 * should never happen regardless of user input.
 */
#define cgp_panic(...) \
    ::cgp::detail::panicImpl(__FILE__, __LINE__, \
                             ::cgp::detail::concat(__VA_ARGS__))

/**
 * Exit cleanly on a condition that is the user's fault (bad
 * configuration, invalid arguments), not a simulator bug.
 */
#define cgp_fatal(...) \
    ::cgp::detail::fatalImpl(__FILE__, __LINE__, \
                             ::cgp::detail::concat(__VA_ARGS__))

/** A definite problem that the system survived (degraded mode). */
#define cgp_error(...) \
    ::cgp::detail::logImpl(::cgp::LogLevel::Error, \
                           ::cgp::detail::concat(__VA_ARGS__))

/** Advisory: something may not behave as the user expects. */
#define cgp_warn(...) \
    ::cgp::detail::logImpl(::cgp::LogLevel::Warn, \
                           ::cgp::detail::concat(__VA_ARGS__))

/** Status output with no connotation of misbehaviour. */
#define cgp_inform(...) \
    ::cgp::detail::logImpl(::cgp::LogLevel::Info, \
                           ::cgp::detail::concat(__VA_ARGS__))

/** panic() unless the asserted invariant holds. */
#define cgp_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ::cgp::detail::panicImpl(__FILE__, __LINE__, \
                ::cgp::detail::concat("assertion failed: " #cond " ", \
                                      ##__VA_ARGS__)); \
        } \
    } while (0)

} // namespace cgp

#endif // CGP_UTIL_LOGGING_HH
