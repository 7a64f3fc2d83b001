/**
 * @file
 * Deterministic fault injection for the prefetch and campaign layers.
 *
 * Prefetchers and the campaign engine are instrumented with named
 * *crash points* ("prefetch.issue", "exp.job", ...).  A FaultInjector
 * arms a fault at a point — fire on the Nth hit, optionally several
 * times — and the instrumented call site interprets the fired
 * FaultKind: a Crash unwinds via CrashInjected (the chaos loop kills
 * the campaign there and resumes it), a TornWrite leaves a truncated
 * artifact behind, and a TransientIo makes the site throw a
 * TransientIoError (fail-soft prefetchers degrade, a campaign job
 * fails as "transient-io").
 *
 * Injection is deterministic: firing depends only on the armed
 * schedule and the hit sequence, never on wall-clock or an unseeded
 * RNG, so every failure the chaos loop finds replays exactly.  When
 * nothing is armed the hit() fast path is a pointer test.
 */

#ifndef CGP_FAULT_FAULT_HH
#define CGP_FAULT_FAULT_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cgp::fault
{

enum class FaultKind : std::uint8_t
{
    Crash,      ///< process dies at the point (CrashInjected)
    TornWrite,  ///< an artifact write is left half-done, then crash
    TransientIo ///< the operation errors (TransientIoError)
};

const char *toString(FaultKind kind);

/** Thrown by a crash point to simulate process death. */
class CrashInjected : public std::runtime_error
{
  public:
    explicit CrashInjected(std::string point)
        : std::runtime_error("injected crash at " + point),
          point_(std::move(point))
    {
    }

    const std::string &point() const { return point_; }

  private:
    std::string point_;
};

/** Thrown by a crash point on an injected transient error. */
class TransientIoError : public std::runtime_error
{
  public:
    explicit TransientIoError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** One armed fault: fire @p count times starting at hit afterHits+1. */
struct FaultSpec
{
    FaultKind kind = FaultKind::Crash;
    /** Hits of the point to let pass before firing. */
    std::uint64_t afterHits = 0;
    /** Consecutive firings (transient errors may repeat). */
    std::uint32_t count = 1;
};

/** A fault that actually fired (post-mortem inspection). */
struct FaultEvent
{
    std::string point;
    FaultKind kind;
    std::uint64_t hitNo; ///< 1-based hit number that fired
};

class FaultInjector
{
  public:
    /** Names of every crash point compiled into the engine. */
    static const std::vector<std::string> &crashPoints();

    static bool isRegistered(std::string_view point);

    /** Arm @p spec at @p point (replaces any previous arming). */
    void arm(std::string_view point, const FaultSpec &spec);

    void disarmAll();

    /**
     * Called by an instrumented call site.  Counts the hit; when the
     * armed schedule fires, records the event and returns the kind —
     * except Crash, which throws CrashInjected directly so call
     * sites need no crash handling of their own.
     */
    std::optional<FaultKind> hit(std::string_view point);

    /** Total times @p point was reached (fired or not). */
    std::uint64_t hitCount(std::string_view point) const;

    /** Every fault that fired, in order. */
    const std::vector<FaultEvent> &fired() const { return fired_; }

  private:
    struct Armed
    {
        FaultSpec spec;
        std::uint32_t firedCount = 0;
    };

    /**
     * hit()/arm()/counters are serialized so one injector can stay
     * installed while the experiment engine runs simulations on
     * worker threads.  fired() still returns a reference: read it
     * only once the run under test has quiesced.
     */
    mutable std::mutex mu_;
    std::unordered_map<std::string, Armed> armed_;
    std::unordered_map<std::string, std::uint64_t> hits_;
    std::vector<FaultEvent> fired_;
};

/// @{ Process-global injector (tests install one; nullptr = off).
FaultInjector *global();
void setGlobal(FaultInjector *injector);
/// @}

/** Crash-point entry hook: consult the global injector, if any. */
inline std::optional<FaultKind>
hit(std::string_view point)
{
    FaultInjector *inj = global();
    if (inj == nullptr)
        return std::nullopt;
    return inj->hit(point);
}

/** RAII: install an injector as the global one for a scope. */
class ScopedGlobalInjector
{
  public:
    explicit ScopedGlobalInjector(FaultInjector &injector)
        : prev_(global())
    {
        setGlobal(&injector);
    }

    ~ScopedGlobalInjector() { setGlobal(prev_); }

    ScopedGlobalInjector(const ScopedGlobalInjector &) = delete;
    ScopedGlobalInjector &
    operator=(const ScopedGlobalInjector &) = delete;

  private:
    FaultInjector *prev_;
};

} // namespace cgp::fault

#endif // CGP_FAULT_FAULT_HH
