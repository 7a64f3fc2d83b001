/**
 * @file
 * Convenience bundle wiring the Table 1 memory system: split L1 I/D,
 * one shared FIFO port, and a unified L2 (memory-backed) — plus,
 * when enabled, the shared prefetch arbiter that coordinates I-side
 * and D-side engines on that port (see mem/pfarbiter.hh).
 *
 * L2 ownership is explicit.  A standalone core (unit tests, micro
 * benchmarks) constructs a MemoryHierarchy that owns its SharedL2;
 * the DbServer that runs every simulation constructs one SharedL2
 * and N borrowing hierarchies, one per core, each with private L1s
 * and a private arbiter on the shared port.  SharedL2 carries its own
 * once-guards for tick (per cycle) and finalize (per run) so that N
 * owners can drive it without double-ticking or double-classifying —
 * the multi-owner audit of the PR-4 `finalized_` guard.
 */

#ifndef CGP_MEM_HIERARCHY_HH
#define CGP_MEM_HIERARCHY_HH

#include <algorithm>
#include <memory>

#include "mem/cache.hh"
#include "mem/pfarbiter.hh"

namespace cgp
{

struct HierarchyConfig
{
    CacheConfig l1i{"l1i", 32 * 1024, 2, 32, 1};
    CacheConfig l1d{"l1d", 32 * 1024, 2, 32, 1};
    CacheConfig l2{"l2", 1024 * 1024, 4, 32, 16};

    /** Shared I+D prefetch arbitration on the L2 port; disabled by
     *  default, in which case behaviour is bit-identical to the
     *  arbiter-less hierarchy. */
    PfArbiterConfig arbiter;
};

/**
 * The L2 cache plus the FIFO port in front of it — the state that is
 * per-*server*, not per-core.  tick() is idempotent per cycle and
 * finalize() is idempotent per run, so every attached hierarchy may
 * call both without coordinating.
 */
class SharedL2
{
  public:
    explicit SharedL2(const CacheConfig &config)
        : l2_(config, nullptr, nullptr)
    {
    }

    Cache &cache() { return l2_; }
    const Cache &cache() const { return l2_; }
    MemoryPort &port() { return port_; }
    const MemoryPort &port() const { return port_; }

    /** Drain L2 fills once per cycle (no-op on repeat calls for the
     *  same @p now, so N cores may all tick it). */
    void
    tick(Cycle now)
    {
        if (now == lastTick_)
            return;
        lastTick_ = now;
        l2_.tick(now);
    }

    /** Classify still-unreferenced L2 prefetched lines, once. */
    void
    finalize()
    {
        if (finalized_)
            return;
        finalized_ = true;
        l2_.finalize();
    }

  private:
    MemoryPort port_;
    Cache l2_;
    Cycle lastTick_ = 0;
    bool finalized_ = false;
};

class MemoryHierarchy
{
  public:
    /** Owning form: the hierarchy constructs and owns its L2 (a
     *  standalone core). */
    explicit MemoryHierarchy(const HierarchyConfig &config = {})
        : ownedL2_(std::make_unique<SharedL2>(config.l2)),
          shared_(ownedL2_.get()),
          l1i_(config.l1i, &shared_->cache(), &shared_->port()),
          l1d_(config.l1d, &shared_->cache(), &shared_->port())
    {
        installArbiter(config);
    }

    /**
     * Borrowing form: private L1s (and arbiter) in front of a SharedL2
     * owned elsewhere.  @p coreId tags this core's port requests for
     * contention attribution.  The borrowing hierarchy never
     * finalizes the L2 — the SharedL2 owner does, after every
     * attached core has drained.
     */
    MemoryHierarchy(const HierarchyConfig &config, SharedL2 &shared,
                    unsigned coreId)
        : shared_(&shared),
          l1i_(config.l1i, &shared.cache(), &shared.port()),
          l1d_(config.l1d, &shared.cache(), &shared.port())
    {
        l1i_.setRequesterId(coreId);
        l1d_.setRequesterId(coreId);
        installArbiter(config);
    }

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return shared_->cache(); }
    MemoryPort &port() { return shared_->port(); }
    SharedL2 &sharedL2() { return *shared_; }

    /** True when this hierarchy owns its L2 (single-core wiring). */
    bool ownsL2() const { return ownedL2_ != nullptr; }

    /** Active arbiter, or nullptr when arbitration is disabled. */
    PrefetchArbiter *arbiter() { return arbiter_.get(); }
    const PrefetchArbiter *arbiter() const { return arbiter_.get(); }

    void
    tick(Cycle now)
    {
        l1i_.tick(now);
        l1d_.tick(now);
        shared_->tick(now);
    }

    /** No fill lands in any level before this cycle: tick() before
     *  it changes nothing. */
    Cycle
    nextFillCycle() const
    {
        return std::min({l1i_.nextReadyBound(), l1d_.nextReadyBound(),
                         shared_->cache().nextReadyBound()});
    }

    /** Functional-warming mode for every level (SMARTS sampling):
     *  prefetches are suppressed and demand warming goes through
     *  Cache::warmAccess, which recurses into the shared L2. */
    void
    setWarming(bool warming)
    {
        l1i_.setWarming(warming);
        l1d_.setWarming(warming);
        shared_->cache().setWarming(warming);
    }

    /**
     * End-of-cycle drain of arbiter-deferred prefetches: the core
     * calls this after all demand traffic of the cycle has claimed
     * its port slots, which is what gives demand requests priority.
     * No-op without an arbiter.
     */
    void
    drainDeferred(Cycle now)
    {
        if (arbiter_ != nullptr)
            arbiter_->drain(now);
    }

    /**
     * End-of-run accounting.  Idempotent: the simulator's teardown
     * and any explicit per-level finalize (the L2 finalize is also
     * reachable directly) must not double-classify prefetched lines
     * or double-drop queued arbiter entries.  An owned L2 is
     * finalized here (legacy order: arbiter, L1-I, L1-D, L2); a
     * borrowed one is left to its owner.
     */
    void
    finalize()
    {
        if (finalized_)
            return;
        finalized_ = true;
        if (arbiter_ != nullptr)
            arbiter_->finalize();
        // Each level is finalized exactly once, including the L2:
        // still-unreferenced L2 prefetched lines must be classified
        // in end-of-run accounting too.
        l1i_.finalize();
        l1d_.finalize();
        if (ownedL2_ != nullptr)
            shared_->finalize();
    }

  private:
    void
    installArbiter(const HierarchyConfig &config)
    {
        if (config.arbiter.enabled) {
            arbiter_ = std::make_unique<PrefetchArbiter>(
                shared_->port(), config.arbiter);
            l1i_.setArbiter(arbiter_.get());
            l1d_.setArbiter(arbiter_.get());
        }
    }

    std::unique_ptr<SharedL2> ownedL2_;
    SharedL2 *shared_;
    std::unique_ptr<PrefetchArbiter> arbiter_;
    Cache l1i_;
    Cache l1d_;
    bool finalized_ = false;
};

} // namespace cgp

#endif // CGP_MEM_HIERARCHY_HH
