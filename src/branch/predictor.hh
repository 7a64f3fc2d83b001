/**
 * @file
 * Branch prediction hardware: a two-level adaptive predictor (Table 1:
 * "2-lev, 2K-entry"), a branch target buffer for calls/jumps, and the
 * paper's *modified* return address stack.
 *
 * The RAS modification is the enabling hook for CGP's return-time
 * prefetch access (paper §3.2): alongside each return address, the
 * stack records the *starting address of the calling function*, so
 * that on a return the CGHC can be probed with the returnee's start
 * address one cycle after prediction.
 */

#ifndef CGP_BRANCH_PREDICTOR_HH
#define CGP_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace cgp
{

class Json;

struct BranchPredictorConfig
{
    /** log2 of pattern history table entries (2K entries = 11). */
    unsigned phtBits = 11;

    /** Branch target buffer geometry. */
    unsigned btbEntries = 512;
    unsigned btbAssoc = 4;

    /** Return address stack depth. */
    unsigned rasEntries = 32;
};

/**
 * GAg two-level predictor: a global history register indexes a table
 * of 2-bit saturating counters.
 */
class TwoLevelPredictor
{
  public:
    explicit TwoLevelPredictor(unsigned pht_bits);

    bool predict(Addr pc) const;
    void update(Addr pc, bool taken);

    /// @{ Warm-state checkpointing (history register + PHT).
    Json saveState() const;
    void loadState(const Json &state);
    /// @}

  private:
    std::size_t index(Addr pc) const;

    unsigned bits_;
    std::uint64_t history_ = 0;
    std::vector<std::uint8_t> pht_;
};

/** Set-associative branch target buffer with LRU replacement. */
class Btb
{
  public:
    Btb(unsigned entries, unsigned assoc);

    /** @return true and fill @p target on a hit. */
    bool lookup(Addr pc, Addr &target) const;

    void update(Addr pc, Addr target);

    /// @{ Warm-state checkpointing: the filled entries (a sparse
    /// section, see sample/checkpoint.hh) plus the LRU tick.
    Json saveState() const;
    void loadState(const Json &state);
    /// @}

  private:
    struct Entry
    {
        Addr pc = invalidAddr;
        Addr target = invalidAddr;
        std::uint64_t lru = 0;
    };

    std::size_t setOf(Addr pc) const;

    unsigned sets_;
    unsigned assoc_;
    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;
};

/**
 * Return address stack extended with the caller function's start
 * address (the paper's modification).  Fixed depth, circular
 * overwrite on overflow — deep recursion wrecks predictions exactly
 * as in real hardware.
 */
class ReturnAddressStack
{
  public:
    struct Entry
    {
        Addr returnAddr = invalidAddr;
        Addr callerFuncStart = invalidAddr;
    };

    explicit ReturnAddressStack(unsigned depth);

    void push(Addr return_addr, Addr caller_func_start);

    /** Pop the predicted entry; empty stack yields invalid fields. */
    Entry pop();

    bool empty() const { return size_ == 0; }
    unsigned size() const { return size_; }

    /// @{ Warm-state checkpointing (circular buffer + top + size).
    Json saveState() const;
    void loadState(const Json &state);
    /// @}

  private:
    std::vector<Entry> stack_;
    unsigned top_ = 0;  ///< index one past the newest entry
    unsigned size_ = 0; ///< live entries (<= depth)
};

/**
 * Facade bundling the three predictor structures, with the counters
 * the CPU model and the benchmark harness report.
 */
class BranchUnit
{
  public:
    explicit BranchUnit(const BranchPredictorConfig &config);

    /** Outcome of predicting one fetched control instruction. */
    struct Prediction
    {
        bool taken = false;       ///< predicted direction
        Addr target = invalidAddr; ///< predicted target (if any)
        bool targetKnown = false;  ///< BTB/RAS supplied a target
        /** For returns: predicted returnee function start. */
        Addr callerFuncStart = invalidAddr;
    };

    /** Conditional branch: predict and update. */
    Prediction predictConditional(Addr pc, bool actual_taken,
                                  Addr actual_target);

    /** Unconditional jump: BTB only. */
    Prediction predictJump(Addr pc, Addr actual_target);

    /**
     * Call: BTB for the target; pushes (return addr, caller start)
     * onto the modified RAS.
     */
    Prediction predictCall(Addr pc, Addr actual_target,
                           Addr caller_func_start);

    /** Return: pop the modified RAS. */
    Prediction predictReturn(Addr pc, Addr actual_target);

    std::uint64_t mispredicts() const { return mispredicts_; }
    std::uint64_t lookups() const { return lookups_; }

    /**
     * Functional-warming mode: predict*() keeps updating the PHT,
     * BTB and RAS (state trains) but every counter stays frozen —
     * warmed instructions are outside the measured windows.
     */
    void setWarming(bool warming) { warming_ = warming; }

    /// @{ Warm-state checkpointing of the three structures (counters
    /// are not serialized: checkpoints are cut from a pure warmup,
    /// during which every counter is frozen at zero).
    Json saveState() const;
    void loadState(const Json &state);
    /// @}

  private:
    TwoLevelPredictor direction_;
    Btb btb_;
    ReturnAddressStack ras_;
    bool warming_ = false;

    std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
};

} // namespace cgp

#endif // CGP_BRANCH_PREDICTOR_HH
