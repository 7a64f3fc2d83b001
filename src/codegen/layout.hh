/**
 * @file
 * Code layout: binding synthesized function bodies to addresses.
 *
 * Two layout policies reproduce the paper's binaries:
 *
 *  - OriginalLayout ("O5"): functions in declaration order with
 *    compiler-ish padding; blocks inside each function in their
 *    original order (hot/cold interleaved, some hot blocks displaced).
 *
 *  - PettisHansenLayout ("OM"): the two-level profile-directed layout
 *    of the OM link-time optimizer (paper §5.1): (1) basic blocks are
 *    reordered inside each function so the profiled-hot path falls
 *    through; (2) functions are reordered globally with the
 *    closest-is-best strategy over the weighted dynamic call graph.
 */

#ifndef CGP_CODEGEN_LAYOUT_HH
#define CGP_CODEGEN_LAYOUT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "codegen/function.hh"
#include "codegen/profile.hh"
#include "codegen/registry.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace cgp
{

/** Which binary the simulation models. */
enum class LayoutKind
{
    Original,     ///< the -O5 binary
    PettisHansen  ///< the -O5 binary after OM code layout
};

const char *layoutName(LayoutKind kind);

/**
 * An address binding for every block of every function in a
 * registry.  Immutable once built.
 */
class CodeImage
{
  public:
    /** Base of the synthetic text segment. */
    static constexpr Addr textBase = 0x0040'0000;

    /** One position of a function's hot walk, bound to this image:
     *  what the expander reads at every block crossing. */
    struct WalkStep
    {
        Addr addr;            ///< the block's address
        std::uint16_t instrs; ///< its instruction count
        std::uint16_t block;  ///< its index in Function::blocks
    };

    /// @{ Inline: the expander asks for these on every call and
    /// block crossing.
    /** Function @p fid's hot walk, one step per position (the
     *  image's flat walk table, cut at @p fid). */
    std::span<const WalkStep>
    walk(FunctionId fid) const
    {
        cgp_assert(fid < funcs_.size(), "bad function id ", fid);
        return {walk_.data() + walkBegin_[fid],
                walkBegin_[fid + 1] - walkBegin_[fid]};
    }

    /** Starting address of function @p fid. */
    Addr
    funcStart(FunctionId fid) const
    {
        cgp_assert(fid < funcs_.size(), "bad function id ", fid);
        return funcs_[fid].base;
    }

    /** Address of block @p block of function @p fid. */
    Addr
    blockAddr(FunctionId fid, std::uint16_t block) const
    {
        cgp_assert(fid < funcs_.size(), "bad function id ", fid);
        const FuncEntry &fe = funcs_[fid];
        cgp_assert(block < fe.blockAddrs.size(), "bad block index ",
                   block);
        return fe.blockAddrs[block];
    }
    /// @}

    /** One past the highest text address. */
    Addr textLimit() const { return limit_; }

    /** Instructions in the image's longest block. */
    std::uint16_t maxBlockInstrs() const { return maxBlockInstrs_; }

    /** Function order in memory (ids, ascending address). */
    const std::vector<FunctionId> &order() const { return order_; }

    /** Which layout policy built this image. */
    LayoutKind kind() const { return kind_; }

  private:
    friend class LayoutBuilder;

    struct FuncEntry
    {
        Addr base = invalidAddr;
        std::vector<Addr> blockAddrs; // by block index
    };

    LayoutKind kind_ = LayoutKind::Original;
    std::vector<FuncEntry> funcs_;
    std::vector<FunctionId> order_;
    Addr limit_ = textBase;
    /** Every function's hot walk, by id: function f's steps are
     *  walk_[walkBegin_[f] .. walkBegin_[f + 1]). */
    std::vector<WalkStep> walk_;
    std::vector<std::uint32_t> walkBegin_;
    std::uint16_t maxBlockInstrs_ = 0;
};

/**
 * Builds CodeImages from a registry (and, for Pettis-Hansen, a
 * profile).
 */
class LayoutBuilder
{
  public:
    explicit LayoutBuilder(const FunctionRegistry &registry)
        : registry_(registry)
    {}

    /** Build the unoptimized (O5) image. */
    CodeImage buildOriginal() const;

    /**
     * Build the OM image from profile feedback.  Functions or blocks
     * absent from the profile retain their original relative order
     * after all profiled code.
     */
    CodeImage buildPettisHansen(const ExecutionProfile &profile) const;

    /** Dispatch on @p kind (profile ignored for Original). */
    CodeImage build(LayoutKind kind,
                    const ExecutionProfile &profile) const;

  private:
    /** Per-function block order for the PH image. */
    std::vector<std::uint16_t>
    orderBlocksPettisHansen(const Function &f,
                            const ExecutionProfile &profile) const;

    /** Global function order for the PH image (closest-is-best). */
    std::vector<FunctionId>
    orderFunctionsPettisHansen(const ExecutionProfile &profile) const;

    CodeImage assemble(LayoutKind kind,
                       const std::vector<FunctionId> &funcOrder,
                       const std::vector<std::vector<std::uint16_t>>
                           &blockOrders,
                       bool padded) const;

    const FunctionRegistry &registry_;
};

} // namespace cgp

#endif // CGP_CODEGEN_LAYOUT_HH
