/**
 * @file
 * DynInst: one dynamic instruction produced by the trace expander and
 * consumed by the CPU model.  Carries ground-truth control flow (the
 * CPU's predictors decide independently what they would have
 * predicted) plus the function identity information the CGP hardware
 * derives from its modified return address stack.
 */

#ifndef CGP_TRACE_DYNINST_HH
#define CGP_TRACE_DYNINST_HH

#include <cstdint>

#include "util/types.hh"

namespace cgp
{

enum class InstKind : std::uint8_t
{
    IntOp,      ///< single-cycle integer op
    MulOp,      ///< multi-cycle op (multiplier FU)
    Load,
    Store,
    Jump,       ///< unconditional direct jump (always taken)
    CondBranch, ///< conditional branch
    Call,       ///< direct function call
    Return      ///< function return
};

constexpr bool
isControl(InstKind k)
{
    return k == InstKind::Jump || k == InstKind::CondBranch ||
           k == InstKind::Call || k == InstKind::Return;
}

/**
 * Fields are ordered by size (eight-byte addresses, then ids, then
 * the one-byte fields) so the struct packs into one 64-byte cache
 * line: it is copied once per instruction out of the expander.
 */
struct DynInst
{
    Addr pc = invalidAddr;

    /** Actual target for taken control transfers. */
    Addr target = invalidAddr;

    /** Data address for Load/Store. */
    Addr memAddr = invalidAddr;

    /** Start address of the containing function. */
    Addr funcStart = invalidAddr;

    /** For Call: callee start; for Return: returnee start address. */
    Addr otherFuncStart = invalidAddr;

    /** Semantic data-prefetch hint riding on this instruction, or
     *  invalidAddr when none.  See DataHintKind. */
    Addr hintAddr = invalidAddr;

    /** Function containing this instruction. */
    FunctionId func = invalidFunctionId;

    /** For Call: callee id; for Return: the function returned into. */
    FunctionId otherFunc = invalidFunctionId;

    InstKind kind = InstKind::IntOp;

    /** Actual direction for CondBranch (Jump/Call/Return: true). */
    bool taken = false;

    /** Valid only when hintAddr is set (raw DataHintKind value). */
    std::uint8_t hintKind = 0;
};

static_assert(sizeof(DynInst) <= 64, "DynInst must fit a cache line");

} // namespace cgp

#endif // CGP_TRACE_DYNINST_HH
