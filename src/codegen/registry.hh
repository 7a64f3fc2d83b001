/**
 * @file
 * FunctionRegistry: the set of all traced functions in one program.
 *
 * Workload code declares its functions once (name + traits) and gets
 * back stable FunctionIds used by the trace recorder.  The registry
 * synthesizes a deterministic CFG for each declaration, so a given
 * (name, traits) pair always produces the same body regardless of
 * declaration order — runs are reproducible bit-for-bit.
 */

#ifndef CGP_CODEGEN_REGISTRY_HH
#define CGP_CODEGEN_REGISTRY_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "codegen/function.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace cgp
{

class FunctionRegistry
{
  public:
    /**
     * Declare a traced function.  Declaring the same name twice
     * returns the existing id (traits of the first call win), which
     * lets multiple component instances share one set of functions.
     */
    FunctionId declare(const std::string &name,
                       const FunctionTraits &traits);

    /**
     * Declare a function with a hand-built body (its id is assigned
     * here); panics if the name is taken.  The body must satisfy
     * Function's invariants.
     */
    FunctionId define(Function body);

    /** Number of declared functions. */
    std::size_t size() const { return functions_.size(); }

    /** Body of function @p id; panics on a bad id.  Inline: the
     *  expander looks bodies up several times per block. */
    const Function &
    function(FunctionId id) const
    {
        cgp_assert(id < functions_.size(), "bad function id ", id);
        return functions_[id];
    }

    /** Lookup by name; returns invalidFunctionId if absent. */
    FunctionId lookup(const std::string &name) const;

    /** All functions in declaration order. */
    const std::vector<Function> &functions() const { return functions_; }

    /** Total code bytes across all declared functions. */
    std::uint64_t totalCodeBytes() const;

  private:
    Function synthesize(FunctionId id, const std::string &name,
                        const FunctionTraits &traits) const;

    std::vector<Function> functions_;
    std::unordered_map<std::string, FunctionId> byName_;
};

} // namespace cgp

#endif // CGP_CODEGEN_REGISTRY_HH
