/**
 * @file
 * Volcano-style operator interface plus predicate evaluation.  Every
 * operator is traced; per-tuple work flows through the storage
 * manager beneath it, producing the layered call sequences CGP
 * learns.
 */

#ifndef CGP_DB_OPS_OPERATOR_HH
#define CGP_DB_OPS_OPERATOR_HH

#include <cstdint>
#include <vector>

#include "db/context.hh"
#include "db/tuple.hh"

namespace cgp::db
{

class Operator
{
  public:
    virtual ~Operator() = default;

    virtual void open() = 0;

    /** Produce the next tuple; false at end. */
    virtual bool next(Tuple &out) = 0;

    virtual void close() = 0;

    virtual const Schema *schema() const = 0;
};

/**
 * Call-site ids for the inlined-function copy sets (see InlinedFn):
 * each operator references its own inlined copies of the tuple
 * accessors and predicate evaluators.
 */
namespace callsite
{
constexpr std::size_t seqScan = 0;
constexpr std::size_t indexSelect = 1;
constexpr std::size_t nlj = 2;
constexpr std::size_t ghj = 3;
constexpr std::size_t agg = 4;
constexpr std::size_t misc = 5;
} // namespace callsite

/** Comparison operators for predicate terms. */
enum class CmpOp : std::uint8_t
{
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
    Between ///< lo <= v <= hi
};

/**
 * Conjunctive predicate over INT32 columns, the shape every
 * Wisconsin/TPC-H filter needs.
 */
class Predicate
{
  public:
    struct Term
    {
        std::size_t col = 0;
        CmpOp op = CmpOp::Eq;
        std::int32_t lo = 0;
        std::int32_t hi = 0;
    };

    Predicate() = default;

    Predicate &andInt(std::size_t col, CmpOp op, std::int32_t lo,
                      std::int32_t hi = 0);

    /** Evaluate (traced: one data-dependent branch per term).
     *  @param site call-site id selecting the inlined copies. */
    bool eval(DbContext &ctx, const Tuple &t,
              std::size_t site = callsite::misc) const;

    bool empty() const { return terms_.empty(); }
    const std::vector<Term> &terms() const { return terms_; }

  private:
    std::vector<Term> terms_;
};

/** Traced accessor: read an INT32 column. */
std::int32_t tracedGetInt(DbContext &ctx, const Tuple &t,
                          std::size_t col,
                          std::size_t site = callsite::misc);

/** Traced tuple hash over one column. */
std::uint64_t tracedHash(DbContext &ctx, const Tuple &t,
                         std::size_t col,
                         std::size_t site = callsite::misc);

/** Traced tuple copy. */
Tuple tracedCopy(DbContext &ctx, const Tuple &t,
                 std::size_t site = callsite::misc);

} // namespace cgp::db

#endif // CGP_DB_OPS_OPERATOR_HH
