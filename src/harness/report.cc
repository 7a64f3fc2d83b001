#include "harness/report.hh"

#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>

#include "util/logging.hh"
#include "util/table.hh"

namespace cgp
{

namespace
{

/** One row per scalar of @p value, keyed by its dotted path: nested
 *  blocks and array items extend @p key. */
void
addRows(TablePrinter &t, const std::string &key, const Json &value)
{
    switch (value.type()) {
      case Json::Type::Object:
        for (const auto &[name, member] : value.members())
            addRows(t, key.empty() ? name : key + "." + name, member);
        break;
      case Json::Type::Array:
        for (std::size_t i = 0; i < value.size(); ++i)
            addRows(t, key + "." + std::to_string(i), value[i]);
        break;
      case Json::Type::Uint:
        t.addRow({key, TablePrinter::num(value.asUint())});
        break;
      case Json::Type::Double:
        t.addRow({key, TablePrinter::fixed(value.asDouble(), 4)});
        break;
      case Json::Type::String:
        t.addRow({key, value.asString()});
        break;
      default:
        t.addRow({key, value.dump()});
        break;
    }
}

} // namespace

void
writeReport(const SimResult &result, std::ostream &os)
{
    TablePrinter t(result.workload + " / " + result.config);
    t.setHeader({"metric", "value"});
    addRows(t, "", toJson(result));
    t.print(os);
}

void
writeComparison(const std::vector<SimResult> &results,
                std::ostream &os)
{
    cgp_assert(!results.empty(), "nothing to compare");
    TablePrinter t("comparison: " + results.front().workload);
    t.setHeader({"config", "cycles", "norm", "IPC", "I$ misses",
                 "pf useful", "bus lines"});
    const auto base = static_cast<double>(results.front().cycles);
    for (const auto &r : results) {
        cgp_assert(r.workload == results.front().workload,
                   "comparing different workloads");
        const auto total = r.totalPrefetch();
        t.addRow({r.config, TablePrinter::num(r.cycles),
                  TablePrinter::fixed(
                      static_cast<double>(r.cycles) / base, 3),
                  TablePrinter::fixed(r.ipc(), 2),
                  TablePrinter::num(r.icacheMisses),
                  total.issued > 0
                      ? TablePrinter::percent(total.usefulFraction())
                      : "-",
                  TablePrinter::num(r.busLines)});
    }
    t.print(os);
}

namespace
{

/**
 * One serialized member: its JSON key and where it lives.  Each
 * result struct lists its fields once (fieldsOf below); toJson and
 * simResultFromJson both walk that list, so the emitted member order
 * is the list order and a key cannot be written under one name and
 * read under another.
 */
template <class S, class T>
struct Field
{
    const char *key;
    T S::*member;
    /** Non-null: the key is emitted only while this flag is set, and
     *  parsing sets the flag exactly when the key is present.  Every
     *  other key is required. */
    bool S::*presence = nullptr;
};

template <class S, class T>
constexpr Field<S, T>
field(const char *key, T S::*member)
{
    return {key, member};
}

/** Emitted only when @p flag is set, so results without the block
 *  (and their goldens) stay byte-identical. */
template <class S, class T>
constexpr Field<S, T>
gated(const char *key, T S::*member, bool S::*flag)
{
    return {key, member, flag};
}

template <class S>
constexpr auto fieldsOf();

template <>
constexpr auto
fieldsOf<PrefetchBreakdown>()
{
    using P = PrefetchBreakdown;
    return std::tuple{
        field("issued", &P::issued),
        field("pref_hits", &P::prefHits),
        field("delayed_hits", &P::delayedHits),
        field("useless", &P::useless),
    };
}

template <>
constexpr auto
fieldsOf<ArbiterBreakdown>()
{
    using A = ArbiterBreakdown;
    return std::tuple{
        field("issued", &A::issued),
        field("deferred", &A::deferred),
        field("dropped", &A::dropped),
        field("duplicate_merged", &A::duplicateMerged),
    };
}

template <>
constexpr auto
fieldsOf<server::ServerCoreStats>()
{
    using C = server::ServerCoreStats;
    return std::tuple{
        field("cycles", &C::cycles),
        field("instrs", &C::instrs),
        field("idle_cycles", &C::idleCycles),
        field("icache_accesses", &C::icacheAccesses),
        field("icache_misses", &C::icacheMisses),
        field("dcache_accesses", &C::dcacheAccesses),
        field("dcache_misses", &C::dcacheMisses),
        field("bus_lines", &C::busLines),
        field("port_wait_cycles", &C::portWaitCycles),
        field("queries", &C::queries),
        field("binds", &C::binds),
    };
}

template <>
constexpr auto
fieldsOf<server::ServerStats>()
{
    using V = server::ServerStats;
    return std::tuple{
        field("cores", &V::cores),
        field("sessions", &V::sessions),
        field("cycles", &V::cycles),
        field("queries_served", &V::queriesServed),
        field("binds", &V::binds),
        field("latency_p50", &V::latencyP50),
        field("latency_p95", &V::latencyP95),
        field("latency_p99", &V::latencyP99),
        field("port_wait_cycles", &V::portWaitCycles),
        field("per_core", &V::perCore),
    };
}

template <>
constexpr auto
fieldsOf<sample::SampledEstimate>()
{
    using E = sample::SampledEstimate;
    return std::tuple{
        field("samples", &E::samples),
        field("mean", &E::mean),
        field("sem", &E::sem),
        field("ci_low", &E::ciLow),
        field("ci_high", &E::ciHigh),
    };
}

template <>
constexpr auto
fieldsOf<sample::SampledStats>()
{
    using M = sample::SampledStats;
    return std::tuple{
        field("windows", &M::windows),
        field("detailed_cycles", &M::detailedCycles),
        field("detailed_instrs", &M::detailedInstrs),
        field("warmed_instrs", &M::warmedInstrs),
        field("skipped_cycles", &M::skippedCycles),
        field("checkpoint_used", &M::checkpointUsed),
        field("checkpoint_saved", &M::checkpointSaved),
        field("cpi", &M::cpi),
        field("l1i_miss_rate", &M::l1iMissRate),
        field("l1d_miss_rate", &M::l1dMissRate),
        field("fetch_stall_per_instr", &M::fetchStallPerInstr),
    };
}

template <>
constexpr auto
fieldsOf<SimResult>()
{
    using R = SimResult;
    return std::tuple{
        field("workload", &R::workload),
        field("config", &R::config),
        field("cycles", &R::cycles),
        field("instrs", &R::instrs),
        field("icache_accesses", &R::icacheAccesses),
        field("icache_misses", &R::icacheMisses),
        field("dcache_accesses", &R::dcacheAccesses),
        field("dcache_misses", &R::dcacheMisses),
        field("l2_misses", &R::l2Misses),
        field("nl", &R::nl),
        field("cghc", &R::cghc),
        field("dpf", &R::dpf),
        field("squashed_prefetches", &R::squashedPrefetches),
        field("d_squashed_prefetches", &R::dSquashedPrefetches),
        field("arb_nl", &R::arbNl),
        field("arb_cghc", &R::arbCghc),
        field("arb_dpf", &R::arbDpf),
        field("bus_lines", &R::busLines),
        field("branch_mispredicts", &R::branchMispredicts),
        field("cghc_accesses", &R::cghcAccesses),
        field("cghc_hits", &R::cghcHits),
        field("prefetch_degraded", &R::prefetchDegraded),
        field("degraded_reason", &R::degradedReason),
        field("instrs_per_call", &R::instrsPerCall),
        gated("server", &R::server, &R::serverEnabled),
        gated("sampled", &R::sampled, &R::sampledEnabled),
    };
}

template <class T>
constexpr bool isVector = false;
template <class T>
constexpr bool isVector<std::vector<T>> = true;

template <class T>
Json write(const T &value);
template <class T>
void read(const Json &json, T &out);

template <class S, class T>
void
writeField(Json &json, const S &in, const Field<S, T> &f)
{
    if (f.presence == nullptr || in.*f.presence)
        json.set(f.key, write(in.*f.member));
}

template <class S, class T>
void
readField(const Json &json, S &out, const Field<S, T> &f)
{
    const Json *v = json.find(f.key);
    if (v == nullptr) {
        if (f.presence != nullptr)
            return;
        v = &json.at(f.key); // throws: a required key is missing
    }
    if (f.presence != nullptr)
        out.*f.presence = true;
    read(*v, out.*f.member);
}

template <class T>
Json
write(const T &value)
{
    if constexpr (std::is_arithmetic_v<T> ||
                  std::is_same_v<T, std::string>) {
        return Json(value);
    } else if constexpr (isVector<T>) {
        Json a = Json::array();
        for (const auto &item : value)
            a.push(write(item));
        return a;
    } else {
        Json j = Json::object();
        std::apply(
            [&](const auto &...f) { (writeField(j, value, f), ...); },
            fieldsOf<T>());
        return j;
    }
}

template <class T>
void
read(const Json &json, T &out)
{
    if constexpr (std::is_same_v<T, bool>) {
        out = json.asBool();
    } else if constexpr (std::is_same_v<T, double>) {
        out = json.asDouble();
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        out = json.asUint();
    } else if constexpr (std::is_same_v<T, std::string>) {
        out = json.asString();
    } else if constexpr (isVector<T>) {
        for (const Json &item : json.items())
            read(item, out.emplace_back());
    } else {
        std::apply(
            [&](const auto &...f) { (readField(json, out, f), ...); },
            fieldsOf<T>());
    }
}

} // namespace

Json
toJson(const SimResult &result)
{
    return write(result);
}

SimResult
simResultFromJson(const Json &json)
{
    SimResult r;
    read(json, r);
    return r;
}

} // namespace cgp
