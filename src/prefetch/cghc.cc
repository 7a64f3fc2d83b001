#include "prefetch/cghc.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "sample/checkpoint.hh"
#include "util/bitops.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace cgp
{

namespace
{

/** Data-array bytes per finite entry (one cache line). */
constexpr std::uint32_t entryBytes = 32;

} // anonymous namespace

CghcConfig
CghcConfig::oneLevel1K()
{
    CghcConfig c;
    c.l1Bytes = 1024;
    c.l2Bytes = 0;
    return c;
}

CghcConfig
CghcConfig::oneLevel32K()
{
    CghcConfig c;
    c.l1Bytes = 32 * 1024;
    c.l2Bytes = 0;
    return c;
}

CghcConfig
CghcConfig::twoLevel1K16K()
{
    CghcConfig c;
    c.l1Bytes = 1024;
    c.l2Bytes = 16 * 1024;
    return c;
}

CghcConfig
CghcConfig::twoLevel2K32K()
{
    CghcConfig c;
    c.l1Bytes = 2 * 1024;
    c.l2Bytes = 32 * 1024;
    return c;
}

CghcConfig
CghcConfig::infiniteSize()
{
    CghcConfig c;
    c.infinite = true;
    return c;
}

std::string
CghcConfig::describe() const
{
    if (infinite)
        return "CGHC-Inf";
    std::ostringstream os;
    os << "CGHC-" << l1Bytes / 1024 << "K";
    if (l2Bytes > 0)
        os << "+" << l2Bytes / 1024 << "K";
    if (assoc > 1)
        os << "-" << assoc << "way";
    return os.str();
}

Cghc::Cghc(const CghcConfig &config)
    : config_(config),
      l1Entries_(config.infinite ? 0 : config.l1Bytes / entryBytes),
      l2Entries_(config.infinite ? 0 : config.l2Bytes / entryBytes)
{
    if (!config_.infinite) {
        cgp_assert(config_.assoc > 0, "CGHC associativity must be > 0");
        cgp_assert(l1Entries_ > 0 && isPowerOfTwo(l1Entries_),
                   "CGHC L1 entry count must be a power of two");
        cgp_assert(l2Entries_ == 0 || isPowerOfTwo(l2Entries_),
                   "CGHC L2 entry count must be a power of two");
        cgp_assert(l1Entries_ % config_.assoc == 0,
                   "CGHC L1 entries must divide into ways");
        cgp_assert(l2Entries_ % config_.assoc == 0,
                   "CGHC L2 entries must divide into ways");
        l1_.resize(l1Entries_);
        l2_.resize(l2Entries_);
        l1SetMask_ = l1Entries_ / config_.assoc - 1;
        l2SetMask_ = l2Entries_ > 0 ? l2Entries_ / config_.assoc - 1 : 0;
    }
}

Cghc::Entry *
Cghc::findWay(std::vector<Entry> &level, std::size_t setMask,
              Addr start)
{
    const std::size_t base = setOf(start, setMask) * config_.assoc;
    for (unsigned w = 0; w < config_.assoc; ++w) {
        Entry &e = level[base + w];
        if (e.valid && e.tag == start)
            return &e;
    }
    return nullptr;
}

Cghc::Entry &
Cghc::victimWay(std::vector<Entry> &level, std::size_t setMask,
                Addr start)
{
    const std::size_t base = setOf(start, setMask) * config_.assoc;
    std::size_t victim = base;
    for (unsigned w = 0; w < config_.assoc; ++w) {
        Entry &e = level[base + w];
        if (!e.valid)
            return e;
        if (e.lru < level[victim].lru)
            victim = base + w;
    }
    return level[victim];
}

Cghc::Entry *
Cghc::lookup(Addr start, bool allocate, Cycle &delay, bool &hit)
{
    delay = config_.l1Latency;
    hit = false;
    ++tick_;

    if (Entry *e1 = findWay(l1_, l1SetMask_, start); e1 != nullptr) {
        hit = true;
        e1->lru = tick_;
        return e1;
    }

    if (l2Entries_ > 0) {
        if (Entry *e2 = findWay(l2_, l2SetMask_, start);
            e2 != nullptr) {
            // Swap: promote the hit entry to L1, demote the L1
            // victim to its own L2 set (paper §5.3).
            hit = true;
            delay = config_.l2Latency;
            Entry promoted = *e2;
            e2->valid = false;
            Entry &v1 = victimWay(l1_, l1SetMask_, start);
            Entry demoted = v1;
            if (demoted.valid) {
                Entry &v2 =
                    victimWay(l2_, l2SetMask_, demoted.tag);
                v2 = demoted;
                v2.lru = tick_;
            }
            v1 = promoted;
            v1.lru = tick_;
            return &v1;
        }
    }

    if (!allocate)
        return nullptr;

    // Total miss: allocate in L1; the displaced entry is written
    // back to the second level (if present).
    Entry &v1 = victimWay(l1_, l1SetMask_, start);
    if (v1.valid && l2Entries_ > 0) {
        Entry &v2 = victimWay(l2_, l2SetMask_, v1.tag);
        v2 = v1;
        v2.lru = tick_;
    }
    v1 = Entry{};
    v1.valid = true;
    v1.tag = start;
    v1.index = 1;
    v1.count = 0;
    v1.lru = tick_;
    return &v1;
}

Cghc::ProbeResult
Cghc::callPrefetchAccess(Addr callee_start)
{
    if (!warming_)
        ++accesses_;
    ProbeResult res;

    if (config_.infinite) {
        auto it = inf_.find(callee_start);
        if (it == inf_.end()) {
            inf_[callee_start];
            return res;
        }
        res.hit = true;
        if (!warming_)
            ++hits_;
        const InfEntry &e = it->second;
        const std::size_t slot = e.index - 1;
        if (slot < e.sequence.size())
            res.prefetchTarget = e.sequence[slot];
        return res;
    }

    bool hit = false;
    Entry *e = lookup(callee_start, /*allocate=*/true, res.delay, hit);
    if (!hit)
        return res; // fresh entry, nothing to prefetch
    res.hit = true;
    if (!warming_)
        ++hits_;
    const std::size_t slot = static_cast<std::size_t>(e->index) - 1;
    if (slot < e->count && e->slots[slot] != invalidAddr)
        res.prefetchTarget = e->slots[slot];
    return res;
}

void
Cghc::callUpdateAccess(Addr caller_start, Addr callee_start)
{
    if (config_.infinite) {
        InfEntry &e = inf_[caller_start];
        const std::size_t slot = e.index - 1;
        if (slot < e.sequence.size())
            e.sequence[slot] = callee_start;
        else
            e.sequence.push_back(callee_start);
        ++e.index;
        return;
    }

    Cycle delay;
    bool hit = false;
    Entry *e = lookup(caller_start, /*allocate=*/true, delay, hit);
    if (!hit) {
        // Miss on the update access for a call: slot 1 gets the
        // callee (paper §3.2) and the index advances past it.
        e->slots[0] = callee_start;
        e->count = 1;
        e->index = 2;
        return;
    }
    // "The index is incremented by 1 on each call update, up to a
    // maximum value of 8" and "only the first 8 functions invoked
    // are stored" (§3.2): once the index has saturated with all
    // slots filled this invocation, further callees are dropped.
    const std::size_t slot = static_cast<std::size_t>(e->index) - 1;
    const bool saturated = e->index == slotsPerEntry &&
        e->count >= slotsPerEntry;
    if (slot < slotsPerEntry && !saturated) {
        e->slots[slot] = callee_start;
        if (e->count < slot + 1)
            e->count = static_cast<std::uint8_t>(slot + 1);
        if (e->index < slotsPerEntry)
            ++e->index;
    }
}

Cghc::ProbeResult
Cghc::returnPrefetchAccess(Addr returnee_start)
{
    if (!warming_)
        ++accesses_;
    ProbeResult res;

    if (config_.infinite) {
        auto it = inf_.find(returnee_start);
        if (it == inf_.end()) {
            inf_[returnee_start];
            return res;
        }
        res.hit = true;
        if (!warming_)
            ++hits_;
        const InfEntry &e = it->second;
        const std::size_t slot = e.index - 1;
        if (slot < e.sequence.size())
            res.prefetchTarget = e.sequence[slot];
        return res;
    }

    bool hit = false;
    Entry *e = lookup(returnee_start, /*allocate=*/true, res.delay,
                      hit);
    if (!hit)
        return res;
    res.hit = true;
    if (!warming_)
        ++hits_;
    const std::size_t slot = static_cast<std::size_t>(e->index) - 1;
    if (slot < e->count && e->slots[slot] != invalidAddr)
        res.prefetchTarget = e->slots[slot];
    return res;
}

void
Cghc::returnUpdateAccess(Addr returning_start)
{
    if (config_.infinite) {
        auto it = inf_.find(returning_start);
        if (it != inf_.end()) {
            // A fresh invocation will rebuild the sequence; keep the
            // old one (most recent completed) but restart the index.
            it->second.index = 1;
        }
        return;
    }

    Cycle delay;
    bool hit = false;
    Entry *e = lookup(returning_start, /*allocate=*/true, delay, hit);
    e->index = 1;
    (void)hit;
}

Json
Cghc::saveState() const
{
    Json j = Json::object();
    j.set("describe", config_.describe());
    j.set("tick", tick_);
    // Valid entries only: victimWay hands out an invalid entry
    // without reading it, and every use overwrites it whole.
    const auto level_to_json = [this](const std::vector<Entry> &lv) {
        Json out = Json::object();
        out.set("empty",
                sample::emptyRuns(lv.size(), [&lv](std::size_t i) {
                    return lv[i].valid;
                }));
        Json tags = Json::array();
        Json idxs = Json::array();
        Json lrus = Json::array();
        Json slots = Json::array();
        for (const Entry &e : lv) {
            if (!e.valid)
                continue;
            tags.push(e.tag);
            idxs.push((static_cast<unsigned>(e.index) << 8) |
                      static_cast<unsigned>(e.count));
            lrus.push(e.lru);
            for (Addr a : e.slots)
                slots.push(a);
        }
        out.set("tag", std::move(tags));
        out.set("index_count", std::move(idxs));
        out.set("lru", std::move(lrus));
        out.set("slots", std::move(slots));
        return out;
    };
    if (config_.infinite) {
        // Sorted key order: unordered_map iteration order must never
        // leak into the artifact bytes.
        std::vector<Addr> keys;
        keys.reserve(inf_.size());
        for (const auto &[start, e] : inf_) {
            (void)e;
            keys.push_back(start);
        }
        std::sort(keys.begin(), keys.end());
        Json entries = Json::array();
        for (Addr start : keys) {
            const InfEntry &e = inf_.at(start);
            Json je = Json::object();
            je.set("start", start);
            je.set("index", e.index);
            Json seq = Json::array();
            for (Addr a : e.sequence)
                seq.push(a);
            je.set("sequence", std::move(seq));
            entries.push(std::move(je));
        }
        j.set("inf", std::move(entries));
        return j;
    }
    j.set("l1", level_to_json(l1_));
    j.set("l2", level_to_json(l2_));
    return j;
}

void
Cghc::loadState(const Json &state)
{
    if (state.at("describe").asString() != config_.describe())
        throw std::runtime_error("CGHC checkpoint geometry mismatch");
    tick_ = state.at("tick").asUint();
    const auto level_from_json = [this](std::vector<Entry> &lv,
                                        const Json &in) {
        const std::vector<std::size_t> filled =
            sample::filledSlots(in.at("empty"), lv.size(), "CGHC");
        const Json::Array &tags =
            sample::slotValues(in, "tag", filled.size(), "CGHC");
        const Json::Array &idxs = sample::slotValues(
            in, "index_count", filled.size(), "CGHC");
        const Json::Array &lrus =
            sample::slotValues(in, "lru", filled.size(), "CGHC");
        const Json::Array &slots = sample::slotValues(
            in, "slots", filled.size(), "CGHC", slotsPerEntry);
        std::fill(lv.begin(), lv.end(), Entry{});
        for (std::size_t k = 0; k < filled.size(); ++k) {
            Entry &e = lv[filled[k]];
            e.valid = true;
            e.tag = tags[k].asUint();
            const unsigned ic =
                static_cast<unsigned>(idxs[k].asUint());
            e.index = static_cast<std::uint8_t>(ic >> 8);
            e.count = static_cast<std::uint8_t>(ic & 0xFF);
            e.lru = lrus[k].asUint();
            for (unsigned s = 0; s < slotsPerEntry; ++s)
                e.slots[s] = slots[k * slotsPerEntry + s].asUint();
        }
    };
    if (config_.infinite) {
        inf_.clear();
        for (const Json &je : state.at("inf").items()) {
            InfEntry e;
            e.index =
                static_cast<std::uint32_t>(je.at("index").asUint());
            for (const Json &a : je.at("sequence").items())
                e.sequence.push_back(a.asUint());
            inf_.emplace(je.at("start").asUint(), std::move(e));
        }
        return;
    }
    level_from_json(l1_, state.at("l1"));
    level_from_json(l2_, state.at("l2"));
}

} // namespace cgp
