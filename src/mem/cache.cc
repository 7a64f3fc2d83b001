#include "mem/cache.hh"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "mem/pfarbiter.hh"
#include "sample/checkpoint.hh"
#include "util/bitops.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace cgp
{

namespace
{

/** @p config once its line size and associativity are known good:
 *  the constructor divides by both before its body runs. */
const CacheConfig &
checked(const CacheConfig &config)
{
    cgp_assert(isPowerOfTwo(config.lineBytes) && config.lineBytes >= 2,
               "line size must be a power of two of at least 2 bytes");
    cgp_assert(config.assoc >= 1 && config.assoc <= 64,
               "associativity must be 1 to 64 (find's hit mask)");
    return config;
}

} // namespace

Cache::Cache(const CacheConfig &config, Cache *next, MemoryPort *port)
    : config_(checked(config)), next_(next), port_(port),
      sets_(config.sizeBytes / (config.lineBytes * config.assoc)),
      lineShift_(floorLog2(config.lineBytes)), setMask_(sets_ - 1),
      lines_(static_cast<std::size_t>(sets_) * config.assoc)
{
    cgp_assert(isPowerOfTwo(sets_), "set count must be a power of two");
    cgp_assert(config.sizeBytes %
                   (config.lineBytes * config.assoc) == 0,
               "cache size not divisible into sets");
    cgp_assert((next_ == nullptr) == (port_ == nullptr),
               "next level and its port go together");
}

inline Cache::Mshr *
Cache::findInflight(Addr line_addr)
{
    for (Mshr &m : inflight_) {
        if (m.line == line_addr)
            return &m;
    }
    return nullptr;
}

inline const Cache::Mshr *
Cache::findInflight(Addr line_addr) const
{
    return const_cast<Cache *>(this)->findInflight(line_addr);
}

bool
Cache::linePresentOrInflight(Addr addr) const
{
    const Addr line_addr = lineAlign(addr);
    return find(line_addr) != nullptr ||
        findInflight(line_addr) != nullptr;
}

Cycle
Cache::forwardMiss(Addr line_addr, Cycle now, AccessSource source)
{
    if (next_ != nullptr) {
        const Cycle start = port_->request(now, requester_);
        // serviceChild computes its own latency from `start`; the
        // port already accounts FIFO occupancy.
        auto res = next_->access(line_addr, start, source, false);
        return res.readyCycle;
    }
    // Last level: memory-backed with a fixed latency.
    return now + config_.hitLatency + 80;
}

void
Cache::firstUse(Line &l)
{
    ++prefHits_[static_cast<std::size_t>(l.source)];
    l.referenced = true;
    if (arbiter_ != nullptr)
        arbiter_->recordOutcome(l.source, true);
}

Cache::AccessResult
Cache::accessMiss(Addr line_addr, Cycle now, AccessSource source)
{
    AccessResult res;
    if (Mshr *m = findInflight(line_addr)) {
        if (m->isPrefetch && !m->demanded) {
            ++delayedHits_[static_cast<std::size_t>(m->source)];
            if (arbiter_ != nullptr)
                arbiter_->recordOutcome(m->source, true);
        }
        m->demanded = true;
        res.delayedHit = true;
        res.readyCycle = std::max(m->readyCycle,
                                  now + config_.hitLatency);
        return res;
    }

    ++misses_;
    Mshr m;
    m.line = line_addr;
    m.readyCycle = forwardMiss(line_addr, now, source);
    m.isPrefetch = false;
    m.demanded = true;
    m.source = source;
    res.readyCycle = m.readyCycle;
    addInflight(m);
    return res;
}

bool
Cache::warmMiss(Addr line_addr, bool is_write)
{
    if (Mshr *m = findInflight(line_addr)) {
        m->demanded = true;
        return false;
    }
    if (next_ != nullptr)
        next_->warmAccess(line_addr, is_write);
    warmInstall(line_addr);
    return true;
}

inline Cache::Line &
Cache::victim(Addr line_addr)
{
    Line *set = &lines_[setOf(line_addr) * config_.assoc];
    Line *v = set;
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        if (set[w].tag == invalidAddr)
            return set[w];
        if (set[w].lru < v->lru)
            v = set + w;
    }
    return *v;
}

void
Cache::warmInstall(Addr line_addr)
{
    Line &v = victim(line_addr);
    ++tick_;
    v.tag = line_addr;
    v.lru = tick_;
    v.dirty = false;
    v.prefetched = false;
    v.referenced = false;
    v.source = AccessSource::DemandFetch;
}

Json
Cache::saveState() const
{
    cgp_assert(inflight_.empty(),
               "checkpoint requires a quiesced cache");
    Json j = Json::object();
    j.set("name", config_.name);
    j.set("size_bytes", config_.sizeBytes);
    j.set("assoc", config_.assoc);
    j.set("line_bytes", config_.lineBytes);
    j.set("tick", tick_);
    // Filled ways only: every empty one is still default-constructed.
    j.set("empty",
          sample::emptyRuns(lines_.size(), [this](std::size_t i) {
              return lines_[i].tag != invalidAddr;
          }));
    Json tags = Json::array();
    Json lrus = Json::array();
    Json meta = Json::array();
    for (const Line &l : lines_) {
        if (l.tag == invalidAddr)
            continue;
        tags.push(l.tag);
        lrus.push(l.lru);
        const unsigned flags = (l.dirty ? 1u : 0u) |
            (l.prefetched ? 2u : 0u) | (l.referenced ? 4u : 0u) |
            (static_cast<unsigned>(l.source) << 3);
        meta.push(flags);
    }
    j.set("tag", std::move(tags));
    j.set("lru", std::move(lrus));
    j.set("meta", std::move(meta));
    return j;
}

void
Cache::loadState(const Json &state)
{
    if (state.at("name").asString() != config_.name ||
        state.at("size_bytes").asUint() != config_.sizeBytes ||
        state.at("assoc").asUint() != config_.assoc ||
        state.at("line_bytes").asUint() != config_.lineBytes) {
        throw std::runtime_error(
            "cache checkpoint geometry mismatch for " + config_.name);
    }
    const std::string what = "cache " + config_.name;
    const std::vector<std::size_t> filled =
        sample::filledSlots(state.at("empty"), lines_.size(), what);
    const Json::Array &tags =
        sample::slotValues(state, "tag", filled.size(), what);
    const Json::Array &lrus =
        sample::slotValues(state, "lru", filled.size(), what);
    const Json::Array &meta =
        sample::slotValues(state, "meta", filled.size(), what);
    tick_ = state.at("tick").asUint();
    inflight_.clear();
    std::fill(lines_.begin(), lines_.end(), Line{});
    for (std::size_t k = 0; k < filled.size(); ++k) {
        Line &l = lines_[filled[k]];
        l.tag = tags[k].asUint();
        if (l.tag == invalidAddr) {
            throw std::runtime_error(
                "cache checkpoint fills a line with the empty tag");
        }
        l.lru = lrus[k].asUint();
        const unsigned flags = static_cast<unsigned>(meta[k].asUint());
        l.dirty = (flags & 1u) != 0;
        l.prefetched = (flags & 2u) != 0;
        l.referenced = (flags & 4u) != 0;
        const unsigned src = flags >> 3;
        if (src >= numSources) {
            throw std::runtime_error(
                "cache checkpoint has an invalid access source");
        }
        l.source = static_cast<AccessSource>(src);
    }
}

bool
Cache::prefetch(Addr addr, Cycle now, AccessSource source)
{
    // Functional warming: engines train their tables but issue
    // nothing (no counters, no arbiter traffic, no port requests).
    if (warming_)
        return false;
    const Addr line_addr = lineAlign(addr);
    if (arbiter_ != nullptr) {
        switch (arbiter_->request(*this, line_addr, source, now)) {
          case PrefetchArbiter::Decision::Drop:
          case PrefetchArbiter::Decision::Defer:
          case PrefetchArbiter::Decision::Merge:
            return false;
          case PrefetchArbiter::Decision::Admit:
            break;
        }
    }
    if (find(line_addr) != nullptr || findInflight(line_addr) != nullptr) {
        ++squashed_;
        return false;
    }
    issuePrefetch(line_addr, now, source);
    if (arbiter_ != nullptr)
        arbiter_->noteIssued(source);
    return true;
}

bool
Cache::issueArbitrated(Addr line_addr, Cycle now, AccessSource source)
{
    if (find(line_addr) != nullptr || findInflight(line_addr) != nullptr)
        return false;
    issuePrefetch(line_addr, now, source);
    return true;
}

Cycle
Cache::issuePrefetch(Addr line_addr, Cycle now, AccessSource source)
{
    Mshr m;
    m.line = line_addr;
    m.readyCycle = forwardMiss(line_addr, now, source);
    m.isPrefetch = true;
    m.demanded = false;
    m.source = source;
    addInflight(m);
    ++prefIssued_[static_cast<std::size_t>(source)];
    return m.readyCycle;
}

void
Cache::insert(const Mshr &mshr)
{
    Line &v = victim(mshr.line);
    // An empty way was never prefetched.
    if (v.prefetched && !v.referenced) {
        ++useless_[static_cast<std::size_t>(v.source)];
        if (arbiter_ != nullptr)
            arbiter_->recordOutcome(v.source, false);
    }
    ++tick_;
    v.tag = mshr.line;
    v.lru = tick_;
    v.dirty = false;
    v.prefetched = mshr.isPrefetch;
    v.referenced = mshr.demanded;
    v.source = mshr.source;
}

void
Cache::addInflight(const Mshr &mshr)
{
    // New fills are usually the latest: walk back from the end.
    auto pos = inflight_.end();
    while (pos != inflight_.begin() &&
           std::prev(pos)->readyCycle > mshr.readyCycle)
        --pos;
    inflight_.insert(pos, mshr);
}

void
Cache::landFills(Cycle now)
{
    auto ready = inflight_.begin();
    for (; ready != inflight_.end() && ready->readyCycle <= now; ++ready)
        insert(*ready);
    inflight_.erase(inflight_.begin(), ready);
}

void
Cache::finalize()
{
    for (const Mshr &m : inflight_) {
        if (m.isPrefetch && !m.demanded)
            ++useless_[static_cast<std::size_t>(m.source)];
    }
    inflight_.clear();
    for (Line &l : lines_) {
        if (l.prefetched && !l.referenced) {
            ++useless_[static_cast<std::size_t>(l.source)];
            l.referenced = true;
        }
    }
}

std::uint64_t
Cache::prefetchesIssued(AccessSource src) const
{
    return prefIssued_[static_cast<std::size_t>(src)];
}

std::uint64_t
Cache::prefHits(AccessSource src) const
{
    return prefHits_[static_cast<std::size_t>(src)];
}

std::uint64_t
Cache::delayedHits(AccessSource src) const
{
    return delayedHits_[static_cast<std::size_t>(src)];
}

std::uint64_t
Cache::useless(AccessSource src) const
{
    return useless_[static_cast<std::size_t>(src)];
}

} // namespace cgp
