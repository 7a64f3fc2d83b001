#include "mem/cache.hh"

#include <algorithm>
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

bool
Cache::linePresentOrInflight(Addr addr) const
{
    const Addr line_addr = lineAlign(addr);
    return find(line_addr) != nullptr ||
        inflight_.find(line_addr) != inflight_.end();
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
    if (auto it = inflight_.find(line_addr); it != inflight_.end()) {
        Mshr &m = it->second;
        if (m.isPrefetch && !m.demanded) {
            ++delayedHits_[static_cast<std::size_t>(m.source)];
            if (arbiter_ != nullptr)
                arbiter_->recordOutcome(m.source, true);
        }
        m.demanded = true;
        res.delayedHit = true;
        res.readyCycle = std::max(m.readyCycle,
                                  now + config_.hitLatency);
        return res;
    }

    ++misses_;
    Mshr m;
    m.readyCycle = forwardMiss(line_addr, now, source);
    m.isPrefetch = false;
    m.demanded = true;
    m.source = source;
    res.readyCycle = m.readyCycle;
    addInflight(line_addr, m);
    return res;
}

bool
Cache::warmMiss(Addr line_addr, bool is_write)
{
    if (auto it = inflight_.find(line_addr); it != inflight_.end()) {
        it->second.demanded = true;
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
    nextReady_ = std::numeric_limits<Cycle>::max();
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
    if (find(line_addr) != nullptr ||
        inflight_.find(line_addr) != inflight_.end()) {
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
    if (find(line_addr) != nullptr ||
        inflight_.find(line_addr) != inflight_.end()) {
        return false;
    }
    issuePrefetch(line_addr, now, source);
    return true;
}

Cycle
Cache::issuePrefetch(Addr line_addr, Cycle now, AccessSource source)
{
    Mshr m;
    m.readyCycle = forwardMiss(line_addr, now, source);
    m.isPrefetch = true;
    m.demanded = false;
    m.source = source;
    addInflight(line_addr, m);
    ++prefIssued_[static_cast<std::size_t>(source)];
    return m.readyCycle;
}

void
Cache::insert(Addr line_addr, const Mshr &mshr)
{
    Line &v = victim(line_addr);
    // An empty way was never prefetched.
    if (v.prefetched && !v.referenced) {
        ++useless_[static_cast<std::size_t>(v.source)];
        if (arbiter_ != nullptr)
            arbiter_->recordOutcome(v.source, false);
    }
    ++tick_;
    v.tag = line_addr;
    v.lru = tick_;
    v.dirty = false;
    v.prefetched = mshr.isPrefetch;
    v.referenced = mshr.demanded;
    v.source = mshr.source;
}

void
Cache::addInflight(Addr line_addr, const Mshr &mshr)
{
    inflight_.emplace(line_addr, mshr);
    nextReady_ = std::min(nextReady_, mshr.readyCycle);
}

void
Cache::landFills(Cycle now)
{
    Cycle earliest = std::numeric_limits<Cycle>::max();
    for (auto it = inflight_.begin(); it != inflight_.end();) {
        if (it->second.readyCycle <= now) {
            insert(it->first, it->second);
            it = inflight_.erase(it);
        } else {
            earliest = std::min(earliest, it->second.readyCycle);
            ++it;
        }
    }
    nextReady_ = earliest;
}

void
Cache::finalize()
{
    for (const auto &[addr, m] : inflight_) {
        (void)addr;
        if (m.isPrefetch && !m.demanded)
            ++useless_[static_cast<std::size_t>(m.source)];
    }
    inflight_.clear();
    nextReady_ = std::numeric_limits<Cycle>::max();
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
