#include "branch/predictor.hh"

#include <algorithm>
#include <stdexcept>

#include "sample/checkpoint.hh"
#include "util/bitops.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace cgp
{

TwoLevelPredictor::TwoLevelPredictor(unsigned pht_bits)
    : bits_(pht_bits), pht_(1u << pht_bits, 2) // weakly taken
{
    cgp_assert(pht_bits >= 4 && pht_bits <= 24, "unreasonable PHT size");
}

std::size_t
TwoLevelPredictor::index(Addr pc) const
{
    // GAg with a gshare-style hash keeps aliasing tolerable.
    const std::uint64_t mask = (1ull << bits_) - 1;
    return static_cast<std::size_t>((history_ ^ (pc >> 2)) & mask);
}

bool
TwoLevelPredictor::predict(Addr pc) const
{
    return pht_[index(pc)] >= 2;
}

void
TwoLevelPredictor::update(Addr pc, bool taken)
{
    std::uint8_t &ctr = pht_[index(pc)];
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
    history_ = (history_ << 1) | (taken ? 1 : 0);
}

Btb::Btb(unsigned entries, unsigned assoc)
    : sets_(entries / assoc), assoc_(assoc), entries_(entries)
{
    cgp_assert(assoc > 0 && entries % assoc == 0,
               "BTB entries must divide evenly into ways");
    cgp_assert(isPowerOfTwo(sets_), "BTB set count must be a power of 2");
}

std::size_t
Btb::setOf(Addr pc) const
{
    return static_cast<std::size_t>((pc >> 2) & (sets_ - 1));
}

bool
Btb::lookup(Addr pc, Addr &target) const
{
    const std::size_t base = setOf(pc) * assoc_;
    for (unsigned w = 0; w < assoc_; ++w) {
        const Entry &e = entries_[base + w];
        if (e.pc == pc) {
            target = e.target;
            return true;
        }
    }
    return false;
}

void
Btb::update(Addr pc, Addr target)
{
    const std::size_t base = setOf(pc) * assoc_;
    ++tick_;
    std::size_t victim = base;
    for (unsigned w = 0; w < assoc_; ++w) {
        Entry &e = entries_[base + w];
        if (e.pc == pc) {
            e.target = target;
            e.lru = tick_;
            return;
        }
        if (e.lru < entries_[victim].lru)
            victim = base + w;
    }
    entries_[victim] = {pc, target, tick_};
}

ReturnAddressStack::ReturnAddressStack(unsigned depth) : stack_(depth)
{
    cgp_assert(depth > 0, "RAS must have at least one entry");
}

void
ReturnAddressStack::push(Addr return_addr, Addr caller_func_start)
{
    stack_[top_] = {return_addr, caller_func_start};
    top_ = (top_ + 1) % stack_.size();
    if (size_ < stack_.size())
        ++size_;
}

ReturnAddressStack::Entry
ReturnAddressStack::pop()
{
    if (size_ == 0)
        return {};
    top_ = (top_ + stack_.size() - 1) % stack_.size();
    --size_;
    return stack_[top_];
}

BranchUnit::BranchUnit(const BranchPredictorConfig &config)
    : direction_(config.phtBits),
      btb_(config.btbEntries, config.btbAssoc),
      ras_(config.rasEntries)
{
}

BranchUnit::Prediction
BranchUnit::predictConditional(Addr pc, bool actual_taken,
                               Addr actual_target)
{
    if (!warming_)
        ++lookups_;
    Prediction p;
    p.taken = direction_.predict(pc);
    if (p.taken)
        p.targetKnown = btb_.lookup(pc, p.target);

    const bool direction_wrong = p.taken != actual_taken;
    const bool target_wrong =
        actual_taken && p.taken && (!p.targetKnown ||
                                    p.target != actual_target);
    if ((direction_wrong || target_wrong) && !warming_)
        ++mispredicts_;

    direction_.update(pc, actual_taken);
    if (actual_taken)
        btb_.update(pc, actual_target);
    return p;
}

BranchUnit::Prediction
BranchUnit::predictJump(Addr pc, Addr actual_target)
{
    if (!warming_)
        ++lookups_;
    Prediction p;
    p.taken = true;
    p.targetKnown = btb_.lookup(pc, p.target);
    if ((!p.targetKnown || p.target != actual_target) && !warming_)
        ++mispredicts_;
    btb_.update(pc, actual_target);
    return p;
}

BranchUnit::Prediction
BranchUnit::predictCall(Addr pc, Addr actual_target,
                        Addr caller_func_start)
{
    if (!warming_)
        ++lookups_;
    Prediction p;
    p.taken = true;
    p.targetKnown = btb_.lookup(pc, p.target);
    if ((!p.targetKnown || p.target != actual_target) && !warming_)
        ++mispredicts_;
    btb_.update(pc, actual_target);
    // The paper's modification: push the caller's starting address
    // beside the return address.
    ras_.push(pc + 4, caller_func_start);
    return p;
}

BranchUnit::Prediction
BranchUnit::predictReturn(Addr pc, Addr actual_target)
{
    (void)pc;
    if (!warming_)
        ++lookups_;
    Prediction p;
    p.taken = true;
    const auto entry = ras_.pop();
    p.target = entry.returnAddr;
    p.targetKnown = entry.returnAddr != invalidAddr;
    p.callerFuncStart = entry.callerFuncStart;
    if ((!p.targetKnown || p.target != actual_target) && !warming_)
        ++mispredicts_;
    return p;
}

Json
TwoLevelPredictor::saveState() const
{
    Json j = Json::object();
    j.set("bits", bits_);
    j.set("history", history_);
    Json pht = Json::array();
    for (std::uint8_t ctr : pht_)
        pht.push(static_cast<unsigned>(ctr));
    j.set("pht", std::move(pht));
    return j;
}

void
TwoLevelPredictor::loadState(const Json &state)
{
    if (state.at("bits").asUint() != bits_)
        throw std::runtime_error("PHT geometry mismatch");
    const Json &pht = state.at("pht");
    if (pht.size() != pht_.size())
        throw std::runtime_error("PHT size mismatch");
    history_ = state.at("history").asUint();
    for (std::size_t i = 0; i < pht_.size(); ++i)
        pht_[i] = static_cast<std::uint8_t>(pht[i].asUint());
}

Json
Btb::saveState() const
{
    Json j = Json::object();
    j.set("sets", sets_);
    j.set("assoc", assoc_);
    j.set("tick", tick_);
    // Filled entries only: an entry is written whole on its first
    // update and never cleared, so an unfilled one is still
    // default-constructed.
    j.set("empty",
          sample::emptyRuns(entries_.size(), [this](std::size_t i) {
              return entries_[i].pc != invalidAddr;
          }));
    Json pcs = Json::array();
    Json targets = Json::array();
    Json lrus = Json::array();
    for (const Entry &e : entries_) {
        if (e.pc == invalidAddr)
            continue;
        pcs.push(e.pc);
        targets.push(e.target);
        lrus.push(e.lru);
    }
    j.set("pc", std::move(pcs));
    j.set("target", std::move(targets));
    j.set("lru", std::move(lrus));
    return j;
}

void
Btb::loadState(const Json &state)
{
    if (state.at("sets").asUint() != sets_ ||
        state.at("assoc").asUint() != assoc_) {
        throw std::runtime_error("BTB geometry mismatch");
    }
    const std::vector<std::size_t> filled =
        sample::filledSlots(state.at("empty"), entries_.size(), "BTB");
    const Json::Array &pcs =
        sample::slotValues(state, "pc", filled.size(), "BTB");
    const Json::Array &targets =
        sample::slotValues(state, "target", filled.size(), "BTB");
    const Json::Array &lrus =
        sample::slotValues(state, "lru", filled.size(), "BTB");
    tick_ = state.at("tick").asUint();
    std::fill(entries_.begin(), entries_.end(), Entry{});
    for (std::size_t k = 0; k < filled.size(); ++k) {
        Entry &e = entries_[filled[k]];
        e.pc = pcs[k].asUint();
        if (e.pc == invalidAddr)
            throw std::runtime_error("BTB checkpoint fills an empty entry");
        e.target = targets[k].asUint();
        e.lru = lrus[k].asUint();
    }
}

Json
ReturnAddressStack::saveState() const
{
    Json j = Json::object();
    j.set("depth",
          static_cast<std::uint64_t>(stack_.size()));
    j.set("top", top_);
    j.set("size", size_);
    Json entries = Json::array();
    for (const Entry &e : stack_) {
        entries.push(e.returnAddr);
        entries.push(e.callerFuncStart);
    }
    j.set("entries", std::move(entries));
    return j;
}

void
ReturnAddressStack::loadState(const Json &state)
{
    if (state.at("depth").asUint() != stack_.size())
        throw std::runtime_error("RAS depth mismatch");
    const Json &entries = state.at("entries");
    if (entries.size() != stack_.size() * 2)
        throw std::runtime_error("RAS entry count mismatch");
    top_ = static_cast<unsigned>(state.at("top").asUint());
    size_ = static_cast<unsigned>(state.at("size").asUint());
    if (top_ >= stack_.size() || size_ > stack_.size())
        throw std::runtime_error("RAS pointers out of range");
    for (std::size_t i = 0; i < stack_.size(); ++i) {
        stack_[i].returnAddr = entries[i * 2].asUint();
        stack_[i].callerFuncStart = entries[i * 2 + 1].asUint();
    }
}

Json
BranchUnit::saveState() const
{
    Json j = Json::object();
    j.set("direction", direction_.saveState());
    j.set("btb", btb_.saveState());
    j.set("ras", ras_.saveState());
    return j;
}

void
BranchUnit::loadState(const Json &state)
{
    direction_.loadState(state.at("direction"));
    btb_.loadState(state.at("btb"));
    ras_.loadState(state.at("ras"));
}

} // namespace cgp
