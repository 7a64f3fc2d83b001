#include "db/btree.hh"

#include <cstring>

#include "db/page.hh"
#include "util/logging.hh"

namespace cgp::db
{

namespace
{

constexpr std::uint32_t keysOffset = 8;

/** Values follow the keys, padded up to 8-byte alignment so the
 *  uint64 array can be addressed directly. */
constexpr std::uint32_t
valsOffset(std::uint32_t max_entries)
{
    const std::uint32_t end =
        keysOffset +
        static_cast<std::uint32_t>(sizeof(std::int32_t)) *
            (max_entries + 1);
    return (end + 7u) & ~7u;
}

std::uint64_t
packRid(Rid r)
{
    return (static_cast<std::uint64_t>(r.page) << 16) | r.slot;
}

Rid
unpackRid(std::uint64_t v)
{
    Rid r;
    r.page = static_cast<PageId>(v >> 16);
    r.slot = static_cast<std::uint16_t>(v & 0xffff);
    return r;
}

} // anonymous namespace

BTree::NodeView::NodeView(std::uint8_t *frame)
    : hdr_(reinterpret_cast<NodeHeader *>(frame)),
      keys_(reinterpret_cast<std::int32_t *>(frame + keysOffset)),
      vals_(reinterpret_cast<std::uint64_t *>(
          frame + valsOffset(maxEntries)))
{
    static_assert(valsOffset(maxEntries) +
                      sizeof(std::uint64_t) * (maxEntries + 2) <=
                  pageBytes,
                  "B+-tree node layout exceeds the page");
}

Rid
BTree::NodeView::rid(std::uint16_t i) const
{
    return unpackRid(vals_[i]);
}

void
BTree::NodeView::setRid(std::uint16_t i, Rid r)
{
    vals_[i] = packRid(r);
}

std::uint16_t
BTree::NodeView::lowerBound(std::int32_t k) const
{
    std::uint16_t lo = 0;
    std::uint16_t hi = count();
    while (lo < hi) {
        const std::uint16_t mid =
            static_cast<std::uint16_t>((lo + hi) / 2);
        if (keys_[mid] < k)
            lo = static_cast<std::uint16_t>(mid + 1);
        else
            hi = mid;
    }
    return lo;
}

BTree::BTree(DbContext &ctx, BufferPool &pool, Volume &volume,
             LockManager &locks)
    : ctx_(ctx), pool_(pool), volume_(volume), locks_(locks)
{
    root_ = allocNode(/*leaf=*/true);
}

PageId
BTree::allocNode(bool leaf)
{
    const PageId pid = volume_.allocPage();
    std::uint8_t *frame = pool_.fix(pid);
    NodeView node(frame);
    node.setLeaf(leaf);
    node.setCount(0);
    node.setLink(invalidPageId);
    pool_.unfix(pid, true);
    return pid;
}

PageId
BTree::descendToLeaf(TxnId txn, std::int32_t key,
                     std::vector<PageId> *path)
{
    PageId pid = root_;
    while (true) {
        TraceScope ds(ctx_.rec,
                      ctx_.fn.btDescendC[ctx_.opClass()]);
        ds.work(14);
        {
            TraceScope hs(ctx_.rec, ctx_.fn.btLatch);
            hs.work(6);
        }
        locks_.acquire(txn, pid, LockMode::Shared);
        std::uint8_t *frame = pool_.fix(pid);
        NodeView node(frame);
        const bool leaf = node.isLeaf();
        ds.branch(leaf);
        if (leaf) {
            pool_.unfix(pid, false);
            locks_.release(txn, pid);
            return pid;
        }
        std::uint16_t pos;
        {
            TraceScope ns(ctx_.rec,
                          ctx_.fn.btNodeSearchC[ctx_.opClass()]);
            ns.work(7);
            {
                TraceScope cs(ctx_.rec,
                              ctx_.fn.btKeyCompare.site(0));
                cs.work(9);
                pos = node.lowerBound(key + 1);
                cs.loadAt(pool_.frameAddr(pid,
                                          keysOffset + 4u * pos));
            }
            ns.work(5);
        }
        const PageId child =
            pos == 0 ? node.link() : node.child(pos - 1);
        // The descent knows its next node here, a full level of
        // latch/lock/fix work before searching it: announce the key
        // area so a semantic prefetcher can cover it.
        ds.hint(DataHintKind::BtreeChild,
                pool_.frameAddrIfResident(child, keysOffset));
        if (path != nullptr)
            path->push_back(pid);
        pool_.unfix(pid, false);
        locks_.release(txn, pid);
        pid = child;
    }
}

std::pair<std::int32_t, PageId>
BTree::splitLeaf(std::uint8_t *frame, PageId leaf_pid)
{
    TraceScope ss(ctx_.rec, ctx_.fn.btSplit);
    ss.work(60);

    NodeView node(frame);
    const PageId right_pid = allocNode(/*leaf=*/true);
    std::uint8_t *rframe = pool_.fix(right_pid);
    NodeView right(rframe);

    const std::uint16_t half =
        static_cast<std::uint16_t>(node.count() / 2);
    const std::uint16_t moved =
        static_cast<std::uint16_t>(node.count() - half);
    for (std::uint16_t i = 0; i < moved; ++i) {
        right.setKey(i, node.key(half + i));
        right.setRid(i, node.rid(half + i));
    }
    right.setCount(moved);
    right.setLink(node.link());
    node.setCount(half);
    node.setLink(right_pid);
    (void)leaf_pid;

    const std::int32_t sep = right.key(0);
    pool_.unfix(right_pid, true);
    return {sep, right_pid};
}

std::pair<std::int32_t, PageId>
BTree::splitInternal(std::uint8_t *frame, PageId pid)
{
    TraceScope ss(ctx_.rec, ctx_.fn.btSplit);
    ss.work(70);

    NodeView node(frame);
    const PageId right_pid = allocNode(/*leaf=*/false);
    std::uint8_t *rframe = pool_.fix(right_pid);
    NodeView right(rframe);

    // Promote the middle key; its right child becomes the new
    // node's leftmost child.
    const std::uint16_t mid =
        static_cast<std::uint16_t>(node.count() / 2);
    const std::int32_t sep = node.key(mid);
    right.setLink(node.child(mid));
    std::uint16_t out = 0;
    for (std::uint16_t i = static_cast<std::uint16_t>(mid + 1);
         i < node.count(); ++i, ++out) {
        right.setKey(out, node.key(i));
        right.setChild(out, node.child(i));
    }
    right.setCount(out);
    node.setCount(mid);
    (void)pid;

    pool_.unfix(right_pid, true);
    return {sep, right_pid};
}

void
BTree::insertIntoParents(TxnId txn, std::vector<PageId> &path,
                         std::int32_t sep, PageId right)
{
    std::int32_t carry_key = sep;
    PageId carry_child = right;

    while (!path.empty()) {
        const PageId pid = path.back();
        path.pop_back();

        locks_.acquire(txn, pid, LockMode::Exclusive);
        std::uint8_t *frame = pool_.fix(pid);
        NodeView node(frame);

        if (node.count() < maxEntries) {
            const std::uint16_t pos = node.lowerBound(carry_key);
            for (std::uint16_t i = node.count(); i > pos; --i) {
                node.setKey(i, node.key(i - 1));
                node.setChild(i, node.child(i - 1));
            }
            node.setKey(pos, carry_key);
            node.setChild(pos, carry_child);
            node.setCount(static_cast<std::uint16_t>(node.count() + 1));
            pool_.unfix(pid, true);
            locks_.release(txn, pid);
            return;
        }

        // Full: insert then split.
        {
            const std::uint16_t pos = node.lowerBound(carry_key);
            cgp_assert(node.count() == maxEntries, "overfull node");
            // Temporarily exceed by shifting within capacity+1 slack
            // (the layout reserves one extra slot).
            for (std::uint16_t i = node.count(); i > pos; --i) {
                node.setKey(i, node.key(i - 1));
                node.setChild(i, node.child(i - 1));
            }
            node.setKey(pos, carry_key);
            node.setChild(pos, carry_child);
            node.setCount(static_cast<std::uint16_t>(node.count() + 1));
        }
        auto [new_sep, new_right] = splitInternal(frame, pid);
        pool_.unfix(pid, true);
        locks_.release(txn, pid);
        carry_key = new_sep;
        carry_child = new_right;
    }

    // Root split: grow the tree.
    const PageId new_root = allocNode(/*leaf=*/false);
    std::uint8_t *frame = pool_.fix(new_root);
    NodeView node(frame);
    node.setLink(root_);
    node.setKey(0, carry_key);
    node.setChild(0, carry_child);
    node.setCount(1);
    pool_.unfix(new_root, true);
    root_ = new_root;
    ++height_;
}

void
BTree::insert(TxnId txn, std::int32_t key, Rid rid)
{
    TraceScope ts(ctx_.rec, ctx_.fn.btInsert);
    ts.work(10);

    std::vector<PageId> path;
    const PageId leaf_pid = descendToLeaf(txn, key, &path);

    locks_.acquire(txn, leaf_pid, LockMode::Exclusive);
    std::uint8_t *frame = pool_.fix(leaf_pid);
    NodeView node(frame);

    {
        TraceScope ls(ctx_.rec, ctx_.fn.btLeafInsert);
        ls.work(16);
        std::uint16_t pos;
        {
            TraceScope ns(ctx_.rec, ctx_.fn.btNodeSearch.site(1));
            ns.work(8);
            pos = node.lowerBound(key);
        }
        for (std::uint16_t i = node.count(); i > pos; --i) {
            node.setKey(i, node.key(i - 1));
            node.setRid(i, node.rid(i - 1));
        }
        node.setKey(pos, key);
        node.setRid(pos, rid);
        node.setCount(static_cast<std::uint16_t>(node.count() + 1));
        ls.storeAt(pool_.frameAddr(leaf_pid, keysOffset + 4u * pos));
    }

    const bool overflow = node.count() > maxEntries;
    ts.branch(overflow);
    if (overflow) {
        auto [sep, right] = splitLeaf(frame, leaf_pid);
        pool_.unfix(leaf_pid, true);
        locks_.release(txn, leaf_pid);
        insertIntoParents(txn, path, sep, right);
    } else {
        pool_.unfix(leaf_pid, true);
        locks_.release(txn, leaf_pid);
    }
    ++size_;
}

bool
BTree::search(TxnId txn, std::int32_t key, Rid &out)
{
    TraceScope ts(ctx_.rec, ctx_.fn.btSearch);
    ts.work(8);

    const PageId leaf_pid = descendToLeaf(txn, key, nullptr);
    locks_.acquire(txn, leaf_pid, LockMode::Shared);
    std::uint8_t *frame = pool_.fix(leaf_pid);
    NodeView node(frame);

    bool found = false;
    {
        TraceScope cs(ctx_.rec, ctx_.fn.btKeyCompare.site(1));
        cs.work(9);
        const std::uint16_t pos = node.lowerBound(key);
        cs.loadAt(pool_.frameAddr(leaf_pid, keysOffset + 4u * pos));
        if (pos < node.count() && node.key(pos) == key) {
            out = node.rid(pos);
            found = true;
        }
    }
    ts.branch(found);

    pool_.unfix(leaf_pid, false);
    locks_.release(txn, leaf_pid);
    return found;
}

BTree::RangeScan::RangeScan(BTree &tree, TxnId txn, std::int32_t lo,
                            std::int32_t hi)
    : tree_(tree), txn_(txn), hi_(hi)
{
    TraceScope ts(tree_.ctx_.rec, tree_.ctx_.fn.btRangeOpen);
    ts.work(12);

    leaf_ = tree_.descendToLeaf(txn_, lo, nullptr);
    tree_.locks_.acquire(txn_, leaf_, LockMode::Shared);
    frame_ = tree_.pool_.fix(leaf_);
    NodeView node(frame_);
    pos_ = node.lowerBound(lo);
}

BTree::RangeScan::~RangeScan()
{
    if (open_)
        close();
}

bool
BTree::RangeScan::next(std::int32_t &key, Rid &rid)
{
    TraceScope ts(tree_.ctx_.rec,
                  tree_.ctx_.fn.btRangeNextC[tree_.ctx_.opClass()]);
    ts.work(12);
    {
        TraceScope hs(tree_.ctx_.rec, tree_.ctx_.fn.btIterAdvance);
        hs.work(6);
    }

    while (frame_ != nullptr) {
        NodeView node(frame_);
        if (pos_ < node.count()) {
            const std::int32_t k = node.key(pos_);
            const bool in_range = k <= hi_;
            ts.branch(in_range);
            if (!in_range) {
                close();
                return false;
            }
            ts.loadAt(tree_.pool_.frameAddr(
                leaf_, keysOffset + 4u * pos_));
            // Nearing the end of this leaf: announce the chain
            // successor (duplicates are filtered by the semantic
            // prefetcher's recent-hint dedup).
            if (pos_ + 4 >= node.count() &&
                node.link() != invalidPageId) {
                ts.hint(DataHintKind::BtreeNextLeaf,
                        tree_.pool_.frameAddrIfResident(node.link(),
                                                        keysOffset));
            }
            key = k;
            rid = node.rid(pos_);
            ++pos_;
            return true;
        }
        // Advance the leaf chain.
        const PageId next_leaf = node.link();
        tree_.pool_.unfix(leaf_, false);
        tree_.locks_.release(txn_, leaf_);
        frame_ = nullptr;
        if (next_leaf == invalidPageId) {
            open_ = false;
            return false;
        }
        leaf_ = next_leaf;
        tree_.locks_.acquire(txn_, leaf_, LockMode::Shared);
        frame_ = tree_.pool_.fix(leaf_);
        pos_ = 0;
    }
    return false;
}

void
BTree::RangeScan::close()
{
    if (frame_ != nullptr) {
        tree_.pool_.unfix(leaf_, false);
        tree_.locks_.release(txn_, leaf_);
        frame_ = nullptr;
    }
    open_ = false;
}

bool
BTree::validate(TxnId txn)
{
    // Walk the leaf chain: keys must be globally nondecreasing and
    // the chain must contain size() entries.
    PageId pid = root_;
    unsigned depth = 1;
    while (true) {
        std::uint8_t *frame = pool_.fix(pid);
        NodeView node(frame);
        if (node.isLeaf()) {
            pool_.unfix(pid, false);
            break;
        }
        const PageId child = node.link();
        pool_.unfix(pid, false);
        pid = child;
        ++depth;
    }
    if (depth != height_)
        return false;

    std::uint64_t seen = 0;
    std::int64_t prev = INT64_MIN;
    while (pid != invalidPageId) {
        locks_.acquire(txn, pid, LockMode::Shared);
        std::uint8_t *frame = pool_.fix(pid);
        NodeView node(frame);
        for (std::uint16_t i = 0; i < node.count(); ++i) {
            if (node.key(i) < prev) {
                pool_.unfix(pid, false);
                locks_.release(txn, pid);
                return false;
            }
            prev = node.key(i);
            ++seen;
        }
        const PageId next_leaf = node.link();
        pool_.unfix(pid, false);
        locks_.release(txn, pid);
        pid = next_leaf;
    }
    return seen == size_;
}

} // namespace cgp::db
