/**
 * @file
 * Page-based B+-tree over int32 keys -> RIDs, built on the buffer
 * pool.  Leaves are chained for range scans (the Wisconsin indexed
 * selections and the TPC-H index probes).  Splits propagate upward;
 * the root splits grow the tree.
 */

#ifndef CGP_DB_BTREE_HH
#define CGP_DB_BTREE_HH

#include <cstdint>
#include <vector>

#include "db/buffer_pool.hh"
#include "db/common.hh"
#include "db/context.hh"
#include "db/lock.hh"
#include "db/volume.hh"

namespace cgp::db
{

class BTree
{
  public:
    BTree(DbContext &ctx, BufferPool &pool, Volume &volume,
          LockManager &locks);

    /** Insert a key/RID pair (duplicate keys allowed). */
    void insert(TxnId txn, std::int32_t key, Rid rid);

    /**
     * Point lookup.
     * @return true and set @p out to the first match.
     */
    bool search(TxnId txn, std::int32_t key, Rid &out);

    /** Range iterator over keys in [lo, hi]. */
    class RangeScan
    {
      public:
        RangeScan(BTree &tree, TxnId txn, std::int32_t lo,
                  std::int32_t hi);
        ~RangeScan();

        bool next(std::int32_t &key, Rid &rid);
        void close();

      private:
        BTree &tree_;
        TxnId txn_;
        std::int32_t hi_;
        PageId leaf_ = invalidPageId;
        std::uint16_t pos_ = 0;
        std::uint8_t *frame_ = nullptr;
        bool open_ = true;
    };

    unsigned height() const { return height_; }
    std::uint64_t size() const { return size_; }

    /**
     * Structural check: keys ordered in every node, leaf chain
     * ordered, all leaves at the same depth.  Test support.
     */
    bool validate(TxnId txn);

  private:
    friend class RangeScan;

    /**
     * Node layout inside an 8KB page:
     *   header (8 bytes): isLeaf, count, link
     *     - leaf: link = right-sibling page
     *     - internal: link = leftmost child
     *   keys:   int32[maxEntries]      at byte 8
     *   values: leaf Rid-packed uint64 / internal child PageId,
     *           after the keys, padded to 8-byte alignment
     */
    struct NodeHeader
    {
        std::uint16_t isLeaf;
        std::uint16_t count;
        PageId link;
    };

    static constexpr std::uint16_t maxEntries = 448;

    class NodeView
    {
      public:
        explicit NodeView(std::uint8_t *frame);

        bool isLeaf() const { return hdr_->isLeaf != 0; }
        std::uint16_t count() const { return hdr_->count; }
        PageId link() const { return hdr_->link; }
        void setLeaf(bool leaf) { hdr_->isLeaf = leaf ? 1 : 0; }
        void setCount(std::uint16_t c) { hdr_->count = c; }
        void setLink(PageId p) { hdr_->link = p; }

        std::int32_t key(std::uint16_t i) const { return keys_[i]; }
        void setKey(std::uint16_t i, std::int32_t k) { keys_[i] = k; }

        Rid rid(std::uint16_t i) const;
        void setRid(std::uint16_t i, Rid r);

        PageId child(std::uint16_t i) const
        {
            return static_cast<PageId>(vals_[i]);
        }
        void setChild(std::uint16_t i, PageId p) { vals_[i] = p; }

        /** First position with key >= @p k (binary search). */
        std::uint16_t lowerBound(std::int32_t k) const;

      private:
        NodeHeader *hdr_;
        std::int32_t *keys_;
        std::uint64_t *vals_;
    };

    PageId allocNode(bool leaf);

    /** Descend from the root to the leaf covering @p key,
     *  recording the path of internal pages. */
    PageId descendToLeaf(TxnId txn, std::int32_t key,
                         std::vector<PageId> *path);

    /** Split a full leaf; returns (separator key, new page). */
    std::pair<std::int32_t, PageId> splitLeaf(std::uint8_t *frame,
                                              PageId leaf_pid);

    /** Split a full internal node. */
    std::pair<std::int32_t, PageId> splitInternal(std::uint8_t *frame,
                                                  PageId pid);

    /** Insert a separator into a parent chain after a child split. */
    void insertIntoParents(TxnId txn, std::vector<PageId> &path,
                           std::int32_t sep, PageId right);

    DbContext &ctx_;
    BufferPool &pool_;
    Volume &volume_;
    LockManager &locks_;

    PageId root_;
    unsigned height_ = 1;
    std::uint64_t size_ = 0;
};

} // namespace cgp::db

#endif // CGP_DB_BTREE_HH
