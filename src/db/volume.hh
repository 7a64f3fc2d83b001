/**
 * @file
 * Volume: the database's backing store ("disk").  Pages are kept in
 * host memory — the paper's setting is a main-memory-resident
 * working set where disk latency is assumed masked — but reads and
 * writes still run through traced functions so cold fetches show up
 * in the instruction stream.
 */

#ifndef CGP_DB_VOLUME_HH
#define CGP_DB_VOLUME_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "db/common.hh"
#include "db/context.hh"

namespace cgp::db
{

class Volume
{
  public:
    explicit Volume(DbContext &ctx) : ctx_(ctx) {}

    /** Allocate a fresh zeroed page. */
    PageId allocPage();

    /** Copy page @p pid into @p out (pageBytes). */
    void readPage(PageId pid, std::uint8_t *out);

    /** Copy @p in (pageBytes) into page @p pid. */
    void writePage(PageId pid, const std::uint8_t *in);

    std::size_t pageCount() const { return pages_.size(); }

  private:
    using PageImage = std::unique_ptr<std::uint8_t[]>;

    DbContext &ctx_;
    std::vector<PageImage> pages_;
};

} // namespace cgp::db

#endif // CGP_DB_VOLUME_HH
