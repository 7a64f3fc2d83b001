/**
 * @file
 * Catalog: table and index metadata, owning the heap files, B+-trees
 * and schemas of a database instance.
 */

#ifndef CGP_DB_CATALOG_HH
#define CGP_DB_CATALOG_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/btree.hh"
#include "db/context.hh"
#include "db/heapfile.hh"
#include "db/tuple.hh"

namespace cgp::db
{

struct TableInfo
{
    std::string name;
    std::unique_ptr<Schema> schema;
    std::unique_ptr<HeapFile> file;
    /** column name -> index */
    std::unordered_map<std::string, std::unique_ptr<BTree>> indexes;
};

class Catalog
{
  public:
    explicit Catalog(DbContext &ctx) : ctx_(ctx) {}

    /** Register a new table (takes ownership of its pieces). */
    TableInfo &addTable(std::unique_ptr<TableInfo> table);

    /** Look up a table by name (traced); panics when absent. */
    TableInfo &table(const std::string &name);

    /** Look up an index (traced); panics when absent. */
    BTree &index(const std::string &table_name,
                 const std::string &column);

    bool hasIndex(const std::string &table_name,
                  const std::string &column) const;

    std::size_t tableCount() const { return tables_.size(); }

  private:
    DbContext &ctx_;
    std::unordered_map<std::string, std::unique_ptr<TableInfo>>
        tables_;
};

} // namespace cgp::db

#endif // CGP_DB_CATALOG_HH
