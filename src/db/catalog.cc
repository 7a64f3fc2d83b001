#include "db/catalog.hh"

#include "util/logging.hh"

namespace cgp::db
{

TableInfo &
Catalog::addTable(std::unique_ptr<TableInfo> table)
{
    cgp_assert(table != nullptr && !table->name.empty(),
               "bad table registration");
    cgp_assert(tables_.find(table->name) == tables_.end(),
               "duplicate table '", table->name, "'");
    const std::string name = table->name;
    auto [it, ok] = tables_.emplace(name, std::move(table));
    cgp_assert(ok, "catalog insert failed");
    return *it->second;
}

TableInfo &
Catalog::table(const std::string &name)
{
    TraceScope ts(ctx_.rec, ctx_.fn.catTableLookup);
    ts.work(11);
    auto it = tables_.find(name);
    cgp_assert(it != tables_.end(), "unknown table '", name, "'");
    return *it->second;
}

BTree &
Catalog::index(const std::string &table_name, const std::string &column)
{
    TraceScope ts(ctx_.rec, ctx_.fn.catIndexLookup);
    ts.work(11);
    TableInfo &t = table(table_name);
    auto it = t.indexes.find(column);
    cgp_assert(it != t.indexes.end(), "no index on ", table_name, ".",
               column);
    return *it->second;
}

bool
Catalog::hasIndex(const std::string &table_name,
                  const std::string &column) const
{
    auto it = tables_.find(table_name);
    if (it == tables_.end())
        return false;
    return it->second->indexes.find(column) !=
        it->second->indexes.end();
}

} // namespace cgp::db
