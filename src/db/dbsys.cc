#include "db/dbsys.hh"

#include "util/logging.hh"

namespace cgp::db
{

DbSystem::DbSystem(FunctionRegistry &registry, const DbConfig &config)
    : ctx_(registry), volume_(ctx_),
      pool_(ctx_, volume_, config.bufferFrames,
            config.bufferSegment),
      locks_(ctx_),
      log_(ctx_), txns_(ctx_, locks_, log_), catalog_(ctx_)
{
    pool_.bindLog(&log_);
}

TableInfo &
DbSystem::createTable(const std::string &name, Schema schema)
{
    auto info = std::make_unique<TableInfo>();
    info->name = name;
    info->schema = std::make_unique<Schema>(std::move(schema));
    info->file = std::make_unique<HeapFile>(
        ctx_, pool_, volume_, locks_, log_, info->schema.get());
    return catalog_.addTable(std::move(info));
}

BTree &
DbSystem::createIndex(const std::string &table,
                      const std::string &column)
{
    TableInfo &t = catalog_.table(table);
    cgp_assert(t.indexes.find(column) == t.indexes.end(),
               "index already exists on ", table, ".", column);
    cgp_assert(t.schema->column(t.schema->indexOf(column)).type ==
                   ColumnType::Int32,
               "indexes support INT32 columns only");

    auto tree =
        std::make_unique<BTree>(ctx_, pool_, volume_, locks_);
    BTree &ref = *tree;
    t.indexes.emplace(column, std::move(tree));

    // Bulk build from the heap file.
    const std::size_t col = t.schema->indexOf(column);
    const TxnId txn = txns_.begin();
    HeapFile::Scan scan(*t.file, txn);
    Tuple tup;
    Rid rid;
    while (scan.next(tup, &rid))
        ref.insert(txn, tup.getInt(col), rid);
    scan.close();
    txns_.commit(txn);
    return ref;
}

Rid
DbSystem::insertRow(TxnId txn, const std::string &table,
                    const Tuple &tuple)
{
    TableInfo &t = catalog_.table(table);
    const Rid rid = t.file->createRec(txn, tuple);
    // Maintain any existing indexes.
    for (auto &[col, tree] : t.indexes) {
        const std::size_t idx = t.schema->indexOf(col);
        tree->insert(txn, tuple.getInt(idx), rid);
    }
    return rid;
}

} // namespace cgp::db
