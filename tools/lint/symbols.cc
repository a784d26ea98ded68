#include "lint/symbols.hh"

namespace snoop::lint {

SymbolIndex
SymbolIndex::build(const FileSet &files)
{
    SymbolIndex idx;
    for (const auto &[path, lexed] : files) {
        ParsedFile parsed = parseFile(lexed);
        for (const FunctionDef &def : parsed.functions) {
            idx.byName_[def.name].push_back(idx.functions_.size());
            idx.functions_.push_back({path, def});
        }
        for (const GlobalVar &var : parsed.globals)
            idx.globals_.push_back({path, var});
        idx.parsedByFile_.emplace(path, std::move(parsed));
    }
    return idx;
}

std::vector<const IndexedFunction *>
SymbolIndex::definitionsOf(const std::string &name) const
{
    std::vector<const IndexedFunction *> out;
    auto it = byName_.find(name);
    if (it == byName_.end())
        return out;
    out.reserve(it->second.size());
    for (size_t i : it->second)
        out.push_back(&functions_[i]);
    return out;
}

const ParsedFile &
SymbolIndex::parsed(const std::string &file) const
{
    static const ParsedFile kEmpty;
    auto it = parsedByFile_.find(file);
    return it == parsedByFile_.end() ? kEmpty : it->second;
}

} // namespace snoop::lint
