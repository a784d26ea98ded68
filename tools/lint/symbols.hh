#pragma once

/**
 * @file
 * Cross-TU symbol index of snoop_analyze. Aggregates every file's
 * ParsedFile (lint/parser.hh) into name-keyed views the semantic
 * passes share:
 *
 *  - functions: every definition, tagged with its file, for the call
 *    graph (lint/callgraph.hh) and per-pass scoping;
 *  - globals: every namespace-scope variable / function-local static,
 *    tagged with its file, for the lockset pass.
 *
 * The engine builds the index once per run from the same FileSet the
 * tree passes use and hands it to the semantic passes, which inherit
 * the engine's caching and deterministic file ordering.
 */

#include <map>
#include <string>
#include <vector>

#include "lint/include_graph.hh"
#include "lint/parser.hh"

namespace snoop::lint {

/** One function definition located in the tree. */
struct IndexedFunction {
    std::string file; //!< repo-relative path
    FunctionDef def;
};

/** One global variable located in the tree. */
struct IndexedGlobal {
    std::string file;
    GlobalVar var;
};

/** Cross-TU view of every parsed file. */
class SymbolIndex
{
  public:
    /** Parse and index every file in @p files (deterministic order:
     * FileSet is a sorted map). */
    static SymbolIndex build(const FileSet &files);

    /** All definitions, in (file, token-order) order. */
    const std::vector<IndexedFunction> &functions() const
    {
        return functions_;
    }

    /** All globals, in (file, token-order) order. */
    const std::vector<IndexedGlobal> &globals() const
    {
        return globals_;
    }

    /** Definitions with unqualified name @p name. */
    std::vector<const IndexedFunction *>
    definitionsOf(const std::string &name) const;

    /** Parsed form of one file (empty ParsedFile when absent). */
    const ParsedFile &parsed(const std::string &file) const;

  private:
    std::vector<IndexedFunction> functions_;
    std::vector<IndexedGlobal> globals_;
    std::map<std::string, std::vector<size_t>> byName_; //!< -> functions_
    std::map<std::string, ParsedFile> parsedByFile_;
};

} // namespace snoop::lint
