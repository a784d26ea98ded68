#pragma once

/**
 * @file
 * Declaration/definition parser of snoop_analyze: the layer between
 * the lexer (lint/lexer.hh) and the per-file rules that need one
 * file's structure (lint/rules.hh: lockset, numeric-guard-coverage,
 * fp-determinism). It walks one file's token stream — no types, no
 * templates, no overload resolution, just the shapes this tree
 * actually uses:
 *
 *  - function definitions: qualified name, signature line,
 *    return-type text, and the token range of the body (lambda bodies
 *    stay part of the enclosing function);
 *  - global state: namespace-scope variables and function-local
 *    statics, with constness and self-synchronizing types
 *    (std::atomic, std::mutex, std::once_flag, ..., Guarded<T>)
 *    recovered from the declaration.
 *
 * The parser is deliberately heuristic and total: it never fails, it
 * skips what it does not understand, and every rule that uses it is
 * written to be conservative about what the parser may have missed.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "lint/lexer.hh"

namespace snoop::lint {

/** One function definition (has a body) found in a file. */
struct FunctionDef {
    std::string name;      //!< unqualified, e.g. "trySolve"
    std::string qualified; //!< e.g. "MvaSolver::trySolve"
    size_t line = 0;       //!< line of the name token
    size_t bodyBegin = 0;  //!< token index of the opening '{'
    size_t bodyEnd = 0;    //!< token index one past the closing '}'
    std::string returnText; //!< leading declaration tokens (heuristic)
};

/** One mutable-or-not global: namespace-scope variable or
 * function-local static. */
struct GlobalVar {
    std::string name;
    size_t line = 0;
    std::string typeText;    //!< declaration tokens before the name
    bool isConst = false;    //!< const / constexpr
    bool isThreadLocal = false;
    bool isFunctionLocal = false; //!< `static` inside a function body
    /** True when the type synchronizes itself (std::atomic, std::mutex,
     * std::once_flag, std::condition_variable, ..., Guarded<T>). */
    bool selfSynchronizing = false;
};

/** Everything the parser recovered from one file. */
struct ParsedFile {
    std::vector<FunctionDef> functions;
    std::vector<GlobalVar> globals;
};

/** Parse one lexed file. Never fails; unrecognized constructs are
 * skipped. */
ParsedFile parseFile(const LexedFile &lexed);

/** Token index of the matching closing bracket for the opener at
 * @p open ('(' -> ')', '{' -> '}', '[' -> ']'); returns tokens.size()
 * when unbalanced. All three bracket kinds nest against each other. */
size_t matchBracket(const std::vector<Token> &tokens, size_t open);

} // namespace snoop::lint
