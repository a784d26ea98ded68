#pragma once

/**
 * @file
 * Token-level lexer for the snoop_analyze static-analysis library
 * (tools/lint/). PR 1's snoop_lint stripped string literals with a
 * per-line heuristic; that ceiling is exactly what this lexer
 * removes: it understands line and block comments (including
 * multi-line ones), double-quoted strings with escapes, char
 * literals (a '"' char literal no longer masks the rest of the
 * line), raw strings R"delim(...)delim" spanning any number of
 * lines, digit separators (1'000'000 is a number, not a char
 * literal), and encoding prefixes (u8"...", LR"(...)").
 *
 * Output is deliberately dual:
 *  - `tokens`: the token stream (comments dropped), for structural
 *    passes (include graph, exported-name extraction);
 *  - `code`: a per-line "code view" of the source with comments
 *    blanked and literal contents reduced to "" / '' so the
 *    line-oriented convention rules (R1-R7) keep their auditable
 *    textual form while inheriting token-level correctness.
 *
 * `#include` directives are extracted during lexing (so a directive
 * inside a comment or raw string is not an include) into `includes`.
 */

#include <cstddef>
#include <string>
#include <vector>

namespace snoop::lint {

enum class TokenKind {
    Identifier,
    Number,
    String,    //!< "..." (with optional u8/u/U/L prefix); text = contents
    CharLit,   //!< '...'; text = contents
    RawString, //!< R"delim(...)delim"; text = contents
    Punct,     //!< any other non-space character, one per token
};

/** One lexed token. Comments never become tokens. */
struct Token {
    TokenKind kind;
    std::string text;
    size_t line; //!< 1-based line of the token's first character
};

/** One #include directive found outside comments/literals. */
struct Include {
    std::string path; //!< as written, e.g. "util/logging.hh" or "vector"
    size_t line;      //!< 1-based
    bool system;      //!< <...> rather than "..."
};

/** A fully lexed translation unit. */
struct LexedFile {
    std::vector<std::string> lines; //!< raw source lines
    std::vector<std::string> code;  //!< stripped code view, same count
    std::vector<Token> tokens;
    std::vector<Include> includes;
};

/** Lex a source buffer. Never fails: unterminated constructs are
 * closed at end of input (or end of line for plain literals). */
LexedFile lex(const std::string &source);

/** Read and lex a file; returns an empty LexedFile when unreadable. */
LexedFile lexFile(const std::string &path);

// --- helpers every pass shares ---------------------------------------

/** True when @p t is the punctuator @p p. */
bool isPunct(const Token &t, const char *p);

/** True when @p t is the identifier @p name. */
bool isIdent(const Token &t, const char *name);

/** Word-boundary search: @p word not preceded/followed by identifier
 * chars. Non-identifier chars inside the word (e.g. "std::rand") do
 * not affect the boundary check. */
bool containsWord(const std::string &line, const std::string &word);

bool startsWith(const std::string &s, const std::string &prefix);

/** Last '/'-separated component of @p path. */
std::string baseName(const std::string &path);

/** True when `snoop-lint: <marker>` appears on raw line @p line
 * (1-based) or the three lines above it: the one waiver window every
 * rule gives its opt-out marker (markers live in comments, so the raw
 * lines are consulted). */
bool markerNearby(const LexedFile &lexed, size_t line,
                  const std::string &marker);

/** Fixture opt-in: true when @p file's basename starts with
 * bad_<rule> or good_<rule> ('-' in @p rule spelled '_'), which
 * places a fixture in @p rule's scope regardless of its path. */
bool fixtureOptsIn(const std::string &file, const std::string &rule);

} // namespace snoop::lint
