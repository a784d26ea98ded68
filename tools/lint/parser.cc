#include "lint/parser.hh"

#include <set>

namespace snoop::lint {

namespace {

/** Keywords that can never be a function or variable name. */
bool
isReserved(const std::string &id)
{
    static const std::set<std::string> kReserved = {
        "if",        "for",       "while",     "switch",   "return",
        "sizeof",    "alignof",   "alignas",   "decltype", "noexcept",
        "catch",     "static_assert",          "else",     "do",
        "new",       "delete",    "throw",     "case",     "default",
        "operator",  "co_await",  "co_yield",  "co_return","requires",
        "typeid",    "explicit",  "constexpr", "const",    "static",
        "inline",    "namespace", "template",  "typename", "public",
        "private",   "protected", "virtual",   "override", "final",
        "auto",      "void",      "bool",      "char",     "int",
        "unsigned",  "signed",    "long",      "short",    "float",
        "double",    "this",      "true",      "false",    "nullptr",
        "using",     "enum",      "class",     "struct",   "union",
        "try",       "friend",    "typedef",   "extern",   "mutable",
        "thread_local",           "goto",      "break",    "continue",
    };
    return kReserved.count(id) > 0;
}

/** Types that synchronize themselves, Guarded<T> (util/guarded.hh)
 * included: a global of one of these types is safe to share between
 * threads. */
bool
isSelfSyncType(const std::string &typeText)
{
    static const char *kSelfSync[] = {
        "atomic", "mutex", "once_flag", "condition_variable",
        "atomic_flag", "shared_mutex", "recursive_mutex", "Guarded",
    };
    for (const char *name : kSelfSync)
        if (typeText.find(name) != std::string::npos)
            return true;
    return false;
}

/** What kind of brace scope a '{' opened. */
enum class ScopeKind {
    Namespace, //!< namespace body: declarations live here
    Type,      //!< class/struct/union/enum body
    Function,  //!< function body (incl. everything nested in it)
    Other,     //!< initializer braces, unrecognized constructs
};

/** Trailing backslash = the physical line continues the directive. */
bool
lineEndsWithBackslash(const std::string &line)
{
    size_t end = line.find_last_not_of(" \t\r");
    return end != std::string::npos && line[end] == '\\';
}

class Parser
{
  public:
    explicit Parser(const LexedFile &lexed)
        : toks_(lexed.tokens), lines_(lexed.lines)
    {}

    ParsedFile
    run()
    {
        // The file scope behaves like a namespace body.
        scopes_.push_back(ScopeKind::Namespace);
        size_t i = 0;
        while (i < toks_.size())
            i = step(i);
        return std::move(out_);
    }

  private:
    ScopeKind
    current() const
    {
        return scopes_.back();
    }

    /** True somewhere inside a function body. */
    bool
    inFunction() const
    {
        for (ScopeKind s : scopes_)
            if (s == ScopeKind::Function)
                return true;
        return false;
    }

    /**
     * Process the construct starting at token @p i; returns the index
     * to continue from. Statement-shaped decisions are made at
     * statement granularity: [i, end of statement or body).
     */
    size_t
    step(size_t i)
    {
        const Token &t = toks_[i];

        if (isPunct(t, "}")) {
            if (scopes_.size() > 1)
                scopes_.pop_back();
            return i + 1;
        }
        if (isPunct(t, "{")) {
            // A brace we did not classify from a statement head:
            // initializer list, compound statement inside a function...
            scopes_.push_back(inFunction() ? ScopeKind::Function
                                           : ScopeKind::Other);
            return i + 1;
        }
        if (isPunct(t, ";"))
            return i + 1;

        // Preprocessor directives: consume the whole logical line
        // (backslash continuations included) so `#include <atomic>`
        // or a multi-line `#define name(...)` never leaks tokens into
        // declaration parsing.
        if (isPunct(t, "#")) {
            size_t last = t.line;
            while (last <= lines_.size() &&
                   lineEndsWithBackslash(lines_[last - 1]))
                ++last;
            size_t j = i + 1;
            while (j < toks_.size() && toks_[j].line <= last)
                ++j;
            return j;
        }

        if (isIdent(t, "namespace"))
            return parseNamespace(i);

        if (isIdent(t, "class") || isIdent(t, "struct") ||
            isIdent(t, "union") || isIdent(t, "enum"))
            return parseType(i);

        if (isIdent(t, "template"))
            return skipTemplateHeader(i);

        if (isIdent(t, "using") || isIdent(t, "typedef") ||
            isIdent(t, "friend") || isIdent(t, "static_assert") ||
            isIdent(t, "extern"))
            return skipStatement(i);

        if (current() == ScopeKind::Namespace ||
            current() == ScopeKind::Type)
            return parseDeclaration(i);

        if (current() == ScopeKind::Function && isIdent(t, "static"))
            return parseLocalStatic(i);

        return skipStatement(i);
    }

    size_t
    parseNamespace(size_t i)
    {
        size_t j = i + 1; // past 'namespace'
        // namespace a::b::inline c { ... } | namespace { ... }
        while (j < toks_.size() && !isPunct(toks_[j], "{") &&
               !isPunct(toks_[j], ";"))
            ++j;
        if (j < toks_.size() && isPunct(toks_[j], "{")) {
            scopes_.push_back(ScopeKind::Namespace);
            return j + 1;
        }
        return j + 1; // namespace alias / ;
    }

    size_t
    parseType(size_t i)
    {
        // class NAME [final] [: bases] { ... } | forward declaration.
        size_t j = i + 1;
        while (j < toks_.size() && !isPunct(toks_[j], "{") &&
               !isPunct(toks_[j], ";") && !isPunct(toks_[j], "("))
            ++j;
        if (j < toks_.size() && isPunct(toks_[j], "{")) {
            scopes_.push_back(ScopeKind::Type);
            return j + 1;
        }
        if (j < toks_.size() && isPunct(toks_[j], "(")) {
            // `enum` / `struct` used inside an expression or a
            // parameter; treat the statement as unrecognized.
            return skipStatement(i);
        }
        return j + 1;
    }

    /** Skip `template < ... >` with angle-bracket counting. */
    size_t
    skipTemplateHeader(size_t i)
    {
        size_t j = i + 1;
        if (j >= toks_.size() || !isPunct(toks_[j], "<"))
            return j;
        int depth = 0;
        for (; j < toks_.size(); ++j) {
            if (isPunct(toks_[j], "<"))
                ++depth;
            else if (isPunct(toks_[j], ">")) {
                if (--depth == 0)
                    return j + 1;
            }
        }
        return j;
    }

    /**
     * Skip to the end of the statement starting at @p i: past the
     * next ';' at bracket depth 0, or past a trailing '}' of a brace
     * body opened at depth 0 (function bodies inside expressions are
     * rare enough to ignore).
     */
    size_t
    skipStatement(size_t i)
    {
        int depth = 0;
        for (size_t j = i; j < toks_.size(); ++j) {
            const Token &t = toks_[j];
            if (t.kind != TokenKind::Punct)
                continue;
            if (t.text == "(" || t.text == "[")
                ++depth;
            else if (t.text == ")" || t.text == "]")
                --depth;
            else if (t.text == "{") {
                if (depth == 0) {
                    // Let step() classify the brace (keeps scope
                    // tracking consistent for nested functions).
                    return j;
                }
                ++depth;
            } else if (t.text == "}") {
                if (depth == 0)
                    return j; // unbalanced: let step() pop the scope
                --depth;
            } else if (t.text == ";" && depth == 0) {
                return j + 1;
            }
        }
        return toks_.size();
    }

    /**
     * A declaration statement at namespace or type scope: either a
     * function (declaration or definition) or a variable. The
     * discriminator: scanning left to right, a '(' whose preceding
     * token is a plausible name, seen before any '=', makes it a
     * function; an '=', ';', or '{' initializer first makes it a
     * variable.
     */
    size_t
    parseDeclaration(size_t i)
    {
        int angle = 0;
        for (size_t j = i; j < toks_.size(); ++j) {
            const Token &t = toks_[j];
            if (t.kind == TokenKind::Punct) {
                // Template arguments in the return/declared type:
                // Expected<MvaResult>. Track nesting so a '(' inside
                // template args (function types) is not the signature.
                if (t.text == "<")
                    ++angle;
                else if (t.text == ">" && angle > 0)
                    --angle;
                if (angle > 0)
                    continue;
                if (t.text == "(")
                    return parseFunction(i, j);
                if (t.text == "=" &&
                    ((j + 1 < toks_.size() &&
                      isPunct(toks_[j + 1], "=")) ||
                     (j > i && (isPunct(toks_[j - 1], "=") ||
                                isPunct(toks_[j - 1], "!") ||
                                isPunct(toks_[j - 1], "<") ||
                                isPunct(toks_[j - 1], ">"))))) {
                    // The lexer emits single-char puncts, so the '=='
                    // in an out-of-line `bool T::operator==(...)`
                    // definition must not read as an initializer.
                    continue;
                }
                if (t.text == "=" || t.text == ";")
                    return parseVariable(i, j);
                if (t.text == "{") {
                    // Brace initializer directly after a name
                    // (std::atomic<bool> g{false}) vs an unrecognized
                    // construct: a name directly before the brace that
                    // is not ')' terminated means variable.
                    if (j > i &&
                        toks_[j - 1].kind == TokenKind::Identifier &&
                        !isReserved(toks_[j - 1].text))
                        return parseVariable(i, j);
                    return j; // let step() classify the scope
                }
                if (t.text == "}")
                    return j;
            }
        }
        return toks_.size();
    }

    /**
     * Statement whose first '(' is at @p paren: a function if the
     * token before '(' names one. Records a definition when a body
     * follows the signature, a declaration when ';' does.
     */
    size_t
    parseFunction(size_t i, size_t paren)
    {
        // The name is the identifier immediately before '('.
        if (paren == i || toks_[paren - 1].kind != TokenKind::Identifier ||
            isReserved(toks_[paren - 1].text))
            return skipStatement(i);
        const Token &nameTok = toks_[paren - 1];

        // Qualifier chain: A::B::name.
        std::string qualified = nameTok.text;
        size_t q = paren - 1;
        while (q >= 2 && isPunct(toks_[q - 1], ":") &&
               isPunct(toks_[q - 2], ":")) {
            if (q >= 3 && toks_[q - 3].kind == TokenKind::Identifier) {
                qualified = toks_[q - 3].text + "::" + qualified;
                q -= 3;
            } else {
                break;
            }
        }

        // Return-type text: declaration tokens before the qualified
        // name, joined (empty for constructors).
        std::string ret;
        for (size_t k = i; k + 1 < q + 1 && k < q; ++k) {
            if (!ret.empty())
                ret += ' ';
            ret += toks_[k].text;
        }

        size_t close = matchBracket(toks_, paren);
        if (close >= toks_.size())
            return toks_.size();

        // Skip const / noexcept / override / trailing-return tokens up
        // to the body, ';', or something that disqualifies (e.g. an
        // init: `static Foo x(1);` reads as a call-shaped initializer;
        // those only occur in function scope, which parseDeclaration
        // never reaches).
        size_t j = close + 1;
        while (j < toks_.size() && !isPunct(toks_[j], "{") &&
               !isPunct(toks_[j], ";") && !isPunct(toks_[j], "=") &&
               !isPunct(toks_[j], "}"))
            ++j;
        if (j < toks_.size() && isPunct(toks_[j], "{")) {
            size_t bodyEnd = matchBracket(toks_, j);
            out_.functions.push_back({nameTok.text, qualified,
                                      nameTok.line, j, bodyEnd + 1,
                                      ret});
            scopes_.push_back(ScopeKind::Function);
            return j + 1;
        }
        if (j < toks_.size() && isPunct(toks_[j], "="))
            return skipStatement(j); // = default / = delete / = 0
        return j + 1; // a declaration
    }

    /**
     * Variable declaration whose '=', ';', or '{' initializer (or, for
     * a function-local static, direct-initializer '(') is at @p stop.
     * The name is the last identifier before @p stop that is not
     * inside brackets (skips array extents). Records namespace-scope
     * variables and, with @p functionLocal, function-local statics;
     * type members have their synchronization judged by the owning
     * object.
     */
    size_t
    parseVariable(size_t i, size_t stop, bool functionLocal = false)
    {
        GlobalVar var;
        size_t name_at = 0;
        bool named = false;
        for (size_t j = i; j < stop; ++j) {
            const Token &t = toks_[j];
            if (t.kind == TokenKind::Identifier) {
                if (t.text == "const" || t.text == "constexpr") {
                    var.isConst = true;
                } else if (t.text == "thread_local") {
                    var.isThreadLocal = true;
                } else if (!isReserved(t.text)) {
                    name_at = j;
                    named = true;
                }
            } else if (isPunct(t, "[")) {
                j = matchBracket(toks_, j);
            }
        }
        if (!named)
            return skipStatement(i);
        var.name = toks_[name_at].text;
        var.line = toks_[name_at].line;
        for (size_t k = i; k < name_at; ++k) {
            if (!var.typeText.empty())
                var.typeText += ' ';
            var.typeText += toks_[k].text;
        }
        var.isFunctionLocal = functionLocal;
        var.selfSynchronizing = isSelfSyncType(var.typeText);
        if (functionLocal || current() == ScopeKind::Namespace)
            out_.globals.push_back(std::move(var));
        return skipStatement(stop);
    }

    /** `static` at function scope: a function-local static. Its
     * declarator ends at the first '=', ';', '{', '[' or '(' (here a
     * direct-initializer, not a signature). */
    size_t
    parseLocalStatic(size_t i)
    {
        for (size_t j = i; j < toks_.size(); ++j) {
            const Token &t = toks_[j];
            if (t.kind == TokenKind::Punct &&
                (t.text == "(" || t.text == "[" || t.text == "=" ||
                 t.text == ";" || t.text == "{"))
                return parseVariable(i, j, true);
        }
        return skipStatement(i);
    }

    const std::vector<Token> &toks_;
    const std::vector<std::string> &lines_;
    ParsedFile out_;
    std::vector<ScopeKind> scopes_;
};

} // namespace

size_t
matchBracket(const std::vector<Token> &tokens, size_t open)
{
    int depth = 0;
    for (size_t j = open; j < tokens.size(); ++j) {
        const Token &t = tokens[j];
        if (t.kind != TokenKind::Punct)
            continue;
        if (t.text == "(" || t.text == "{" || t.text == "[")
            ++depth;
        else if (t.text == ")" || t.text == "}" || t.text == "]") {
            if (--depth == 0)
                return j;
        }
    }
    return tokens.size();
}

ParsedFile
parseFile(const LexedFile &lexed)
{
    return Parser(lexed).run();
}

} // namespace snoop::lint
