#include "lint/lexer.hh"

#include <cctype>
#include <fstream>
#include <sstream>

namespace snoop::lint {

namespace {

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Raw-string prefixes: R, uR, UR, LR, u8R. */
bool
isRawPrefix(const std::string &id)
{
    return id == "R" || id == "uR" || id == "UR" || id == "LR" ||
        id == "u8R";
}

/** Non-raw encoding prefixes: u8, u, U, L. */
bool
isStringPrefix(const std::string &id)
{
    return id == "u8" || id == "u" || id == "U" || id == "L";
}

class Lexer
{
  public:
    explicit Lexer(const std::string &src) : src_(src) {}

    LexedFile
    run()
    {
        splitRawLines();
        out_.code.assign(out_.lines.size(), std::string());
        while (i_ < src_.size())
            step();
        return std::move(out_);
    }

  private:
    void
    splitRawLines()
    {
        std::string cur;
        for (char c : src_) {
            if (c == '\n') {
                out_.lines.push_back(cur);
                cur.clear();
            } else if (c != '\r') {
                cur.push_back(c);
            }
        }
        if (!cur.empty())
            out_.lines.push_back(cur);
    }

    void
    codePut(size_t line, char c)
    {
        if (line - 1 < out_.code.size())
            out_.code[line - 1].push_back(c);
    }

    void
    codePut(size_t line, const std::string &s)
    {
        for (char c : s)
            codePut(line, c);
    }

    char
    peek(size_t ahead = 0) const
    {
        size_t p = i_ + ahead;
        return p < src_.size() ? src_[p] : '\0';
    }

    void
    step()
    {
        char c = src_[i_];
        if (c == '\n') {
            ++line_;
            line_has_token_ = false;
            ++i_;
            return;
        }
        if (c == '\r') {
            ++i_;
            return;
        }
        if (c == '/' && peek(1) == '/') {
            // Backslash-newline splices the next physical line into
            // the comment (phase-2 line continuation), so a multi-line
            // macro ending in a // comment stays fully stripped.
            while (i_ < src_.size()) {
                if (src_[i_] == '\n') {
                    size_t back = i_;
                    while (back > 0 && src_[back - 1] == '\r')
                        --back;
                    if (back > 0 && src_[back - 1] == '\\') {
                        ++line_;
                        ++i_;
                        continue;
                    }
                    break;
                }
                ++i_;
            }
            return;
        }
        if (c == '/' && peek(1) == '*') {
            // A single space keeps word boundaries intact in the
            // code view: `a/*x*/b` must not read back as `ab`.
            codePut(line_, ' ');
            i_ += 2;
            while (i_ < src_.size()) {
                if (src_[i_] == '*' && peek(1) == '/') {
                    i_ += 2;
                    return;
                }
                if (src_[i_] == '\n')
                    ++line_;
                ++i_;
            }
            return;
        }
        if (c == '"') {
            lexString();
            return;
        }
        if (c == '\'') {
            lexCharLit();
            return;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
            lexNumber();
            return;
        }
        if (isIdentStart(c)) {
            lexIdentifier();
            return;
        }
        if (c == ' ' || c == '\t' || c == '\f' || c == '\v') {
            codePut(line_, c);
            ++i_;
            return;
        }
        if (c == '#' && !line_has_token_) {
            lexDirective();
            return;
        }
        emit(TokenKind::Punct, std::string(1, c), line_);
        codePut(line_, c);
        ++i_;
    }

    void
    emit(TokenKind kind, std::string text, size_t line)
    {
        out_.tokens.push_back({kind, std::move(text), line});
        line_has_token_ = true;
    }

    /** Ordinary "..." literal. The code view keeps the quotes but
     * drops the contents, so rule text quoted in an error message
     * cannot fire a code rule. Unterminated literals end at the
     * newline (robustness over strictness). */
    void
    lexString()
    {
        size_t start = line_;
        std::string text;
        ++i_; // opening quote
        while (i_ < src_.size()) {
            char d = src_[i_];
            if (d == '\\' && i_ + 1 < src_.size()) {
                // Backslash-newline continues the literal on the next
                // physical line; it contributes nothing to the value
                // but must keep the line counter honest.
                if (src_[i_ + 1] == '\n' ||
                    (src_[i_ + 1] == '\r' && peek(2) == '\n')) {
                    ++line_;
                    i_ += src_[i_ + 1] == '\n' ? 2 : 3;
                    continue;
                }
                text.push_back(d);
                text.push_back(src_[i_ + 1]);
                i_ += 2;
                continue;
            }
            if (d == '"') {
                ++i_;
                break;
            }
            if (d == '\n') {
                ++line_;
                ++i_;
                break;
            }
            text.push_back(d);
            ++i_;
        }
        emit(TokenKind::String, text, start);
        codePut(start, "\"\"");
    }

    /** Char literal, including '\'' and the infamous '"': the old
     * line scanner treated that quote as a string opener and masked
     * the rest of the line. */
    void
    lexCharLit()
    {
        size_t start = line_;
        std::string text;
        ++i_; // opening quote
        while (i_ < src_.size()) {
            char d = src_[i_];
            if (d == '\\' && i_ + 1 < src_.size()) {
                // Same phase-2 line-continuation handling as strings.
                if (src_[i_ + 1] == '\n' ||
                    (src_[i_ + 1] == '\r' && peek(2) == '\n')) {
                    ++line_;
                    i_ += src_[i_ + 1] == '\n' ? 2 : 3;
                    continue;
                }
                text.push_back(d);
                text.push_back(src_[i_ + 1]);
                i_ += 2;
                continue;
            }
            if (d == '\'') {
                ++i_;
                break;
            }
            if (d == '\n') {
                ++line_;
                ++i_;
                break;
            }
            text.push_back(d);
            ++i_;
        }
        emit(TokenKind::CharLit, text, start);
        codePut(start, "''");
    }

    /** Numbers swallow digit separators (1'000'000) so a separator
     * apostrophe can never open a char literal. */
    void
    lexNumber()
    {
        size_t start = line_;
        std::string text;
        while (i_ < src_.size()) {
            char d = src_[i_];
            if (isIdentChar(d) || d == '.') {
                text.push_back(d);
                ++i_;
                continue;
            }
            if (d == '\'' && isIdentChar(peek(1))) {
                text.push_back(d);
                ++i_;
                continue;
            }
            if ((d == '+' || d == '-') && !text.empty()) {
                char p = text.back();
                if (p == 'e' || p == 'E' || p == 'p' || p == 'P') {
                    text.push_back(d);
                    ++i_;
                    continue;
                }
            }
            break;
        }
        emit(TokenKind::Number, text, start);
        codePut(start, text);
    }

    void
    lexIdentifier()
    {
        size_t start = line_;
        std::string text;
        while (i_ < src_.size() && isIdentChar(src_[i_])) {
            text.push_back(src_[i_]);
            ++i_;
        }
        if (peek() == '"') {
            if (isRawPrefix(text)) {
                lexRawString(start);
                return;
            }
            if (isStringPrefix(text)) {
                // Encoding prefix: drop it and let the next step()
                // lex the string body.
                line_has_token_ = true;
                return;
            }
        }
        emit(TokenKind::Identifier, text, start);
        codePut(start, text);
    }

    /** R"delim( ... )delim", possibly spanning many lines. Escapes
     * are inert inside; only the exact )delim" closer ends it. */
    void
    lexRawString(size_t start)
    {
        ++i_; // opening quote
        std::string delim;
        while (i_ < src_.size() && src_[i_] != '(' && src_[i_] != '\n') {
            delim.push_back(src_[i_]);
            ++i_;
        }
        if (i_ < src_.size() && src_[i_] == '(')
            ++i_;
        std::string closer = ")" + delim + "\"";
        size_t end = src_.find(closer, i_);
        std::string content;
        if (end == std::string::npos) {
            content = src_.substr(i_);
            i_ = src_.size();
        } else {
            content = src_.substr(i_, end - i_);
            i_ = end + closer.size();
        }
        for (char d : content)
            if (d == '\n')
                ++line_;
        emit(TokenKind::RawString, content, start);
        codePut(start, "\"\"");
    }

    /** Preprocessor directive opened by a line-leading '#'. Emits
     * the '#' and directive tokens like normal code but additionally
     * recognizes #include and records the target path. */
    void
    lexDirective()
    {
        size_t start = line_;
        emit(TokenKind::Punct, "#", start);
        codePut(start, '#');
        ++i_;
        // Skip horizontal whitespace between '#' and the keyword.
        size_t probe = i_;
        while (probe < src_.size() &&
               (src_[probe] == ' ' || src_[probe] == '\t'))
            ++probe;
        static const std::string kInclude = "include";
        if (src_.compare(probe, kInclude.size(), kInclude) != 0 ||
            isIdentChar(peek(probe + kInclude.size() - i_)))
            return; // some other directive: plain lexing resumes
        // Find the target, which is either "..." or <...>.
        size_t after = probe + kInclude.size();
        size_t j = after;
        while (j < src_.size() && (src_[j] == ' ' || src_[j] == '\t'))
            ++j;
        if (j < src_.size() && src_[j] == '<') {
            size_t close = src_.find('>', j + 1);
            size_t eol = src_.find('\n', j + 1);
            if (close != std::string::npos &&
                (eol == std::string::npos || close < eol)) {
                out_.includes.push_back(
                    {src_.substr(j + 1, close - j - 1), start, true});
            }
        } else if (j < src_.size() && src_[j] == '"') {
            size_t close = src_.find('"', j + 1);
            size_t eol = src_.find('\n', j + 1);
            if (close != std::string::npos &&
                (eol == std::string::npos || close < eol)) {
                out_.includes.push_back(
                    {src_.substr(j + 1, close - j - 1), start, false});
            }
        }
        // Resume plain lexing at the keyword so the token stream and
        // code view still carry the directive text.
        return;
    }

    const std::string &src_;
    LexedFile out_;
    size_t i_ = 0;
    size_t line_ = 1;
    bool line_has_token_ = false;
};

} // namespace

LexedFile
lex(const std::string &source)
{
    return Lexer(source).run();
}

LexedFile
lexFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return LexedFile{};
    std::ostringstream buf;
    buf << in.rdbuf();
    return lex(buf.str());
}

bool
isPunct(const Token &t, const char *p)
{
    return t.kind == TokenKind::Punct && t.text == p;
}

bool
isIdent(const Token &t, const char *name)
{
    return t.kind == TokenKind::Identifier && t.text == name;
}

bool
containsWord(const std::string &line, const std::string &word)
{
    for (size_t pos = line.find(word); pos != std::string::npos;
         pos = line.find(word, pos + 1)) {
        size_t end = pos + word.size();
        bool left_ok = pos == 0 || !isIdentChar(line[pos - 1]);
        bool right_ok = end >= line.size() || !isIdentChar(line[end]);
        if (left_ok && right_ok)
            return true;
    }
    return false;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

std::string
baseName(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool
markerNearby(const LexedFile &lexed, size_t line, const std::string &marker)
{
    const std::string needle = "snoop-lint: " + marker;
    for (size_t l = line > 3 ? line - 3 : 1;
         l <= line && l <= lexed.lines.size(); ++l)
        if (lexed.lines[l - 1].find(needle) != std::string::npos)
            return true;
    return false;
}

bool
fixtureOptsIn(const std::string &file, const std::string &rule)
{
    std::string stem = rule;
    for (char &c : stem)
        if (c == '-')
            c = '_';
    const std::string base = baseName(file);
    return startsWith(base, "bad_" + stem) ||
        startsWith(base, "good_" + stem);
}

} // namespace snoop::lint
