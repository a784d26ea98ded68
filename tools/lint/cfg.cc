#include "lint/cfg.hh"

#include <algorithm>
#include <set>
#include <sstream>

namespace snoop::lint {

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

/**
 * Recursive-descent CFG builder over one function body's token
 * range. Any construct outside the modeled grammar sets `failed_`
 * and the caller falls back to the degraded single-block CFG.
 */
class CfgBuilder
{
  public:
    explicit CfgBuilder(const std::vector<Token> &toks) : toks_(toks) {}

    /** Body range: bodyBegin is the '{', bodyEnd one past the '}'. */
    Cfg
    build(size_t bodyBegin, size_t bodyEnd)
    {
        cfg_ = Cfg{};
        failed_ = false;
        size_t entry = newBlock();
        exit_ = newBlock();
        cfg_.entry = entry;
        cfg_.exit = exit_;

        size_t inner_end = bodyEnd > bodyBegin ? bodyEnd - 1 : bodyBegin;
        size_t last = parseSeq(bodyBegin + 1, inner_end, entry);
        if (!failed_)
            edge(last, exit_, EdgeKind::Next);

        if (failed_)
            return degraded(bodyBegin, bodyEnd);
        collapseEmptyBlocks();
        prune();
        return std::move(cfg_);
    }

  private:
    // --- graph primitives -------------------------------------------

    size_t
    newBlock()
    {
        cfg_.blocks.emplace_back();
        return cfg_.blocks.size() - 1;
    }

    void
    edge(size_t from, size_t to, EdgeKind k)
    {
        cfg_.blocks[from].succs.push_back({to, k});
    }

    void
    addStmt(size_t blk, size_t b, size_t e, StmtKind k)
    {
        if (e <= b)
            return;
        cfg_.blocks[blk].stmts.push_back({b, e, toks_[b].line, k});
    }

    // --- statement sequencing ---------------------------------------

    /** Parse the statement sequence [i, end) starting in block
     * @p cur; returns the block where control continues. */
    size_t
    parseSeq(size_t i, size_t end, size_t cur)
    {
        while (i < end && !failed_)
            cur = parseStmt(&i, end, cur);
        return cur;
    }

    /** Parse exactly one statement (or compound) at *i, advance *i,
     * and return the continuation block. */
    size_t
    parseStmt(size_t *i, size_t end, size_t cur)
    {
        size_t j = *i;
        if (j >= end)
            return cur;
        const Token &t = toks_[j];

        if (isPunct(t, ";")) {
            *i = j + 1;
            return cur;
        }
        if (isPunct(t, "{")) {
            size_t close = matchBracket(toks_, j);
            if (close >= end) {
                failed_ = true;
                return cur;
            }
            size_t out = parseSeq(j + 1, close, cur);
            *i = close + 1;
            return out;
        }
        if (isPunct(t, "#")) {
            // Preprocessor line inside a body: consume its tokens.
            size_t line = t.line;
            size_t k = j + 1;
            while (k < end && toks_[k].line == line)
                ++k;
            *i = k;
            return cur;
        }
        if (isIdent(t, "if"))
            return parseIf(i, end, cur);
        if (isIdent(t, "while"))
            return parseWhile(i, end, cur);
        if (isIdent(t, "do"))
            return parseDoWhile(i, end, cur);
        if (isIdent(t, "for"))
            return parseFor(i, end, cur);
        if (isIdent(t, "switch"))
            return parseSwitch(i, end, cur);
        if (isIdent(t, "try"))
            return parseTry(i, end, cur);
        if (isIdent(t, "return")) {
            size_t stop = stmtEnd(j, end);
            addStmt(cur, j, stop, StmtKind::Return);
            edge(cur, exit_, EdgeKind::Next);
            *i = stop;
            return newBlock(); // anything after is unreachable
        }
        if (isIdent(t, "break") || isIdent(t, "continue")) {
            bool is_break = t.text == "break";
            size_t target = jumpTarget(is_break);
            if (target == kNone) {
                failed_ = true;
                return cur;
            }
            size_t stop = stmtEnd(j, end);
            addStmt(cur, j, stop,
                    is_break ? StmtKind::Break : StmtKind::Continue);
            edge(cur, target, EdgeKind::Next);
            *i = stop;
            return newBlock();
        }
        if (isIdent(t, "goto")) {
            failed_ = true; // unstructured flow: degrade
            return cur;
        }
        // Statement label `name:` (not `::`, not case/default).
        if (t.kind == TokenKind::Identifier && j + 1 < end &&
            isPunct(toks_[j + 1], ":") &&
            !(j + 2 < end && isPunct(toks_[j + 2], ":"))) {
            failed_ = true;
            return cur;
        }

        // Plain statement (expression, declaration, lambda, ...).
        size_t stop = stmtEnd(j, end);
        addStmt(cur, j, stop, StmtKind::Plain);
        *i = stop;
        return cur;
    }

    /** One past the end of the plain statement starting at @p j:
     * past the ';' at bracket depth 0. A '}' at depth 0 ends the
     * statement without being consumed (malformed input). */
    size_t
    stmtEnd(size_t j, size_t end)
    {
        int depth = 0;
        for (size_t k = j; k < end; ++k) {
            const Token &t = toks_[k];
            if (t.kind != TokenKind::Punct)
                continue;
            if (t.text == "(" || t.text == "[" || t.text == "{")
                ++depth;
            else if (t.text == ")" || t.text == "]")
                --depth;
            else if (t.text == "}") {
                if (depth == 0)
                    return k;
                --depth;
            } else if (t.text == ";" && depth == 0) {
                return k + 1;
            }
        }
        return end;
    }

    /** Innermost break / continue target on the control stack. */
    size_t
    jumpTarget(bool is_break)
    {
        for (size_t k = loops_.size(); k-- > 0;) {
            if (is_break)
                return loops_[k].breakTo;
            if (loops_[k].continueTo != kNone)
                return loops_[k].continueTo;
        }
        return kNone;
    }

    // --- condition lowering -----------------------------------------

    /** Two adjacent identical puncts form `&&` / `||` (the lexer
     * emits one punct per character). */
    bool
    twoPunct(size_t k, size_t end, char c) const
    {
        return k + 1 < end && toks_[k].kind == TokenKind::Punct &&
            toks_[k + 1].kind == TokenKind::Punct &&
            toks_[k].text[0] == c && toks_[k + 1].text[0] == c;
    }

    /**
     * Lower the condition [b, e) tested from @p blk: decompose
     * top-level `||` / `&&` into a chain of single-condition blocks
     * so edge transfers see atomic conditions. The atomic condition
     * is also recorded as a Plain statement of its block, so
     * statement-scanning passes (transcendental calls in
     * conditions) see its tokens.
     */
    void
    lowerCond(size_t b, size_t e, size_t blk, size_t onTrue,
              size_t onFalse)
    {
        // Strip redundant outer parens: `((x))`.
        while (e > b + 1 && isPunct(toks_[b], "(") &&
               matchBracket(toks_, b) == e - 1) {
            ++b;
            --e;
        }
        if (e <= b) {
            // Empty condition (`for (;;)`): always true.
            edge(blk, onTrue, EdgeKind::Next);
            return;
        }
        // First top-level `||` (lowest precedence), else first `&&`.
        size_t orAt = kNone, andAt = kNone;
        int depth = 0;
        for (size_t k = b; k < e; ++k) {
            const Token &t = toks_[k];
            if (t.kind != TokenKind::Punct)
                continue;
            if (t.text == "(" || t.text == "[" || t.text == "{")
                ++depth;
            else if (t.text == ")" || t.text == "]" || t.text == "}")
                --depth;
            else if (depth == 0) {
                if (orAt == kNone && twoPunct(k, e, '|'))
                    orAt = k;
                if (andAt == kNone && twoPunct(k, e, '&')) {
                    // `a & &b` is not `&&`; require a non-operand
                    // token on neither side is beyond the lexer, so
                    // accept adjacency (false splits only make the
                    // condition *more* atomic pieces, never wrong
                    // edges).
                    andAt = k;
                }
                if (twoPunct(k, e, '|') || twoPunct(k, e, '&'))
                    ++k; // skip the second punct
            }
        }
        if (orAt != kNone) {
            size_t rhs = newBlock();
            lowerCond(b, orAt, blk, onTrue, rhs);
            lowerCond(orAt + 2, e, rhs, onTrue, onFalse);
            return;
        }
        if (andAt != kNone) {
            size_t rhs = newBlock();
            lowerCond(b, andAt, blk, rhs, onFalse);
            lowerCond(andAt + 2, e, rhs, onTrue, onFalse);
            return;
        }
        cfg_.blocks[blk].condBegin = b;
        cfg_.blocks[blk].condEnd = e;
        cfg_.blocks[blk].condLine = toks_[b].line;
        addStmt(blk, b, e, StmtKind::Plain);
        edge(blk, onTrue, EdgeKind::True);
        edge(blk, onFalse, EdgeKind::False);
    }

    /** The `( ... )` following token @p at (skipping `constexpr`);
     * returns false on shape mismatch. */
    bool
    parenAfter(size_t at, size_t end, size_t *open, size_t *close)
    {
        size_t k = at + 1;
        if (k < end && isIdent(toks_[k], "constexpr"))
            ++k;
        if (k >= end || !isPunct(toks_[k], "(")) {
            failed_ = true;
            return false;
        }
        size_t c = matchBracket(toks_, k);
        if (c >= end) {
            failed_ = true;
            return false;
        }
        *open = k;
        *close = c;
        return true;
    }

    // --- structured statements --------------------------------------

    size_t
    parseIf(size_t *i, size_t end, size_t cur)
    {
        size_t open, close;
        if (!parenAfter(*i, end, &open, &close))
            return cur;

        size_t thenEntry = newBlock();
        size_t join = newBlock();
        size_t k = close + 1;

        // Peek past the then-branch for an `else`.
        size_t thenStart = k;
        size_t probe = thenStart;
        size_t thenExit;
        {
            // Parse the then-branch into thenEntry.
            size_t p = probe;
            thenExit = parseStmt(&p, end, thenEntry);
            probe = p;
        }
        if (failed_)
            return cur;
        if (probe < end && isIdent(toks_[probe], "else")) {
            size_t elseEntry = newBlock();
            lowerCond(open + 1, close, cur, thenEntry, elseEntry);
            size_t p = probe + 1;
            size_t elseExit = parseStmt(&p, end, elseEntry);
            if (failed_)
                return cur;
            edge(thenExit, join, EdgeKind::Next);
            edge(elseExit, join, EdgeKind::Next);
            *i = p;
        } else {
            lowerCond(open + 1, close, cur, thenEntry, join);
            edge(thenExit, join, EdgeKind::Next);
            *i = probe;
        }
        return join;
    }

    size_t
    parseWhile(size_t *i, size_t end, size_t cur)
    {
        size_t open, close;
        if (!parenAfter(*i, end, &open, &close))
            return cur;
        size_t header = newBlock();
        size_t body = newBlock();
        size_t after = newBlock();
        edge(cur, header, EdgeKind::Next);
        lowerCond(open + 1, close, header, body, after);
        loops_.push_back({after, header});
        size_t p = close + 1;
        size_t bodyExit = parseStmt(&p, end, body);
        loops_.pop_back();
        if (failed_)
            return cur;
        edge(bodyExit, header, EdgeKind::Next);
        *i = p;
        return after;
    }

    size_t
    parseDoWhile(size_t *i, size_t end, size_t cur)
    {
        size_t body = newBlock();
        size_t condBlk = newBlock();
        size_t after = newBlock();
        edge(cur, body, EdgeKind::Next);
        loops_.push_back({after, condBlk});
        size_t p = *i + 1;
        size_t bodyExit = parseStmt(&p, end, body);
        loops_.pop_back();
        if (failed_)
            return cur;
        edge(bodyExit, condBlk, EdgeKind::Next);
        if (p >= end || !isIdent(toks_[p], "while")) {
            failed_ = true;
            return cur;
        }
        size_t open, close;
        if (!parenAfter(p, end, &open, &close))
            return cur;
        lowerCond(open + 1, close, condBlk, body, after);
        p = close + 1;
        if (p < end && isPunct(toks_[p], ";"))
            ++p;
        *i = p;
        return after;
    }

    size_t
    parseFor(size_t *i, size_t end, size_t cur)
    {
        size_t open, close;
        if (!parenAfter(*i, end, &open, &close))
            return cur;

        // Range-for vs classic: a top-level ':' (not '::') before any
        // top-level ';' inside the parens.
        size_t colon = kNone, semi1 = kNone, semi2 = kNone;
        int depth = 0;
        for (size_t k = open + 1; k < close; ++k) {
            const Token &t = toks_[k];
            if (t.kind != TokenKind::Punct)
                continue;
            if (t.text == "(" || t.text == "[" || t.text == "{")
                ++depth;
            else if (t.text == ")" || t.text == "]" || t.text == "}")
                --depth;
            else if (depth == 0) {
                if (t.text == ":" &&
                    !(k + 1 < close && isPunct(toks_[k + 1], ":")) &&
                    !(k > open + 1 && isPunct(toks_[k - 1], ":"))) {
                    if (colon == kNone && semi1 == kNone)
                        colon = k;
                } else if (t.text == ";") {
                    if (semi1 == kNone)
                        semi1 = k;
                    else if (semi2 == kNone)
                        semi2 = k;
                }
            }
        }

        size_t after = newBlock();
        if (colon != kNone) {
            // Range-for: the header statement carries the whole
            // `(decl : expr)` range for iteration-order passes.
            size_t header = newBlock();
            size_t body = newBlock();
            edge(cur, header, EdgeKind::Next);
            addStmt(header, open + 1, close, StmtKind::RangeFor);
            edge(header, body, EdgeKind::Next);
            edge(header, after, EdgeKind::Next);
            loops_.push_back({after, header});
            size_t p = close + 1;
            size_t bodyExit = parseStmt(&p, end, body);
            loops_.pop_back();
            if (failed_)
                return cur;
            edge(bodyExit, header, EdgeKind::Next);
            *i = p;
            return after;
        }

        if (semi1 == kNone) {
            failed_ = true;
            return cur;
        }
        if (semi2 == kNone)
            semi2 = close; // tolerated: `for (a; b)` is malformed
        addStmt(cur, open + 1, semi1, StmtKind::Plain); // init
        size_t header = newBlock();
        size_t body = newBlock();
        size_t inc = newBlock();
        edge(cur, header, EdgeKind::Next);
        lowerCond(semi1 + 1, semi2, header, body, after);
        loops_.push_back({after, inc});
        size_t p = close + 1;
        size_t bodyExit = parseStmt(&p, end, body);
        loops_.pop_back();
        if (failed_)
            return cur;
        edge(bodyExit, inc, EdgeKind::Next);
        addStmt(inc, semi2 + 1, close, StmtKind::Plain);
        edge(inc, header, EdgeKind::Next);
        *i = p;
        return after;
    }

    size_t
    parseSwitch(size_t *i, size_t end, size_t cur)
    {
        size_t open, close;
        if (!parenAfter(*i, end, &open, &close))
            return cur;
        size_t bodyOpen = close + 1;
        if (bodyOpen >= end || !isPunct(toks_[bodyOpen], "{")) {
            failed_ = true;
            return cur;
        }
        size_t bodyClose = matchBracket(toks_, bodyOpen);
        if (bodyClose >= end) {
            failed_ = true;
            return cur;
        }
        addStmt(cur, open + 1, close, StmtKind::Plain); // selector

        // Top-level case/default labels inside the switch braces.
        struct Label {
            size_t bodyStart; //!< first token after the ':'
        };
        std::vector<Label> labels;
        bool sawDefault = false;
        int depth = 0;
        for (size_t k = bodyOpen + 1; k < bodyClose; ++k) {
            const Token &t = toks_[k];
            if (t.kind == TokenKind::Punct) {
                if (t.text == "(" || t.text == "[" || t.text == "{")
                    ++depth;
                else if (t.text == ")" || t.text == "]" ||
                         t.text == "}")
                    --depth;
                continue;
            }
            if (depth != 0)
                continue;
            if (isIdent(t, "case") || isIdent(t, "default")) {
                // Find the label's ':' (skip over `::` and ternaries
                // do not appear at depth 0 in a case expression we
                // model; give up on anything stranger).
                size_t c = k + 1;
                int d2 = 0;
                while (c < bodyClose) {
                    const Token &u = toks_[c];
                    if (u.kind == TokenKind::Punct) {
                        if (u.text == "(" || u.text == "[" ||
                            u.text == "{")
                            ++d2;
                        else if (u.text == ")" || u.text == "]" ||
                                 u.text == "}")
                            --d2;
                        else if (u.text == ":" && d2 == 0) {
                            if (c + 1 < bodyClose &&
                                isPunct(toks_[c + 1], ":")) {
                                c += 2;
                                continue;
                            }
                            break;
                        }
                    }
                    ++c;
                }
                if (c >= bodyClose) {
                    failed_ = true;
                    return cur;
                }
                if (isIdent(t, "default"))
                    sawDefault = true;
                labels.push_back({c + 1});
                k = c;
            }
        }

        size_t after = newBlock();
        if (labels.empty()) {
            // Degenerate: a switch with no labels runs nothing.
            edge(cur, after, EdgeKind::Next);
            *i = bodyClose + 1;
            return after;
        }
        loops_.push_back({after, kNone});
        size_t prevExit = kNone;
        for (size_t k = 0; k < labels.size() && !failed_; ++k) {
            size_t regionEnd = k + 1 < labels.size()
                ? labels[k + 1].bodyStart
                : bodyClose;
            // Region end backs up over the next label's `case X:` /
            // `default:` tokens.
            if (k + 1 < labels.size()) {
                size_t r = labels[k + 1].bodyStart;
                while (r > labels[k].bodyStart &&
                       !(isIdent(toks_[r - 1], "case") ||
                         isIdent(toks_[r - 1], "default")))
                    --r;
                regionEnd = r > labels[k].bodyStart ? r - 1 : r;
            }
            size_t entry = newBlock();
            edge(cur, entry, EdgeKind::Next);
            if (prevExit != kNone)
                edge(prevExit, entry, EdgeKind::Next); // fallthrough
            prevExit =
                parseSeq(labels[k].bodyStart, regionEnd, entry);
        }
        loops_.pop_back();
        if (failed_)
            return cur;
        if (prevExit != kNone)
            edge(prevExit, after, EdgeKind::Next);
        if (!sawDefault)
            edge(cur, after, EdgeKind::Next);
        *i = bodyClose + 1;
        return after;
    }

    size_t
    parseTry(size_t *i, size_t end, size_t cur)
    {
        size_t bodyOpen = *i + 1;
        if (bodyOpen >= end || !isPunct(toks_[bodyOpen], "{")) {
            failed_ = true;
            return cur;
        }
        size_t bodyClose = matchBracket(toks_, bodyOpen);
        if (bodyClose >= end) {
            failed_ = true;
            return cur;
        }
        size_t join = newBlock();
        size_t tryEntry = newBlock();
        edge(cur, tryEntry, EdgeKind::Next);
        size_t tryExit = parseSeq(bodyOpen + 1, bodyClose, tryEntry);
        if (failed_)
            return cur;
        edge(tryExit, join, EdgeKind::Next);

        size_t p = bodyClose + 1;
        while (p < end && isIdent(toks_[p], "catch") && !failed_) {
            size_t open, close;
            if (!parenAfter(p, end, &open, &close))
                return cur;
            size_t cOpen = close + 1;
            if (cOpen >= end || !isPunct(toks_[cOpen], "{")) {
                failed_ = true;
                return cur;
            }
            size_t cClose = matchBracket(toks_, cOpen);
            if (cClose >= end) {
                failed_ = true;
                return cur;
            }
            // An exception may fire before any try statement ran, so
            // the catch hangs off the block *before* the try body.
            size_t catchEntry = newBlock();
            edge(cur, catchEntry, EdgeKind::Next);
            size_t catchExit =
                parseSeq(cOpen + 1, cClose, catchEntry);
            if (failed_)
                return cur;
            edge(catchExit, join, EdgeKind::Next);
            p = cClose + 1;
        }
        *i = p;
        return join;
    }

    // --- fallback + cleanup -----------------------------------------

    /** Single linear block: statements split at depth-0 ';'. */
    Cfg
    degraded(size_t bodyBegin, size_t bodyEnd)
    {
        Cfg d;
        d.degraded = true;
        d.blocks.resize(2);
        d.entry = 0;
        d.exit = 1;
        size_t inner_end = bodyEnd > bodyBegin ? bodyEnd - 1 : bodyBegin;
        size_t i = bodyBegin + 1;
        int depth = 0;
        size_t start = i;
        for (; i < inner_end; ++i) {
            const Token &t = toks_[i];
            if (t.kind != TokenKind::Punct)
                continue;
            if (t.text == "(" || t.text == "[" || t.text == "{")
                ++depth;
            else if (t.text == ")" || t.text == "]" || t.text == "}")
                --depth;
            else if (t.text == ";" && depth <= 0) {
                if (i + 1 > start)
                    d.blocks[0].stmts.push_back(
                        {start, i + 1, toks_[start].line,
                         StmtKind::Plain});
                start = i + 1;
            }
        }
        if (start < inner_end)
            d.blocks[0].stmts.push_back(
                {start, inner_end, toks_[start].line, StmtKind::Plain});
        d.blocks[0].succs.push_back({1, EdgeKind::Next});
        return d;
    }

    /** Forward empty no-cond single-Next blocks to their successor
     * and drop them (golden dumps stay readable; pass results are
     * unchanged because such a block is the identity transfer). */
    void
    collapseEmptyBlocks()
    {
        size_t n = cfg_.blocks.size();
        std::vector<size_t> fwd(n);
        for (size_t b = 0; b < n; ++b)
            fwd[b] = b;
        for (size_t b = 0; b < n; ++b) {
            const CfgBlock &blk = cfg_.blocks[b];
            if (b != cfg_.entry && b != cfg_.exit &&
                blk.stmts.empty() && !blk.hasCond() &&
                blk.succs.size() == 1 &&
                blk.succs[0].kind == EdgeKind::Next)
                fwd[b] = blk.succs[0].to;
        }
        auto resolve = [&](size_t b) {
            size_t hops = 0;
            while (fwd[b] != b && hops++ < n)
                b = fwd[b];
            return b;
        };
        for (CfgBlock &blk : cfg_.blocks)
            for (CfgEdge &e : blk.succs)
                e.to = resolve(e.to);
        cfg_.entry = resolve(cfg_.entry);
    }

    /** Drop blocks unreachable from entry (exit is always kept) and
     * renumber densely. */
    void
    prune()
    {
        size_t n = cfg_.blocks.size();
        std::vector<char> keep(n, 0);
        std::vector<size_t> queue{cfg_.entry};
        keep[cfg_.entry] = 1;
        for (size_t head = 0; head < queue.size(); ++head)
            for (const CfgEdge &e : cfg_.blocks[queue[head]].succs)
                if (!keep[e.to]) {
                    keep[e.to] = 1;
                    queue.push_back(e.to);
                }
        keep[cfg_.exit] = 1;

        std::vector<size_t> remap(n, kNone);
        std::vector<CfgBlock> kept;
        for (size_t b = 0; b < n; ++b) {
            if (!keep[b])
                continue;
            remap[b] = kept.size();
            kept.push_back(std::move(cfg_.blocks[b]));
        }
        for (CfgBlock &blk : kept) {
            for (CfgEdge &e : blk.succs)
                e.to = remap[e.to];
            // Deduplicate parallel identical edges (switch fan-out
            // to a shared `after` produces them).
            std::vector<CfgEdge> uniq;
            for (const CfgEdge &e : blk.succs) {
                bool dup = false;
                for (const CfgEdge &u : uniq)
                    dup = dup || (u.to == e.to && u.kind == e.kind);
                if (!dup)
                    uniq.push_back(e);
            }
            blk.succs = std::move(uniq);
        }
        cfg_.blocks = std::move(kept);
        cfg_.entry = remap[cfg_.entry];
        cfg_.exit = remap[cfg_.exit];
    }

    struct LoopCtx {
        size_t breakTo;
        size_t continueTo; //!< kNone for switch
    };

    const std::vector<Token> &toks_;
    Cfg cfg_;
    size_t exit_ = 0;
    bool failed_ = false;
    std::vector<LoopCtx> loops_;
};

char
stmtLetter(StmtKind k)
{
    switch (k) {
      case StmtKind::Plain:
        return 'S';
      case StmtKind::Return:
        return 'R';
      case StmtKind::Break:
        return 'B';
      case StmtKind::Continue:
        return 'C';
      case StmtKind::RangeFor:
        return 'F';
    }
    return '?';
}

} // namespace

Cfg
buildCfg(const LexedFile &file, const FunctionDef &def)
{
    const std::vector<Token> &toks = file.tokens;
    if (def.bodyBegin >= toks.size() || def.bodyEnd > toks.size() ||
        def.bodyEnd <= def.bodyBegin) {
        Cfg d;
        d.degraded = true;
        d.blocks.resize(2);
        d.entry = 0;
        d.exit = 1;
        d.blocks[0].succs.push_back({1, EdgeKind::Next});
        return d;
    }
    return CfgBuilder(toks).build(def.bodyBegin, def.bodyEnd);
}

std::string
dumpCfg(const Cfg &cfg)
{
    std::ostringstream o;
    o << "entry=B" << cfg.entry << " exit=B" << cfg.exit;
    if (cfg.degraded)
        o << " degraded";
    o << "\n";
    for (size_t b = 0; b < cfg.blocks.size(); ++b) {
        const CfgBlock &blk = cfg.blocks[b];
        o << "B" << b << ":";
        for (const CfgStmt &s : blk.stmts)
            o << " " << stmtLetter(s.kind) << "@" << s.line;
        if (blk.hasCond())
            o << " ?[L" << blk.condLine << "]";
        for (const CfgEdge &e : blk.succs) {
            o << " ";
            if (e.kind == EdgeKind::True)
                o << "T->B" << e.to;
            else if (e.kind == EdgeKind::False)
                o << "F->B" << e.to;
            else
                o << "->B" << e.to;
        }
        o << "\n";
    }
    return o.str();
}

std::vector<size_t>
reachableBlocks(const Cfg &cfg)
{
    std::vector<char> seen(cfg.blocks.size(), 0);
    std::vector<size_t> queue{cfg.entry};
    seen[cfg.entry] = 1;
    for (size_t head = 0; head < queue.size(); ++head)
        for (const CfgEdge &e : cfg.blocks[queue[head]].succs)
            if (!seen[e.to]) {
                seen[e.to] = 1;
                queue.push_back(e.to);
            }
    std::sort(queue.begin(), queue.end());
    return queue;
}

std::vector<size_t>
pathToBlock(const Cfg &cfg, size_t target)
{
    constexpr size_t kUnset = static_cast<size_t>(-1);
    std::vector<size_t> parent(cfg.blocks.size(), kUnset);
    std::vector<size_t> queue{cfg.entry};
    parent[cfg.entry] = cfg.entry;
    if (target == cfg.entry)
        return {cfg.entry};
    for (size_t head = 0; head < queue.size(); ++head) {
        for (const CfgEdge &e : cfg.blocks[queue[head]].succs) {
            if (parent[e.to] != kUnset)
                continue;
            parent[e.to] = queue[head];
            if (e.to == target) {
                std::vector<size_t> chain;
                for (size_t at = target; at != cfg.entry;
                     at = parent[at])
                    chain.push_back(at);
                chain.push_back(cfg.entry);
                return {chain.rbegin(), chain.rend()};
            }
            queue.push_back(e.to);
        }
    }
    return {};
}

} // namespace snoop::lint
