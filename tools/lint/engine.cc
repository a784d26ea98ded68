#include "lint/engine.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <map>

#include "lint/include_graph.hh"
#include "lint/lexer.hh"
#include "lint/rules.hh"

namespace snoop::lint {

namespace {

namespace fs = std::filesystem;

bool
isSourceExt(const fs::path &p)
{
    auto ext = p.extension();
    return ext == ".hh" || ext == ".cc";
}

/** Repo-relative '/'-separated path when `p` lies under `root`,
 * otherwise the path as given. */
std::string
relativize(const fs::path &root, const fs::path &p)
{
    std::error_code ec;
    fs::path canon_root = fs::weakly_canonical(root, ec);
    fs::path canon_p = fs::weakly_canonical(p, ec);
    auto rel = canon_p.lexically_relative(canon_root);
    if (rel.empty() || *rel.begin() == "..")
        return p.generic_string();
    return rel.generic_string();
}

/** Guard the ref before it reaches a shell: git refs and ranges only
 * need this character set, and anything else is rejected rather than
 * quoted. */
bool
isSafeRef(const std::string &ref)
{
    if (ref.empty())
        return false;
    for (char c : ref) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '-' || c == '.' || c == '/' || c == '~' || c == '^' ||
            c == '@')
            continue;
        return false;
    }
    return true;
}

/** `git diff --name-only <ref>` relative to root; nullopt-style
 * failure is reported through *err. */
bool
gitChangedFiles(const std::string &root, const std::string &ref,
                std::vector<std::string> *out, std::string *err)
{
    if (!isSafeRef(ref)) {
        *err = "unsafe --changed-only ref: '" + ref + "'";
        return false;
    }
    // --diff-filter=d: a file deleted (or the old name of a rename)
    // since <ref> is not a lintable target; without the filter the
    // diff can name paths that no longer exist on disk.
    std::string cmd = "git -C \"" + root +
        "\" diff --name-only --diff-filter=d " + ref + " -- 2>/dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe) {
        *err = "cannot run git for --changed-only";
        return false;
    }
    std::string line;
    int c;
    while ((c = std::fgetc(pipe)) != EOF) {
        if (c == '\n') {
            if (!line.empty())
                out->push_back(line);
            line.clear();
        } else {
            line.push_back(static_cast<char>(c));
        }
    }
    if (!line.empty())
        out->push_back(line);
    int status = pclose(pipe);
    if (status != 0) {
        *err = "git diff --name-only " + ref + " failed";
        return false;
    }
    return true;
}

/** The directories whose sources the linter owns. */
bool
inLintedTree(const std::string &rel)
{
    return startsWith(rel, "src/") || startsWith(rel, "tools/") ||
        startsWith(rel, "bench/") || startsWith(rel, "examples/");
}

class LexCache
{
  public:
    const LexedFile *
    get(const fs::path &p)
    {
        std::error_code ec;
        fs::path key = fs::weakly_canonical(p, ec);
        auto it = cache_.find(key.string());
        if (it != cache_.end())
            return &it->second;
        if (!fs::is_regular_file(p, ec))
            return nullptr;
        auto [slot, inserted] =
            cache_.emplace(key.string(), lexFile(p.string()));
        return &slot->second;
    }

  private:
    std::map<std::string, LexedFile> cache_;
};

/** Resolves quoted includes against the includer's directory first
 * (fixture trees), then against root/src (the tree's idiom:
 * "util/logging.hh" from anywhere). */
class DiskResolver : public HeaderResolver
{
  public:
    DiskResolver(fs::path src_root, LexCache &cache)
        : src_root_(std::move(src_root)), cache_(cache)
    {}

    const LexedFile *
    resolve(const std::string &includerDir,
            const std::string &incPath) override
    {
        std::error_code ec;
        fs::path local = fs::path(includerDir) / incPath;
        if (fs::is_regular_file(local, ec))
            return cache_.get(local);
        fs::path in_src = src_root_ / incPath;
        if (fs::is_regular_file(in_src, ec))
            return cache_.get(in_src);
        return nullptr;
    }

  private:
    fs::path src_root_;
    LexCache &cache_;
};

/** One inline `// snoop-lint: <marker>` occurrence. */
struct MarkerUse {
    std::string file;
    std::string marker;
    size_t line;
};

/** Files whose inline markers must be registered in allowlist.txt:
 * the library tree, plus the rule's own fixtures. */
bool
markerScope(const std::string &display)
{
    return startsWith(display, "src/") ||
        fixtureOptsIn(display, "marker-allowlist");
}

/** Collect `snoop-lint: <marker>` uses in comment position (a `//`
 * earlier on the line), so string literals and doc prose that merely
 * mention a marker are not counted. */
void
scanMarkers(const std::string &display, const LexedFile &lexed,
            std::vector<MarkerUse> *out)
{
    static const std::string kKey = "snoop-lint:";
    for (size_t l = 0; l < lexed.lines.size(); ++l) {
        const std::string &raw = lexed.lines[l];
        size_t slashes = raw.find("//");
        if (slashes == std::string::npos)
            continue;
        size_t at = raw.find(kKey, slashes);
        while (at != std::string::npos) {
            size_t p = at + kKey.size();
            while (p < raw.size() && raw[p] == ' ')
                ++p;
            std::string marker;
            while (p < raw.size() &&
                   (std::isalnum(static_cast<unsigned char>(raw[p])) ||
                    raw[p] == '-' || raw[p] == '_'))
                marker.push_back(raw[p++]);
            if (!marker.empty())
                out->push_back({display, marker, l + 1});
            at = raw.find(kKey, p);
        }
    }
}

std::vector<fs::path>
expandTargets(const std::vector<std::string> &paths,
              std::vector<std::string> *errors)
{
    std::vector<fs::path> files;
    for (const auto &arg : paths) {
        fs::path p(arg);
        std::error_code ec;
        if (fs::is_regular_file(p, ec)) {
            files.push_back(p);
        } else if (fs::is_directory(p, ec)) {
            for (const auto &entry :
                 fs::recursive_directory_iterator(p, ec)) {
                if (entry.is_regular_file() &&
                    isSourceExt(entry.path()))
                    files.push_back(entry.path());
            }
        } else {
            errors->push_back("no such path: " + arg);
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

} // namespace

LintResult
runLint(const LintOptions &opt)
{
    LintResult result;
    fs::path root(opt.root);
    LexCache cache;
    DiskResolver resolver(root / "src", cache);

    // 1. Targets.
    std::vector<fs::path> targets;
    if (opt.changedOnly) {
        std::vector<std::string> changed;
        std::string err;
        if (!gitChangedFiles(opt.root, opt.changedRef, &changed, &err)) {
            result.errors.push_back(err);
            return result;
        }
        std::sort(changed.begin(), changed.end());
        for (const auto &rel : changed) {
            if (!inLintedTree(rel))
                continue;
            fs::path p = root / rel;
            if (isSourceExt(p) && fs::exists(p))
                targets.push_back(p);
        }
    } else {
        targets = expandTargets(opt.paths, &result.errors);
    }

    // 2. Per-file rules + IWYU-lite (+ marker collection for the
    // allowlist check in step 4).
    std::string roster_path = opt.rosterPath.empty()
        ? (root / "tools" / "lint" / "determinism.txt").string()
        : opt.rosterPath;
    std::string roster_err;
    DeterminismRoster roster =
        DeterminismRoster::load(roster_path, &roster_err);
    if (!roster_err.empty())
        result.errors.push_back(roster_err);
    std::vector<Finding> findings;
    std::map<std::string, bool> is_target;
    std::vector<MarkerUse> markers;
    for (const fs::path &p : targets) {
        const LexedFile *lexed = cache.get(p);
        if (!lexed)
            continue;
        std::string display = relativize(root, p);
        is_target[display] = true;
        runFileRules(display, p.string(), *lexed, roster, findings);
        if (!isTestExempt(p.string()))
            checkUnusedIncludes(display, p.string(), *lexed, resolver,
                                findings);
        if (markerScope(display))
            scanMarkers(display, *lexed, &markers);
    }

    // 3. Tree passes over root/src.
    if (opt.treePasses) {
        fs::path src = root / "src";
        std::error_code ec;
        if (!fs::is_directory(src, ec)) {
            result.errors.push_back("tree passes need " +
                                    src.string() + " to exist");
        } else {
            FileSet files;
            for (const auto &entry :
                 fs::recursive_directory_iterator(src, ec)) {
                if (!entry.is_regular_file() ||
                    !isSourceExt(entry.path()))
                    continue;
                const LexedFile *lexed = cache.get(entry.path());
                if (lexed)
                    files.emplace(relativize(root, entry.path()),
                                  *lexed);
            }
            std::string layers_path = opt.layersPath.empty()
                ? (root / "tools" / "lint" / "layers.txt").string()
                : opt.layersPath;
            Layers layers;
            std::string err;
            if (!Layers::load(layers_path, &layers, &err)) {
                result.errors.push_back(err);
            } else {
                std::vector<Finding> tree;
                auto add = [&tree](std::vector<Finding> more) {
                    tree.insert(tree.end(), more.begin(), more.end());
                };
                add(checkLayering(files, layers));
                add(checkIncludeCycles(files));
                // A tree finding belongs to the run only when its
                // file was asked about (full runs ask about all of
                // src/; changed-only runs ask about the diff).
                for (Finding &f : tree) {
                    if (is_target.count(f.file) ||
                        (f.line == 0 && !opt.changedOnly))
                        findings.push_back(std::move(f));
                }
            }
        }
    }

    // 4. Marker allowlist: every inline snoop-lint: waiver in src/
    // must be registered with a justification; registrations whose
    // marker is gone are stale.
    {
        std::string allow_path = opt.allowlistPath.empty()
            ? (root / "tools" / "lint" / "allowlist.txt").string()
            : opt.allowlistPath;
        Allowlist allow = Allowlist::load(allow_path);
        for (const auto &err : allow.errors())
            result.errors.push_back(err);
        for (const MarkerUse &m : markers) {
            if (allow.matches(m.file, m.marker))
                continue;
            findings.push_back(
                {m.file, m.line, "marker-allowlist",
                 "inline marker 'snoop-lint: " + m.marker +
                     "' is not registered in "
                     "tools/lint/allowlist.txt; add '" +
                     m.file + ":" + m.marker +
                     "  # <justification>'"});
        }
        if (opt.treePasses && !opt.changedOnly)
            result.staleAllowlist = allow.staleEntries();
    }

    // 5. Deterministic order.
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });

    result.findings = std::move(findings);
    return result;
}

} // namespace snoop::lint
