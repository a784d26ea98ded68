#!/bin/sh
# The linker's proof that no library entry can end the process.
#
# Links every object of src/ (built with -ffunction-sections
# -fdata-sections) into a probe executable under --gc-sections, with
# every external function defined in src/mva/, src/core/, src/serve/
# and src/util/csv.cc as a root. The linker keeps exactly the
# functions those roots can reach, through macros, inline functions,
# templates and constructor calls alike. objdump -d of the probe then
# lists every kept function that calls fatal() or a process-exit
# routine directly, and the check requires:
#
#   - the kept callers of fatal() are exactly the SNOOP_REQUIRE
#     handler detail::requireFail and the env-spec loaders
#     loadEnvImpl (SNOOP_FAULT in util/fault.cc, SNOOP_TRACE in
#     observe/trace.cc);
#   - the kept callers of abort/exit/_Exit/quick_exit are exactly
#     fatal() and panic().
#
# Any other caller is printed by its demangled name and fails the
# check. A library path reports failure as a SolveError or a
# SolveException (util/expected.hh); a precondition it cannot recover
# from is a SNOOP_REQUIRE / SNOOP_REQUIRE_OK (util/contracts.hh).
#
# usage: fatal_link.sh <c++> <object-list> <work-dir> [root-object...]
#
# <object-list> names one object per line. Each extra root-object is
# linked too and all of its external functions become roots (the
# lint/fatal_link_planted fixture uses this).
set -u

CXX=${1:?usage: fatal_link.sh <c++> <object-list> <work-dir> [root-object...]}
LIST=${2:?usage: fatal_link.sh <c++> <object-list> <work-dir> [root-object...]}
WORK=${3:?usage: fatal_link.sh <c++> <object-list> <work-dir> [root-object...]}
shift 3

mkdir -p "$WORK" || exit 2
objs=$(grep -v '^$' "$LIST") || {
    echo "fatal_link: empty object list $LIST" >&2
    exit 2
}
roots_from=$( (printf '%s\n' "$objs" |
                   grep -E '/src/(mva|core|serve)/|/src/util/csv\.cc\.o$'
               for extra in "$@"; do printf '%s\n' "$extra"; done))

# Defined external functions (T: text, W: weak, e.g. inline or
# template code instantiated there) of the root objects.
# shellcheck disable=SC2086
nm -g --defined-only $roots_from |
    awk '$2 == "T" || $2 == "W" { print $3 }' | sort -u > "$WORK/roots"
nroots=$(wc -l < "$WORK/roots")
if [ "$nroots" -eq 0 ]; then
    echo "fatal_link: no roots found in the library objects" >&2
    exit 2
fi

printf 'int main() { return 0; }\n' |
    "$CXX" -x c++ -c -o "$WORK/main.o" - || exit 2
sed 's/^/-Wl,-u,/' "$WORK/roots" > "$WORK/link.rsp"
# shellcheck disable=SC2086
if ! "$CXX" -o "$WORK/probe" -Wl,--gc-sections @"$WORK/link.rsp" \
        "$WORK/main.o" $objs "$@" -pthread; then
    echo "fatal_link: the probe did not link" >&2
    exit 2
fi

# One "<kind> <caller>" line per direct call or tail call: kind is
# fatal or exit, caller the demangled function with any
# " [clone .cold]"-style suffixes dropped.
objdump -d --no-show-raw-insn -C "$WORK/probe" | awk '
    /^[0-9a-f]+ <.*>:$/ {
        fn = substr($0, index($0, "<") + 1)
        fn = substr(fn, 1, length(fn) - 2)
        sub(/( \[clone [^]]*\])+$/, "", fn)
        next
    }
    fn ~ /@plt$/ { next } # the PLT stubs themselves
    /\t(call|jmp) / {
        if (index($0, "<snoop::fatal(char const*, ...)>"))
            print "fatal " fn
        else if ($0 ~ /<(abort|exit|_Exit|quick_exit)@/)
            print "exit " fn
    }' | sort -u > "$WORK/callers"

status=0
while IFS= read -r line; do
    kind=${line%% *}
    fn=${line#* }
    case "$kind:$fn" in
      "fatal:snoop::detail::requireFail("*) ;;
      "fatal:snoop::(anonymous namespace)::loadEnvImpl()") ;;
      "exit:snoop::fatal("* | "exit:snoop::panic("*) ;;
      fatal:*)
        echo "fatal_link: $fn calls fatal() and is reachable from a" \
             "library entry; return a SolveError or state the" \
             "precondition with SNOOP_REQUIRE / SNOOP_REQUIRE_OK" >&2
        status=1 ;;
      *)
        echo "fatal_link: $fn exits the process and is reachable" \
             "from a library entry" >&2
        status=1 ;;
    esac
done < "$WORK/callers"

# The allowed callers must be kept too: a probe that kept nothing
# would pass vacuously.
for want in "fatal snoop::detail::requireFail(" \
            "fatal snoop::(anonymous namespace)::loadEnvImpl()" \
            "exit snoop::fatal(" "exit snoop::panic("; do
    if ! grep -qF "$want" "$WORK/callers"; then
        echo "fatal_link: expected kept caller missing: $want" >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "ok: $nroots library roots; the only kept callers of fatal()" \
         "are requireFail and loadEnvImpl, and of abort/exit only" \
         "fatal() and panic()"
fi
exit $status
