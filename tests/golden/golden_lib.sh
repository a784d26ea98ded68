# Shared pieces of the golden byte tests; sourced, not run.
#
# Every golden file starts with one '#' header line naming the command
# that produced it and the compiler that built the binary; the bytes
# assume that toolchain and its libm. The comparison skips the header.

# golden_write <golden-file> <command> <output-file>
# Writes <output-file> to <golden-file> under a header naming <command>.
golden_write() {
    local compiler
    compiler=$(c++ --version 2>/dev/null | head -n 1)
    {
        echo "# $2; built with ${compiler:-unknown compiler}"
        cat "$3"
    } > "$1"
}

# golden_cmp <golden-file> <output-file>
# True when <output-file> equals <golden-file> without its header.
golden_cmp() {
    tail -n +2 "$1" | cmp - "$2"
}
