// Negative fixture for the marker-allowlist rule: an inline waiver
// with no registration (the fixture root has no allowlist.txt at
// all, so any inline waiver in scope fires).

namespace snoop {

// snoop-lint: include-ok
inline int
answer()
{
    return 42;
}

} // namespace snoop
