# Shared by the sanitizer scripts that select tests by gtest suite name.
# Source it; it defines two functions.

# Prints the ctest -R filter that selects every test of the given suites
# (each argument is a suite name or a regex for a family of suites).
suites_regex() {
  local IFS='|'
  printf '^(%s)\\.' "$*"
}

# Exits nonzero when some suite lists no test in the configured build
# directory `$1`, so a renamed or deleted suite fails the script instead of
# silently dropping out of the filter.
require_suites() {
  local build_dir="$1" suite count
  shift
  for suite in "$@"; do
    count="$(ctest --test-dir "${build_dir}" -N -R "^${suite}\\." |
      sed -n 's/^Total Tests: //p')"
    if [[ "${count:-0}" -eq 0 ]]; then
      echo "error: no test in ${build_dir} belongs to suite '${suite}'" >&2
      return 1
    fi
  done
}
