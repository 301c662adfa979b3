# Helpers for the CLI contract checks of the `installed` job (workflows/tier1.yml).
# Source it in a step that runs under `bash -e`; it writes under $RUNNER_TEMP.
#   zoo NAME            prints the path of the bundled zoo file NAME
#   edited NAME CODE    prints zoo model NAME as JSON after the Python statements CODE
#                       have changed its document `doc`
#   field EXPR          prints EXPR of the JSON document `r` read from stdin
#   exits CODE CMD...   asserts that CMD exits CODE with an empty stderr
#   refuses RE CMD...   asserts that CMD exits 2 with an empty stdout and exactly one
#                       stderr line, which matches `^error: RE`
# Both assertions keep CMD's stdout in $RUNNER_TEMP/out and show its stderr.

zoo() { python -c "from braidstat import zoo_path; print(zoo_path('$1'))"; }

edited() {
  python -c "import json, sys; from braidstat import zoo_path; doc = json.loads(zoo_path(sys.argv[1]).read_text()); exec(sys.argv[2]); print(json.dumps(doc))" "$1" "$2"
}

field() { python -c "import json, sys; r = json.load(sys.stdin); print(eval(sys.argv[1]))" "$1"; }

_run() {
  code=0
  "$@" > "$RUNNER_TEMP/out" 2> "$RUNNER_TEMP/err" || code=$?
  cat "$RUNNER_TEMP/err"
}

# one test a line: under `bash -e`, a failed test before `&&` does not stop the step
exits() {
  local want=$1
  shift
  _run "$@"
  test "$code" -eq "$want"
  test ! -s "$RUNNER_TEMP/err"
}

refuses() {
  local pattern=$1
  shift
  _run "$@"
  test "$code" -eq 2
  test ! -s "$RUNNER_TEMP/out"
  test "$(wc -l < "$RUNNER_TEMP/err")" -eq 1
  grep -q "^error: $pattern" "$RUNNER_TEMP/err"
}
