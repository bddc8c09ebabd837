#!/usr/bin/env bash
# End-to-end tests of the command-line tools.  Invoked by dune with the
# built executables as arguments.  Failed assertions are counted, not
# fatal: the whole suite always runs, every failure is reported, and
# the exit status is nonzero iff anything failed.
set -u

OLCLINT="$1"
OLCRUN="$2"
OLDIFF="$3"
EXAMPLES="${4:-examples}"
DOCS="${5:-docs}"
LIBS="${6:-lib}"
ROOT="${7:-.}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

failures=0

fail() {
  echo "CLI TEST FAILED: $1" >&2
  failures=$((failures + 1))
}

expect_contains() { # haystack-file needle description
  grep -qF -- "$2" "$1" || { cat "$1" >&2; fail "$3"; }
}

# --- Figure 4 through the CLI -------------------------------------------
cat > "$tmp/sample.c" <<'EOF'
extern /*@only@*/ char *gname;

void setName(/*@temp@*/ char *pname)
{
  gname = pname;
}
EOF

"$OLCLINT" "$tmp/sample.c" > "$tmp/out" 2>&1
[ $? -eq 1 ] || fail "olclint should exit 1 on anomalies"
expect_contains "$tmp/out" "Only storage gname not released before assignment" "fig4 leak message"
expect_contains "$tmp/out" "Temp storage pname assigned to only storage gname" "fig4 transfer message"
expect_contains "$tmp/out" "2 code warnings" "fig4 summary"

# --- clean file exits 0 ---------------------------------------------------
cat > "$tmp/clean.c" <<'EOF'
int add(int a, int b)
{
  return a + b;
}
EOF
"$OLCLINT" "$tmp/clean.c" > "$tmp/out" 2>&1 || fail "clean file should exit 0"
expect_contains "$tmp/out" "0 code warnings" "clean summary"

# --- flags ---------------------------------------------------------------
cat > "$tmp/ret.c" <<'EOF'
char *mk(void)
{
  char *p = (char *) malloc(4);
  if (p == NULL) { exit(1); }
  p[0] = 'a';
  return p;
}
EOF
"$OLCLINT" "$tmp/ret.c" > "$tmp/out" 2>&1 || fail "implicit only return should be clean"
"$OLCLINT" -f=-allimponly "$tmp/ret.c" > "$tmp/out" 2>&1
[ $? -eq 1 ] || fail "-allimponly should surface the return transfer"
expect_contains "$tmp/out" "Fresh storage p returned as unqualified result" "allimponly message"

"$OLCLINT" -f=-bogus "$tmp/clean.c" > "$tmp/out" 2>&1
[ $? -eq 2 ] || fail "unknown flag should exit 2"

"$OLCLINT" -f=-nulll "$tmp/clean.c" > "$tmp/out" 2>&1
[ $? -eq 2 ] || fail "mistyped flag should exit 2"
expect_contains "$tmp/out" "did you mean 'null'?" "flag suggestion"
grep -q "allimponly" "$tmp/out" && fail "unknown-flag error should not dump the flag list"

# --- interface library round trip -----------------------------------------
cat > "$tmp/lib.c" <<'EOF'
typedef struct _node { int v; /*@null@*/ /*@only@*/ struct _node *next; } node;

/*@only@*/ node *node_create(int v)
{
  node *n = (node *) malloc(sizeof(node));
  if (n == NULL) { exit(1); }
  n->v = v;
  n->next = NULL;
  return n;
}

void node_destroy(/*@only@*/ node *n)
{
  if (n->next != NULL) { node_destroy(n->next); }
  free(n);
}
EOF
"$OLCLINT" -q --dump-lib "$tmp/lib.lh" "$tmp/lib.c" > /dev/null 2>&1 || fail "library dump should be clean"
grep -q "node_create" "$tmp/lib.lh" || fail "library should contain node_create"

cat > "$tmp/client.c" <<'EOF'
int main(void)
{
  node *a = node_create(1);
  node *b = node_create(2);
  a = b;
  node_destroy(a);
  return 0;
}
EOF
"$OLCLINT" --load-lib "$tmp/lib.lh" "$tmp/client.c" > "$tmp/out" 2>&1
[ $? -eq 1 ] || fail "client leak should be found through the library"
expect_contains "$tmp/out" "Only storage a not released before assignment" "modular leak message"

# --- LCL specifications ---------------------------------------------------
cat > "$tmp/spec.lcl" <<'EOF'
typedef struct _tok { int kind; } token;
only token *token_create(int kind);
void token_free(only token *t);
EOF
cat > "$tmp/use.c" <<'EOF'
int main(void)
{
  token *t = token_create(1);
  int k = t->kind;
  token_free(t);
  return k;
}
EOF
"$OLCLINT" --lcl "$tmp/spec.lcl" -f=-allimponly "$tmp/use.c" > "$tmp/out" 2>&1 \
  || fail "spec-checked client should be clean"

# --- olcrun ---------------------------------------------------------------
cat > "$tmp/buggy.c" <<'EOF'
int main(void)
{
  char *p = (char *) malloc(8);
  if (p == NULL) { return 1; }
  p[0] = 'x';
  free(p);
  p[1] = 'y';
  return 0;
}
EOF
"$OLCRUN" "$tmp/buggy.c" > "$tmp/out" 2>&1
[ $? -eq 1 ] || fail "olcrun should exit 1 on run-time errors"
expect_contains "$tmp/out" "use-after-free" "uaf detection"

cat > "$tmp/hello.c" <<'EOF'
int main(void)
{
  printf("hello %d\n", 6 * 7);
  return 0;
}
EOF
"$OLCRUN" --show-output "$tmp/hello.c" > "$tmp/out" 2>&1 || fail "hello should run clean"
expect_contains "$tmp/out" "hello 42" "program output"

# --- parse errors exit 2 ---------------------------------------------------
cat > "$tmp/bad.c" <<'EOF'
int f( {
EOF
"$OLCLINT" "$tmp/bad.c" > "$tmp/out" 2>&1
[ $? -eq 2 ] || fail "parse error should exit 2"
# sources are read one at a time, in order: the first failure on the
# command line is the one reported, a parse error or an unreadable file
"$OLCLINT" "$tmp/bad.c" "$tmp/missing.c" > "$tmp/out" 2>&1
[ $? -eq 2 ] || fail "a parse error before a missing file should exit 2"
[ "$(cat "$tmp/out")" = "$tmp/bad.c:1,8: expected type specifier, got '{'" ] \
  || { cat "$tmp/out" >&2; fail "a parse error before a missing file is reported first"; }
"$OLCLINT" "$tmp/missing.c" "$tmp/bad.c" > "$tmp/out" 2>&1
[ $? -eq 2 ] || fail "a missing file before a parse error should exit 2"
[ "$(cat "$tmp/out")" = "olclint: $tmp/missing.c: No such file or directory" ] \
  || { cat "$tmp/out" >&2; fail "a missing file before a parse error is reported first"; }

# --- allocation profile ----------------------------------------------------
cat > "$tmp/prof.c" <<'CEOF'
int main(void)
{
  char *p = (char *) malloc(16);
  if (p == NULL) { return 1; }
  free(p);
  return 0;
}
CEOF
"$OLCRUN" --profile "$tmp/prof.c" > "$tmp/out" 2>&1 || fail "profile run should be clean"
expect_contains "$tmp/out" "allocation site" "profile header"

# --- modifies clauses -------------------------------------------------------
cat > "$tmp/mod.c" <<'CEOF'
int g1;
int g2;
void touch(void) /*@globals g1; g2@*/ /*@modifies g1@*/
{
  g1 = 1;
  g2 = 2;
}
CEOF
"$OLCLINT" "$tmp/mod.c" > "$tmp/out" 2>&1
[ $? -eq 1 ] || fail "modifies violation should exit 1"
expect_contains "$tmp/out" "Undocumented modification of g2" "modifies message"

# --- telemetry: -json / -stats / -timings on the example corpus -----------
"$OLCLINT" -json "$EXAMPLES/sample.c" > "$tmp/ndjson" 2> "$tmp/err"
[ $? -eq 1 ] || fail "-json should keep the exit code (1 on anomalies)"
[ "$(wc -l < "$tmp/ndjson")" -eq 2 ] || fail "-json should emit one record per diagnostic"
# every stdout line is a JSON object with the required fields
while IFS= read -r line; do
  case "$line" in
    "{\"file\":"*"}") ;;
    *) fail "-json line is not a JSON object: $line" ;;
  esac
  for field in '"line":' '"column":' '"severity":' '"category":' '"code":' '"message":' '"suppressed":' '"procedure":' '"inferred":'; do
    case "$line" in
      *"$field"*) ;;
      *) fail "-json record missing $field: $line" ;;
    esac
  done
done < "$tmp/ndjson"
grep -q '"code":"mustfree"' "$tmp/ndjson" || fail "-json should carry the mustfree code"
grep -q '"category":"allocation"' "$tmp/ndjson" || fail "-json should carry the category"
expect_contains "$tmp/err" "2 code warnings" "-json moves the summary to stderr"
grep -q "code warnings" "$tmp/ndjson" && fail "-json stdout must stay pure NDJSON"

"$OLCLINT" -json "$EXAMPLES/clean.c" > "$tmp/ndjson" 2> "$tmp/err" \
  || fail "-json on a clean file should exit 0"
[ -s "$tmp/ndjson" ] && fail "-json on a clean file should emit no records"

"$OLCLINT" -q -stats "$EXAMPLES/sample.c" "$EXAMPLES/list.c" > "$tmp/out" 2> "$tmp/err"
expect_contains "$tmp/err" "phase totals:" "-stats phase section"
expect_contains "$tmp/err" "tokens" "-stats token counter"
expect_contains "$tmp/err" "procedures_checked" "-stats procedure counter"
grep -q "phase totals:" "$tmp/out" && fail "-stats must go to stderr"

"$OLCLINT" -q -timings "$EXAMPLES/sample.c" > "$tmp/out" 2> "$tmp/err"
for phase in lex parse sema check; do
  grep -E "sample\.c +$phase +1 +[0-9]" "$tmp/err" > /dev/null \
    || { cat "$tmp/err" >&2; fail "-timings should report a non-zero $phase time for sample.c"; }
done

# without telemetry flags, output is byte-identical and stderr stays empty
"$OLCLINT" "$EXAMPLES/sample.c" > "$tmp/plain1" 2> "$tmp/err"
[ -s "$tmp/err" ] && fail "plain run should write nothing to stderr"
"$OLCLINT" "$EXAMPLES/sample.c" > "$tmp/plain2" 2>/dev/null
cmp -s "$tmp/plain1" "$tmp/plain2" || fail "plain output should be deterministic"

"$OLCRUN" -stats "$EXAMPLES/clean.c" > "$tmp/out" 2> "$tmp/err" \
  || fail "olcrun -stats on clean.c should exit 0"
expect_contains "$tmp/err" "interp" "olcrun -stats interp phase"

# --- suppression counts surface in -stats ---------------------------------
cat > "$tmp/sup.c" <<'CEOF'
void f(/*@null@*/ int *p)
{
  /*@i@*/ *p = 1;
}
CEOF
"$OLCLINT" -q -stats "$tmp/sup.c" > "$tmp/out" 2> "$tmp/err" \
  || fail "suppressed-only file should exit 0"
expect_contains "$tmp/out" "(1 suppressed)" "summary shows the suppressed count"
expect_contains "$tmp/err" "suppressed_total" "-stats surfaces suppressed_total"

# --- annotation inference: -infer and +inferconstraints -------------------
"$OLCLINT" -infer "$EXAMPLES/list_plain.c" > "$tmp/out" 2>&1 \
  || fail "-infer report mode should exit 0"
expect_contains "$tmp/out" "elem_create" "-infer reports the constructor"
expect_contains "$tmp/out" "/*@only@*/" "-infer prints Appendix-B comments"
expect_contains "$tmp/out" "annotations inferred" "-infer summary line"

"$OLCLINT" "$EXAMPLES/list_plain.c" > "$tmp/plain" 2>&1
plain_n=$(sed -n 's/^\([0-9]*\) code warning.*/\1/p' "$tmp/plain")
"$OLCLINT" +inferconstraints "$EXAMPLES/list_plain.c" > "$tmp/inferred" 2>&1
inferred_n=$(sed -n 's/^\([0-9]*\) code warning.*/\1/p' "$tmp/inferred")
[ -n "$plain_n" ] && [ -n "$inferred_n" ] || fail "inference runs should print summaries"
[ "$inferred_n" -lt "$plain_n" ] \
  || fail "+inferconstraints should report strictly fewer warnings ($inferred_n vs $plain_n)"

"$OLCLINT" -json +inferconstraints "$EXAMPLES/list_plain.c" > "$tmp/ndjson" 2>/dev/null
grep -q '"inferred":true' "$tmp/ndjson" \
  || fail "+inferconstraints records should carry inferred:true"
grep -q '"procedure":"' "$tmp/ndjson" \
  || fail "-json records should carry the procedure field"

# inference telemetry: fixpoint rounds and summaries in -stats
"$OLCLINT" -q -stats +inferconstraints "$EXAMPLES/list_plain.c" > /dev/null 2> "$tmp/err"
expect_contains "$tmp/err" "infer_rounds" "-stats surfaces inference rounds"
expect_contains "$tmp/err" "infer_annotations" "-stats surfaces accepted annotations"

# inference off: output on the annotated example is unchanged
"$OLCLINT" "$EXAMPLES/list.c" > "$tmp/base1" 2>&1
"$OLCLINT" "$EXAMPLES/list.c" > "$tmp/base2" 2>&1
cmp -s "$tmp/base1" "$tmp/base2" || fail "checking without inference must stay deterministic"

# --- bulk inference: -infer-bulk / -infer-out ------------------------------
# The fleet examples ship hand-annotated; strip the spans into $tmp so bulk
# mode has something to rediscover.
for f in fleet_pool fleet_task fleet_main; do
  sed 's|/\*@[^@]*@\*/ *||g' "$EXAMPLES/$f.c" > "$tmp/$f.c"
done
"$OLCLINT" -infer-bulk "$tmp/fleet_pool.c" "$tmp/fleet_task.c" \
    "$tmp/fleet_main.c" -infer-out "$tmp/fleet.diff" > "$tmp/out" 2>&1 \
  || fail "-infer-bulk should exit 0"
expect_contains "$tmp/out" "annotations inferred" "-infer-bulk summary line"
expect_contains "$tmp/fleet.diff" "+++ b/" "-infer-bulk emits unified-diff hunks"
expect_contains "$tmp/fleet.diff" "@@ " "-infer-bulk hunks carry line ranges"
grep -q "inferred@\*/" "$tmp/fleet.diff" \
  || fail "-infer-bulk spans should carry the inferred provenance word"

# on the already-annotated originals bulk has nothing left to infer
"$OLCLINT" -infer-bulk "$EXAMPLES/fleet_pool.c" "$EXAMPLES/fleet_task.c" \
    "$EXAMPLES/fleet_main.c" -infer-out "$tmp/noop.diff" > "$tmp/out" 2>&1 \
  || fail "-infer-bulk on annotated sources should exit 0"
expect_contains "$tmp/out" "0 annotations inferred" "-infer-bulk no-op summary"
[ ! -s "$tmp/noop.diff" ] || fail "-infer-bulk no-op patch should be empty"

# without -infer-out the patch lands on stdout, the summary on stderr
"$OLCLINT" -infer-bulk "$EXAMPLES/list_plain.c" > "$tmp/patch" 2> "$tmp/err"
expect_contains "$tmp/patch" "--- a/" "-infer-bulk stdout patch"
expect_contains "$tmp/err" "annotations inferred" "-infer-bulk stderr summary"

# --- the probe budget: -infer-budget ---------------------------------------
"$OLCLINT" -q -stats -infer -infer-budget 1 "$EXAMPLES/list_plain.c" \
    > "$tmp/out" 2> "$tmp/err" || fail "-infer-budget should exit 0"
expect_contains "$tmp/err" "infer_probes_skipped" \
  "-infer-budget surfaces skipped probes in -stats"
budget_n=$("$OLCLINT" -infer -infer-budget 1 "$EXAMPLES/list_plain.c" \
    | sed -n 's/^\([0-9]*\) annotations inferred.*/\1/p')
full_n=$("$OLCLINT" -infer "$EXAMPLES/list_plain.c" \
    | sed -n 's/^\([0-9]*\) annotations inferred.*/\1/p')
[ -n "$budget_n" ] && [ -n "$full_n" ] && [ "$budget_n" -le "$full_n" ] \
  || fail "a budgeted run should never infer more than an unbudgeted one"

# --- external suggesters: -ranker-spec -------------------------------------
cat > "$tmp/good.spec" <<'SEOF'
# suggest the constructor's interface up front
elem_create ret only 0.97
elem_create ret notnull
SEOF
"$OLCLINT" -infer -ranker-spec "$tmp/good.spec" "$EXAMPLES/list_plain.c" \
    > "$tmp/out" 2>&1 || fail "-ranker-spec with a valid file should exit 0"
expect_contains "$tmp/out" "elem_create" "-ranker-spec run still reports"

printf 'elem_create bogus only\n' > "$tmp/bad.spec"
"$OLCLINT" -infer -ranker-spec "$tmp/bad.spec" "$EXAMPLES/list_plain.c" \
    > "$tmp/out" 2> "$tmp/err"
[ "$?" -eq 2 ] || fail "a malformed -ranker-spec should exit 2"
expect_contains "$tmp/err" "bad.spec:1:" "-ranker-spec errors cite file:line"

# --- oldiff: differential fuzzing ------------------------------------------
"$OLDIFF" -seed 42 -runs 3 > "$tmp/out" 2>&1 \
  || fail "oldiff fixed-seed smoke should find no gaps (exit 0)"
expect_contains "$tmp/out" "3 trials" "oldiff summary line"

# long and short spellings of every flag parse to the same run
"$OLDIFF" -seed 42 -runs 2 -timeout-steps 5000 -j 2 > "$tmp/short" 2>&1 \
  || fail "oldiff single-dash flags should parse"
"$OLDIFF" --seed 42 --runs 2 --timeout-steps 5000 --jobs 2 > "$tmp/long" 2>&1 \
  || fail "oldiff double-dash flags should parse"
cmp -s "$tmp/short" "$tmp/long" \
  || fail "oldiff -seed/-runs/-timeout-steps/-j must match the -- spellings"

"$OLDIFF" -seed 1 -runs 1 -verbose > "$tmp/out" 2>&1 \
  || fail "oldiff -verbose smoke should exit 0"
expect_contains "$tmp/out" "blind-spot" "oldiff -verbose prints excused divergences"

"$OLDIFF" -runs notanint > "$tmp/out" 2>&1
[ $? -eq 124 ] || fail "oldiff non-integer -runs should exit 124 (cli error)"
"$OLDIFF" --bogus-flag > "$tmp/out" 2>&1
[ $? -eq 124 ] || fail "oldiff unknown flag should exit 124 (cli error)"

"$OLDIFF" -seed 3 -runs 1 -reduce "$tmp/redux" > "$tmp/out" 2>&1 \
  || fail "oldiff -reduce should exit 0 on blind-spot-only divergences"
ls "$tmp/redux"/*.c > /dev/null 2>&1 || fail "oldiff -reduce should write a reproducer"
ls "$tmp/redux"/*.json > /dev/null 2>&1 || fail "oldiff -reduce should write a triage record"

# --- +loopexec: the loop fixpoint mode --------------------------------------
cat > "$tmp/loop.c" <<'EOF'
void f(void)
{
  char *p = NULL;
  int i;
  i = 0;
  while (i < 3) {
    p = (char *) malloc(16);
    if (p == NULL) {
      exit(1);
    }
    i = i + 1;
  }
  if (p != NULL) {
    free(p);
  }
}
EOF

# the leak-in-loop is invisible to the default heuristic...
"$OLCLINT" "$tmp/loop.c" > "$tmp/out" 2>&1 \
  || fail "loop-carried leak should be silent under default flags"
# ...caught by the bare +loopexec spelling...
"$OLCLINT" +loopexec "$tmp/loop.c" > "$tmp/out" 2>&1
[ $? -eq 1 ] || fail "+loopexec should flag the loop-carried leak"
expect_contains "$tmp/out" "not released before assignment" "+loopexec leak message"
# ...and by the -f spellings
"$OLCLINT" -f +loopexec "$tmp/loop.c" > "$tmp/out2" 2>&1
cmp -s "$tmp/out" "$tmp/out2" || fail "-f +loopexec must match bare +loopexec"

# -loopiter N is sugar for -f loopiter=N; a bound of 1 cannot converge,
# so the loop bails out to the heuristic and the warning disappears
"$OLCLINT" +loopexec -loopiter 1 "$tmp/loop.c" > "$tmp/out" 2>&1 \
  || fail "-loopiter 1 should bail out to the silent heuristic"
"$OLCLINT" +loopexec -f loopiter=1 "$tmp/loop.c" > "$tmp/out2" 2>&1 \
  || fail "-f loopiter=1 should bail out to the silent heuristic"
cmp -s "$tmp/out" "$tmp/out2" || fail "-loopiter 1 must match -f loopiter=1"

# a typo'd spelling gets a suggestion
"$OLCLINT" +loopexce "$tmp/loop.c" > "$tmp/out" 2>&1
[ $? -eq 2 ] || fail "unknown +loopexce should exit 2"
expect_contains "$tmp/out" "did you mean 'loopexec'?" "+loopexce suggestion"

# the fixpoint counters surface in -stats
"$OLCLINT" -q -stats +loopexec "$tmp/loop.c" > /dev/null 2> "$tmp/err"
expect_contains "$tmp/err" "loop_fixpoint_iters" "-stats surfaces fixpoint iterations"
expect_contains "$tmp/err" "loop_widenings" "-stats surfaces widenings"
"$OLCLINT" -q -stats +loopexec -loopiter 1 "$tmp/loop.c" > /dev/null 2> "$tmp/err"
expect_contains "$tmp/err" "loop_bailouts" "-stats surfaces bailouts"

# oldiff accepts the same spellings: under +loopexec the loop-carried
# classes stop being excused blind spots (they are caught statically)
"$OLDIFF" -seed 6 -runs 1 +loopexec -verbose > "$tmp/out" 2>&1 \
  || fail "oldiff +loopexec smoke should exit 0"
grep -q "loop-" "$tmp/out" && fail "oldiff +loopexec should not excuse loop-* classes"
"$OLDIFF" -seed 6 -runs 1 -f +loopexec -verbose > "$tmp/out2" 2>&1 \
  || fail "oldiff -f +loopexec smoke should exit 0"
cmp -s "$tmp/out" "$tmp/out2" || fail "oldiff -f +loopexec must match bare +loopexec"
"$OLDIFF" -seed 6 -runs 1 +loopexce > "$tmp/out" 2>&1
[ $? -eq 2 ] || fail "oldiff unknown +loopexce should exit 2"
expect_contains "$tmp/out" "did you mean 'loopexec'?" "oldiff +loopexce suggestion"

# --- +allocmodel: the path-sensitive allocator model ------------------------
cat > "$tmp/lost.c" <<'EOF'
void f(void)
{
  char *p = (char *) malloc(1);
  if (p == NULL) {
    exit(1);
  }
  p[0] = 'x';
  p = (char *) realloc(p, 2);
  if (p == NULL) {
    exit(1);
  }
  free(p);
}
EOF

# the lost-pointer realloc is invisible to the annotation-only model...
"$OLCLINT" "$tmp/lost.c" > "$tmp/out" 2>&1 \
  || fail "p = realloc(p, n) should be silent under default flags"
# ...caught by the bare +allocmodel spelling...
"$OLCLINT" +allocmodel "$tmp/lost.c" > "$tmp/out" 2>&1
[ $? -eq 1 ] || fail "+allocmodel should flag the lost realloc pointer"
expect_contains "$tmp/out" "realloc" "+allocmodel realloc-lost message"
expect_contains "$tmp/out" "storage is lost if the allocation fails" \
  "+allocmodel realloc-lost detail"
# ...and by the -f spelling
"$OLCLINT" -f +allocmodel "$tmp/lost.c" > "$tmp/out2" 2>&1
cmp -s "$tmp/out" "$tmp/out2" || fail "-f +allocmodel must match bare +allocmodel"

# the tmp idiom stays clean under the model
cat > "$tmp/tmpok.c" <<'EOF'
void f(void)
{
  char *p = (char *) malloc(1);
  char *tmp;
  if (p == NULL) {
    exit(1);
  }
  p[0] = 'x';
  tmp = (char *) realloc(p, 2);
  if (tmp == NULL) {
    free(p);
    exit(1);
  }
  p = tmp;
  free(p);
}
EOF
"$OLCLINT" +allocmodel "$tmp/tmpok.c" > "$tmp/out" 2>&1 \
  || fail "+allocmodel must keep the tmp = realloc(p, n) idiom clean"

# a typo'd spelling gets a suggestion
"$OLCLINT" +alocmodel "$tmp/lost.c" > "$tmp/out" 2>&1
[ $? -eq 2 ] || fail "unknown +alocmodel should exit 2"
expect_contains "$tmp/out" "did you mean 'allocmodel'?" "+alocmodel suggestion"

# --- olcrun -oom: fault injection -------------------------------------------
# an ordinary run of the lost-realloc program is clean...
"$OLCRUN" "$tmp/lost.c" --entry f > "$tmp/out" 2>&1 \
  || fail "lost.c should run cleanly without injection"
# ...failing the second allocation request (the realloc) leaks the block
"$OLCRUN" -oom 2 "$tmp/lost.c" --entry f > "$tmp/out" 2>&1
[ $? -eq 1 ] || fail "olcrun -oom 2 should observe the lost-realloc leak"
expect_contains "$tmp/out" "leak" "olcrun -oom leak report"
# failing the first (the malloc) takes the handled bail-out path
"$OLCRUN" -oom 1 "$tmp/lost.c" --entry f > "$tmp/out" 2>&1 \
  || fail "olcrun -oom 1 should exit through the handled malloc failure"

# --- oldiff -oom: the fault-injection sweep ---------------------------------
"$OLDIFF" -oom -seed 42 -runs 2 > "$tmp/out" 2>&1 \
  || fail "oldiff -oom smoke should exit 0"
expect_contains "$tmp/out" "injected allocation failure" "oldiff -oom summary"
expect_contains "$tmp/out" "0 findings kept" "oldiff -oom keeps no findings"

# --- incremental server: -server / -cache -----------------------------------
check_req="{\"op\":\"check\",\"files\":[\"$EXAMPLES/sample.c\"]}"
printf '%s\n' \
  "$check_req" \
  "$check_req" \
  '{"op":"frobnicate"}' \
  '{"op":"stats"}' \
  '{"op":"shutdown"}' \
  | "$OLCLINT" -server -cache "$tmp/cache.olc" > "$tmp/srv" 2>&1 \
  || fail "server session should exit 0"
[ "$(wc -l < "$tmp/srv")" -eq 5 ] || fail "server should answer one line per request"
sed -n 1p "$tmp/srv" | grep -q '"tier":"cold"' || fail "first check should be cold"
sed -n 1p "$tmp/srv" | grep -q '"code":"mustfree"' || fail "server should report the sample.c leak"
sed -n 2p "$tmp/srv" | grep -q '"tier":"clean"' || fail "repeat check should be clean"
sed -n 2p "$tmp/srv" | grep -q '"rechecked":0' || fail "repeat check should re-check nothing"
sed -n 3p "$tmp/srv" | grep -q '"ok":false' || fail "unknown op should answer ok:false and keep serving"
sed -n 4p "$tmp/srv" | grep -q '"incr_hits":' || fail "stats should carry the incr counters"
sed -n 5p "$tmp/srv" | grep -q '"op":"shutdown"' || fail "shutdown should be acknowledged"
# the diagnostics records match -json exactly (same codec, same fields)
sed -n 1p "$tmp/srv" | grep -qF '"severity":"error","category":"allocation","code":"mustfree"' \
  || fail "server diagnostics should use the -json record schema"

head -1 "$tmp/cache.olc" | grep -q "olclint summary-cache format" \
  || fail "-cache should write a stamped summary cache"
# a restarted server adopts the persisted results: zero re-checks
printf '%s\n' "$check_req" '{"op":"shutdown"}' \
  | "$OLCLINT" -server -cache "$tmp/cache.olc" > "$tmp/srv2" 2>&1 \
  || fail "server restart should exit 0"
sed -n 1p "$tmp/srv2" | grep -q '"rechecked":0' || fail "restart should adopt the persisted cache"
sed -n 1p "$tmp/srv2" | grep -q '"code":"mustfree"' || fail "adopted results should carry the diagnostics"

# a corrupted cache is ignored with a warning, not trusted
sed 's/stamp [0-9a-f]*/stamp 00000000000000000000000000000000/' "$tmp/cache.olc" > "$tmp/cache.bad"
printf '%s\n' "$check_req" '{"op":"shutdown"}' \
  | "$OLCLINT" -server -cache "$tmp/cache.bad" > "$tmp/srv3" 2> "$tmp/srverr" \
  || fail "server with corrupted cache should still run"
expect_contains "$tmp/srverr" "ignoring cache" "corrupted cache warning"
sed -n 1p "$tmp/srv3" | grep -q '"tier":"cold"' || fail "corrupted cache must not be adopted"

# a cache from an older format (intact stamp: version 1; version 2 with
# keys hashed from printed ASTs; version 4, whose keys miss the file's
# block-scope declarations; version 5, whose results let a block-scope
# declaration reach later bodies of its file; version 6, which also
# embedded an interface library that nothing read) is ignored the same
# way: the version mismatch warns and the first request runs cold
for v in 1 2 4 5 6; do
  sed "1s/format [0-9]*/format $v/" "$tmp/cache.olc" > "$tmp/cache.v$v"
  head -1 "$tmp/cache.v$v" | grep -q "summary-cache format $v " \
    || fail "the version-$v cache fixture should carry format $v"
  printf '%s\n' "$check_req" '{"op":"shutdown"}' \
    | "$OLCLINT" -server -cache "$tmp/cache.v$v" > "$tmp/srv.v$v" 2> "$tmp/srverr.v$v" \
    || fail "server with a version-$v cache should still run"
  expect_contains "$tmp/srverr.v$v" "ignoring cache" "version-$v cache warning"
  expect_contains "$tmp/srverr.v$v" "format version $v" "version-$v cache version in the warning"
  sed -n 1p "$tmp/srv.v$v" | grep -q '"tier":"cold"' || fail "a version-$v cache must not be adopted"
  sed -n 1p "$tmp/srv.v$v" | grep -q '"rechecked":0' && fail "a version-$v cache's results must be re-checked"
done

# a path that cannot be read is an ok:false answer naming it; the
# server keeps serving and exits 0 on shutdown
printf '%s\n' \
  "{\"op\":\"check\",\"files\":[\"$tmp/missing.c\"]}" \
  '{"op":"stats"}' \
  '{"op":"shutdown"}' \
  | "$OLCLINT" -server > "$tmp/srv4" 2> "$tmp/srverr4" \
  || fail "server should survive a missing path and exit 0 on shutdown"
sed -n 1p "$tmp/srv4" | grep -q '"ok":false' || fail "a missing path should answer ok:false"
sed -n 1p "$tmp/srv4" | grep -qF "$tmp/missing.c" || fail "the missing-path error should name the path"
sed -n 2p "$tmp/srv4" | grep -q '"op":"stats","ok":true' || fail "stats should answer after a missing path"
sed -n 3p "$tmp/srv4" | grep -q '"op":"shutdown","ok":true' || fail "shutdown should answer after a missing path"
[ -s "$tmp/srverr4" ] && { cat "$tmp/srverr4" >&2; fail "a missing path should write nothing to stderr"; }
# that server has finished no major collection, when the runtime's heap
# sizes still read 0: the gauges are null, not a misleading 0
sed -n 2p "$tmp/srv4" | grep -qF '"heap_words":null' \
  || fail "heap_words should be null before the first major collection"
sed -n 2p "$tmp/srv4" | grep -qF '"top_heap_words":null' \
  || fail "top_heap_words should be null before the first major collection"

# --- documentation drift gate ------------------------------------------------
# every checking flag and every telemetry counter must appear in the
# docs/diagnostics.md tables -- and the tables must list nothing phantom
"$OLCLINT" --dump-flags | sort > "$tmp/flags.actual"
[ -s "$tmp/flags.actual" ] || fail "--dump-flags should print the flag list"
sed -n '/^## Checking flags/,/^## /p' "$DOCS/diagnostics.md" \
  | sed -n 's/^| `\([^`]*\)`.*/\1/p' | sed 's/=N$//' | sort > "$tmp/flags.doc"
diff -u "$tmp/flags.actual" "$tmp/flags.doc" > "$tmp/flags.diff" \
  || { cat "$tmp/flags.diff" >&2; fail "docs/diagnostics.md flag table drifted from --dump-flags"; }

"$OLCLINT" --dump-counters | sort > "$tmp/counters.actual"
[ -s "$tmp/counters.actual" ] || fail "--dump-counters should print the counter list"
sed -n '/^## Telemetry counters/,/^## /p' "$DOCS/diagnostics.md" \
  | sed -n 's/^| `\([^`]*\)`.*/\1/p' | sort > "$tmp/counters.doc"
diff -u "$tmp/counters.actual" "$tmp/counters.doc" > "$tmp/counters.diff" \
  || { cat "$tmp/counters.diff" >&2; fail "docs/diagnostics.md counter table drifted from --dump-counters"; }

# the --dump-summaries render vocabulary must match the docs/summaries.md
# token table exactly (same gate shape as the flag/counter tables)
"$OLCLINT" --dump-summaries | sort > "$tmp/tokens.actual"
[ -s "$tmp/tokens.actual" ] || fail "--dump-summaries with no files should print the token vocabulary"
sed -n '/^## Render tokens/,/^## /p' "$DOCS/summaries.md" \
  | sed -n 's/^| `\([^`]*\)`.*/\1/p' | sort > "$tmp/tokens.doc"
diff -u "$tmp/tokens.actual" "$tmp/tokens.doc" > "$tmp/tokens.diff" \
  || { cat "$tmp/tokens.diff" >&2; fail "docs/summaries.md token table drifted from --dump-summaries"; }

# docs/architecture.md must name every library under lib/ as a bold
# **`name`** entry, list nothing phantom, and spell out the count
for f in "$LIBS"/*/dune; do
  sed -n '/(library/,/(name/s/.*(name \([A-Za-z0-9_]*\)).*/\1/p' "$f"
done | sort > "$tmp/libs.actual"
[ -s "$tmp/libs.actual" ] || fail "no library names found under $LIBS"
grep -o '\*\*`[A-Za-z0-9_]*`\*\*' "$DOCS/architecture.md" \
  | tr -d '*`' | sort -u > "$tmp/libs.doc"
diff -u "$tmp/libs.actual" "$tmp/libs.doc" > "$tmp/libs.diff" \
  || { cat "$tmp/libs.diff" >&2; fail "docs/architecture.md library list drifted from lib/*/dune"; }
numbers=(zero one two three four five six seven eight nine ten eleven twelve
  thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty
  twenty-one twenty-two twenty-three twenty-four twenty-five)
nlibs=$(wc -l < "$tmp/libs.actual")
grep -q "repository is ${numbers[$nlibs]:-$nlibs} libraries under" "$DOCS/architecture.md" \
  || fail "docs/architecture.md should say the repository is ${numbers[$nlibs]:-$nlibs} libraries"
# ... and the number of alcotest suites in test/dune's (names ...) stanza
nsuites=$(sed -n '/(names/,/)/p' "$(dirname "$0")/dune" | tr -d '()' \
  | sed 's/names//' | wc -w)
[ "$nsuites" -gt 0 ] || fail "no suite names found in test/dune"
grep -q "${numbers[$nsuites]:-$nsuites} alcotest suites" "$DOCS/architecture.md" \
  || fail "docs/architecture.md should say test/ holds ${numbers[$nsuites]:-$nsuites} alcotest suites"

# every backticked `Mod.name` in the prose docs whose module has an
# interface under lib/ must be declared there (a value, type, exception
# or record field), so a removed or renamed API cannot linger in the
# docs.  performance.md narrates removed APIs on purpose and stays out.
for doc in architecture incremental summaries inference diagnostics testing; do
  grep -o '`[^`]*`' "$DOCS/$doc.md" \
    | grep -oE '([A-Z][A-Za-z0-9_]*\.)+[a-z_][A-Za-z0-9_]*' \
    | sort -u \
    | while read -r ref; do
        name="${ref##*.}"
        mod="${ref%.*}"
        mod="${mod##*.}"
        set -- "$LIBS"/*/"${mod,}.mli"
        [ -f "$1" ] || continue
        grep -qE "^ *(val|external|type|and|exception)( +[^ =:]+)* +$name( |:|\$)|^ *(mutable +)?$name *:|[{;] *(mutable +)?$name *:" "$1" \
          || echo "$doc.md: \`$ref\` is not declared in ${1#"$LIBS"/}"
      done
done > "$tmp/docrefs.stale"
[ -s "$tmp/docrefs.stale" ] \
  && { cat "$tmp/docrefs.stale" >&2; fail "the docs name APIs their lib/ interfaces do not declare"; }

# --- one program loader ------------------------------------------------------
# Stdspec.load builds every program: each source is parsed under the
# typedef names declared before it, in Sema.analyze_string.  Any other .ml
# that reads a program's typedef table (p_typedefs, typedef_order) and
# hands names to a parser's ~typedefs is a hand-copied loader.  Allowed:
# sema.ml (the loader's parse step) and the incremental service (its
# cached-AST parse step and the Patched tier's re-parse under the scope
# it recorded).
loader_files=$(grep -rlE --include='*.ml' 'p_typedefs|typedef_order' \
  "$ROOT/lib" "$ROOT/bin" "$ROOT/bench" "$ROOT/test")
[ -n "$loader_files" ] || fail "no .ml reads the typedef table under $ROOT"
for f in $loader_files; do
  grep -q '~typedefs' "$f" || continue
  case "${f#"$ROOT"/}" in
    lib/sema/sema.ml | lib/incr/service.ml) ;;
    *) fail "${f#"$ROOT"/} threads a program's typedef names into the parser: build the program with Stdspec.load" ;;
  esac
done
# ... and neither folds p_typedefs into a name list
for f in "$ROOT/lib/sema/sema.ml" "$ROOT/lib/incr/service.ml"; do
  tr '\n' ' ' < "$f" | grep -qE 'k :: acc\) *[A-Za-z_.]*p_typedefs' \
    && fail "${f#"$ROOT"/} folds p_typedefs into a name list: use Sema.typedef_order"
done

# --- only sema knows the program's layout ---------------------------------
# Sema owns a program's tables: its type is private, and every other
# module reads them through Sema's queries (find_*, the *_order views,
# fundefs, enum_consts).  A body is checked against its own overlay
# (Sema.for_check), which holds only what that body declares, so a
# direct read of one of its tables misses the program beneath it.
# Exempt: lib/sema itself and test/test_sema.ml, its white-box test.
# perfbench/ is not scanned: its reads of p_typedefs move with the
# benchmark's next revision (ROADMAP item 6).
layout_reads=$(grep -rnE --include='*.ml' --exclude='*.pp.ml' \
  '\bp_(typedefs|structs|enum_consts|funcs|globals|fundefs_rev|fundef_index|base)\b|\bp_(struct|typedef|global|func)_order_rev\b|\banon_counter\b' \
  "$ROOT/lib" "$ROOT/bin" "$ROOT/bench" "$ROOT/test" \
  | grep -vE "^$ROOT/(lib/sema/|test/test_sema\.ml:)")
[ -z "$layout_reads" ] \
  || { echo "$layout_reads" >&2; fail "code outside sema reads a Sema.program field: use Sema's queries"; }

# --- no production code lowers a body --------------------------------------
# The checker and the +xproc summary pass both walk the syntax tree.
# lib/ir stays only for the benchmark's ir.lower replay (perfbench/) and
# its golden tests (test/test_ir.ml), neither of which is scanned here.
ir_deps=$(grep -nwH 'ir' "$ROOT"/lib/*/dune "$ROOT/bin/dune" \
  | grep -v "^$ROOT/lib/ir/dune:")
[ -z "$ir_deps" ] \
  || { echo "$ir_deps" >&2; fail "a library or binary outside lib/ir depends on ir"; }
ir_uses=$(grep -rnE --include='*.ml' --include='*.mli' --exclude='*.pp.ml' \
  '\bIr\.' \
  "$ROOT/lib" "$ROOT/bin" | grep -v "^$ROOT/lib/ir/")
[ -z "$ir_uses" ] \
  || { echo "$ir_uses" >&2; fail "code outside lib/ir names Ir: walk the AST instead"; }

# --- no export without a caller ---------------------------------------------
# Every `val` in a lib/*/*.mli must be named outside its own module: in
# another module under lib/, or in bin/, bench/, perfbench/ or
# examples/.  A value only tests name, or one only generated code calls
# (a derived equality calling the equality of a field's type), is listed
# in exports_allowed with its reason.  A name counts where it is written
# qualified (Module.name, a `module J = Telemetry.Json` alias resolved),
# or unqualified in a file that opens its module (open, include, let
# open ... in, Module.( ... )).
allowed="$(dirname "$0")/exports_allowed"
[ -f "$allowed" ] || fail "test/exports_allowed is missing"
find "$ROOT/lib" "$ROOT/bin" "$ROOT/bench" "$ROOT/perfbench" "$ROOT/examples" \
  "$ROOT/test" \
  \( -name '*.ml' -o -name '*.mli' \) ! -name '*.pp.ml' ! -name '*.pp.mli' \
  | sort > "$tmp/exports.files"
[ -s "$tmp/exports.files" ] || fail "no sources found under $ROOT"
awk -v root="$ROOT/" -v allowed="$allowed" '
function resolve(m) { return (m in alias) ? alias[m] : m }
function opens(line,   t, n, pc) {
  while (match(line, /(open!? +|include +)[A-Z][A-Za-z0-9_.]*|[A-Z][A-Za-z0-9_.]*\.\(/)) {
    t = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
    sub(/^(open!? +|include +)/, "", t); sub(/\.\($/, "", t)
    n = split(t, pc, "."); opened[resolve(pc[n])]
  }
}
function words(line,   tok, k, c, m) {
  while (match(line, /[A-Za-z_][A-Za-z0-9_'"'"']*(\.[A-Za-z_][A-Za-z0-9_'"'"']*)*/)) {
    tok = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
    k = split(tok, c, ".")
    if (k >= 2) hit(resolve(c[k - 1]) "." c[k])
    else for (m in opened) hit(m "." tok)
  }
}
function hit(w) {
  if (area == "test") { if (!((w, own) in tseen)) { tseen[w, own]; tcount[w]++ } }
  else if (!((w, own) in pseen)) { pseen[w, own]; pcount[w]++ }
}
FNR == 1 {
  path = substr(FILENAME, length(root) + 1)
  n = split(path, parts, "/"); base = parts[n]; sub(/\.mli?$/, "", base)
  area = parts[1]
  own = (area == "lib") ? toupper(substr(base, 1, 1)) substr(base, 2) : ""
  is_mli = (area == "lib" && path ~ /\.mli$/)
  inner = ""
  split("", alias); split("", opened)
}
{
  line = $0
  if (match(line, /module [A-Z][A-Za-z0-9_]* = [A-Z][A-Za-z0-9_.]*/)) {
    m = substr(line, RSTART + 7, RLENGTH - 7)
    split(m, ab, " = "); k = split(ab[2], comp, ".")
    if (ab[1] != comp[k]) alias[ab[1]] = comp[k]
  }
  if (is_mli) {
    if (match(line, /^ *module [A-Z][A-Za-z0-9_]* *: *sig/)) {
      inner = line; sub(/^ *module /, "", inner); sub(/[ :].*/, "", inner)
    } else if (inner != "" && line ~ /^end/) inner = ""
    if (match(line, /^ *val [a-z_][A-Za-z0-9_'"'"']*/)) {
      name = substr(line, RSTART, RLENGTH); sub(/^ *val /, "", name)
      decl[((inner != "") ? inner : own) "." name] = own
    }
  }
  opens(line)
  words(line)
}
END {
  while ((getline line < allowed) > 0) {
    if (line ~ /^#/ || line ~ /^ *$/) continue
    ref = line; sub(/ .*/, "", ref)
    reason = line; sub(/^[^ ]* */, "", reason)
    if (reason == "") print "exports_allowed: " ref " has no reason"
    if (!(ref in decl)) print "exports_allowed: " ref " is not declared in any lib/ interface"
    allow[ref]
  }
  for (ref in decl) {
    own = decl[ref]
    prod = pcount[ref] - (((ref, own) in pseen) ? 1 : 0)
    if (prod > 0 && (ref in allow))
      print "exports_allowed: " ref " has a caller outside its module now: drop its entry"
    else if (prod == 0 && !(ref in allow))
      print ref (tcount[ref] ? " is named only by tests" : " is named nowhere outside its module") \
        ": unexport it, or list it in test/exports_allowed with a reason"
  }
}' $(cat "$tmp/exports.files") | sort > "$tmp/exports.dead"
[ -s "$tmp/exports.dead" ] \
  && { cat "$tmp/exports.dead" >&2; fail "lib/ interfaces export values without a caller"; }

# --- what sema reports while a body is checked, at every -j --------------
# a block-scope redeclaration, and a type name only a closed block
# declared, in a declaration and in a sizeof: the same lines
# Stdspec.check (the library path) reports
cat > "$tmp/redecl.c" <<'EOF'
int g(int x);
void f(void) { extern char *g(void); }
EOF
cat > "$tmp/blocktype.c" <<'EOF'
int a(void) { return 0; { typedef char *T; } }
int b(void) { T p = 0; return 1; }
int c(void) { return sizeof(T); }
EOF
for j in 1 2; do
  "$OLCLINT" -j "$j" "$tmp/redecl.c" > "$tmp/out" 2>&1
  expect_contains "$tmp/out" "redecl.c:2,28: function 'g' redeclared with 0 parameters (was 1)" \
    "-j $j reports the block-scope redeclaration"
  expect_contains "$tmp/out" "1 code warning" "-j $j redeclaration summary"
  "$OLCLINT" -j "$j" "$tmp/blocktype.c" > "$tmp/out" 2>&1
  expect_contains "$tmp/out" "blocktype.c:2,17: unknown type name 'T'" \
    "-j $j reports the type name a closed block declared"
  expect_contains "$tmp/out" "blocktype.c:3,22: unknown type name 'T'" \
    "-j $j resolves the type operand of sizeof"
  expect_contains "$tmp/out" "2 code warnings" "-j $j unknown type summary"
done

# a loop body's report comes once, with or without +loopexec: the
# fixpoint's exploratory rounds report to a collector they throw away
cat > "$tmp/looptype.c" <<'EOF'
void z(void) { typedef int ghost_t; }
int h(void) { int i; for (i = 0; i < 3; i++) { ghost_t x; x = i; } return 0; }
EOF
for flag in "" "+loopexec"; do
  "$OLCLINT" $flag "$tmp/looptype.c" > "$tmp/out" 2>&1
  [ "$(grep -c "looptype.c:2,56: unknown type name 'ghost_t'" "$tmp/out")" = 1 ] \
    || { cat "$tmp/out" >&2; fail "${flag:-default}: the loop body's unknown type name should be reported once"; }
  expect_contains "$tmp/out" "1 code warning" "${flag:-default} loop type summary"
done

# --- one procedure, one check -----------------------------------------------
# a body sees the interfaces and its own declarations only: a's
# block-scope extern never reaches b, whether they share a file or not,
# at any -j, and under inference (whose probes check bodies too)
printf 'void a(void) { extern /*@null@*/ char *mk(void); }\n' > "$tmp/a.c"
printf 'char b(void) { char *p = mk(); return *p; }\n' > "$tmp/b.c"
cat "$tmp/a.c" "$tmp/b.c" > "$tmp/ab.c"
for run in "ab.c" "a.c b.c" "+inferconstraints a.c b.c" "-j 2 a.c b.c" "-j 2 ab.c"; do
  args=()
  for w in $run; do
    case "$w" in *.c) args+=("$tmp/$w") ;; *) args+=("$w") ;; esac
  done
  # the message without its location: ab.c:2,26 and b.c:1,26 are one place
  "$OLCLINT" "${args[@]}" 2>&1 | sed 's/^[^ ]*:[0-9]*,[0-9]*: //' > "$tmp/ab.out.$run"
  expect_contains "$tmp/ab.out.$run" "unrecognized identifier 'mk'" \
    "olclint $run: mk is unknown in b"
  cmp -s "$tmp/ab.out.ab.c" "$tmp/ab.out.$run" \
    || { diff "$tmp/ab.out.ab.c" "$tmp/ab.out.$run" >&2; fail "olclint $run should answer as olclint ab.c"; }
done

# --- interprocedural summaries: --dump-summaries and +xproc ------------------
cat > "$tmp/xp.c" <<'EOF'
void drop(char *r) { free(r); }
int use(void) {
  char *p = (char *) malloc(1);
  if (p == NULL) { return 1; }
  p[0] = 'x';
  drop(p);
  int v = p[0];
  return v;
}
EOF

"$OLCLINT" --dump-summaries "$tmp/xp.c" > "$tmp/sums" \
  || fail "--dump-summaries with a file should exit 0"
expect_contains "$tmp/sums" "drop: params=[rel] ret=-" "derived release effect listed"
sort -c "$tmp/sums" || fail "--dump-summaries output should be sorted by name"

# the single-dash heritage spelling works too
"$OLCLINT" -dump-summaries "$tmp/xp.c" > "$tmp/sums2" || fail "-dump-summaries single-dash"
cmp -s "$tmp/sums" "$tmp/sums2" || fail "-dump-summaries should match --dump-summaries"

# default mode is blind to the buried release; +xproc reports the use
"$OLCLINT" "$tmp/xp.c" > "$tmp/xp.out" 2>&1
grep -q "Dead storage" "$tmp/xp.out" && fail "default flags should not see the cross-function release"
"$OLCLINT" +xproc "$tmp/xp.c" > "$tmp/xp.out" 2>&1
expect_contains "$tmp/xp.out" "Dead storage p used as rvalue" "+xproc catches the cross-function use-after-free"

# --- summary ----------------------------------------------------------------
if [ "$failures" -gt 0 ]; then
  echo "cli tests: $failures failure(s)" >&2
  exit 1
fi
echo "cli tests passed"

# (end)
