// Command mutcheck runs the mutation table testdata/mutations.txt and exits
// 1 unless every mutant in it is killed by a failing test:
//
//	go run ./cmd/mutcheck
//
// For each row the row's tests first run on the unmodified tree; they must
// pass and run at least one test. Then they run under go test -overlay with
// the row's snippet replaced, and the row holds only if a test fails. A
// mutant that passes survives, one that does not build is no kill, and a
// snippet that matches zero or several places is a stale row.
//
// The table is rows of "key value" lines separated by blank lines, with #
// comment lines. Each row has the keys file, find, repl, pkg, run (a -run
// regexp) and why exactly once. A value starting with a double quote is a
// Go string literal, so a snippet can hold tabs and newlines.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

const table = "testdata/mutations.txt"

// row is one mutant: the file it edits, the snippet it replaces and with
// what, and the tests that must kill it.
type row struct {
	line                            int // the row's first line in the table
	file, find, repl, pkg, run, why string
}

func (r row) String() string { return fmt.Sprintf("%s:%d (%s: %s)", table, r.line, r.file, r.why) }

// parseRows parses the table's text.
func parseRows(text string) ([]row, error) {
	var rows []row
	var cur map[string]*string
	var r *row
	for i, line := range strings.Split(text+"\n", "\n") {
		n := i + 1
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.TrimSpace(line) == "" {
			for k, v := range cur {
				if v != nil {
					return nil, fmt.Errorf("%s:%d: row has no %q", table, r.line, k)
				}
			}
			cur = nil
			continue
		}
		if cur == nil {
			rows = append(rows, row{line: n})
			r = &rows[len(rows)-1]
			cur = map[string]*string{"file": &r.file, "find": &r.find, "repl": &r.repl, "pkg": &r.pkg, "run": &r.run, "why": &r.why}
		}
		key, val, _ := strings.Cut(line, " ")
		dst, ok := cur[key]
		switch {
		case !ok:
			return nil, fmt.Errorf("%s:%d: unknown key %q", table, n, key)
		case dst == nil:
			return nil, fmt.Errorf("%s:%d: second %q in one row", table, n, key)
		}
		if strings.HasPrefix(val, `"`) {
			s, err := strconv.Unquote(val)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %s: %v", table, n, key, err)
			}
			val = s
		}
		*dst, cur[key] = val, nil
	}
	return rows, nil
}

// mutate returns src with the row's snippet replaced, or an error when the
// snippet does not occur exactly once.
func (r row) mutate(src []byte) ([]byte, error) {
	if c := bytes.Count(src, []byte(r.find)); c != 1 {
		return nil, fmt.Errorf("snippet matches %d places in %s, want 1", c, r.file)
	}
	return bytes.Replace(src, []byte(r.find), []byte(r.repl), 1), nil
}

// verdict is what one go test -v run says.
type verdict string

const (
	passed      verdict = "passed"          // every selected test passed
	failed      verdict = "a test failed"   // failed, panicked or timed out
	buildFailed verdict = "did not build"   // or the go command failed
	noTests     verdict = "no tests to run" // the -run regexp selected none
)

// classify reads the combined output of go test -v, and whether the
// command exited zero.
func classify(out string, ok bool) verdict {
	var runs, fails int
	for _, l := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(l, "[build failed]"), strings.Contains(l, "[setup failed]"):
			return buildFailed
		case strings.HasPrefix(l, "=== RUN"):
			runs++
		case strings.HasPrefix(l, "--- FAIL"), strings.HasPrefix(l, "FAIL\t"):
			fails++
		}
	}
	switch {
	case !ok && fails > 0:
		return failed
	case !ok:
		return buildFailed
	case runs == 0:
		return noTests
	}
	return passed
}

// killer names the first test the output reports failing.
func killer(out string) string {
	for _, l := range strings.Split(out, "\n") {
		if name, ok := strings.CutPrefix(strings.TrimSpace(l), "--- FAIL: "); ok {
			return strings.Fields(name)[0]
		}
	}
	return "the test binary"
}

// judge is a row's outcome from the verdicts of its unmutated and mutated
// runs: nil when the tests passed unmutated and the mutant made one fail.
func judge(base, mut verdict) error {
	switch {
	case base != passed:
		return fmt.Errorf("unmutated tests: %s", base)
	case mut == failed:
		return nil
	case mut == buildFailed:
		return errors.New("mutant did not build, so no test killed it")
	}
	return fmt.Errorf("mutant survived: %s", mut)
}

// goTest runs the row's tests, through overlay when it is not empty.
func goTest(r row, overlay string) (string, verdict) {
	args := []string{"test", "-v", "-failfast", "-timeout", "60s", "-run", r.run}
	if overlay != "" {
		args = append(args, "-count=1", "-overlay", overlay)
	}
	out, err := exec.Command("go", append(args, r.pkg)...).CombinedOutput()
	if _, exit := err.(*exec.ExitError); err != nil && !exit {
		return err.Error(), buildFailed
	}
	return string(out), classify(string(out), err == nil)
}

// check runs row r, the table's i-th, in scratch directory tmp: nil when
// its mutant dies. Rows sharing a package and -run regexp share the
// unmutated run through go test's result cache.
func check(r row, i int, tmp string) error {
	if out, base := goTest(r, ""); base != passed {
		fmt.Fprint(os.Stderr, out)
		return judge(base, base)
	}
	src, err := os.ReadFile(r.file)
	if err != nil {
		return err
	}
	mut, err := r.mutate(src)
	if err != nil {
		return err
	}
	abs, err := filepath.Abs(r.file)
	if err != nil {
		return err
	}
	mfile := filepath.Join(tmp, fmt.Sprintf("mutant%d%s", i, filepath.Ext(r.file)))
	ofile := filepath.Join(tmp, fmt.Sprintf("overlay%d.json", i))
	ov, _ := json.Marshal(map[string]map[string]string{"Replace": {abs: mfile}}) // strings always marshal
	if err := errors.Join(os.WriteFile(mfile, mut, 0o644), os.WriteFile(ofile, ov, 0o644)); err != nil {
		return err
	}
	out, v := goTest(r, ofile)
	if err := judge(passed, v); err != nil {
		if v == buildFailed {
			fmt.Fprint(os.Stderr, out)
		}
		return err
	}
	fmt.Printf("killed   %s by %s\n", r, killer(out))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mutcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	text, err := os.ReadFile(table)
	if err != nil {
		return err
	}
	rows, err := parseRows(string(text))
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "mutcheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	start, bad := time.Now(), 0
	for i, r := range rows {
		if err := check(r, i, tmp); err != nil {
			fmt.Printf("FAILED   %s: %v\n", r, err)
			bad++
		}
	}
	fmt.Printf("%d rows, %d not killed, %.0fs\n", len(rows), bad, time.Since(start).Seconds())
	if bad > 0 {
		return fmt.Errorf("%d of %d mutants not killed", bad, len(rows))
	}
	return nil
}
