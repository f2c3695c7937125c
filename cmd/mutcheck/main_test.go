package main

import (
	"strings"
	"testing"
)

func TestParseRows(t *testing.T) {
	good := "# a comment\n\nfile a.go\nfind \"x\\ty\"\nrepl z\npkg ./p\nrun ^TestA$\nwhy one\n\n\n" +
		"why two\nfile b.go\nfind q\nrepl\npkg ./q\nrun .\n"
	rows, err := parseRows(good)
	if err != nil {
		t.Fatal(err)
	}
	want := []row{
		{3, "a.go", "x\ty", "z", "./p", "^TestA$", "one"},
		{11, "b.go", "q", "", "./q", ".", "two"},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d: got %+v, want %+v", i, rows[i], want[i])
		}
	}
	for _, c := range []struct{ table, err string }{
		{"file a.go\nfind x\nrepl y\npkg p\nrun r\n", `:1: row has no "why"`},
		{"file a.go\nfile b.go\n", `:2: second "file" in one row`},
		{"file a.go\nfnd x\n", `:2: unknown key "fnd"`},
		{"find \"x\n", `:1: find: invalid syntax`},
	} {
		if _, err := parseRows(c.table); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%q: error %v, want %q", c.table, err, c.err)
		}
	}
}

func TestMutateNeedsOneMatch(t *testing.T) {
	r := row{file: "f.go", find: "a += b", repl: "a -= b"}
	got, err := r.mutate([]byte("x := 1\na += b\n"))
	if err != nil || string(got) != "x := 1\na -= b\n" {
		t.Fatalf("one match: %q, %v", got, err)
	}
	for src, n := range map[string]string{"a -= b\n": "0", "a += b\na += b\n": "2"} {
		if _, err := r.mutate([]byte(src)); err == nil || !strings.Contains(err.Error(), "matches "+n+" places") {
			t.Errorf("%q: error %v, want %s matches", src, err, n)
		}
	}
}

// The canned outputs are what go test -v prints in each case.
const (
	outPass  = "=== RUN   TestA\n--- PASS: TestA (0.01s)\nPASS\nok  \tex/p\t0.02s\n"
	outFail  = "=== RUN   TestA\n    a_test.go:9: got 1, want 2\n--- FAIL: TestA (0.01s)\nFAIL\nFAIL\tex/p\t0.02s\nFAIL\n"
	outSub   = "=== RUN   TestA\n=== RUN   TestA/x\n    --- FAIL: TestA/x (0.00s)\n--- FAIL: TestA (0.00s)\nFAIL\nFAIL\tex/p\t0.01s\n"
	outBuild = "# ex/p [ex/p.test]\n/tmp/mutant3.go:7:2: \"slices\" imported and not used\n" +
		"FAIL\tex/p [build failed]\nFAIL\n"
	outNone    = "testing: warning: no tests to run\nPASS\nok  \tex/p\t0.01s [no tests to run]\n"
	outTimeout = "=== RUN   TestA\npanic: test timed out after 1m0s\n\tTestA (1m0s)\nFAIL\tex/p\t60.01s\nFAIL\n"
)

func TestClassifyAndJudge(t *testing.T) {
	for _, c := range []struct {
		name            string
		base, mut       string
		baseOK, mutOK   bool
		verdict, killer string
		err             string // "" when the row holds
	}{
		{"killed", outPass, outFail, true, false, "a test failed", "TestA", ""},
		{"killed in a subtest", outPass, outSub, true, false, "a test failed", "TestA/x", ""},
		{"killed by a timeout", outPass, outTimeout, true, false, "a test failed", "the test binary", ""},
		{"survived", outPass, outPass, true, true, "passed", "", "mutant survived: passed"},
		{"build failure is no kill", outPass, outBuild, true, false, "did not build", "", "mutant did not build"},
		{"baseline failing", outFail, outFail, false, false, "a test failed", "", "unmutated tests: a test failed"},
		{"no tests to run", outNone, outFail, true, false, "a test failed", "", "unmutated tests: no tests to run"},
		{"go command error", outPass, "go: invalid overlay file\n", true, false, "did not build", "", "mutant did not build"},
	} {
		mut := classify(c.mut, c.mutOK)
		if string(mut) != c.verdict {
			t.Errorf("%s: mutant verdict %q, want %q", c.name, mut, c.verdict)
		}
		if c.killer != "" && killer(c.mut) != c.killer {
			t.Errorf("%s: killer %q, want %q", c.name, killer(c.mut), c.killer)
		}
		err := judge(classify(c.base, c.baseOK), mut)
		if (err == nil) != (c.err == "") || err != nil && !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: judge %v, want %q", c.name, err, c.err)
		}
	}
}
