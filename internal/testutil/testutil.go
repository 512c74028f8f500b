// Package testutil is the shared scaffolding of the public-API test
// files: the tiny-but-nontrivial Options constructors every suite
// shrinks its runs with, and the golden-comparison helpers that turn
// "bit-identical" claims into byte-level assertions.
//
// It lives under internal/ and imports the root package, which is
// safe because only _test files import it — the root package itself
// never does, so there is no cycle.
package testutil

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"waitornot"
)

// updateGolden rewrites golden files instead of comparing against
// them: go test ./... -run <Test> -update
var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/ with current output")

// TinyOptions is a configuration small enough to run several times in
// one test yet non-trivial enough that training, filtering, and the
// combination search all produce distinguishable numbers — the
// determinism and backend suites' shared baseline.
func TinyOptions() waitornot.Options {
	return waitornot.Options{
		Model:          waitornot.SimpleNN,
		Clients:        3,
		Rounds:         2,
		Seed:           7,
		TrainPerClient: 90,
		SelectionSize:  40,
		TestPerClient:  50,
		LearningRate:   0.01,
	}
}

// TinyStreamOptions is the even smaller run the event and sweep
// suites use: 3 peers × 2 rounds with combo tables off, so streaming
// tests stay fast.
func TinyStreamOptions() waitornot.Options {
	return waitornot.Options{
		Model:           waitornot.SimpleNN,
		Clients:         3,
		Rounds:          2,
		Seed:            7,
		TrainPerClient:  60,
		SelectionSize:   30,
		TestPerClient:   30,
		LearningRate:    0.01,
		SkipComboTables: true,
	}
}

// GoldenEqual asserts a and b serialize to identical JSON bytes — the
// byte-level form of "the parallel run is bit-identical to the
// sequential one".
func GoldenEqual(t testing.TB, label string, a, b any) {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("%s: marshal sequential: %v", label, err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("%s: marshal parallel: %v", label, err)
	}
	if string(ab) != string(bb) {
		t.Fatalf("%s: parallel run is not byte-identical to sequential\nseq: %s\npar: %s", label, ab, bb)
	}
}

// GoldenFile compares got byte-for-byte against the golden file at
// path (relative to the test's working directory, conventionally
// under testdata/). Run the test with -update to (re)write the file
// from current output instead.
func GoldenFile(t testing.TB, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("golden %s: %v", path, err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("golden %s: %v", path, err)
		}
		t.Logf("golden %s rewritten (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s: %v (run `go test -run %s -update` to create it)", path, err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden %s: output diverged from the pinned bytes\ngot:\n%s\nwant:\n%s\n(run with -update to accept the new output)",
			path, got, want)
	}
}

// Run executes opts (plus functional options) through Experiment.Run —
// the one public entry point — and fails the test on error.
func Run(t testing.TB, opts waitornot.Options, extra ...waitornot.Option) *waitornot.Results {
	t.Helper()
	res, err := waitornot.New(opts, extra...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}
