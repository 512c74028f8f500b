package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"waitornot/internal/chain"
)

// TestLoadAuditsTheChain: -load is an audit, not a printer. A saved
// chain passes; the same file with one payload byte flipped, or one
// header field changed, fails (main exits 1 on any error from run)
// naming the first offending block.
func TestLoadAuditsTheChain(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "chain.bin")
	var out bytes.Buffer
	if err := run([]string{"-rounds", "1", "-train", "60", "-txs=false", "-save", saved}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-load", saved}, &out); err != nil {
		t.Fatalf("honest chain rejected: %v", err)
	}
	// genesis + registration + round 1's submit and decision blocks, 3 txs each.
	if !strings.HasSuffix(out.String(), "chain valid: 4 blocks, 9 txs replayed\n") {
		t.Fatalf("no audit verdict at the end of:\n%s", out.String())
	}
	// The audit trail read back from the replayed state: every peer
	// registered, submitted and recorded one decision in round 1.
	for _, peer := range []string{"A", "B", "C"} {
		for _, line := range []string{"participant " + peer + " ", "round 1 submission " + peer + ": ", "round 1 decision " + peer + ": adopted "} {
			if n := strings.Count(out.String(), "  "+line); n != 1 {
				t.Errorf("%d %q lines, want 1, in:\n%s", n, line, out.String())
			}
		}
	}
	if n := strings.Count(out.String(), " decision "); n != 3 {
		t.Errorf("%d decision lines, want one per peer per round (3)", n)
	}

	tampered := func(name string, corrupt func(blocks []*chain.Block)) string {
		t.Helper()
		f, err := os.Open(saved)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		blocks, err := chain.ReadChain(f)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(blocks)
		var buf bytes.Buffer
		if err := chain.WriteChain(&buf, blocks); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name    string
		corrupt func(blocks []*chain.Block)
		want    string
	}{
		{"payload byte", func(bs []*chain.Block) { p := bs[2].Txs[1].Payload; p[len(p)/2] ^= 1 }, "block 2: " + chain.ErrBadTxRoot.Error()},
		// Caught by the PoW check, or — should the changed header still
		// hash under the target, 1 in 64 at this difficulty — by the
		// declared-gas check: block 3 either way.
		{"header field", func(bs []*chain.Block) { bs[3].Header.GasUsed++ }, "block 3: "},
		{"genesis", func(bs []*chain.Block) { bs[0].Header.Difficulty++ }, "block 0: "},
		{"dropped block", func(bs []*chain.Block) { bs[1] = nil }, "block 1: "},
	}
	for _, tc := range cases {
		out.Reset()
		err := run([]string{"-load", tampered(tc.name, tc.corrupt)}, &out)
		if err == nil || !strings.Contains(err.Error(), "chain INVALID: "+tc.want) {
			t.Errorf("%s: err = %v, want chain INVALID: %s...", tc.name, err, tc.want)
		}
		if strings.Contains(out.String(), "chain valid") {
			t.Errorf("%s: tampered chain reported valid", tc.name)
		}
	}
}
