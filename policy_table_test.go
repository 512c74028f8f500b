package waitornot_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"waitornot"
	"waitornot/internal/testutil"
)

// TestPolicyTableGolden pins every policy Validate accepts on a grid —
// kinds × K {1, 2, 3, 5} × TimeoutMs {0.5, 60, 1500} — by its Name and
// its engine policy's Ready bits over received 0–5 × expected 1–5 ×
// elapsed around each deadline. A line reads, per expected count, the
// Ready bit for received = 0..5.
func TestPolicyTableGolden(t *testing.T) {
	kinds := []struct {
		kind waitornot.PolicyKind
		name string
	}{{waitornot.WaitAll, "WaitAll"}, {waitornot.FirstK, "FirstK"}, {waitornot.Timeout, "Timeout"}, {waitornot.KOrTimeout, "KOrTimeout"}}
	elapsed := []time.Duration{0, 500 * time.Microsecond, 59999 * time.Microsecond, 60 * time.Millisecond, 1500 * time.Millisecond, time.Hour}
	var b strings.Builder
	for _, kd := range kinds {
		for _, k := range []int{1, 2, 3, 5} {
			for _, ms := range []float64{0.5, 60, 1500} {
				p := waitornot.Policy{Kind: kd.kind, K: k, TimeoutMs: ms}
				if p.Validate() != nil {
					continue
				}
				fmt.Fprintf(&b, "%s K=%d TimeoutMs=%g: %s\n", kd.name, k, ms, p.Name())
				for _, el := range elapsed {
					fmt.Fprintf(&b, "  %-10v", el)
					for expected := 1; expected <= 5; expected++ {
						b.WriteString(" ")
						for received := 0; received <= 5; received++ {
							if waitornot.PolicyReady(p, received, expected, el) {
								b.WriteByte('1')
							} else {
								b.WriteByte('0')
							}
						}
					}
					b.WriteString("\n")
				}
			}
		}
	}
	testutil.GoldenFile(t, "testdata/policy_table.golden", []byte(b.String()))
}
