package waitornot_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"waitornot"
	"waitornot/internal/testutil"
)

// TestPolicyTableGolden pins every policy on a grid — K {0, 1, 2, 3, 5}
// × Deadline {0, 500µs, 60ms, 1.5s} — by its Name and its Ready bits
// over received 0–5 × expected 1–5 × elapsed around each deadline. A
// line reads, per expected count, the Ready bit for received = 0..5.
func TestPolicyTableGolden(t *testing.T) {
	elapsed := []time.Duration{0, 500 * time.Microsecond, 59999 * time.Microsecond, 60 * time.Millisecond, 1500 * time.Millisecond, time.Hour}
	var b strings.Builder
	for _, k := range []int{0, 1, 2, 3, 5} {
		for _, d := range []time.Duration{0, 500 * time.Microsecond, 60 * time.Millisecond, 1500 * time.Millisecond} {
			p := waitornot.Policy{K: k, Deadline: d}
			if err := p.Validate(); err != nil {
				t.Fatalf("%+v: %v", p, err)
			}
			fmt.Fprintf(&b, "K=%d Deadline=%v: %s\n", k, d, p.Name())
			for _, el := range elapsed {
				fmt.Fprintf(&b, "  %-10v", el)
				for expected := 1; expected <= 5; expected++ {
					b.WriteString(" ")
					for received := 0; received <= 5; received++ {
						if p.Ready(received, expected, el) {
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
	testutil.GoldenFile(t, "testdata/policy_table.golden", []byte(b.String()))
}
