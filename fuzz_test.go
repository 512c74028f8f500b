package waitornot

import (
	"math"
	"strings"
	"testing"

	"waitornot/internal/core"
)

// FuzzPolicyValidate: every policy Validate accepts becomes an engine
// policy with a non-negative deadline, and its name renders no
// negative duration (a wrapped one reads "timeout--2562047h…").
func FuzzPolicyValidate(f *testing.F) {
	f.Add(int(Timeout), 0, 6000.0)
	f.Add(int(Timeout), 0, math.NaN())
	f.Add(int(Timeout), 0, math.Inf(1))
	f.Add(int(Timeout), 0, 1e13)
	f.Add(int(KOrTimeout), 2, math.NaN())
	f.Add(int(KOrTimeout), 2, 1e13)
	f.Fuzz(func(t *testing.T, kind, k int, timeoutMs float64) {
		p := Policy{Kind: PolicyKind(kind), K: k, TimeoutMs: timeoutMs}
		if p.Validate() != nil {
			return
		}
		ep := p.internal()
		if d, ok := ep.(core.Deadliner); ok && d.Deadline() < 0 {
			t.Fatalf("%+v validated with deadline %v", p, d.Deadline())
		}
		if name := ep.Name(); strings.Contains(name, "--") {
			t.Fatalf("%+v validated as %q", p, name)
		}
	})
}
