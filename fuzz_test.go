package waitornot

import (
	"math"
	"strings"
	"testing"
)

// FuzzPolicyValidate: every policy Validate accepts becomes an engine
// policy with a non-negative deadline, positive exactly for the timeout
// kinds (a deadline truncated to zero would read as none), and its
// name renders no negative duration (a wrapped one reads
// "timeout--2562047h…").
func FuzzPolicyValidate(f *testing.F) {
	f.Add(int(Timeout), 0, 6000.0)
	f.Add(int(Timeout), 0, math.NaN())
	f.Add(int(Timeout), 0, math.Inf(1))
	f.Add(int(Timeout), 0, 1e13)
	f.Add(int(Timeout), 0, 1e-7)
	f.Add(int(KOrTimeout), 2, math.NaN())
	f.Add(int(KOrTimeout), 2, 1e13)
	f.Fuzz(func(t *testing.T, kind, k int, timeoutMs float64) {
		p := Policy{Kind: PolicyKind(kind), K: k, TimeoutMs: timeoutMs}
		if p.Validate() != nil {
			return
		}
		ep := p.internal()
		if ep.Deadline < 0 || (ep.Deadline > 0) != (p.Kind == Timeout || p.Kind == KOrTimeout) {
			t.Fatalf("%+v validated with deadline %v", p, ep.Deadline)
		}
		if name := ep.Name(); strings.Contains(name, "--") {
			t.Fatalf("%+v validated as %q", p, name)
		}
	})
}
