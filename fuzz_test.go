package waitornot

import (
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzPolicyValidate: Validate accepts exactly the policies with
// K >= 0 and Deadline >= 0; an accepted policy's Ready never turns
// false as more updates arrive or as the round stays open longer, and
// its name renders no negative count or duration (a negative one
// reads "first--2" or "timeout--1s").
func FuzzPolicyValidate(f *testing.F) {
	f.Add(0, int64(0), uint8(0), uint8(3), int64(0), int64(0))
	f.Add(2, int64(0), uint8(2), uint8(3), int64(0), int64(time.Hour))
	f.Add(0, int64(60*time.Millisecond), uint8(1), uint8(3), int64(59999*time.Microsecond), int64(60*time.Millisecond))
	f.Add(2, int64(1500*time.Millisecond), uint8(0), uint8(5), int64(-1), int64(math.MaxInt64))
	f.Add(-1, int64(0), uint8(0), uint8(1), int64(0), int64(0))
	f.Add(1, int64(-1), uint8(0), uint8(1), int64(0), int64(0))
	f.Add(math.MinInt, int64(math.MinInt64), uint8(0), uint8(1), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, k int, deadline int64, received, expected uint8, el1, el2 int64) {
		p := Policy{K: k, Deadline: time.Duration(deadline)}
		if err := p.Validate(); (err == nil) != (k >= 0 && deadline >= 0) {
			t.Fatalf("%+v: Validate = %v", p, err)
		} else if err != nil {
			return
		}
		if name := p.Name(); strings.Contains(name, "--") {
			t.Fatalf("%+v validated as %q", p, name)
		}
		r, e := int(received), int(expected)
		early, late := time.Duration(min(el1, el2)), time.Duration(max(el1, el2))
		if p.Ready(r, e, early) && !p.Ready(r+1, e, early) {
			t.Fatalf("%+v: ready at %d of %d received, not at %d", p, r, e, r+1)
		}
		if p.Ready(r, e, early) && !p.Ready(r, e, late) {
			t.Fatalf("%+v: ready at %v, not at %v", p, early, late)
		}
	})
}
