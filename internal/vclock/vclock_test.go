package vclock

import (
	"errors"
	"testing"
)

// TestOrderingTimePeerSeq pins the tie-break contract: time first,
// then peer index (Global before peer 0), then scheduling order.
func TestOrderingTimePeerSeq(t *testing.T) {
	c := New()
	var got []string
	rec := func(s string) func() error {
		return func() error { got = append(got, s); return nil }
	}
	c.Schedule(10, 2, rec("t10-p2"))
	c.Schedule(10, 0, rec("t10-p0-a"))
	c.Schedule(5, 7, rec("t5-p7"))
	c.Schedule(10, Global, rec("t10-global"))
	c.Schedule(10, 0, rec("t10-p0-b"))
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"t5-p7", "t10-global", "t10-p0-a", "t10-p0-b", "t10-p2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if c.Now() != 10 {
		t.Fatalf("clock parked at %g, want 10", c.Now())
	}
}

// TestScheduleFromCallback: events scheduled while running land in the
// same deterministic order, including same-instant follow-ups.
func TestScheduleFromCallback(t *testing.T) {
	c := New()
	var got []string
	c.Schedule(1, 0, func() error {
		got = append(got, "first")
		c.Schedule(1, 0, func() error { got = append(got, "follow-up"); return nil })
		c.After(2, 1, func() error { got = append(got, "later"); return nil })
		return nil
	})
	c.Schedule(1, 1, func() error { got = append(got, "second"); return nil })
	c.After(-5, 2, func() error { got = append(got, "clamped"); return nil })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"clamped", "first", "follow-up", "second", "later"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestPastSchedulingClamps: scheduling before now runs at now, never
// rewinds the clock.
func TestPastSchedulingClamps(t *testing.T) {
	c := New()
	ran := false
	c.Schedule(10, 0, func() error {
		c.Schedule(3, 0, func() error {
			ran = true
			if c.Now() != 10 {
				t.Fatalf("past event ran at %g, want clamped to 10", c.Now())
			}
			return nil
		})
		return nil
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("clamped event never ran")
	}
}

// TestErrorStopsClock: the first error stops processing and surfaces.
func TestErrorStopsClock(t *testing.T) {
	c := New()
	boom := errors.New("boom")
	ran := 0
	c.Schedule(1, 0, func() error { ran++; return nil })
	c.Schedule(2, 0, func() error { return boom })
	c.Schedule(3, 0, func() error { ran++; return nil })
	err := c.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran != 1 {
		t.Fatalf("%d side events ran, want 1 (the clock must stop at the error)", ran)
	}
	if c.Len() != 1 {
		t.Fatalf("%d events left, want 1", c.Len())
	}
}

// TestRunUntilParksAtHorizon: events past the horizon stay queued and
// the clock parks exactly at the horizon.
func TestRunUntilParksAtHorizon(t *testing.T) {
	c := New()
	var got []float64
	for _, at := range []float64{5, 15, 25} {
		at := at
		c.Schedule(at, 0, func() error { got = append(got, at); return nil })
	}
	if err := c.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 5 || got[1] != 15 {
		t.Fatalf("ran %v, want [5 15]", got)
	}
	if c.Now() != 20 || c.Len() != 1 {
		t.Fatalf("now=%g len=%d, want parked at 20 with 1 pending", c.Now(), c.Len())
	}
}
