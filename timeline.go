package waitornot

import (
	"fmt"

	"waitornot/internal/metrics"
)

// TimelinePoint is one step of a run's fleet-accuracy-vs-time curve:
// at AtMs, the fleet's mean adopted-model accuracy.
type TimelinePoint struct {
	AtMs         float64
	MeanAccuracy float64
}

// timeline is a run's fleet-accuracy curve, points in non-decreasing
// AtMs order. Every report kind constructs one (its timeline method),
// and the speed axis of the wait-or-not question is read off it here,
// once: where the run ended up, when it reached a target, and the two
// renderings of that.
type timeline []TimelinePoint

// final is the last point's accuracy, 0 for an empty timeline.
func (t timeline) final() float64 {
	if len(t) == 0 {
		return 0
	}
	return t[len(t)-1].MeanAccuracy
}

// timeToAccuracyMs is the first point's time at or above target, or -1
// if the run never got there.
func (t timeline) timeToAccuracyMs(target float64) float64 {
	for _, pt := range t {
		if pt.MeanAccuracy >= target {
			return pt.AtMs
		}
	}
	return -1
}

// table renders the time needed to reach each target accuracy ("n/a"
// when the run never got there).
func (t timeline) table(targets ...float64) string {
	tab := metrics.NewTable("Time to target accuracy (virtual ms)", "target", "reached at (ms)")
	for _, target := range targets {
		cell := "n/a"
		if at := t.timeToAccuracyMs(target); at >= 0 {
			cell = fmt.Sprintf("%.1f", at)
		}
		tab.Add(metrics.Acc(target), cell)
	}
	return tab.ASCII()
}

// csv renders the points machine-readably.
func (t timeline) csv() string {
	tab := metrics.NewTable("", "at_ms", "mean_accuracy")
	for _, pt := range t {
		tab.Add(fmt.Sprintf("%g", pt.AtMs), fmt.Sprintf("%g", pt.MeanAccuracy))
	}
	return tab.CSV()
}

// headlineMeans is the rest of every report's Headline: the mean wait
// and mean included-update count over each per-round record, rows in
// order — 0 for no records, never NaN.
func headlineMeans[R any](rows [][]R, of func(R) (waitMs, included float64)) (meanWaitMs, meanIncluded float64) {
	n := 0
	for _, row := range rows {
		for _, rec := range row {
			w, inc := of(rec)
			meanWaitMs, meanIncluded, n = meanWaitMs+w, meanIncluded+inc, n+1
		}
	}
	if n > 0 {
		meanWaitMs, meanIncluded = meanWaitMs/float64(n), meanIncluded/float64(n)
	}
	return meanWaitMs, meanIncluded
}
