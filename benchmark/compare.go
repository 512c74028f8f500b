package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json that -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// readSets loads a comma-separated list of result-set files.
func readSets(list string) ([]resultSet, error) {
	var sets []resultSet
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var set resultSet
		if err := json.Unmarshal(b, &set); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		sets = append(sets, set)
	}
	return sets, nil
}

// verdict judges side b against side a for one metric. worse: b's
// median is beyond the bound. unresolved: within the bound, but a
// side's own run-to-run spread is wider than the bound, so "unchanged"
// cannot be claimed, unless every run of b beats every run of a.
func verdict(m specMetric, a, b []float64) string {
	lower := m.Better == "lower"
	ma, mb := median(a), median(b)
	if (lower && mb > ma*(1+m.Bound)) || (!lower && mb < ma*(1-m.Bound)) {
		return "worse"
	}
	if spread(a) <= m.Bound && spread(b) <= m.Bound {
		return "same"
	}
	for _, x := range a {
		for _, y := range b {
			if (lower && y >= x) || (!lower && y <= x) {
				return "unresolved"
			}
		}
	}
	return "same"
}

// compareSets prints one row per workload and end-to-end metric and
// returns the exit code: 1 when any metric is worse or the failed share
// rose, else 0.
func compareSets(specPath, listA, listB string) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fatal("%v", err)
	}
	a, err := readSets(listA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := readSets(listB)
	if err != nil {
		fatal("%v", err)
	}
	exit := 0
	fmt.Printf("%-14s %-26s %14s %14s %8s %8s %8s  %s\n",
		"workload", "metric", "median a", "median b", "iqr a", "iqr b", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			v := "missing"
			if len(va) > 0 && len(vb) > 0 {
				v = verdict(m, va, vb)
			}
			if v == "worse" || v == "missing" {
				exit = 1
			}
			fmt.Printf("%-14s %-26s %14.6g %14.6g %7.1f%% %7.1f%% %7.1f%%  %s\n",
				w.Name, m.Name, median(va), median(vb), 100*spread(va), 100*spread(vb), 100*m.Bound, v)
		}
		fa, fb := failedShare(a, w.Name), failedShare(b, w.Name)
		v := "same"
		if fb > fa {
			v, exit = "worse", 1
		}
		fmt.Printf("%-14s %-26s %14.6g %14.6g %8s %8s %8s  %s\n", w.Name, "failed_ops/ops", fa, fb, "", "", "", v)
	}
	return exit
}

func values(sets []resultSet, workload, name string) []float64 {
	var out []float64
	for _, s := range sets {
		if m, ok := s.Workloads[workload].EndToEnd[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedShare(sets []resultSet, workload string) float64 {
	var failed, ops int
	for _, s := range sets {
		failed += s.Workloads[workload].FailedOps
		ops += s.Workloads[workload].Ops
	}
	if ops == 0 {
		return 0
	}
	return float64(failed) / float64(ops)
}
