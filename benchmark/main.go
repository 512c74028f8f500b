// Command benchmark is the repo benchmark: four named workloads, seven
// end-to-end metrics measured with tracing off, and per-layer metrics
// from a separate traced run. See README.md in this directory.
//
//	go run ./benchmark                          every workload, untraced then traced
//	go run ./benchmark -workload fleet-poa      one run; the last line is its JSON result
//	go run ./benchmark -compare a.json b.json   apply BENCHMARK.json's bounds to two result sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print its JSON result as the last line")
		seed    = flag.Uint64("seed", 1, "every input is generated from this seed")
		seconds = flag.Float64("seconds", 25, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
		out     = flag.String("out", "", "with no -workload: also write the JSON result set to this file")
		compare = flag.Bool("compare", false, "compare two result sets (each argument a comma-separated list of -out files)")
		spec    = flag.String("spec", "BENCHMARK.json", "with -compare: the file holding the metric bounds")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare a.json[,a2.json...] b.json[,b2.json...]")
		}
		os.Exit(compareSets(*spec, flag.Arg(0), flag.Arg(1)))
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fatal("unknown workload %q", *name)
		}
		res, fails, dig := runWorkload(w, *seed, *seconds, *trace == 1)
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "FAILED CHECK:", f)
		}
		fmt.Fprintf(os.Stderr, "%s seed %d trace %d: result_digest %s\n", w.name, *seed, *trace, dig)
		line, err := json.Marshal(res)
		if err != nil {
			fatal("encoding result: %v", err)
		}
		fmt.Println(string(line))
	default:
		os.Exit(runAll(*seed, *seconds, *out))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// resultSet is what a full invocation records: where and how it ran,
// and every workload's untraced and traced result.
type resultSet struct {
	Meta      map[string]string         `json:"meta"`
	Workloads map[string]workloadResult `json:"workloads"`
	TotalS    float64                   `json:"total_s"`
}

type workloadResult struct {
	Ops       int               `json:"ops"`
	FailedOps int               `json:"failed_ops"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

// runAll runs every workload in a process of its own, untraced and then
// traced, prints every metric by name and unit, and returns the exit
// code: 0 only when no check failed anywhere.
func runAll(seed uint64, seconds float64, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("locating own binary: %v", err)
	}
	start := time.Now()
	set := resultSet{Meta: meta(seed, seconds), Workloads: map[string]workloadResult{}}
	exit := 0
	for _, w := range workloads() {
		wr := workloadResult{}
		for _, trace := range []int{0, 1} {
			res, err := runChild(self, w.name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace %d: %v\n", w.name, trace, err)
				exit = 1
			}
			wr.Ops += res.Attempted
			wr.FailedOps += res.Failed
			if trace == 0 {
				wr.EndToEnd = res.Metrics
			} else {
				wr.PerLayer = res.Metrics
			}
		}
		if wr.FailedOps > 0 {
			exit = 1
		}
		set.Workloads[w.name] = wr
		printWorkload(w.name, wr)
	}
	set.TotalS = time.Since(start).Seconds()
	fmt.Printf("total wall time %.1f s\n", set.TotalS)
	if outPath != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing %s: %v\n", outPath, err)
			exit = 1
		}
	}
	return exit
}

// runChild runs one workload in a fresh process, so caches, heap and
// RSS start cold as in a cmd/repro invocation, and parses the result
// from the last line of its output. A child whose checks failed still
// prints its result and exits 0; the result carries the failures.
func runChild(self, name string, seed uint64, seconds float64, trace int) (result, error) {
	cmd := exec.Command(self,
		"-workload", name,
		"-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("no result (%v): %v", runErr, err)
	}
	return res, runErr
}

func printWorkload(name string, wr workloadResult) {
	fmt.Printf("== %s: %d ops, failed_ops %d, run_s %.3f\n", name, wr.Ops, wr.FailedOps, wr.EndToEnd["run_s"].Value)
	for _, group := range []map[string]metric{wr.EndToEnd, wr.PerLayer} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-32s %14.6g %s\n", n, group[n].Value, group[n].Unit)
		}
	}
}

// meta records what a reader needs to judge whether two result sets
// are comparable.
func meta(seed uint64, seconds float64) map[string]string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(procs),
		"seed":       fmt.Sprint(seed),
		"seconds":    fmt.Sprint(seconds),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}
