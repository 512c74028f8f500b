// The calibration grid: the closed form must agree with the
// event-level simulation within calibrationTolerance on every cell,
// fixed hops exactly, and the rendered table is bit-identical at any
// parallelism — pinned as golden bytes. Rerun it with
// `go test -run Calibration ./internal/ledger/latmodel`.
package latmodel

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"waitornot/internal/metrics"
	"waitornot/internal/par"
	"waitornot/internal/simnet"
)

// update rewrites the golden instead of comparing against it. It is
// not testutil.GoldenFile's flag because testutil imports the root
// package, which imports this one.
var update = flag.Bool("update", false, "rewrite testdata/pbft_calibration.golden with current output")

// calibrationTolerance is the pinned relative-error bound between the
// analytic prediction and the event-level simulation. The
// fixed/uniform/exponential closed forms are exact (disagreement is
// pure sampling error, well under 2% at defaultSimRounds); the
// lognormal row uses Blom's quantile approximation, whose bias peaks
// around 3% at the smallest committee (n = 4, N = 3 draws). 5% leaves
// headroom over both without masking a broken model — a wrong quorum
// index or message count shifts rows by tens of percent.
const calibrationTolerance = 0.05

// quorum is the matching-message quorum 2f+1.
func quorum(n int) int { return 2*maxFaulty(n) + 1 }

// messageCount is the total messages one PBFT round exchanges:
// (n−1) pre-prepares + (n−1)² prepares + n(n−1) commits = (n−1)·2n.
func messageCount(n int) int { return (n - 1) * 2 * n }

// calibrationRow is one (per-hop family, committee) cell.
type calibrationRow struct {
	dist                 simnet.DistKind
	validators           int
	predicted, simulated float64
	relErr               float64 // |predicted − simulated| / simulated
}

// calibrate runs the grid — committees n ∈ {4, 7, 10, 13, 16, 31}
// under one representative of each per-hop family at a 25 ms mean,
// loaded like a 3-peer SimpleNN submission block — distribution-major.
// Each cell draws from its own seed, derived from its index, so the
// rows are the same at every parallelism.
func calibrate(parallelism int) ([]calibrationRow, error) {
	type cell struct {
		dist simnet.Dist
		n    int
	}
	var cells []cell
	for _, d := range []simnet.Dist{
		{Kind: simnet.DistFixed, Mean: 25},
		{Kind: simnet.DistUniform, Mean: 25, Jitter: 0.5},
		{Kind: simnet.DistExponential, Mean: 25},
		{Kind: simnet.DistLogNormal, Mean: 25, Jitter: 0.5},
	} {
		for _, n := range []int{4, 7, 10, 13, 16, 31} {
			cells = append(cells, cell{dist: d, n: n})
		}
	}
	return par.Map(parallelism, len(cells), func(i int) (calibrationRow, error) {
		c := cells[i]
		// 3 × ~247 KB of encoded float32 weights, verified at 5 ms
		// each, serialized at the pbft backend's 0.08 ms/KB.
		model := Config{Validators: c.n, PerHop: c.dist, PayloadBytes: 741_000, PerKBMs: 0.08, Updates: 3, VerifyMs: 5}
		predicted, err := PredictRoundLatencyMs(model)
		if err != nil {
			return calibrationRow{}, fmt.Errorf("cell %s/n=%d: %w", c.dist.Kind, c.n, err)
		}
		simulated, err := simulateRoundLatencyMs(simConfig{
			Config: model,
			Rounds: defaultSimRounds,
			// Seed 1, offset per cell: the draws the golden pins.
			Seed: 1*1_000_003 + uint64(i)*7919,
		})
		if err != nil {
			return calibrationRow{}, fmt.Errorf("cell %s/n=%d: %w", c.dist.Kind, c.n, err)
		}
		d := predicted - simulated
		if d < 0 {
			d = -d
		}
		return calibrationRow{c.dist.Kind, c.n, predicted, simulated, d / simulated}, nil
	})
}

func calibrationTable(rows []calibrationRow) string {
	tab := metrics.NewTable(
		fmt.Sprintf("PBFT latency calibration: analytic model vs event-level simulation (%d rounds/cell, tolerance %.0f%%)",
			defaultSimRounds, calibrationTolerance*100),
		"per-hop dist", "validators", "quorum", "messages", "predicted (ms)", "simulated (ms)", "rel err")
	for _, row := range rows {
		tab.Add(row.dist.String(), fmt.Sprint(row.validators), fmt.Sprint(quorum(row.validators)),
			fmt.Sprint(messageCount(row.validators)), fmt.Sprintf("%.2f", row.predicted),
			fmt.Sprintf("%.2f", row.simulated), fmt.Sprintf("%.2f%%", row.relErr*100))
	}
	return tab.ASCII()
}

// TestPBFTCalibrationGolden runs the grid at Parallelism 1 and NumCPU,
// asserts every row within calibrationTolerance and every fixed-hop row
// exact, and byte-pins the rendered table. Regenerate after an
// intentional model change with
// `go test -run TestPBFTCalibrationGolden ./internal/ledger/latmodel -update`.
func TestPBFTCalibrationGolden(t *testing.T) {
	var tables []string
	for _, parallelism := range []int{1, runtime.NumCPU()} {
		rows, err := calibrate(parallelism)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(rows), 4*6; got != want {
			t.Fatalf("parallelism %d: %d rows, want %d", parallelism, got, want)
		}
		worst := rows[0]
		for _, row := range rows {
			if row.relErr > calibrationTolerance {
				t.Errorf("parallelism %d: cell %s/n=%d: rel err %.4f exceeds tolerance %.2f (predicted %.2f, simulated %.2f)",
					parallelism, row.dist, row.validators, row.relErr, calibrationTolerance, row.predicted, row.simulated)
			}
			// Fixed hops make the simulation exact, not merely 0.00%.
			if row.dist == simnet.DistFixed && row.predicted != row.simulated {
				t.Errorf("parallelism %d: fixed-hop cell n=%d: predicted %v, simulated %v",
					parallelism, row.validators, row.predicted, row.simulated)
			}
			if row.relErr > worst.relErr {
				worst = row
			}
		}
		t.Logf("parallelism %d: worst cell %s/n=%d: %.2f%% relative error (tolerance %.0f%%)",
			parallelism, worst.dist, worst.validators, worst.relErr*100, calibrationTolerance*100)
		tables = append(tables, calibrationTable(rows))
	}
	if tables[0] != tables[1] {
		t.Fatalf("calibration table differs between Parallelism 1 and NumCPU:\n%s\nvs\n%s", tables[0], tables[1])
	}
	const golden = "testdata/pbft_calibration.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(tables[0]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(tables[0]), want) {
		t.Fatalf("%s: table diverged from the pinned bytes\ngot:\n%s\nwant:\n%s\n(run with -update to accept it)",
			golden, tables[0], want)
	}
}
