package waitornot

import (
	"fmt"

	"waitornot/internal/ledger/latmodel"
	"waitornot/internal/metrics"
	"waitornot/internal/par"
)

// PBFTCalibrationTolerance is the pinned relative-error bound between
// the analytic PBFT latency prediction and the event-level simulation.
// The fixed/uniform/exponential closed forms are exact (disagreement
// is pure sampling error, well under 2% at the default 400 rounds);
// the lognormal row uses Blom's quantile approximation, whose bias
// peaks around 3% at the smallest committee (n = 4, N = 3 draws). 5%
// leaves headroom over both without masking a broken model — a wrong
// quorum index or message count shifts rows by tens of percent.
const PBFTCalibrationTolerance = 0.05

// PBFTCalibrationConfig parameterizes CalibratePBFT, the harness that
// validates the analytic PBFT round-latency model against the
// event-level vclock simulation. The zero value is the standard grid:
// committees n ∈ {4, 7, 10, 13, 16, 31} under all four per-hop delay
// families, with a payload and verification load matching a 3-peer
// SimpleNN round.
type PBFTCalibrationConfig struct {
	// Validators are the committee sizes to calibrate (nil = the
	// standard {4, 7, 10, 13, 16, 31} ladder).
	Validators []int
	// Dists are the per-hop delay distributions to calibrate under
	// (nil = one representative of each family at a 25 ms mean).
	Dists []Dist
	// Rounds is the simulated rounds averaged per cell
	// (0 = latmodel.DefaultSimRounds).
	Rounds int
	// Seed drives the simulation's per-hop draws; each cell derives an
	// independent stream from it (default 1).
	Seed uint64
	// Parallelism bounds the worker pool (0 = all cores, 1 =
	// sequential; the report is bit-identical at every setting).
	Parallelism int
	// PayloadBytes / Updates / VerifyMs / PerKBMs set the modeled
	// batch load so the deterministic terms are exercised too
	// (defaults: a 3-update SimpleNN submission block).
	PayloadBytes int
	Updates      int
	VerifyMs     float64
	PerKBMs      float64
}

func (c PBFTCalibrationConfig) withDefaults() PBFTCalibrationConfig {
	if c.Validators == nil {
		c.Validators = []int{4, 7, 10, 13, 16, 31}
	}
	if c.Dists == nil {
		c.Dists = []Dist{
			{Kind: DistFixed, Mean: 25},
			{Kind: DistUniform, Mean: 25, Jitter: 0.5},
			{Kind: DistExponential, Mean: 25},
			{Kind: DistLogNormal, Mean: 25, Jitter: 0.5},
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PayloadBytes == 0 && c.Updates == 0 && c.VerifyMs == 0 && c.PerKBMs == 0 {
		// One 3-peer SimpleNN submission block: 3 × ~247 KB of encoded
		// float32 weights, verified at 5 ms each, serialized at the
		// pbft backend's 0.08 ms/KB.
		c.PayloadBytes = 741_000
		c.Updates = 3
		c.VerifyMs = 5
		c.PerKBMs = 0.08
	}
	return c
}

// PBFTCalibrationRow is one calibration cell: a (distribution,
// committee) point with its analytic prediction, simulated mean, and
// their relative disagreement.
type PBFTCalibrationRow struct {
	// Dist names the per-hop delay family ("fixed", "uniform", ...).
	Dist string
	// Validators is the committee size n; Quorum is 2f+1 of n = 3f+1;
	// Messages is the round's total message count (n−1)·2n.
	Validators int
	Quorum     int
	Messages   int
	// PredictedMs is the closed-form expected round latency;
	// SimulatedMs the event-level simulation's mean over the
	// configured rounds.
	PredictedMs float64
	SimulatedMs float64
	// RelErr is |predicted − simulated| / simulated.
	RelErr float64
}

// PBFTCalibrationReport is CalibratePBFT's output: one row per
// (distribution, committee) cell, in distribution-major order.
type PBFTCalibrationReport struct {
	Rows []PBFTCalibrationRow
	// Rounds is the simulated rounds each cell averaged over.
	Rounds int
	// Tolerance echoes PBFTCalibrationTolerance, the bound every row
	// is expected to meet.
	Tolerance float64
}

// MaxRelErr is the report's worst row disagreement.
func (r *PBFTCalibrationReport) MaxRelErr() float64 {
	var max float64
	for _, row := range r.Rows {
		if row.RelErr > max {
			max = row.RelErr
		}
	}
	return max
}

// Table renders the calibration grid.
func (r *PBFTCalibrationReport) Table() string {
	tab := metrics.NewTable(
		fmt.Sprintf("PBFT latency calibration: analytic model vs event-level simulation (%d rounds/cell, tolerance %.0f%%)",
			r.Rounds, r.Tolerance*100),
		"per-hop dist", "validators", "quorum", "messages", "predicted (ms)", "simulated (ms)", "rel err")
	for _, row := range r.Rows {
		tab.Add(row.Dist, fmt.Sprint(row.Validators), fmt.Sprint(row.Quorum), fmt.Sprint(row.Messages),
			fmt.Sprintf("%.2f", row.PredictedMs), fmt.Sprintf("%.2f", row.SimulatedMs),
			fmt.Sprintf("%.2f%%", row.RelErr*100))
	}
	return tab.ASCII()
}

// CalibratePBFT runs the PBFT latency calibration grid: for every
// (distribution, committee) cell it evaluates the closed-form
// prediction and the event-level vclock simulation, and reports both
// with their relative error. Cells run concurrently under
// cfg.Parallelism; each derives an independent seed from (Seed, cell
// index), so the report is bit-identical at every parallelism.
func CalibratePBFT(cfg PBFTCalibrationConfig) (*PBFTCalibrationReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Rounds == 0 {
		cfg.Rounds = latmodel.DefaultSimRounds
	}
	type cell struct {
		dist Dist
		n    int
	}
	var cells []cell
	for _, d := range cfg.Dists {
		for _, n := range cfg.Validators {
			cells = append(cells, cell{dist: d, n: n})
		}
	}
	workers := cfg.Parallelism
	rows, err := par.Map(workers, len(cells), func(i int) (PBFTCalibrationRow, error) {
		c := cells[i]
		model := latmodel.Config{
			Validators:   c.n,
			PerHop:       c.dist,
			PayloadBytes: cfg.PayloadBytes,
			PerKBMs:      cfg.PerKBMs,
			Updates:      cfg.Updates,
			VerifyMs:     cfg.VerifyMs,
		}
		predicted, err := latmodel.PredictRoundLatencyMs(model)
		if err != nil {
			return PBFTCalibrationRow{}, fmt.Errorf("waitornot: calibration cell %s/n=%d: %w", c.dist.Kind, c.n, err)
		}
		simulated, err := latmodel.SimulateRoundLatencyMs(latmodel.SimConfig{
			Config: model,
			Rounds: cfg.Rounds,
			// A per-cell seed keeps every cell's draw stream independent
			// of scheduling order and of the other cells.
			Seed: cfg.Seed*1_000_003 + uint64(i)*7919,
		})
		if err != nil {
			return PBFTCalibrationRow{}, fmt.Errorf("waitornot: calibration cell %s/n=%d: %w", c.dist.Kind, c.n, err)
		}
		return PBFTCalibrationRow{
			Dist:        c.dist.Kind.String(),
			Validators:  c.n,
			Quorum:      latmodel.Quorum(c.n),
			Messages:    latmodel.MessageCount(c.n),
			PredictedMs: predicted,
			SimulatedMs: simulated,
			RelErr:      relErr(predicted, simulated),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &PBFTCalibrationReport{Rows: rows, Rounds: cfg.Rounds, Tolerance: PBFTCalibrationTolerance}, nil
}

// relErr is |predicted − simulated| / simulated.
func relErr(predicted, simulated float64) float64 {
	d := predicted - simulated
	if d < 0 {
		d = -d
	}
	return d / simulated
}
