package waitornot

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"waitornot/internal/campaign"
)

// manifest builds the campaign manifest: the plan's compact JSON is
// the configuration snapshot, stored verbatim so the directory stays
// self-describing, and its SHA-256 is the fingerprint resumes are
// gated on.
func (p *sweepPlan) manifest() (campaign.Manifest, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return campaign.Manifest{}, fmt.Errorf("waitornot: snapshot campaign config: %w", err)
	}
	sum := sha256.Sum256(raw)
	return campaign.Manifest{
		Format:      campaign.FormatVersion,
		Fingerprint: hex.EncodeToString(sum[:]),
		Total:       p.total(),
		Config:      raw,
	}, nil
}

// cellID is the deterministic identity of work item i: a hash of the
// cell's full coordinates — scenario, kind, policy (label and
// parameters), backend, shard configuration, seed, and replication
// index. It keys the cell's JSONL record, so a resumed campaign can
// recognize finished work no matter when, or at what Parallelism, it
// was computed.
func (p *sweepPlan) cellID(i int) string {
	seed, backend, v := p.cell(i)
	key := struct {
		Kind        string `json:"kind"`
		Scenario    string `json:"scenario,omitempty"`
		Label       string `json:"label"`
		Policy      Policy `json:"policy"`
		Backend     string `json:"backend"`
		Shards      int    `json:"shards,omitempty"`
		Cadence     int    `json:"cadence,omitempty"`
		Seed        uint64 `json:"seed"`
		Replication int    `json:"replication"`
	}{p.Kind, p.Scenario, v.Label, v.Policy, backend, v.Shards, v.Cadence, seed, i}
	raw, err := json.Marshal(key)
	if err != nil {
		// Every field is a plain value; Marshal cannot fail. Guard anyway.
		panic(fmt.Sprintf("waitornot: marshal cell key: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:16])
}

// CampaignExists reports whether dir already holds a campaign
// (a manifest written by a previous RunCampaign).
func CampaignExists(dir string) bool { return campaign.Exists(dir) }

// RunCampaign executes the experiment's replication sweep as a durable
// campaign in dir: the sweep's flat work list is keyed by deterministic
// cell IDs, every completed cell is appended to dir's JSONL log (one
// fsync'd record each) the moment it lands, and a campaign that
// already holds results — because a previous run finished part of the
// grid and was killed, cancelled, or crashed mid-write — restores
// those cells from the log and computes only the remainder. The final
// report is byte-identical to an uninterrupted RunSweep of the same
// configuration, at any Parallelism in any session: restored and
// computed runs alike are folded into the per-cell Welford
// accumulators in flat work-list order.
//
// An empty dir starts a campaign: the configuration snapshot and its
// fingerprint are committed to dir/manifest.json before the first
// cell. A dir holding a campaign resumes it — provided the manifest
// fingerprint matches this experiment's configuration (Parallelism
// excluded); a mismatch is an error, never a silent merge of two
// different grids.
//
// Observers receive one SweepProgress per landed cell: restored cells
// (Restored set) first in work-list order, then computed cells in
// work-list order, each computed cell's event firing only after its
// record is durably on disk. Done counts every landed cell, earlier
// sessions' included. Cancellation keeps everything already appended: a
// ctx-cancelled (or SIGKILLed) campaign resumes where it stopped.
func (e *Experiment) RunCampaign(ctx context.Context, dir string) (*SweepReport, error) {
	if dir == "" {
		return nil, fmt.Errorf("waitornot: a campaign needs a directory to persist into")
	}
	return e.runSweep(ctx, dir)
}

// restore checks one logged record against the grid and returns its
// run: the index must lie in the grid, the ID must be the one the plan
// derives for that index, and the payload must be a run at that cell's
// coordinates. A resume and the status view both read the log through
// it, so the status view never shows a cell a resume would refuse.
func (p *sweepPlan) restore(dir string, r campaign.Record) (SweepRun, error) {
	if total := p.total(); r.Index < 0 || r.Index >= total {
		return SweepRun{}, fmt.Errorf("waitornot: campaign %s: record for cell %d outside the %d-cell grid", dir, r.Index, total)
	}
	if want := p.cellID(r.Index); r.ID != want {
		return SweepRun{}, fmt.Errorf("waitornot: campaign %s: cell %d has ID %s, this configuration derives %s (the log belongs to a different grid)",
			dir, r.Index, r.ID, want)
	}
	var run SweepRun
	if err := json.Unmarshal(r.Payload, &run); err != nil {
		return SweepRun{}, fmt.Errorf("waitornot: campaign %s: cell %d payload: %w", dir, r.Index, err)
	}
	seed, backend, v := p.cell(r.Index)
	if run.Seed != seed || run.Policy != v.Label || run.Backend != backend {
		return SweepRun{}, fmt.Errorf("waitornot: campaign %s: cell %d payload is (seed %d, %s, %q), the grid says (seed %d, %s, %q)",
			dir, r.Index, run.Seed, run.Policy, run.Backend, seed, v.Label, backend)
	}
	return run, nil
}

// CampaignState is a campaign directory's inspection view: identity,
// progress, and the partial report over whatever cells have landed —
// readable at any moment, including while another process is still
// appending.
type CampaignState struct {
	// Dir is the campaign directory.
	Dir string
	// Kind identifies the persisted workload (Partial.Scenario names
	// its scenario).
	Kind string
	// Fingerprint is the configuration hash resumes are gated on.
	Fingerprint string
	// Done / Total count landed cells vs the full grid.
	Done  int
	Total int
	// Partial is the mean ± CI report over the landed cells: the same
	// accumulation (and the same bytes per cell) the finished campaign
	// will produce, with not-yet-landed cells at n=0. Its Seeds are the
	// campaign's full replication axis, its Runs the landed cells in
	// flat work-list order, and its Table() the live view repro
	// -campaign-status prints.
	Partial *SweepReport
}

// LoadCampaign inspects a campaign directory without running anything:
// the manifest's configuration snapshot rebuilds the grid, the JSONL
// log (torn tail tolerated, never modified) fills in the landed cells,
// and the partial mean ± CI report is assembled from them in flat
// work-list order — deterministic for a given set of landed cells.
// Each record passes the checks a resume makes, so a log a resume
// would refuse is an error here too; only a record outside the grid is
// skipped rather than fatal. An older format's snapshot is read as far
// as it parses; when its cell IDs do not re-derive, the error names
// both formats rather than a different grid.
func LoadCampaign(dir string) (*CampaignState, error) {
	m, records, err := campaign.Read(dir)
	if err != nil {
		return nil, err
	}
	var plan sweepPlan
	if err := json.Unmarshal(m.Config, &plan); err != nil {
		return nil, fmt.Errorf("waitornot: campaign %s: corrupt config snapshot: %w", dir, err)
	}
	total := plan.total()
	if m.Total != total {
		return nil, fmt.Errorf("waitornot: campaign %s: manifest says %d cells, its config derives %d", dir, m.Total, total)
	}
	runs := make([]SweepRun, total)
	done := make([]bool, total)
	for _, r := range records {
		if r.Index < 0 || r.Index >= total {
			continue
		}
		if m.Format != campaign.FormatVersion && r.ID != plan.cellID(r.Index) {
			return nil, fmt.Errorf("waitornot: campaign %s is format v%d, this build derives v%d cell IDs: cell %d's ID %s does not re-derive (read it with the build that wrote it)",
				dir, m.Format, campaign.FormatVersion, r.Index, r.ID)
		}
		run, err := plan.restore(dir, r)
		if err != nil {
			return nil, err
		}
		runs[r.Index], done[r.Index] = run, true
	}
	partial := plan.report(runs, done)
	return &CampaignState{
		Dir:         dir,
		Kind:        plan.Kind,
		Fingerprint: m.Fingerprint,
		Done:        len(partial.Runs),
		Total:       total,
		Partial:     partial,
	}, nil
}
