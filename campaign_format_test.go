// On-disk format pin: a campaign directory outlives the process (and
// the commit) that wrote it, so the manifest's configuration snapshot,
// the fingerprint resumes are gated on, and the cell IDs that key the
// log are compatibility surface. These goldens fail the moment a
// refactor of the structs behind them would strand an existing
// directory — before any table changes.
package waitornot_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"waitornot"
	"waitornot/internal/testutil"
)

// campaignFormat runs exp as a campaign into a fresh directory and
// renders what the directory's identity consists of: manifest.json
// verbatim, then one "index id" line per record in work-list order.
// Payloads (the runs' floats) are pinned by the sweep goldens, not here.
func campaignFormat(t *testing.T, exp *waitornot.Experiment) []byte {
	t.Helper()
	dir := t.TempDir()
	if _, err := exp.RunCampaign(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var cells []string
	for _, line := range strings.Split(strings.TrimSuffix(string(log), "\n"), "\n") {
		var rec struct {
			Index int    `json:"index"`
			ID    string `json:"id"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %q: %v", line, err)
		}
		cells = append(cells, fmt.Sprintf("%03d %s", rec.Index, rec.ID))
	}
	sort.Strings(cells)
	var out bytes.Buffer
	out.Write(bytes.TrimRight(manifest, "\n"))
	out.WriteString("\n")
	out.WriteString(strings.Join(cells, "\n"))
	out.WriteString("\n")
	return out.Bytes()
}

// TestCampaignOnDiskFormatGolden pins manifest.json (snapshot,
// fingerprint, grid size) and every cell ID for one tiny KindTradeoff
// campaign and one KindSharded one. Options has no omitempty, so even
// a never-set field is part of these bytes (DESIGN §10, "Manifest
// compatibility").
func TestCampaignOnDiskFormatGolden(t *testing.T) {
	tradeoff := sweepOpts()
	tradeoff.Parallelism = 1
	testutil.GoldenFile(t, filepath.Join("testdata", "campaign_format_tradeoff.golden"),
		campaignFormat(t, waitornot.New(tradeoff,
			waitornot.WithKind(waitornot.KindTradeoff),
			waitornot.WithPolicies(sweepPolicies()...),
			waitornot.WithBackends("poa", "instant"),
			waitornot.WithSeeds(5),
			waitornot.WithTargetAccuracy(0.05))))

	sharded := shardedOpts()
	sharded.Rounds = 1
	sharded.Parallelism = 1
	testutil.GoldenFile(t, filepath.Join("testdata", "campaign_format_sharded.golden"),
		campaignFormat(t, waitornot.Scenario{
			Name:          "format-pin",
			Kind:          waitornot.KindSharded,
			Options:       sharded,
			Backends:      []string{"instant"},
			ShardCounts:   []int{1, 2},
			MergeCadences: []int{1, 2},
			Seeds:         []uint64{3},
		}.Experiment()))
}
