// Durable-campaign tests: RunCampaign must persist every cell as it
// lands, survive a kill at any instant — ctx cancel, torn final write,
// SIGKILL — and resume to final tables byte-identical to an
// uninterrupted RunSweep, recomputing only the missing cells, at any
// Parallelism in any session.
package waitornot_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"waitornot"
	"waitornot/internal/campaign"
	"waitornot/internal/testutil"
)

// goldenCampaignExperiment mirrors runGoldenSweep's configuration
// (seeds {1,2,3} × {wait-all, first-1} × {pow, instant} = 12 cells)
// without running it, so campaign tests drive the same grid the sweep
// goldens pin.
func goldenCampaignExperiment(parallelism int, extra ...waitornot.Option) *waitornot.Experiment {
	opts := sweepOpts()
	opts.Parallelism = parallelism
	expOpts := append([]waitornot.Option{
		waitornot.WithKind(waitornot.KindTradeoff),
		waitornot.WithPolicies(sweepPolicies()...),
		waitornot.WithBackends("pow", "instant"),
		waitornot.WithSeeds(1, 2, 3),
	}, extra...)
	return waitornot.New(opts, expOpts...)
}

// sameReport asserts every rendering of two sweep reports is
// byte-identical — tables, both CSVs, and the JSON export.
func sameReport(t *testing.T, label string, got, want *waitornot.SweepReport) {
	t.Helper()
	if got.Table() != want.Table() {
		t.Fatalf("%s: tables differ:\n--- got ---\n%s\n--- want ---\n%s", label, got.Table(), want.Table())
	}
	if got.CSV() != want.CSV() || got.RunsCSV() != want.RunsCSV() {
		t.Fatalf("%s: CSV exports differ", label)
	}
	gotJSON, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("%s: JSON exports differ", label)
	}
}

// TestCampaignMatchesSweep: an uninterrupted campaign is the sweep
// plus persistence — identical bytes out, at Parallelism 1 and NumCPU,
// and pinned to the same golden the sweep tests pin.
func TestCampaignMatchesSweep(t *testing.T) {
	want := runGoldenSweep(t, 1)
	for _, parallelism := range []int{1, 0} {
		dir := t.TempDir()
		rep, err := goldenCampaignExperiment(parallelism).RunCampaign(context.Background(), dir)
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, "fresh campaign", rep, want)
	}
	testutil.GoldenFile(t, filepath.Join("testdata", "sweep_table.golden"), []byte(want.Table()))
}

// campaignCounter tallies a campaign's progress stream and optionally
// cancels after n landed (non-restored) cells.
type campaignCounter struct {
	restored int
	computed int
	cancelAt int
	cancel   context.CancelFunc
}

func (c *campaignCounter) OnEvent(ev waitornot.Event) {
	e, ok := ev.(waitornot.SweepProgress)
	if !ok {
		return
	}
	if e.Restored {
		c.restored++
		return
	}
	c.computed++
	if c.cancel != nil && c.computed == c.cancelAt {
		c.cancel()
	}
}

// interruptCampaign runs the golden campaign into dir, cancelling the
// context after cancelAt cells have durably landed, and returns how
// many landed events were observed before the run stopped.
func interruptCampaign(t *testing.T, dir string, parallelism, cancelAt int) int {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	counter := &campaignCounter{cancelAt: cancelAt, cancel: cancel}
	_, err := goldenCampaignExperiment(parallelism, waitornot.WithObserver(counter)).RunCampaign(ctx, dir)
	if err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
	if counter.computed < cancelAt {
		t.Fatalf("cancelled after %d cells, wanted at least %d", counter.computed, cancelAt)
	}
	return counter.computed
}

// TestCampaignResumeAfterCancel is the acceptance criterion: kill a
// campaign mid-run (ctx cancel after a few durable cells), resume it —
// at Parallelism 1 and at NumCPU — and the final report must be
// byte-identical to the uninterrupted run, with every landed cell
// restored rather than recomputed.
func TestCampaignResumeAfterCancel(t *testing.T) {
	want := runGoldenSweep(t, 1)
	for _, resumeParallelism := range []int{1, 0} {
		dir := t.TempDir()
		// Start sequentially at any parallelism, kill after 3 landed
		// cells; the fingerprint excludes Parallelism, so the resume may
		// use a different worker count than the original run.
		landed := interruptCampaign(t, dir, 1, 3)
		if landed >= 12 {
			t.Fatalf("interrupted run completed all %d cells; nothing left to resume", landed)
		}

		counter := &campaignCounter{}
		rep, err := goldenCampaignExperiment(resumeParallelism, waitornot.WithObserver(counter)).
			RunCampaign(context.Background(), dir)
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, "resumed campaign", rep, want)
		// No recomputation: everything the first run persisted streams
		// back as restored, and only the remainder was computed.
		if counter.restored < landed {
			t.Fatalf("resume restored %d cells, the interrupted run persisted at least %d", counter.restored, landed)
		}
		if counter.restored+counter.computed != 12 {
			t.Fatalf("resume saw %d restored + %d computed, want 12 total", counter.restored, counter.computed)
		}
	}
}

// TestCampaignResumeMidSeed interrupts a sequential campaign after five
// cells — one into seed 2's four — so the resume's work list starts
// inside a seed and rebuilds that seed's shared world for its remaining
// cells. The resumed log must be byte-identical to an uninterrupted
// campaign's (both sequential, so records land in work-list order).
func TestCampaignResumeMidSeed(t *testing.T) {
	whole := t.TempDir()
	if _, err := goldenCampaignExperiment(1).RunCampaign(context.Background(), whole); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if landed := interruptCampaign(t, dir, 1, 5); landed%4 == 0 {
		t.Fatalf("interrupted after %d cells, a seed boundary; want mid-seed", landed)
	}
	if _, err := goldenCampaignExperiment(1).RunCampaign(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(whole, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed log differs from the uninterrupted one:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCampaignResumeTornTail: a crash mid-append leaves a partial
// final line; the resume must drop it, recompute that cell, and still
// produce byte-identical tables.
func TestCampaignResumeTornTail(t *testing.T) {
	dir := t.TempDir()
	interruptCampaign(t, dir, 1, 3)

	// Simulate the crash cutting the last record mid-write.
	path := filepath.Join(dir, "results.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-len(raw)/4], 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := goldenCampaignExperiment(0).RunCampaign(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "torn-tail resume", rep, runGoldenSweep(t, 1))
}

// TestCampaignRefusesOtherConfig: a campaign directory belongs to one
// configuration; pointing a different grid at it must fail, never fold
// results across grids.
func TestCampaignRefusesOtherConfig(t *testing.T) {
	dir := t.TempDir()
	interruptCampaign(t, dir, 1, 2)

	_, err := goldenCampaignExperiment(1, waitornot.WithSeeds(4, 5, 6)).
		RunCampaign(context.Background(), dir)
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("foreign configuration accepted: %v", err)
	}
	// An empty dir string has nowhere to persist.
	if _, err := goldenCampaignExperiment(1).RunCampaign(context.Background(), ""); err == nil {
		t.Fatal("campaign without a directory accepted")
	}
}

// TestLoadCampaignPartial: the status view reports honest progress and
// a partial table mid-campaign, and converges to the full report.
func TestLoadCampaignPartial(t *testing.T) {
	dir := t.TempDir()
	landed := interruptCampaign(t, dir, 1, 3)

	st, err := waitornot.LoadCampaign(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 12 || st.Done < landed || st.Done >= 12 {
		t.Fatalf("partial status %d/%d, landed at least %d", st.Done, st.Total, landed)
	}
	if st.Kind != "trade-off study" && st.Kind != waitornot.KindTradeoff.String() {
		t.Fatalf("status kind = %q", st.Kind)
	}
	if st.Partial == nil || len(st.Partial.Runs) != st.Done {
		t.Fatalf("partial runs = %d, done = %d", len(st.Partial.Runs), st.Done)
	}
	if st.Partial.Table() == "" {
		t.Fatal("partial table empty")
	}

	rep, err := goldenCampaignExperiment(0).RunCampaign(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err = waitornot.LoadCampaign(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 12 || len(st.Partial.Runs) != 12 {
		t.Fatalf("finished status %d/%d with %d runs", st.Done, st.Total, len(st.Partial.Runs))
	}
	sameReport(t, "finished status", st.Partial, rep)
	if !waitornot.CampaignExists(dir) || waitornot.CampaignExists(t.TempDir()) {
		t.Fatal("CampaignExists misreports")
	}
}

// TestCampaignSIGKILLChild is the helper process for the SIGKILL
// recovery test: it runs the golden campaign sequentially into the
// directory named by the environment and never returns on its own —
// the parent kills it mid-run.
func TestCampaignSIGKILLChild(t *testing.T) {
	dir := os.Getenv("WAITORNOT_CAMPAIGN_DIR")
	if dir == "" {
		t.Skip("helper process for TestCampaignSIGKILLRecovery")
	}
	if _, err := goldenCampaignExperiment(1).RunCampaign(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignSIGKILLRecovery proves crash durability with a real
// kill: a child process (this test binary re-exec'd) runs the campaign
// sequentially, the parent SIGKILLs it as soon as the log holds a
// durable record — no deferred cleanup, no flushing — and the resumed
// campaign still produces tables byte-identical to an uninterrupted
// run.
func TestCampaignSIGKILLRecovery(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCampaignSIGKILLChild$", "-test.v")
	cmd.Env = append(os.Environ(), "WAITORNOT_CAMPAIGN_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait for at least one durably committed record, then kill without
	// warning. Every Append fsyncs a full line, so whatever the log
	// holds at kill time is usable.
	logPath := filepath.Join(dir, "results.jsonl")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if raw, err := os.ReadFile(logPath); err == nil && strings.Count(string(raw), "\n") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("child never committed a record")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // expected to die from the kill; its exit status is irrelevant

	counter := &campaignCounter{}
	rep, err := goldenCampaignExperiment(0, waitornot.WithObserver(counter)).
		RunCampaign(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if counter.restored < 1 {
		t.Fatal("nothing restored from the killed run's log")
	}
	sameReport(t, "post-SIGKILL resume", rep, runGoldenSweep(t, 1))
}

// rewriteRecord hand-edits field overrides into the first record of a
// campaign's log, simulating identity corruption a resume must catch.
func rewriteRecord(t *testing.T, dir string, mutate func(rec map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, "results.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	mutate(rec)
	edited, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	lines[0] = string(edited)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignRejectsTamperedLog: every identity field of a persisted
// record is validated on resume — an index outside the grid, an ID the
// configuration does not derive, or a payload whose coordinates
// contradict the work list all refuse to fold in. The status view
// reads the log through the same checks and refuses the same records,
// with the same messages; only an index outside the grid is skipped
// there (TestLoadCampaignRejectsCorruptManifest).
func TestCampaignRejectsTamperedLog(t *testing.T) {
	cases := []struct {
		name       string
		mutate     func(rec map[string]any)
		want       string
		resumeOnly bool
	}{
		{"index-out-of-range", func(rec map[string]any) { rec["index"] = 99 }, "outside the", true},
		{"foreign-id", func(rec map[string]any) { rec["id"] = strings.Repeat("d", 32) }, "different grid", false},
		{"payload-not-a-run", func(rec map[string]any) { rec["payload"] = "zzz" }, "payload", false},
		{"payload-wrong-cell", func(rec map[string]any) {
			payload := rec["payload"].(map[string]any)
			payload["seed"] = 77
		}, "the grid says", false},
		{"payload-wrong-policy", func(rec map[string]any) {
			payload := rec["payload"].(map[string]any)
			payload["policy"] = "first-9"
		}, "the grid says", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			interruptCampaign(t, dir, 1, 2)
			rewriteRecord(t, dir, tc.mutate)
			if !tc.resumeOnly {
				if _, err := waitornot.LoadCampaign(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("tampered log (%s) shown by the status view: %v", tc.name, err)
				}
			}
			_, err := goldenCampaignExperiment(1).RunCampaign(context.Background(), dir)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("tampered log (%s) not refused: %v", tc.name, err)
			}
		})
	}
}

// TestLoadCampaignRejectsCorruptManifest: the status view is lenient
// about stray records but strict about the manifest itself.
func TestLoadCampaignRejectsCorruptManifest(t *testing.T) {
	if _, err := waitornot.LoadCampaign(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("LoadCampaign of a non-campaign succeeded")
	}

	dir := t.TempDir()
	interruptCampaign(t, dir, 1, 2)
	path := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}

	// A grid size contradicting the stored config is corruption.
	m["total_cells"] = 7
	edited, _ := json.Marshal(m)
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := waitornot.LoadCampaign(dir); err == nil || !strings.Contains(err.Error(), "its config derives") {
		t.Fatalf("total/config contradiction not refused: %v", err)
	}

	// An unparseable config snapshot is corruption too.
	m["total_cells"] = 12
	m["config"] = 123
	edited, _ = json.Marshal(m)
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := waitornot.LoadCampaign(dir); err == nil || !strings.Contains(err.Error(), "config snapshot") {
		t.Fatalf("corrupt config snapshot not refused: %v", err)
	}

	// Stray records (an index outside the grid) are skipped by the
	// status view, not fatal: the log may belong to a newer format.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rewriteRecord(t, dir, func(rec map[string]any) { rec["index"] = 99 })
	st, err := waitornot.LoadCampaign(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 {
		t.Fatalf("status counted the stray record: done = %d", st.Done)
	}
}

// TestCampaignFormatV1Directory: a directory written before the Options
// audit — format v1, with three more option keys in its snapshot than
// v2, the two warm-start keys every format before v4 had, and the
// policy kind and float-ms timeout every format before v5 had.
func TestCampaignFormatV1Directory(t *testing.T) {
	refuseOldFormat(t, 1, "FilterMinAccuracy", "Validators", "StalenessHalfLifeMs", "PretrainSamples", "PretrainEpochs", "Kind", "TimeoutMs")
}

// TestCampaignFormatV2Directory: a directory written before a shard
// became a block of the fleet's one world — format v2, whose sharded
// cells trained on per-shard populations (and whose snapshot still
// had the two warm-start keys).
func TestCampaignFormatV2Directory(t *testing.T) {
	refuseOldFormat(t, 2, "PretrainSamples", "PretrainEpochs", "Kind", "TimeoutMs")
}

// TestCampaignFormatV3Directory: a directory written before the
// warm-start options went — format v3, with their two keys in its
// snapshot.
func TestCampaignFormatV3Directory(t *testing.T) {
	refuseOldFormat(t, 3, "PretrainSamples", "PretrainEpochs", "Kind", "TimeoutMs")
}

// TestCampaignFormatV4Directory: a directory written before a policy
// became the engine's {K, Deadline} — format v4, whose policy objects
// carried a kind and a float-ms timeout instead of a Deadline.
func TestCampaignFormatV4Directory(t *testing.T) {
	refuseOldFormat(t, 4, "Kind", "TimeoutMs")
}

// TestCampaignOldFormatIDsNameBothFormats: a v4 log's cell IDs hash its
// policies' old JSON, so under v5 they do not re-derive. The status
// view then names both formats, not a different grid; a current-format
// log with the same stray ID keeps the different-grid message.
func TestCampaignOldFormatIDsNameBothFormats(t *testing.T) {
	for _, format := range []int{campaign.FormatVersion - 1, campaign.FormatVersion} {
		dir := t.TempDir()
		interruptCampaign(t, dir, 1, 3)
		editManifest(t, dir, func(m map[string]any) {
			m["format"], m["config"].(map[string]any)["format"] = format, format
		})
		rewriteRecord(t, dir, func(rec map[string]any) { rec["id"] = strings.Repeat("0", 32) })
		_, err := waitornot.LoadCampaign(dir)
		want := fmt.Sprintf("format v%d, this build derives v%d cell IDs", format, campaign.FormatVersion)
		if format == campaign.FormatVersion {
			want = "the log belongs to a different grid"
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d log with a stray ID: err = %v, want %q", format, err, want)
		}
	}
}

// oldPolicyKeys are the keys a policy object had before format v5; it
// had no Deadline.
var oldPolicyKeys = map[string]bool{"Kind": true, "TimeoutMs": true}

// editManifest rewrites dir's manifest.json through mutate.
func editManifest(t *testing.T, dir string, mutate func(m map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	mutate(m)
	edited, _ := json.Marshal(m)
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
}

// refuseOldFormat rewrites a campaign directory to an older format —
// the keys that format had added to its snapshot, on the options or,
// for oldPolicyKeys, on every policy object — and checks it still
// reads for the status view while a resume refuses it with the format
// message, not the fingerprint one.
func refuseOldFormat(t *testing.T, format int, extraKeys ...string) {
	dir := t.TempDir()
	interruptCampaign(t, dir, 1, 3)
	before, err := waitornot.LoadCampaign(dir)
	if err != nil {
		t.Fatal(err)
	}
	editManifest(t, dir, func(m map[string]any) {
		config := m["config"].(map[string]any)
		m["format"], config["format"] = format, format
		options := config["options"].(map[string]any)
		policies := []any{options["Policy"]}
		policies = append(policies, config["ladder"].([]any)...)
		for _, v := range config["variants"].([]any) {
			policies = append(policies, v.(map[string]any)["policy"])
		}
		for _, key := range extraKeys {
			if !oldPolicyKeys[key] {
				options[key] = 0
				continue
			}
			for _, p := range policies {
				p.(map[string]any)[key] = 0
				delete(p.(map[string]any), "Deadline")
			}
		}
	})

	after, err := waitornot.LoadCampaign(dir)
	if err != nil {
		t.Fatalf("v%d directory unreadable: %v", format, err)
	}
	if after.Done != before.Done || after.Partial.Table() != before.Partial.Table() {
		t.Fatalf("v%d status differs:\n%s\nwant:\n%s", format, after.Partial.Table(), before.Partial.Table())
	}
	_, err = goldenCampaignExperiment(1).RunCampaign(context.Background(), dir)
	if want := fmt.Sprintf("format v%d, this build writes v%d", format, campaign.FormatVersion); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("v%d resume not refused by format: %v", format, err)
	}
}
