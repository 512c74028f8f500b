// Package campaign is the durable persistence layer under long-running
// replication sweeps: a campaign directory holding a manifest (the
// configuration snapshot the results belong to) and an append-only
// JSONL log of completed cells, one fsync'd record per cell.
//
// # Durability contract
//
//   - A record returned by Open or Read was durably committed: every
//     Append writes one full line and fsyncs before returning, so a
//     process killed at any instant loses at most the line it was
//     mid-writing.
//   - The log tolerates exactly that loss: a torn final line (partial
//     write, no trailing newline, or trailing garbage from a crashed
//     writer) is dropped — and truncated away on resume so the next
//     Append starts on a clean line boundary. A malformed line
//     anywhere *before* the tail is corruption and is reported as an
//     error, never skipped silently.
//   - The manifest is written atomically (temp file + rename + dir
//     fsync) before the log accepts its first record, so a directory
//     either is a campaign or is not — never half of one.
//
// # Compatibility contract
//
// Open refuses to resume a directory whose manifest fingerprint
// differs from the caller's: results from one configuration must never
// be folded into another's tables. The fingerprint is the caller's
// hash of every result-relevant knob (the waitornot layer hashes the
// full options snapshot and sweep axes, excluding Parallelism —
// results are bit-identical at any worker count, so a campaign may be
// resumed at a different one).
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// FormatVersion is the on-disk format this package reads and writes.
// Bump it on any incompatible change to the manifest or record schema,
// or to what a configuration computes (v3: a sharded cell's shards
// split one world; v4: the snapshot's options lost the two warm-start
// keys; v5: a policy is {K, Deadline}, no longer {Kind, K, TimeoutMs},
// in the snapshot and in every cell ID); a resume rejects mismatches.
const FormatVersion = 5

// manifestName and logName are the two files of a campaign directory.
const (
	manifestName = "manifest.json"
	logName      = "results.jsonl"
)

// Manifest identifies what a campaign directory holds: the format
// version, the caller's configuration fingerprint, the grid size, and
// the full configuration snapshot (opaque to this package — kept so
// status tooling can rebuild tables without the original process).
type Manifest struct {
	Format      int             `json:"format"`
	Fingerprint string          `json:"fingerprint"`
	Total       int             `json:"total_cells"`
	Config      json.RawMessage `json:"config,omitempty"`
}

// Record is one completed cell: its position in the flat work list,
// its deterministic cell ID, and the caller's result payload.
type Record struct {
	Index   int             `json:"index"`
	ID      string          `json:"id"`
	Payload json.RawMessage `json:"payload"`
}

// Log is the append side of a campaign's results file. Append is safe
// for concurrent use (worker pools land cells in completion order).
type Log struct {
	mu sync.Mutex
	f  *os.File
}

// Append durably commits one record: a single JSON line, written and
// fsync'd before returning.
func (l *Log) Append(r Record) error {
	if r.ID == "" {
		return fmt.Errorf("campaign: record for cell %d has no ID", r.Index)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("campaign: marshal record %d: %w", r.Index, err)
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(line); err != nil {
		return fmt.Errorf("campaign: append record %d: %w", r.Index, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("campaign: fsync record %d: %w", r.Index, err)
	}
	return nil
}

// Close closes the underlying file. Append must not be called after.
func (l *Log) Close() error { return l.f.Close() }

// Exists reports whether dir already holds a campaign manifest.
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Create initializes a fresh campaign directory: the manifest is
// written atomically, then an empty results log is opened for append.
// It fails if dir already holds a campaign.
func Create(dir string, m Manifest) (*Log, error) {
	if Exists(dir) {
		return nil, fmt.Errorf("campaign: %s already holds a campaign (resume it, or pick a fresh directory)", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("campaign: marshal manifest: %w", err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := writeFileSync(tmp, append(raw, '\n')); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return nil, fmt.Errorf("campaign: commit manifest: %w", err)
	}
	syncDir(dir)
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: open log: %w", err)
	}
	return &Log{f: f}, nil
}

// resume reopens an existing campaign directory for the configuration
// described by m: the stored manifest must match m's format,
// fingerprint, and grid size. It returns the durably committed records
// (torn tail dropped and truncated away) and the log reopened for
// append on a clean line boundary.
func resume(dir string, m Manifest) (*Log, []Record, error) {
	stored, err := readManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	if stored.Format != m.Format {
		return nil, nil, fmt.Errorf("campaign: %s is format v%d, this build writes v%d (finish it with the build that started it)",
			dir, stored.Format, m.Format)
	}
	if stored.Fingerprint != m.Fingerprint || stored.Total != m.Total {
		return nil, nil, fmt.Errorf("campaign: %s was started for a different configuration (stored fingerprint %s over %d cells, this run is %s over %d): results from one grid must not be folded into another — point -campaign-dir at a fresh directory",
			dir, short(stored.Fingerprint), stored.Total, short(m.Fingerprint), m.Total)
	}
	path := filepath.Join(dir, logName)
	records, goodEnd, err := readLog(path)
	if err != nil {
		return nil, nil, err
	}
	// Truncate a torn tail away before appending: the next record must
	// start on a line boundary, or it would fuse with the partial line
	// and both would be dropped by the next resume.
	if info, err := os.Stat(path); err == nil && info.Size() > goodEnd {
		if err := os.Truncate(path, goodEnd); err != nil {
			return nil, nil, fmt.Errorf("campaign: truncate torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: open log: %w", err)
	}
	return &Log{f: f}, records, nil
}

// Open creates the campaign if dir holds none, and resumes it
// otherwise — the idempotent entry point RunCampaign uses.
func Open(dir string, m Manifest) (*Log, []Record, error) {
	if !Exists(dir) {
		log, err := Create(dir, m)
		return log, nil, err
	}
	return resume(dir, m)
}

// Read loads a campaign directory for inspection: the stored manifest
// and every durably committed record, with the same torn-tail
// tolerance as a resume but no truncation and no fingerprint check —
// the log may belong to a live, still-appending process.
func Read(dir string) (Manifest, []Record, error) {
	m, err := readManifest(dir)
	if err != nil {
		return Manifest{}, nil, err
	}
	records, _, err := readLog(filepath.Join(dir, logName))
	if err != nil {
		return Manifest{}, nil, err
	}
	return m, records, nil
}

func readManifest(dir string) (Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return Manifest{}, fmt.Errorf("campaign: %s holds no campaign: %w", dir, err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("campaign: corrupt manifest in %s: %w", dir, err)
	}
	return m, nil
}

// readLog parses the results log, returning the committed records and
// the byte offset just past the last good line. A missing file is an
// empty log. Only the final line may be torn (any prefix of a record,
// including a syntactically valid line whose newline never landed);
// malformed lines before it are corruption errors. Duplicate cell IDs
// keep the first occurrence — cells are deterministic, so duplicates
// are byte-identical re-runs, never conflicting data.
func readLog(path string) ([]Record, int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("campaign: read log: %w", err)
	}
	var (
		records []Record
		seen    = map[string]bool{}
		offset  int64
	)
	for len(raw) > 0 {
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			// No newline: the final write never completed. Torn tail.
			return records, offset, nil
		}
		line, rest := raw[:nl], raw[nl+1:]
		var r Record
		if err := json.Unmarshal(line, &r); err != nil || r.ID == "" {
			if len(rest) == 0 {
				// Garbage in the last line: a crashed writer's partial
				// flush that happened to include a newline. Torn tail.
				return records, offset, nil
			}
			return nil, 0, fmt.Errorf("campaign: corrupt record at byte %d of %s (not the final line, so not a torn write): %v",
				offset, path, err)
		}
		if !seen[r.ID] {
			seen[r.ID] = true
			records = append(records, r)
		}
		offset += int64(nl + 1)
		raw = rest
	}
	return records, offset, nil
}

// writeFileSync writes path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("campaign: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("campaign: %w", err)
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed manifest survives a
// crash. Best effort: some filesystems reject directory fsync, and the
// rename itself is already atomic on the ones that matter.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12] + "…"
	}
	return fp
}
