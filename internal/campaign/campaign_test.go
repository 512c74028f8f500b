// Durability-layer tests: the campaign log must hand back exactly the
// records that were durably committed — dropping (and truncating away)
// a torn final line, refusing corruption anywhere else, and gating
// resumes on the manifest fingerprint.
package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func manifestFor(total int) Manifest {
	return Manifest{
		Format:      FormatVersion,
		Fingerprint: "fp-test",
		Total:       total,
		Config:      json.RawMessage(`{"grid":"test"}`),
	}
}

func record(i int) Record {
	return Record{
		Index:   i,
		ID:      fmt.Sprintf("cell-%04d", i),
		Payload: json.RawMessage(fmt.Sprintf(`{"seed":%d,"acc":0.%d}`, i+1, i)),
	}
}

func appendAll(t *testing.T, log *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := log.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCreateAppendResume is the round trip: records appended before a
// close come back from resume in append order, payloads intact.
func TestCreateAppendResume(t *testing.T) {
	dir := t.TempDir()
	if Exists(dir) {
		t.Fatal("empty dir reported as a campaign")
	}
	log, err := Create(dir, manifestFor(5))
	if err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("created campaign not detected")
	}
	appendAll(t, log, 3)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, records, err := resume(dir, manifestFor(5))
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(records) != 3 {
		t.Fatalf("resumed %d records, want 3", len(records))
	}
	for i, r := range records {
		want := record(i)
		if r.Index != want.Index || r.ID != want.ID || string(r.Payload) != string(want.Payload) {
			t.Fatalf("record %d round-tripped as %+v, want %+v", i, r, want)
		}
	}
	// The reopened log appends on a clean boundary.
	if err := log2.Append(record(3)); err != nil {
		t.Fatal(err)
	}
	_, records, err = resume(dir, manifestFor(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 {
		t.Fatalf("after append-on-resume: %d records, want 4", len(records))
	}
}

// TestCreateRefusesExisting: starting a campaign over an existing one
// must fail loudly, never overwrite.
func TestCreateRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	log, err := Create(dir, manifestFor(2))
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if _, err := Create(dir, manifestFor(2)); err == nil {
		t.Fatal("Create over an existing campaign succeeded")
	}
}

// TestTornTail: a final line cut mid-record is dropped, truncated away
// on resume, and the next Append lands cleanly after the survivors.
func TestTornTail(t *testing.T) {
	for _, cut := range []string{"no-newline", "garbage-line", "valid-json-no-newline"} {
		t.Run(cut, func(t *testing.T) {
			dir := t.TempDir()
			log, err := Create(dir, manifestFor(5))
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, log, 2)
			log.Close()

			path := filepath.Join(dir, logName)
			switch cut {
			case "no-newline":
				// A record whose write was cut mid-line.
				full, _ := json.Marshal(record(2))
				appendRaw(t, path, string(full[:len(full)/2]))
			case "garbage-line":
				// A partial flush that happened to include a newline.
				appendRaw(t, path, "{\"index\":2,\"id\n")
			case "valid-json-no-newline":
				// The whole record landed but the newline never did: still
				// torn — Append assumes it owns a clean boundary.
				full, _ := json.Marshal(record(2))
				appendRaw(t, path, string(full))
			}
			tornSize := fileSize(t, path)

			log2, records, err := resume(dir, manifestFor(5))
			if err != nil {
				t.Fatal(err)
			}
			if len(records) != 2 {
				t.Fatalf("resumed %d records, want the 2 committed ones", len(records))
			}
			if got := fileSize(t, path); got >= tornSize {
				t.Fatalf("torn tail not truncated: %d bytes, was %d", got, tornSize)
			}
			if err := log2.Append(record(2)); err != nil {
				t.Fatal(err)
			}
			log2.Close()
			_, records, err = resume(dir, manifestFor(5))
			if err != nil {
				t.Fatal(err)
			}
			if len(records) != 3 || records[2].ID != record(2).ID {
				t.Fatalf("append after truncation: records = %+v", records)
			}
		})
	}
}

// TestMidFileCorruption: a malformed line that is NOT the tail can
// never come from a torn write — it must be an error, not a skip.
func TestMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	log, err := Create(dir, manifestFor(5))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, log, 1)
	log.Close()

	path := filepath.Join(dir, logName)
	appendRaw(t, path, "not json at all\n")
	full, _ := json.Marshal(record(2))
	appendRaw(t, path, string(full)+"\n")

	if _, _, err := resume(dir, manifestFor(5)); err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("mid-file corruption not reported: %v", err)
	}
	if _, _, err := Read(dir); err == nil {
		t.Fatal("Read accepted mid-file corruption")
	}
}

// TestResumeRefusesMismatch: a campaign belongs to one configuration —
// fingerprint, grid size, and format are all resume gates.
func TestResumeRefusesMismatch(t *testing.T) {
	dir := t.TempDir()
	log, err := Create(dir, manifestFor(5))
	if err != nil {
		t.Fatal(err)
	}
	log.Close()

	other := manifestFor(5)
	other.Fingerprint = "fp-other"
	if _, _, err := resume(dir, other); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("fingerprint mismatch not refused: %v", err)
	}
	bigger := manifestFor(6)
	if _, _, err := resume(dir, bigger); err == nil {
		t.Fatal("grid-size mismatch not refused")
	}
	newer := manifestFor(5)
	newer.Format = FormatVersion + 1
	if _, _, err := resume(dir, newer); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("format mismatch not refused: %v", err)
	}
}

// TestDuplicateRecordsKeepFirst: cells are deterministic, so a
// duplicate ID is a byte-identical re-run — keep the first, count once.
func TestDuplicateRecordsKeepFirst(t *testing.T) {
	dir := t.TempDir()
	log, err := Create(dir, manifestFor(5))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, log, 2)
	if err := log.Append(record(0)); err != nil {
		t.Fatal(err)
	}
	log.Close()

	_, records, err := resume(dir, manifestFor(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || records[0].Index != 0 || records[1].Index != 1 {
		t.Fatalf("dedupe failed: %+v", records)
	}
}

// TestAppendRejectsEmptyID: the ID is the record's identity; a blank
// one would poison dedupe and torn-tail detection.
func TestAppendRejectsEmptyID(t *testing.T) {
	dir := t.TempDir()
	log, err := Create(dir, manifestFor(1))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := log.Append(Record{Index: 0}); err == nil {
		t.Fatal("record without ID accepted")
	}
}

// TestReadTolerantOfLiveLog: Read never truncates — a still-appending
// writer's torn tail must survive inspection untouched.
func TestReadTolerantOfLiveLog(t *testing.T) {
	dir := t.TempDir()
	log, err := Create(dir, manifestFor(5))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, log, 2)
	log.Close()
	path := filepath.Join(dir, logName)
	appendRaw(t, path, `{"index":2,"id":"half`)
	size := fileSize(t, path)

	m, records, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint != "fp-test" || len(records) != 2 {
		t.Fatalf("Read returned fp %q, %d records", m.Fingerprint, len(records))
	}
	if got := fileSize(t, path); got != size {
		t.Fatalf("Read modified the log: %d bytes, was %d", got, size)
	}
}

// TestReadMissingDir: inspecting a non-campaign is a clean error.
func TestReadMissingDir(t *testing.T) {
	if _, _, err := Read(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Read of a non-campaign succeeded")
	}
}

func appendRaw(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestOpenCreatesThenResumes: Open is the idempotent entry point —
// create on an empty directory, resume on a populated one.
func TestOpenCreatesThenResumes(t *testing.T) {
	dir := t.TempDir()
	log, records, err := Open(dir, manifestFor(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh Open returned %d records", len(records))
	}
	appendAll(t, log, 2)
	log.Close()

	log2, records, err := Open(dir, manifestFor(3))
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(records) != 2 {
		t.Fatalf("reopening returned %d records, want 2", len(records))
	}
}

// TestCorruptManifest: a directory with an unparseable manifest is an
// error on every entry point, never treated as empty.
func TestCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := resume(dir, manifestFor(1)); err == nil || !strings.Contains(err.Error(), "corrupt manifest") {
		t.Fatalf("corrupt manifest not refused on Resume: %v", err)
	}
	if _, _, err := Read(dir); err == nil {
		t.Fatal("corrupt manifest not refused on Read")
	}
	if _, _, err := Open(dir, manifestFor(1)); err == nil {
		t.Fatal("corrupt manifest not refused on Open")
	}
}

// TestMismatchErrorTruncatesFingerprints: real fingerprints are 64 hex
// chars; the mismatch message shows a readable prefix, not the pair in
// full.
func TestMismatchErrorTruncatesFingerprints(t *testing.T) {
	long := manifestFor(2)
	long.Fingerprint = strings.Repeat("a", 64)
	dir := t.TempDir()
	log, err := Create(dir, long)
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	other := manifestFor(2)
	other.Fingerprint = strings.Repeat("b", 64)
	_, _, err = resume(dir, other)
	if err == nil || strings.Contains(err.Error(), long.Fingerprint) || !strings.Contains(err.Error(), "aaaaaaaaaaaa…") {
		t.Fatalf("mismatch message should carry truncated fingerprints: %v", err)
	}
}
