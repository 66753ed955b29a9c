package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"faulthound/internal/fault"
)

// FuzzJournal feeds raw bytes to the journal reader and repair, the
// parsers every resume trusts. Reading never panics and agrees with
// repair; after one repair, a second is a no-op that reads the same
// records; and a record appended after the repair reads back last —
// the repair left a clean line boundary. Seeds live in
// testdata/fuzz/FuzzJournal.
func FuzzJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), JournalName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		read, readErr := ReadJournal(path)
		recs, _, err := repairJournal(path)
		if (readErr == nil) != (err == nil) {
			t.Fatalf("ReadJournal error %v, repairJournal error %v", readErr, err)
		}
		if err != nil {
			return // interior corruption: an error, and the file is left alone
		}
		if !reflect.DeepEqual(read, recs) {
			t.Fatalf("ReadJournal read %+v, repairJournal %+v", read, recs)
		}

		again, repaired, err := repairJournal(path)
		if err != nil || repaired {
			t.Fatalf("second repair: repaired=%v err=%v", repaired, err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("second repair read %+v, first %+v", again, recs)
		}

		extra := Record{Kind: "result", Bench: "bzip2", Scheme: "faulthound", Index: 7,
			Result: &fault.Result{Outcome: fault.SDC, Detected: true, Triggers: 2}}
		j, err := openJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := appendRecord(j, extra); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJournal(path)
		if err != nil {
			t.Fatalf("journal unreadable after repair and append: %v", err)
		}
		want := append(append([]Record(nil), recs...), extra)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after append read %+v, want %+v", got, want)
		}
	})
}
