package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"faulthound/internal/fault"
)

// JournalName is the journal's file name inside a run directory.
const JournalName = "journal.jsonl"

// Record is one journal line. Kind "prep" records a cell's golden-run
// preparation (its fault-free false-positive rate); kind "result"
// records one completed injection. The journal is append-only: a
// campaign killed mid-flight leaves every completed injection on disk,
// and a resume run replays the journal instead of re-executing them.
type Record struct {
	Kind   string        `json:"kind"` // "prep" | "result"
	Bench  string        `json:"bench"`
	Scheme string        `json:"scheme"`
	Index  int           `json:"index,omitempty"`
	FPRate float64       `json:"fp_rate,omitempty"`
	Result *fault.Result `json:"result,omitempty"`
}

// openJournal opens a run's journal for appending, creating it if
// absent.
func openJournal(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// appendRecord writes r as one line — record and newline in a single
// write — so a killed process loses at most the record being written.
// A nil journal (an in-memory run) records nothing.
func appendRecord(f *os.File, r Record) error {
	if f == nil {
		return nil
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	return err
}

// ReadJournal parses a journal file. A torn final line (the record
// being written when the process died, recognizable by its missing
// newline or malformed JSON) is ignored; malformed interior lines are
// an error. A missing file yields no records.
func ReadJournal(path string) ([]Record, error) {
	recs, _, err := readJournalTolerant(path)
	return recs, err
}

// repairJournal reads a journal tolerantly and, when the final record
// is torn (process killed mid-append), cuts the file back to the last
// clean line boundary so subsequent appends do not glue onto the
// partial record. It returns the parsed records and whether a repair
// happened.
func repairJournal(path string) ([]Record, bool, error) {
	recs, truncAt, err := readJournalTolerant(path)
	if err != nil {
		return nil, false, err
	}
	if truncAt < 0 {
		return recs, false, nil
	}
	if err := os.Truncate(path, truncAt); err != nil {
		return nil, false, fmt.Errorf("campaign: repairing truncated journal: %w", err)
	}
	return recs, true, nil
}

// readJournalTolerant is ReadJournal plus the byte offset at which a
// torn trailing record starts (-1 when the journal is clean). Resume
// uses the offset to warn and to truncate the journal before
// appending — appending after a partial record would glue the new
// record onto it and corrupt both, turning a tolerated trailing tear
// into a fatal interior one on the next resume.
func readJournalTolerant(path string) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, -1, nil
	}
	if err != nil {
		return nil, -1, err
	}
	var (
		out   []Record
		bad   int   // line number of a torn or malformed line, 1-based; 0 = none
		badAt int64 // byte offset where that line starts
	)
	for line, rest := 1, data; len(rest) > 0; line++ {
		start := int64(len(data) - len(rest))
		text, after, whole := bytes.Cut(rest, []byte{'\n'})
		rest = after
		if len(text) == 0 {
			continue
		}
		// appendRecord writes a record and its newline in one write, so
		// a final line without the newline is torn even when its JSON
		// happens to be complete.
		var r Record
		if !whole || json.Unmarshal(text, &r) != nil {
			if bad != 0 {
				return nil, -1, fmt.Errorf("campaign: journal %s: malformed line %d", path, bad)
			}
			bad, badAt = line, start // tolerated only if it turns out to be the last line
			continue
		}
		if bad != 0 {
			return nil, -1, fmt.Errorf("campaign: journal %s: malformed line %d", path, bad)
		}
		out = append(out, r)
	}
	if bad == 0 {
		badAt = -1
	}
	return out, badAt, nil
}
