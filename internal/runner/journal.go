package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ConfigKey returns the deterministic resume key for cfg: the SHA-256
// of the canonical JSON of the normalized config (every default
// resolved). Two configs that would produce identical results hash
// identically, so a resumed campaign recognises its completed runs even
// across processes and flag re-orderings.
func ConfigKey(cfg sim.Config) (string, error) {
	b, err := json.Marshal(cfg.Normalized())
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// journalEntry is one JSONL line: the config key plus the completed
// result (which embeds its config, keeping the file self-describing).
type journalEntry struct {
	Key    string      `json:"key"`
	Result *sim.Result `json:"result"`
}

// Journal is an append-only checkpoint of completed results: one
// checksummed JSON line per result, framed and recovered by
// internal/durable. Each Append writes one line and syncs it to stable
// storage, so a killed process loses at most the result it was
// formatting; the torn final line that leaves is trimmed on the next
// OpenJournal. Safe for concurrent Appends.
type Journal struct {
	mu sync.Mutex
	a  *durable.Appender
}

// encodeEntry renders one checksummed journal line (without newline).
func encodeEntry(key string, res *sim.Result) ([]byte, error) {
	payload, err := json.Marshal(journalEntry{Key: key, Result: res})
	if err != nil {
		return nil, err
	}
	return durable.Frame(payload), nil
}

// errIncomplete marks a line that decoded but lacks a key or result.
var errIncomplete = errors.New("journal entry without key or result")

// decodeEntry decodes one journal line, verifying its checksum. Lines
// that start with '{' are legacy entries from pre-checksum journals;
// they still load, so an old resume file keeps working, and compaction
// rewrites them checksummed.
func decodeEntry(line []byte) (journalEntry, error) {
	var e journalEntry
	payload := line
	if line[0] == durable.Sigil {
		var err error
		if payload, err = durable.Unframe(line); err != nil {
			return e, err
		}
	}
	if err := json.Unmarshal(payload, &e); err != nil {
		return e, err
	}
	if e.Key == "" || e.Result == nil {
		return e, errIncomplete
	}
	return e, nil
}

// LoadStats summarises one journal scan so resumes can report exactly
// what they recovered and what they dropped.
type LoadStats struct {
	// Entries counts intact entries loaded.
	Entries int
	// Skipped counts unusable newline-terminated lines — corruption
	// from bit rot, a concurrent writer or manual editing — that were
	// dropped while the scan continued.
	Skipped int
	// CRCFailed is the subset of Skipped dropped because a checksummed
	// line's frame or payload no longer matched its CRC — corruption
	// that would otherwise go undetected whenever the damaged JSON still
	// parsed.
	CRCFailed int
	// TruncatedTail reports a final line without its newline: the one
	// corruption shape a crash mid-append legitimately produces. It is
	// never loaded, however intact its bytes look.
	TruncatedTail bool
}

// LoadJournal reads a journal into a key → result map without modifying
// it. A missing file yields an empty map. It follows internal/durable's
// recovery rule: a final line without its newline (a crash mid-append)
// is a benign torn tail and is not loaded; a corrupt newline-terminated
// line — bad JSON or a failed checksum — is skipped and counted in the
// returned LoadStats while every intact entry after it is still
// recovered, so one damaged line never silently discards the rest of a
// campaign's completed work.
func LoadJournal(path string) (map[string]*sim.Result, LoadStats, error) {
	return loadJournal(path, durable.Scan)
}

func loadJournal(path string, scan func(string, func(int64, []byte) error) (durable.Stats, error)) (map[string]*sim.Result, LoadStats, error) {
	done := make(map[string]*sim.Result)
	var st LoadStats
	ds, err := scan(path, func(_ int64, line []byte) error {
		if len(line) == 0 {
			return nil // a blank line carries nothing to lose
		}
		e, err := decodeEntry(line)
		if err != nil {
			return err
		}
		done[e.Key] = e.Result
		st.Entries++
		return nil
	})
	if errors.Is(err, os.ErrNotExist) {
		return done, st, nil
	}
	if err != nil {
		return nil, st, err
	}
	st.Skipped, st.CRCFailed, st.TruncatedTail = ds.Corrupt, ds.BadFrame, ds.Torn > 0
	telemetry.Degraded.JournalLinesSkipped.Add(int64(st.Skipped))
	telemetry.Degraded.JournalCRCFailures.Add(int64(st.CRCFailed))
	return done, st, nil
}

// OpenJournal loads path's existing entries and opens it for appending,
// creating it if absent. A torn final line left by a crash mid-append is
// truncated away first, so the next append starts on a clean line
// boundary instead of gluing onto the debris and corrupting both lines;
// the run it held is not in the returned map and re-runs.
func OpenJournal(path string) (*Journal, map[string]*sim.Result, LoadStats, error) {
	done, st, err := loadJournal(path, durable.Recover)
	if err != nil {
		return nil, nil, st, err
	}
	if err := fault.Err(fault.SiteJournalOpen); err != nil {
		return nil, nil, st, err
	}
	a, err := durable.OpenAppender(path, os.O_CREATE)
	if err != nil {
		return nil, nil, st, err
	}
	return &Journal{a: a}, done, st, nil
}

// Append records one completed result as a checksummed line and syncs
// it.
func (j *Journal) Append(key string, res *sim.Result) error {
	line, err := encodeEntry(key, res)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := fault.Err(fault.SiteJournalAppend); err != nil {
		return err
	}
	if fault.Fires(fault.SiteJournalAppendPartial) {
		// Simulated crash mid-append: half the line reaches the file
		// with no newline — exactly the torn write a power loss
		// produces, which the next OpenJournal must trim as a benign
		// torn tail.
		j.a.Tear(line) //nolint:errcheck // injected crash
		return fmt.Errorf("%w at %s", fault.ErrInjected, fault.SiteJournalAppendPartial)
	}
	return j.a.Append(line)
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.a.Close()
}

// CompactStats describes one journal compaction.
type CompactStats struct {
	// Load is the scan of the original file; Load.Skipped corrupt lines
	// and superseded duplicate keys are what compaction drops.
	Load LoadStats
	// Entries is the number of unique entries rewritten.
	Entries int
	// BytesBefore and BytesAfter measure the file around the rewrite.
	BytesBefore, BytesAfter int64
}

// String renders the stats as one log line.
func (s CompactStats) String() string {
	line := fmt.Sprintf("journal compacted: %d entries, %d → %d bytes",
		s.Entries, s.BytesBefore, s.BytesAfter)
	if s.Load.Skipped > 0 {
		line += fmt.Sprintf(" (%d corrupt lines dropped", s.Load.Skipped)
		if s.Load.CRCFailed > 0 {
			line += fmt.Sprintf(", %d by checksum", s.Load.CRCFailed)
		}
		line += ")"
	}
	if s.Load.TruncatedTail {
		line += " (truncated final line from an interrupted append dropped)"
	}
	return line
}

// CompactJournal rewrites path to exactly one checksummed line per
// unique config key (the last occurrence wins), dropping corrupt lines,
// superseded duplicates and any torn tail — the growth a long-lived
// resume file accretes across campaigns. The rewrite is a
// durable.Replace, so a crash at any instant leaves either the old
// journal or the new one, never a mix. Entries are written in sorted key
// order, so compacting is deterministic: equal stores compact to
// byte-identical files.
func CompactJournal(path string) (CompactStats, error) {
	var st CompactStats
	fi, err := os.Stat(path)
	if err != nil {
		return st, err
	}
	st.BytesBefore = fi.Size()
	done, load, err := LoadJournal(path)
	if err != nil {
		return st, err
	}
	st.Load = load
	st.Entries = len(done)

	keys := make([]string, 0, len(done))
	for k := range done {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	err = durable.Replace(path, func(w io.Writer) error {
		for _, k := range keys {
			if err := fault.Err(fault.SiteJournalCompactWrite); err != nil {
				return err
			}
			line, err := encodeEntry(k, done[k])
			if err != nil {
				return err
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return err
			}
		}
		return nil
	}, func() error { return fault.Err(fault.SiteJournalCompactRename) })
	if err != nil {
		return st, err
	}
	if fi, err := os.Stat(path); err == nil {
		st.BytesAfter = fi.Size()
	}
	return st, nil
}
