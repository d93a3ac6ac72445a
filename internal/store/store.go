// Package store is the durable, cross-campaign, content-addressed
// result store: every completed simulation result is kept on disk keyed
// by (simulator fingerprint, normalized-config SHA-256), so any run
// ever computed — by any campaign, binary, or pinted tenant sharing the
// store directory — is a cache hit instead of a recomputation.
//
// Layout. Results are internal/durable records (`!<crc32c> <json>`
// lines, the resume journal's framing) in append-only segment files
// (seg-<seq>.seg) under one directory, plus a small meta.json carrying
// the segment sequence counter and the LRU clock, written with
// durable.WriteJSON (temp file, fsync, rename, directory fsync). There
// is no persistent index: the in-memory index is rebuilt by scanning
// the segments on open (no mmap), under durable's one recovery rule — a
// final record without its newline (crash mid-append) is a torn tail,
// trimmed from the writing segment; a newline-terminated record that
// fails its frame, CRC or decode is skipped and counted while
// everything after it still loads.
//
// Staleness. Each record embeds the simulator fingerprint of the build
// that wrote it. Only records matching the opening build's fingerprint
// are indexed; older-fingerprint records stay on disk for benchjson-
// style before/after comparison until GC reclaims their segments, but
// they are never served.
//
// GC. A byte budget bounds the directory: when appends push the total
// over budget, whole segments are evicted in LRU-by-last-hit order.
// The currently-writing segment and any segment with an in-flight
// reader are never evicted.
//
// Failure policy. The store degrades to compute-without-cache, it
// never fails a run: an unreadable store opens as empty or not at all
// (the caller runs uncached), a failed append loses only the cache
// entry, and a failed or corrupt read-back counts, drops the index
// entry and reports a miss.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// maxRecordBytes bounds one record (a Result with samples and
// histograms is tens of KB).
const maxRecordBytes = 64 << 20

// record is one segment line's payload: the writing build's simulator
// fingerprint, the config key, and the result (which embeds its config,
// keeping segments self-describing for store-verify).
type record struct {
	FP     string      `json:"fp"`
	Key    string      `json:"key"`
	Result *sim.Result `json:"result"`
}

// Options configures Open.
type Options struct {
	// Dir is the store directory, created if absent. Required.
	Dir string
	// BudgetBytes caps the directory's segment bytes; 0 disables GC.
	BudgetBytes int64
	// Fingerprint overrides the build fingerprint (tests simulate a
	// simulator change with it); empty means Fingerprint().
	Fingerprint string
	// SegmentBytes is the roll threshold for the writing segment;
	// <= 0 means 1 MiB. Smaller segments give GC finer granularity.
	SegmentBytes int64
	// Logf receives degradation notices; nil means silent.
	Logf func(format string, args ...any)
}

// segment is one on-disk segment file and its in-memory bookkeeping.
type segment struct {
	name    string // base name, e.g. seg-00000012.seg
	path    string
	seq     uint64
	size    int64
	lastHit int64 // logical LRU clock value of the most recent hit
	refs    int   // in-flight readers; > 0 pins the segment against GC
	keys    []string
	rd      *os.File // lazily opened read handle
}

// loc addresses one indexed record.
type loc struct {
	seg *segment
	off int64
	n   int
}

// meta is the small durable side file: the segment sequence counter and
// each segment's last-hit clock, so LRU order survives restarts.
type meta struct {
	Seq     uint64           `json:"seq"`
	Clock   int64            `json:"clock"`
	LastHit map[string]int64 `json:"last_hit,omitempty"`
}

// Store is a durable content-addressed result store. All methods are
// safe for concurrent use, and all are safe on a nil receiver (a nil
// *Store is the "no cache" configuration: every Get misses, every Put
// is dropped, Do computes directly).
type Store struct {
	dir    string
	fp     string
	budget int64
	segMax int64
	logf   func(string, ...any)

	mu    sync.Mutex
	segs  []*segment // open order == seq order; last is the writing segment
	index map[string]loc
	w     *durable.Appender // append handle of the writing segment
	clock int64

	fmu     sync.Mutex
	flights map[string]*flight

	closed bool
}

// Open opens (or creates) the store rooted at opts.Dir, rebuilding the
// index from the segment files. A corrupt record is skipped and
// counted; a torn final record is trimmed. Open failures are counted in
// the open_errors expvar so callers can degrade to running uncached.
func Open(opts Options) (*Store, error) {
	s, err := open(opts)
	if err != nil {
		telemetry.StoreC.OpenErrors.Add(1)
		return nil, err
	}
	telemetry.PublishStoreGauges(s.gauges)
	return s, nil
}

func open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Dir is required")
	}
	if err := fault.Err(fault.SiteStoreOpen); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", opts.Dir, err)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     opts.Dir,
		fp:      opts.Fingerprint,
		budget:  opts.BudgetBytes,
		segMax:  opts.SegmentBytes,
		logf:    opts.Logf,
		index:   make(map[string]loc),
		flights: make(map[string]*flight),
	}
	if s.fp == "" {
		s.fp = Fingerprint()
	}
	if s.segMax <= 0 {
		s.segMax = 1 << 20
	}

	var m meta
	if b, err := os.ReadFile(filepath.Join(s.dir, "meta.json")); err == nil {
		// A corrupt meta costs only LRU order and restarts the sequence
		// above the scanned segments; the records themselves are intact.
		json.Unmarshal(b, &m) //nolint:errcheck
	}
	s.clock = m.Clock

	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(names)
	for _, path := range names {
		seg := &segment{name: filepath.Base(path), path: path}
		fmt.Sscanf(seg.name, "seg-%d.seg", &seg.seq) //nolint:errcheck // unparsable names sort first and stay seq 0
		if lh, ok := m.LastHit[seg.name]; ok {
			seg.lastHit = lh
		}
		last := path == names[len(names)-1]
		if err := s.scanSegment(seg, last); err != nil {
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	// Resume appends into the last segment when it has room; otherwise
	// (or with no segments at all) the first Put rolls a fresh one.
	if n := len(s.segs); n > 0 && s.segs[n-1].size < s.segMax {
		w, err := durable.OpenAppender(s.segs[n-1].path, 0)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.w = w
	}
	if m.Seq > 0 {
		// Never reuse a sequence number, even after eviction.
		for _, seg := range s.segs {
			if seg.seq > m.Seq {
				m.Seq = seg.seq
			}
		}
	}
	s.gcLocked()
	return s, nil
}

// scanSegment rebuilds seg's index contribution. Records under other
// fingerprints are counted stale and kept un-indexed; corrupt records
// are skipped and counted; a torn tail on the final segment is trimmed
// so the next append starts on a clean line boundary. Only the final
// segment is ever appended to, so a torn tail elsewhere is damage, not
// a crash artifact: it is counted corrupt and left in place.
func (s *Store) scanSegment(seg *segment, last bool) error {
	scan := durable.Scan
	if last {
		scan = durable.Recover
	}
	st, err := scan(seg.path, func(off int64, line []byte) error {
		var rec record
		if err := decodeRecord(line, &rec); err != nil {
			return err
		}
		if rec.FP != s.fp {
			telemetry.StoreC.StaleSkipped.Add(1)
			return nil
		}
		s.index[rec.Key] = loc{seg: seg, off: off, n: len(line)}
		seg.keys = append(seg.keys, rec.Key)
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	telemetry.StoreC.CorruptRecords.Add(int64(st.Corrupt))
	seg.size = st.Size
	switch {
	case st.Torn == 0:
	case last:
		telemetry.StoreC.TornTails.Add(1)
	default:
		telemetry.StoreC.CorruptRecords.Add(1)
		seg.size += st.Torn
	}
	return nil
}

// errIncomplete marks a record that decoded but lacks a key or result.
var errIncomplete = errors.New("record without key or result")

// decodeRecord verifies and decodes one framed segment line.
func decodeRecord(line []byte, rec *record) error {
	payload, err := durable.Unframe(line)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(payload, rec); err != nil {
		return err
	}
	if rec.Key == "" || rec.Result == nil {
		return errIncomplete
	}
	return nil
}

// testReadHook, when non-nil, runs between a reader pinning its
// segment and the actual read; the GC property tests use it to hold a
// reader active while evictions run.
var testReadHook func()

// Get returns the stored result for key under the current fingerprint.
// A read-back failure (I/O or checksum) counts, drops the entry, and
// reports a miss — the caller recomputes.
func (s *Store) Get(key string) (*sim.Result, bool) {
	return s.get(key, true)
}

// Lookup is Get without miss accounting, for re-checks on paths whose
// admission-time miss was already counted (the fan-out group start).
func (s *Store) Lookup(key string) (*sim.Result, bool) {
	return s.get(key, false)
}

func (s *Store) get(key string, countMiss bool) (*sim.Result, bool) {
	if s == nil {
		if countMiss {
			telemetry.StoreC.Misses.Add(1)
		}
		return nil, false
	}
	s.mu.Lock()
	l, ok := s.index[key]
	if !ok || s.closed {
		s.mu.Unlock()
		if countMiss {
			telemetry.StoreC.Misses.Add(1)
		}
		return nil, false
	}
	seg := l.seg
	seg.refs++ // pin against GC for the duration of the read
	s.clock++
	seg.lastHit = s.clock
	rd, rdErr := s.reader(seg)
	s.mu.Unlock()

	if testReadHook != nil {
		testReadHook()
	}
	res, err := readRecord(rd, rdErr, l, key, s.fp)

	s.mu.Lock()
	seg.refs--
	if err != nil {
		delete(s.index, key)
	}
	s.mu.Unlock()

	if err != nil {
		telemetry.StoreC.ReadErrors.Add(1)
		s.logfSafe("store: reading %s from %s failed (recomputing): %v", key[:8], seg.name, err)
		if countMiss {
			telemetry.StoreC.Misses.Add(1)
		}
		return nil, false
	}
	telemetry.StoreC.Hits.Add(1)
	return res, true
}

// reader returns seg's lazily opened read handle (caller holds s.mu).
func (s *Store) reader(seg *segment) (*os.File, error) {
	if seg.rd != nil {
		return seg.rd, nil
	}
	f, err := os.Open(seg.path)
	if err != nil {
		return nil, err
	}
	seg.rd = f
	return f, nil
}

// readRecord reads and verifies one pinned record; it runs without the
// store lock (ReadAt is safe for concurrent use).
func readRecord(rd *os.File, rdErr error, l loc, key, fp string) (*sim.Result, error) {
	if rdErr != nil {
		return nil, rdErr
	}
	if err := fault.Err(fault.SiteStoreRead); err != nil {
		return nil, err
	}
	buf := make([]byte, l.n)
	if _, err := rd.ReadAt(buf, l.off); err != nil {
		return nil, err
	}
	var rec record
	if err := decodeRecord(buf, &rec); err != nil {
		return nil, err
	}
	if rec.Key != key || rec.FP != fp {
		return nil, fmt.Errorf("record identity mismatch (index drift)")
	}
	return rec.Result, nil
}

// Put durably appends one result under the current fingerprint. An
// append failure is counted and returned; the caller's run already
// succeeded, so the only loss is the cache entry.
func (s *Store) Put(key string, res *sim.Result) error {
	if s == nil {
		return nil
	}
	err := s.put(key, res)
	if err != nil {
		telemetry.StoreC.PutErrors.Add(1)
		return err
	}
	telemetry.StoreC.Puts.Add(1)
	return nil
}

func (s *Store) put(key string, res *sim.Result) error {
	payload, err := json.Marshal(record{FP: s.fp, Key: key, Result: res})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	line := durable.Frame(payload)
	if len(line) > maxRecordBytes {
		return fmt.Errorf("store: record for %s exceeds %d bytes", key, maxRecordBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if err := fault.Err(fault.SiteStoreAppend); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.w == nil || s.writing().size+int64(len(line))+1 > s.segMax {
		if err := s.rollLocked(); err != nil {
			return err
		}
	}
	seg := s.writing()
	off := seg.size
	if err := s.w.Append(line); err != nil {
		return fmt.Errorf("store: appending to %s: %w", seg.name, err)
	}
	seg.size = off + int64(len(line)) + 1
	s.index[key] = loc{seg: seg, off: off, n: len(line)}
	seg.keys = append(seg.keys, key)
	s.clock++
	seg.lastHit = s.clock
	s.gcLocked()
	return nil
}

// writing returns the current writing segment (caller holds s.mu; s.w
// is non-nil).
func (s *Store) writing() *segment { return s.segs[len(s.segs)-1] }

// rollLocked closes the writing segment and starts the next one,
// fsyncing the directory so the new file survives a power loss.
func (s *Store) rollLocked() error {
	if s.w != nil {
		s.w.Close() //nolint:errcheck // records are already synced per append
		s.w = nil
	}
	seq := uint64(1)
	for _, seg := range s.segs {
		if seg.seq >= seq {
			seq = seg.seq + 1
		}
	}
	name := fmt.Sprintf("seg-%08d.seg", seq)
	path := filepath.Join(s.dir, name)
	w, err := durable.OpenAppender(path, os.O_CREATE|os.O_EXCL)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	durable.SyncDir(s.dir)
	s.clock++
	s.segs = append(s.segs, &segment{name: name, path: path, seq: seq, lastHit: s.clock})
	s.w = w
	return nil
}

// gcLocked evicts whole segments in LRU-by-last-hit order until the
// directory fits the byte budget. The writing segment and any segment
// with an in-flight reader are never evicted (caller holds s.mu).
func (s *Store) gcLocked() {
	if s.budget <= 0 {
		return
	}
	total := int64(0)
	for _, seg := range s.segs {
		total += seg.size
	}
	for total > s.budget {
		var victim *segment
		vi := -1
		for i, seg := range s.segs {
			if seg.refs > 0 || (s.w != nil && i == len(s.segs)-1) {
				continue
			}
			if victim == nil || seg.lastHit < victim.lastHit {
				victim, vi = seg, i
			}
		}
		if victim == nil {
			return // everything left is pinned or being written
		}
		for _, k := range victim.keys {
			if l, ok := s.index[k]; ok && l.seg == victim {
				delete(s.index, k)
			}
		}
		if victim.rd != nil {
			victim.rd.Close() //nolint:errcheck
		}
		os.Remove(victim.path) //nolint:errcheck // already out of the index; debris is re-scanned harmlessly
		s.segs = append(s.segs[:vi], s.segs[vi+1:]...)
		total -= victim.size
		telemetry.StoreC.Evictions.Add(1)
		telemetry.StoreC.EvictedBytes.Add(victim.size)
		s.logfSafe("store: evicted %s (%d bytes, LRU) to fit %d-byte budget", victim.name, victim.size, s.budget)
	}
}

// Stats is one size snapshot of the store.
type Stats struct {
	Fingerprint string
	Entries     int // indexed entries under the current fingerprint
	Segments    int
	Bytes       int64
}

// Stats snapshots the store's size.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Fingerprint: s.fp, Entries: len(s.index), Segments: len(s.segs)}
	for _, seg := range s.segs {
		st.Bytes += seg.size
	}
	return st
}

// gauges feeds the "pinte.store" expvar's size fields.
func (s *Store) gauges() map[string]int64 {
	st := s.Stats()
	return map[string]int64{
		"bytes":    st.Bytes,
		"segments": int64(st.Segments),
		"entries":  int64(st.Entries),
	}
}

// Keys returns the indexed config keys under the current fingerprint,
// sorted (store-verify samples from it).
func (s *Store) Keys() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FingerprintID returns the fingerprint this store serves.
func (s *Store) FingerprintID() string {
	if s == nil {
		return ""
	}
	return s.fp
}

// Close persists meta.json (durable.WriteJSON, like the service
// manifest) and closes every file handle.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	if s.w != nil {
		if err := s.w.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.w = nil
	}
	m := meta{Clock: s.clock, LastHit: make(map[string]int64, len(s.segs))}
	for _, seg := range s.segs {
		m.LastHit[seg.name] = seg.lastHit
		if seg.seq > m.Seq {
			m.Seq = seg.seq
		}
		if seg.rd != nil {
			seg.rd.Close() //nolint:errcheck
			seg.rd = nil
		}
	}
	if err := durable.WriteJSON(filepath.Join(s.dir, "meta.json"), &m); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

func (s *Store) logfSafe(format string, args ...any) {
	if s != nil && s.logf != nil {
		s.logf(format, args...)
	}
}

// ParseFlag parses a -result-store value of the form "dir" or
// "dir,MiB" into a directory and a byte budget (0 = unlimited).
func ParseFlag(v string) (dir string, budget int64, err error) {
	dir, mib, found := strings.Cut(v, ",")
	if dir == "" {
		return "", 0, fmt.Errorf("store: empty directory in -result-store %q", v)
	}
	if found {
		var n int64
		if _, err := fmt.Sscanf(strings.TrimSpace(mib), "%d", &n); err != nil || n < 0 {
			return "", 0, fmt.Errorf("store: bad MiB budget in -result-store %q", v)
		}
		budget = n << 20
	}
	return dir, budget, nil
}
