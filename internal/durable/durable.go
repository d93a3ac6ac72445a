// Package durable is the crash-safety layer under every file that must
// survive a kill -9 or a power loss: the resume journal
// (internal/runner), the result store's segments and meta.json
// (internal/store), and pinted's manifest (internal/server).
//
// Logs are newline-delimited records, each framed as
//
//	!<8 hex chars of crc32c(payload)> <payload>\n
//
// so flipped bits anywhere in a payload fail the checksum instead of
// decoding into a silently wrong value. Appender writes one record and
// its newline in a single write and fsyncs it before returning.
//
// Recovery follows one rule for every log:
//   - A final line without its newline is the torn tail, the shape a
//     crash mid-append leaves. It is never decoded, and Recover trims
//     it so the next append starts on a clean line boundary.
//   - A newline-terminated line that fails its frame, its checksum or
//     the caller's decode is corrupt. It is skipped and counted, and the
//     scan goes on, so one damaged line never discards the records after
//     it.
//
// Whole-file documents are written with Replace: a temp file in the
// same directory, fsync, rename, directory fsync. A crash at any
// instant leaves either the old file or the new one, never a mix.
package durable

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Sigil is the first byte of every framed record.
const Sigil = '!'

const (
	hexLen    = 8
	prefixLen = hexLen + 2 // sigil + hex + space
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64
// and arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrFrame marks a record whose frame or checksum failed.
var ErrFrame = errors.New("bad record frame")

// Frame renders payload as one framed record without its newline. The
// slice has spare capacity for the newline, so Append adds it in place.
func Frame(payload []byte) []byte {
	line := make([]byte, prefixLen+len(payload), prefixLen+len(payload)+1)
	line[0] = Sigil
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.Checksum(payload, crcTable))
	hex.Encode(line[1:1+hexLen], sum[:])
	line[prefixLen-1] = ' '
	copy(line[prefixLen:], payload)
	return line
}

// Unframe verifies one framed record (without its newline) and returns
// its payload. Every error wraps ErrFrame.
func Unframe(line []byte) ([]byte, error) {
	if len(line) < prefixLen || line[0] != Sigil || line[prefixLen-1] != ' ' {
		return nil, fmt.Errorf("%w: malformed", ErrFrame)
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], line[1:1+hexLen]); err != nil {
		return nil, fmt.Errorf("%w: malformed checksum: %v", ErrFrame, err)
	}
	payload := line[prefixLen:]
	want := binary.BigEndian.Uint32(sum[:])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch: %08x != %08x", ErrFrame, got, want)
	}
	return payload, nil
}

// Stats summarises one scan.
type Stats struct {
	// Size is the length of the file's newline-terminated prefix; after
	// Recover it is the file's length.
	Size int64
	// Torn is the length of a final line that lacks its newline, 0 when
	// the file ends cleanly. The torn tail is never decoded.
	Torn int64
	// Corrupt counts newline-terminated lines that the decode rejected;
	// each was skipped. BadFrame is the subset whose error wrapped
	// ErrFrame.
	Corrupt, BadFrame int
}

// Scan reads the newline-delimited records of path without modifying
// it, handing decode each newline-terminated line (newline stripped)
// with its byte offset. The slice is the callee's to keep. A decode
// error marks the line corrupt; the scan counts it and goes on. Only an
// I/O error, such as a missing file, fails the scan.
func Scan(path string, decode func(off int64, line []byte) error) (Stats, error) {
	var st Stats
	f, err := os.Open(path)
	if err != nil {
		return st, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 256<<10)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			st.Torn = int64(len(line))
			return st, nil
		}
		if err != nil {
			return st, err
		}
		if derr := decode(st.Size, line[:len(line)-1]); derr != nil {
			st.Corrupt++
			if errors.Is(derr, ErrFrame) {
				st.BadFrame++
			}
		}
		st.Size += int64(len(line))
	}
}

// Recover is Scan followed by trimming the torn tail, if there is one,
// and fsyncing the file, so an appender reopening it starts on a clean
// line boundary.
func Recover(path string, decode func(off int64, line []byte) error) (Stats, error) {
	st, err := Scan(path, decode)
	if err != nil || st.Torn == 0 {
		return st, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return st, err
	}
	err = f.Truncate(st.Size)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return st, fmt.Errorf("trimming torn tail of %s: %w", path, err)
	}
	return st, nil
}

// Appender appends framed records to one file. Safe for concurrent use:
// every record goes out in a single write.
type Appender struct{ f *os.File }

// OpenAppender opens path for appending. flag adds to O_WRONLY|O_APPEND:
// os.O_CREATE creates a missing file, os.O_CREATE|os.O_EXCL insists on
// a new one.
func OpenAppender(path string, flag int) (*Appender, error) {
	f, err := os.OpenFile(path, flag|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Appender{f: f}, nil
}

// Append writes line, a Frame result, plus its newline in one write and
// fsyncs it, so a power loss, not just a process crash, keeps the record.
func (a *Appender) Append(line []byte) error {
	if _, err := a.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return a.f.Sync()
}

// Tear writes the first half of line with no newline and fsyncs it: the
// torn tail a crash mid-append leaves. Fault injection uses it.
func (a *Appender) Tear(line []byte) error {
	if _, err := a.f.Write(line[:len(line)/2]); err != nil {
		return err
	}
	return a.f.Sync()
}

// Close closes the file; every appended record is already synced.
func (a *Appender) Close() error { return a.f.Close() }

// SyncDir fsyncs directory dir so entries created or renamed in it
// survive a power loss. It is advisory: the file data is already safe.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // advisory
		d.Close()
	}
}

// Replace atomically replaces path with what write produces. The bytes
// go to path+".tmp", which is flushed, fsynced, closed and then renamed
// over path, and the directory is fsynced so the rename survives a
// power loss. beforeRename, when non-nil, runs once the temp file is
// durable; its error, like any other failure, aborts the replace. Every
// failure path removes the temp file and leaves path untouched.
func Replace(path string, write func(w io.Writer) error, beforeRename func() error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 256<<10)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && beforeRename != nil {
		err = beforeRename()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	SyncDir(filepath.Dir(path))
	return nil
}

// WriteJSON replaces path with v as two-space-indented JSON plus a
// trailing newline, through Replace.
func WriteJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return Replace(path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	}, nil)
}
