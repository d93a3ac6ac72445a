package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestFrameFormat pins the on-disk record bytes: journals and store
// segments written by any earlier build must keep verifying.
func TestFrameFormat(t *testing.T) {
	got := Frame([]byte(`{"key":"k"}`))
	const want = `!cf2d73cc {"key":"k"}`
	if string(got) != want {
		t.Fatalf("Frame = %q, want %q", got, want)
	}
	payload, err := Unframe(got)
	if err != nil || string(payload) != `{"key":"k"}` {
		t.Fatalf("Unframe = %q, %v", payload, err)
	}
}

func TestUnframeRejectsDamage(t *testing.T) {
	good := Frame([]byte(`{"a":1}`))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-2] ^= 0x01
	for name, line := range map[string][]byte{
		"short":     []byte("!00"),
		"no-sigil":  append([]byte{'?'}, good[1:]...),
		"no-space":  append(append([]byte(nil), good[:9]...), 'x'),
		"bad-hex":   []byte("!zzzzzzzz {}"),
		"bit-flip":  flipped,
		"bare-json": []byte(`{"a":1}`),
	} {
		if _, err := Unframe(line); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: err = %v, want ErrFrame", name, err)
		}
	}
}

// decodeFramed is the decode a typical caller passes to Scan: frame
// check, then a payload check of its own.
func decodeFramed(got *[]string, offs *[]int64) func(int64, []byte) error {
	return func(off int64, line []byte) error {
		p, err := Unframe(line)
		if err != nil {
			return err
		}
		if bytes.Equal(p, []byte("reject")) {
			return errors.New("caller rejects payload")
		}
		*got = append(*got, string(p))
		*offs = append(*offs, off)
		return nil
	}
}

func writeFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func line(s string) []byte { return append(Frame([]byte(s)), '\n') }

// TestScanCorruptLinesSkipped checks the corrupt half of the recovery
// rule: a newline-terminated line failing its frame, CRC or the
// caller's decode is skipped and counted, and every later record still
// loads at its true offset.
func TestScanCorruptLinesSkipped(t *testing.T) {
	var data []byte
	data = append(data, line("a")...)
	badCRC := line("b")
	badCRC[len(badCRC)-2] ^= 0x40
	data = append(data, badCRC...)
	data = append(data, line("reject")...)
	offC := int64(len(data))
	data = append(data, line("c")...)
	data = append(data, "!deadbeef final\n"...) // a bad final line that kept its newline
	path := writeFile(t, data)

	var got []string
	var offs []int64
	st, err := Scan(path, decodeFramed(&got, &offs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "c" || offs[1] != offC {
		t.Fatalf("decoded %q at %v, want a, c at 0, %d", got, offs, offC)
	}
	want := Stats{Size: int64(len(data)), Corrupt: 3, BadFrame: 2}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestScanTornTail checks the torn half of the rule at every cut of a
// three-record log, including the cuts that leave a complete record
// without its newline: an unterminated final line is never decoded,
// Scan leaves it on disk, and Recover trims exactly it.
func TestScanTornTail(t *testing.T) {
	var data []byte
	for _, s := range []string{"r0", "r1", "r2"} {
		data = append(data, line(s)...)
	}
	for cut := 0; cut <= len(data); cut++ {
		path := writeFile(t, data[:cut])
		intact := bytes.Count(data[:cut], []byte{'\n'})
		clean := int64(bytes.LastIndexByte(data[:cut], '\n') + 1)

		var got []string
		var offs []int64
		st, err := Scan(path, decodeFramed(&got, &offs))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != intact || st.Corrupt != 0 || st.Size != clean || st.Torn != int64(cut)-clean {
			t.Fatalf("cut=%d: Scan decoded %d (want %d), stats %+v", cut, len(got), intact, st)
		}
		if b, _ := os.ReadFile(path); len(b) != cut {
			t.Fatalf("cut=%d: Scan modified the file", cut)
		}

		got, offs = nil, nil
		rst, err := Recover(path, decodeFramed(&got, &offs))
		if err != nil {
			t.Fatal(err)
		}
		if rst != st || len(got) != intact {
			t.Fatalf("cut=%d: Recover stats %+v, Scan stats %+v", cut, rst, st)
		}
		if b, _ := os.ReadFile(path); !bytes.Equal(b, data[:clean]) {
			t.Fatalf("cut=%d: Recover left %d bytes, want the %d-byte clean prefix", cut, len(b), clean)
		}
	}
}

// TestAppenderTornTailRecovers appends, tears a record the way a crash
// mid-append does, and checks Recover drops only the torn record so the
// next append lands on a clean boundary.
func TestAppenderTornTailRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	a, err := OpenAppender(path, os.O_CREATE)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(Frame([]byte("one"))); err != nil {
		t.Fatal(err)
	}
	if err := a.Tear(Frame([]byte("torn"))); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAppender(path, os.O_CREATE|os.O_EXCL); err == nil {
		t.Fatal("O_EXCL reopened an existing file")
	}

	var got []string
	var offs []int64
	st, err := Recover(path, decodeFramed(&got, &offs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || st.Torn == 0 {
		t.Fatalf("recovered %q, stats %+v", got, st)
	}
	a, err = OpenAppender(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(Frame([]byte("two"))); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(line("one"), line("two")...); !bytes.Equal(b, want) {
		t.Fatalf("log = %q, want %q", b, want)
	}
}

// TestReplaceFailureIsAtomic checks every failure path of Replace
// leaves the original file byte-identical and no temp file behind.
func TestReplaceFailureIsAtomic(t *testing.T) {
	boom := errors.New("boom")
	for name, tc := range map[string]struct {
		write        func(io.Writer) error
		beforeRename func() error
	}{
		"write": {write: func(w io.Writer) error {
			w.Write([]byte("partial")) //nolint:errcheck
			return boom
		}},
		"before-rename": {
			write:        func(w io.Writer) error { _, err := w.Write([]byte("new")); return err },
			beforeRename: func() error { return boom },
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "doc")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := Replace(path, tc.write, tc.beforeRename); !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			if b, _ := os.ReadFile(path); string(b) != "old" {
				t.Fatalf("failed replace changed the file to %q", b)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 1 {
				t.Fatalf("temp debris left behind: %v", ents)
			}
		})
	}
}

func TestWriteJSONBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.json")
	if err := WriteJSON(path, map[string]int{"seq": 3}); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(path, map[string]int{"seq": 4}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"seq\": 4\n}\n"; string(b) != want {
		t.Fatalf("WriteJSON wrote %q, want %q", b, want)
	}
}
