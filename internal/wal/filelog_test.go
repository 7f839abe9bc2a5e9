package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"
)

func TestFileLogPersistsAcrossReopen(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	l, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(RecCommit, []byte("one"))
	l.Append(RecVmCreate, []byte("two"))
	l.Close()

	l2, err := OpenFileLog(path, FileLogOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 2 {
		t.Fatalf("LastLSN after reopen = %d, want 2", l2.LastLSN())
	}
	var kinds []RecordKind
	l2.Scan(1, func(r Record) error { kinds = append(kinds, r.Kind); return nil })
	if len(kinds) != 2 || kinds[0] != RecCommit || kinds[1] != RecVmCreate {
		t.Errorf("kinds = %v", kinds)
	}
	// And appends continue the LSN sequence.
	lsn, err := l2.Append(RecApplied, nil)
	if err != nil || lsn != 3 {
		t.Errorf("Append after reopen: lsn=%d err=%v", lsn, err)
	}
}

func TestFileLogTruncatesTornTail(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	l, _ := OpenFileLog(path, FileLogOptions{})
	l.Append(RecCommit, []byte("good"))
	l.Append(RecCommit, []byte("will-be-torn"))
	l.Close()

	// Tear the last record: chop 3 bytes off the file.
	fi, _ := os.Stat(path)
	os.Truncate(path, fi.Size()-3)

	l2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 1 {
		t.Fatalf("LastLSN = %d, want 1 (torn record dropped)", l2.LastLSN())
	}
	// New appends reuse LSN 2 cleanly.
	lsn, err := l2.Append(RecApplied, []byte("new2"))
	if err != nil || lsn != 2 {
		t.Fatalf("append after tear: lsn=%d err=%v", lsn, err)
	}
	var payloads []string
	l2.Scan(1, func(r Record) error { payloads = append(payloads, string(r.Data)); return nil })
	if len(payloads) != 2 || payloads[1] != "new2" {
		t.Errorf("payloads = %q", payloads)
	}
}

func TestFileLogDetectsCorruptBody(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	l, _ := OpenFileLog(path, FileLogOptions{})
	l.Append(RecCommit, []byte("aaaa"))
	l.Append(RecCommit, []byte("bbbb"))
	l.Close()

	// Flip a byte inside the second record's payload.
	f, _ := os.OpenFile(path, os.O_RDWR, 0)
	fi, _ := f.Stat()
	f.WriteAt([]byte{0xFF}, fi.Size()-1)
	f.Close()

	l2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 1 {
		t.Errorf("LastLSN = %d, want 1 (corrupt record dropped)", l2.LastLSN())
	}
}

func TestFileLogEmptyFile(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	l, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.LastLSN() != 0 {
		t.Errorf("empty log LastLSN = %d", l.LastLSN())
	}
	var n int
	l.Scan(1, func(Record) error { n++; return nil })
	if n != 0 {
		t.Errorf("empty log scanned %d records", n)
	}
}

// A file that does not start with the magic — the wrong path, or a log
// in the per-record layout this one replaced — is refused and left
// byte-identical; a prefix of the magic is a torn first write and opens
// as an empty log.
func TestFileLogRefusesForeignFile(t *testing.T) {
	perRecord := []byte{0, 0, 0, 12, 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0, 0, 1, 3, 'x', 'y', 'z'}
	for name, data := range map[string][]byte{
		"text":       []byte("this is not a wal file at all"),
		"per-record": perRecord,
		"one byte":   {'x'},
	} {
		t.Run(name, func(t *testing.T) {
			path := t.TempDir() + "/wal.log"
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if l, err := OpenFileLog(path, FileLogOptions{}); err == nil {
				l.Close()
				t.Fatal("opened a file that is not a log")
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
				t.Errorf("refused file changed on disk: %q, was %q", got, data)
			}
		})
	}
	path := t.TempDir() + "/torn.log"
	os.WriteFile(path, []byte(fileMagic[:2]), 0o644)
	l, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatalf("torn first write: %v", err)
	}
	defer l.Close()
	if lsn, err := l.Append(RecCommit, []byte("fresh")); err != nil || lsn != 1 {
		t.Errorf("append after a torn first write: lsn=%d err=%v", lsn, err)
	}
}

// A batch is one frame: torn anywhere, it is dropped whole, and the
// frames before it survive.
func TestFileLogTornBatchDropsWholeBatch(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	l, _ := OpenFileLog(path, FileLogOptions{})
	l.Append(RecCommit, []byte("kept-1"))
	l.Append(RecCommit, []byte("kept-2"))
	if _, err := l.AppendBatch([]BatchEntry{
		{Kind: RecCommit, Data: []byte("a")},
		{Kind: RecVmCreate, Data: []byte("bb")},
		{Kind: RecVmAccept, Data: []byte("ccc")},
	}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	truncateBy(t, path, 1)

	l2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 2 {
		t.Fatalf("LastLSN = %d, want 2 (the torn batch of 3 dropped whole)", l2.LastLSN())
	}
	var payloads []string
	l2.Scan(1, func(r Record) error { payloads = append(payloads, string(r.Data)); return nil })
	if len(payloads) != 2 || payloads[0] != "kept-1" || payloads[1] != "kept-2" {
		t.Errorf("payloads = %q", payloads)
	}
	if lsn, err := l2.Append(RecCommit, nil); err != nil || lsn != 3 {
		t.Errorf("append after the torn batch: lsn=%d err=%v", lsn, err)
	}
}

// A frame whose first LSN does not follow the previous frame's last is
// corruption: Open truncates there, however valid the frame is itself.
func TestFileLogStopsAtLSNGap(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	img, _ := appendFrame(logImage(1), 1, []BatchEntry{{Kind: RecCommit}, {Kind: RecCommit}})
	good := len(img)
	img, _ = appendFrame(img, 4, []BatchEntry{{Kind: RecCommit}})
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if fi, _ := os.Stat(path); l.LastLSN() != 2 || fi.Size() != int64(good) {
		t.Errorf("LastLSN = %d, size %d; want 2, %d (the frame at LSN 4 cut off)", l.LastLSN(), fi.Size(), good)
	}
}

// TestFileLogBytesPerBatch pins what framing costs on disk, at LSNs of
// three varint bytes (2^14 to 2^21): a one-record batch costs its
// payload + at most 10 B, and each further record in the same batch
// 2 B more.
func TestFileLogBytesPerBatch(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	start := logImage(1 << 20) // a header alone: next LSN 2^20
	if err := os.WriteFile(path, start, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	payload := []byte("twelve bytes")
	for _, k := range []int{1, 2, 5} {
		entries := make([]BatchEntry, k)
		for i := range entries {
			entries[i] = BatchEntry{Kind: RecCommit, Data: payload}
		}
		before := size()
		if first, err := l.AppendBatch(entries); err != nil || first < 1<<20 {
			t.Fatalf("k=%d: first=%d err=%v", k, first, err)
		}
		framing := size() - before - int64(k*len(payload))
		if k == 1 && framing > 10 {
			t.Errorf("one record: %d B of framing, want ≤ 10", framing)
		}
		if framing > int64(8+2*k) {
			t.Errorf("%d records in one batch: %d B of framing, want ≤ %d", k, framing, 8+2*k)
		}
	}
}

// Writer and reader share one frame bound: a batch over it is refused
// whole, and the log keeps working and reopens intact.
func TestFileLogRefusesOversizedBatch(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	l, _ := OpenFileLog(path, FileLogOptions{})
	l.Append(RecCommit, []byte("before"))
	if _, err := l.Append(RecCheckpoint, make([]byte, maxFrameBody)); err == nil {
		t.Error("a record over the frame bound was acknowledged")
	}
	if lsn, err := l.Append(RecCommit, []byte("after")); err != nil || lsn != 2 {
		t.Fatalf("append after the refused batch: lsn=%d err=%v", lsn, err)
	}
	l.Close()
	l2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var payloads []string
	l2.Scan(1, func(r Record) error { payloads = append(payloads, string(r.Data)); return nil })
	if l2.LastLSN() != 2 || len(payloads) != 2 || payloads[1] != "after" {
		t.Errorf("after reopen: LastLSN=%d payloads=%q", l2.LastLSN(), payloads)
	}
}

func TestFileLogLargePayloads(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	l, _ := OpenFileLog(path, FileLogOptions{})
	defer l.Close()
	big := make([]byte, 64*1024)
	for i := range big {
		big[i] = byte(i)
	}
	if _, err := l.Append(RecCheckpoint, big); err != nil {
		t.Fatal(err)
	}
	var got []byte
	l.Scan(1, func(r Record) error { got = append([]byte(nil), r.Data...); return nil })
	if len(got) != len(big) || got[12345] != big[12345] {
		t.Error("large payload corrupted")
	}
}

// A one-record force costs 5 B of frame (a one-byte length and the
// CRC) and 2 B of record (kind and a one-byte length) beyond its
// payload, at any LSN: no frame states one. Each further record in the
// same force costs its 2 B.
func TestFileLogFramesAForceInFiveBytes(t *testing.T) {
	for _, base := range []uint64{1, 1 << 20, 1 << 40} {
		path := t.TempDir() + "/wal.log"
		if err := os.WriteFile(path, logImage(base), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenFileLog(path, FileLogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		payload := []byte("twelve bytes")
		for _, k := range []int{1, 1, 3} {
			fi, _ := os.Stat(path)
			before := fi.Size()
			entries := make([]BatchEntry, k)
			for i := range entries {
				entries[i] = BatchEntry{Kind: RecCommit, Data: payload}
			}
			if _, err := l.AppendBatch(entries); err != nil {
				t.Fatal(err)
			}
			fi, _ = os.Stat(path)
			if got, want := fi.Size()-before, int64(5+k*(2+len(payload))); got != want {
				t.Errorf("base %d, %d records in one force: %d B on disk, want %d", base, k, got, want)
			}
		}
		if want := base + 4; l.LastLSN() != want {
			t.Errorf("base %d: LastLSN %d, want %d", base, l.LastLSN(), want)
		}
		l.Close()
	}
}

// A frame is checked at the LSN it must carry, which the file states
// nowhere: a valid frame found anywhere but where it was written — a
// replayed tail, an earlier frame over a later one — ends the valid
// prefix there.
func TestFrameOutOfSequenceRejected(t *testing.T) {
	write := func(t *testing.T) (path string, img []byte, ends []int) {
		path = t.TempDir() + "/wal.log"
		l, err := OpenFileLog(path, FileLogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ends = []int{headerSize}
		for _, p := range []string{"frame-1", "frame-2", "frame-3"} {
			l.Append(RecCommit, []byte(p))
			fi, _ := os.Stat(path)
			ends = append(ends, int(fi.Size()))
		}
		l.Close()
		img, _ = os.ReadFile(path)
		return path, img, ends
	}
	reopen := func(t *testing.T, path string, img []byte, wantLast uint64, wantSize int) {
		t.Helper()
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenFileLog(path, FileLogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if fi, _ := os.Stat(path); l.LastLSN() != wantLast || fi.Size() != int64(wantSize) {
			t.Errorf("LastLSN %d, size %d; want %d, %d", l.LastLSN(), fi.Size(), wantLast, wantSize)
		}
	}
	t.Run("replayed tail", func(t *testing.T) {
		path, img, ends := write(t)
		reopen(t, path, append(img, img[ends[2]:ends[3]]...), 3, ends[3])
	})
	t.Run("earlier frame over a later one", func(t *testing.T) {
		path, img, ends := write(t)
		copy(img[ends[1]:], img[ends[0]:ends[1]])
		reopen(t, path, img, 1, ends[1])
	})
}

// A log in an earlier format has no reader: it is refused, not
// misread, and left byte for byte as it was. "DVPw" frames stated
// their first LSN; "DVPf" logs had the header this one has, and
// checkpoint items that carried an applied LSN; "DVPg" logs had this
// framing whole but no clock reservations, so a restart from one could
// not resume the clock; "DVPh" logs had reservations, but checkpoint
// items that carried a stamp.
func TestOldFormatRefused(t *testing.T) {
	body := []byte{1, byte(RecCommit), 3, 'o', 'l', 'd'} // firstLSN 1, one record
	dvpw := append([]byte("DVPw"), byte(len(body)))
	dvpw = binary.BigEndian.AppendUint32(dvpw, crc32.Checksum(body, crcTable))
	dvpw = append(dvpw, body...)
	dvpf := binary.BigEndian.AppendUint64([]byte("DVPf"), 1)
	dvpf = binary.BigEndian.AppendUint32(dvpf, crc32.Checksum(dvpf, crcTable))
	dvpf = append(dvpf, body[1:]...)
	dvpg := binary.BigEndian.AppendUint64([]byte("DVPg"), 1)
	dvpg = binary.BigEndian.AppendUint32(dvpg, crc32.Checksum(dvpg, crcTable))
	dvpg, _ = appendFrame(dvpg, 1, []BatchEntry{{Kind: RecCommit, Data: []byte("old")}})
	dvph := binary.BigEndian.AppendUint64([]byte("DVPh"), 1)
	dvph = binary.BigEndian.AppendUint32(dvph, crc32.Checksum(dvph, crcTable))
	dvph, _ = appendFrame(dvph, 1, []BatchEntry{{Kind: RecCheckpoint, Data: []byte("old")}})
	for name, old := range map[string][]byte{"DVPw": dvpw, "DVPf": dvpf, "DVPg": dvpg, "DVPh": dvph} {
		path := t.TempDir() + "/wal.log"
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := OpenFileLog(path, FileLogOptions{}); err == nil {
			l.Close()
			t.Fatalf("opened a %s log", name)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
			t.Errorf("refused %s log changed on disk: %x, was %x", name, got, old)
		}
	}
}

// A header whose CRC does not match is not a log's: refused, untouched.
func TestDamagedHeaderRefused(t *testing.T) {
	img, _ := appendFrame(logImage(7), 7, []BatchEntry{{Kind: RecCommit, Data: []byte("x")}})
	img[len(fileMagic)+7] ^= 1 // base 7 → 6
	path := t.TempDir() + "/wal.log"
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := OpenFileLog(path, FileLogOptions{}); err == nil {
		l.Close()
		t.Fatal("opened a log with a damaged header")
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, img) {
		t.Error("refused log changed on disk")
	}
}
