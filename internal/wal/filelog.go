package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"dvp/internal/metrics"
	"dvp/internal/obs"
)

// FileLog is an append-only file-backed stable log for real
// deployments (cmd/dvpnode). Each record is framed as
//
//	[u32 length][u32 crc32][u64 lsn][u8 kind][payload]
//
// where length covers lsn+kind+payload and crc32 (Castagnoli) covers
// the same bytes. Open scans the file, verifies every frame, and
// truncates a torn or corrupt tail — the standard contract of stable
// storage built on a real disk.
type FileLog struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	lastLSN uint64
	size    int64
	sync    bool
	closed  bool
	encBuf  []byte // reusable batch-encode scratch, guarded by mu

	// Instrumentation (see Instrument); nil when not instrumented.
	appendLat *metrics.Histogram
	fsyncLat  *metrics.Histogram
	recKind   map[RecordKind]*metrics.Counter
}

const fileHeaderLen = 4 + 4 + 8 + 1

// maxRetainedEncBuf bounds the batch-encode scratch kept across
// appends; larger frames (checkpoints) are encoded into a one-shot
// buffer instead of pinning the memory forever.
const maxRetainedEncBuf = 1 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FileLogOptions configures OpenFileLog.
type FileLogOptions struct {
	// Sync forces an fsync after every append. Without it a crash of
	// the host OS (not just the process) can lose the tail; the
	// simulation's crash model only kills the process, so tests run
	// with Sync off for speed. A site wraps the log in a GroupLog, so
	// concurrent committers share one fsync per batch instead of
	// paying one each — AppendBatch forces once for the whole group.
	Sync bool
}

// OpenFileLog opens (creating if absent) the log at path, verifying
// existing records and truncating any torn tail.
func OpenFileLog(path string, opts FileLogOptions) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &FileLog{f: f, path: path, sync: opts.Sync}
	if err := l.recoverTail(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// recoverTail scans the file from the start, stopping at the first
// invalid frame and truncating there.
func (l *FileLog) recoverTail() error {
	var off int64
	hdr := make([]byte, 8)
	for {
		n, err := l.f.ReadAt(hdr, off)
		if err == io.EOF && n == 0 {
			break
		}
		if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
			return fmt.Errorf("wal: scan %s: %w", l.path, err)
		}
		if n < 8 {
			break // torn header
		}
		length := binary.BigEndian.Uint32(hdr[0:4])
		crc := binary.BigEndian.Uint32(hdr[4:8])
		if length < 9 || length > 1<<24 {
			break // corrupt length
		}
		body := make([]byte, length)
		bn, _ := l.f.ReadAt(body, off+8)
		if bn < int(length) {
			break // torn body
		}
		if crc32.Checksum(body, crcTable) != crc {
			break // corrupt body
		}
		lsn := binary.BigEndian.Uint64(body[0:8])
		if l.lastLSN != 0 && lsn != l.lastLSN+1 {
			break // LSN discontinuity: treat as corruption
		}
		// A compacted log legitimately starts at any LSN; only
		// continuity after the first record is required.
		l.lastLSN = lsn
		off += 8 + int64(length)
	}
	if err := l.f.Truncate(off); err != nil {
		return fmt.Errorf("wal: truncate torn tail of %s: %w", l.path, err)
	}
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	l.size = off
	return nil
}

// Instrument registers this log's metrics with reg, under the given
// extra k,v label pairs (conventionally site=<id>): append and fsync
// latency histograms (dvp_wal_append_seconds, dvp_wal_fsync_seconds)
// and per-kind record counts (dvp_wal_records_total{kind=...}).
func (l *FileLog) Instrument(reg *obs.Registry, labels ...string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendLat = reg.Histogram("dvp_wal_append_seconds", labels...)
	l.fsyncLat = reg.Histogram("dvp_wal_fsync_seconds", labels...)
	l.recKind = make(map[RecordKind]*metrics.Counter)
	for k := RecVmCreate; k <= RecDecision; k++ {
		l.recKind[k] = reg.Counter("dvp_wal_records_total",
			append([]string{"kind", k.String()}, labels...)...)
	}
}

// Append implements Log.
func (l *FileLog) Append(kind RecordKind, data []byte) (uint64, error) {
	return appendDurably(l, kind, data)
}

// Enqueue implements Log: written (and, with Sync, forced) on return.
func (l *FileLog) Enqueue(kind RecordKind, data []byte) (uint64, error) {
	return l.AppendBatch([]BatchEntry{{Kind: kind, Data: data}})
}

// WaitDurable implements Log: a record is stable once Enqueue returns.
func (l *FileLog) WaitDurable(uint64) error { return nil }

// DurableLSN implements Log: every record is stable, so LastLSN.
func (l *FileLog) DurableLSN() uint64 { return l.LastLSN() }

// AppendBatch implements BatchAppender: the whole batch is framed into
// one buffer, written with one WriteAt and made stable with one fsync —
// the force-write amortization group commit is built on.
func (l *FileLog) AppendBatch(entries []BatchEntry) (uint64, error) {
	if len(entries) == 0 {
		return 0, fmt.Errorf("wal: empty batch")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	var start time.Time
	if l.appendLat != nil {
		start = time.Now()
	}
	first := l.lastLSN + 1
	total := 0
	for _, e := range entries {
		total += fileHeaderLen + len(e.Data)
	}
	// Frame the batch in place into the reusable encode buffer (guarded
	// by l.mu): header placeholder, then body, then patch length+crc
	// over the body subslice — no per-record intermediate allocation.
	if cap(l.encBuf) < total {
		l.encBuf = make([]byte, 0, total)
	}
	buf := l.encBuf[:0]
	for i, e := range entries {
		hdrOff := len(buf)
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
		bodyOff := len(buf)
		buf = binary.BigEndian.AppendUint64(buf, first+uint64(i))
		buf = append(buf, byte(e.Kind))
		buf = append(buf, e.Data...)
		body := buf[bodyOff:]
		binary.BigEndian.PutUint32(buf[hdrOff:hdrOff+4], uint32(len(body)))
		binary.BigEndian.PutUint32(buf[hdrOff+4:hdrOff+8], crc32.Checksum(body, crcTable))
	}
	if cap(buf) <= maxRetainedEncBuf {
		l.encBuf = buf[:0]
	} else {
		l.encBuf = nil // don't pin a giant checkpoint frame
	}
	if _, err := l.f.WriteAt(buf, l.size); err != nil {
		return 0, fmt.Errorf("wal: append to %s: %w", l.path, err)
	}
	if l.sync {
		var syncStart time.Time
		if l.fsyncLat != nil {
			syncStart = time.Now()
		}
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: fsync %s: %w", l.path, err)
		}
		if l.fsyncLat != nil {
			l.fsyncLat.Record(time.Since(syncStart))
		}
	}
	l.size += int64(len(buf))
	l.lastLSN = first + uint64(len(entries)) - 1
	if l.appendLat != nil {
		l.appendLat.Record(time.Since(start))
		for _, e := range entries {
			if c := l.recKind[e.Kind]; c != nil {
				c.Inc()
			}
		}
	}
	return first, nil
}

// Scan implements Log. It reads through a private read-only descriptor
// opened under the lock, so a Compact racing the scan cannot swap the
// file out from under it: rename leaves the old inode readable, and the
// scan sees a consistent pre- or post-compaction image, never a torn
// mix or a closed descriptor.
func (l *FileLog) Scan(from uint64, fn func(Record) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	size := l.size
	f, err := os.Open(l.path)
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: scan %s: %w", l.path, err)
	}
	defer f.Close()
	var off int64
	hdr := make([]byte, 8)
	for off < size {
		if _, err := f.ReadAt(hdr, off); err != nil {
			return fmt.Errorf("wal: scan %s: %w", l.path, err)
		}
		length := binary.BigEndian.Uint32(hdr[0:4])
		body := make([]byte, length)
		if _, err := f.ReadAt(body, off+8); err != nil {
			return fmt.Errorf("wal: scan %s: %w", l.path, err)
		}
		lsn := binary.BigEndian.Uint64(body[0:8])
		if lsn >= from {
			rec := Record{LSN: lsn, Kind: RecordKind(body[8]), Data: body[9:]}
			if err := fn(rec); err != nil {
				return err
			}
		}
		off += 8 + int64(length)
	}
	return nil
}

// Compact implements Log: rewrite the file keeping only records with
// LSN > upto. The rewrite goes through a temp file + rename so a crash
// mid-compaction leaves either the old or the new log, never a torn
// one.
func (l *FileLog) Compact(upto uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	tmp := l.path + ".compact"
	out, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	var outOff int64
	var lastKept uint64
	err = l.scanLocked(upto+1, func(r Record) error {
		body := make([]byte, 9+len(r.Data))
		binary.BigEndian.PutUint64(body[0:8], r.LSN)
		body[8] = byte(r.Kind)
		copy(body[9:], r.Data)
		frame := make([]byte, 8+len(body))
		binary.BigEndian.PutUint32(frame[0:4], uint32(len(body)))
		binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(body, crcTable))
		copy(frame[8:], body)
		if _, werr := out.WriteAt(frame, outOff); werr != nil {
			return werr
		}
		outOff += int64(len(frame))
		lastKept = r.LSN
		return nil
	})
	if err != nil {
		out.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	if err := out.Sync(); err != nil {
		out.Close()
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		out.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: compact rename: %w", err)
	}
	l.f.Close()
	l.f = out
	l.size = outOff
	if lastKept > 0 {
		l.lastLSN = lastKept
	}
	// If everything was dropped, lastLSN keeps its value so new
	// appends continue the sequence.
	return nil
}

// scanLocked is Scan with l.mu already held (Compact needs a stable
// view while it rewrites).
func (l *FileLog) scanLocked(from uint64, fn func(Record) error) error {
	var off int64
	hdr := make([]byte, 8)
	for off < l.size {
		if _, err := l.f.ReadAt(hdr, off); err != nil {
			return err
		}
		length := binary.BigEndian.Uint32(hdr[0:4])
		body := make([]byte, length)
		if _, err := l.f.ReadAt(body, off+8); err != nil {
			return err
		}
		lsn := binary.BigEndian.Uint64(body[0:8])
		if lsn >= from {
			if err := fn(Record{LSN: lsn, Kind: RecordKind(body[8]), Data: body[9:]}); err != nil {
				return err
			}
		}
		off += 8 + int64(length)
	}
	return nil
}

// LastLSN implements Log.
func (l *FileLog) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// Close implements Log.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
