package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"dvp/internal/metrics"
	"dvp/internal/obs"
)

// FileLog is an append-only file-backed stable log for real
// deployments (cmd/dvpnode). The file is a header stating the LSN of
// its first record, then one frame per AppendBatch, so the unit of
// framing is the unit of durability:
//
//	header = "DVPj" [u64 base][u32 crc32c(magic, base)]
//	frame  = [uvarint n][u32 crc][body]                    n = len(body)
//	body   = ([u8 kind][uvarint len][payload])+
//
// No frame states an LSN: the first frame's first record has LSN base,
// and each frame's first follows the previous frame's last. The CRC is
// crc32c(body) seeded with that first LSN, so a valid frame anywhere
// but the place it was written fails its check. Open truncates a torn
// or corrupt tail at a frame boundary, so a torn batch is dropped
// whole, and refuses (without touching it) a file whose header is not
// this format's — a log in an older format among them.
type FileLog struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	base    uint64 // the LSN of the file's first record, from its header
	lastLSN uint64
	size    int64
	sync    bool
	closed  bool
	encBuf  []byte // reusable frame-encode scratch, guarded by mu

	// Instrumentation (see Instrument); nil when not instrumented.
	appendLat *metrics.Histogram
	fsyncLat  *metrics.Histogram
	recKind   map[RecordKind]*metrics.Counter
}

// fileMagic opens the header. Each change of the file or record format
// takes a new one, and there is no reader for an earlier format: such a
// log is refused as foreign, not misread.
const fileMagic = "DVPj"

// headerSize is the header's length: magic, base LSN and CRC.
const headerSize = len(fileMagic) + 8 + 4

// maxFrameBody bounds a frame's body for writer and reader alike:
// AppendBatch refuses a larger batch, Open a larger length.
const maxFrameBody = 1 << 24

// maxRetainedEncBuf bounds the encode scratch kept across appends, so a
// checkpoint's frame does not pin its memory forever.
const maxRetainedEncBuf = 1 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FileLogOptions configures OpenFileLog.
type FileLogOptions struct {
	// Sync forces an fsync after every AppendBatch, which a GroupLog
	// makes one per group. Without it a crash of the host OS (not just
	// the process) can lose the tail; tests run without it for speed.
	Sync bool
}

// OpenFileLog opens (creating if absent) the log at path, verifying
// existing frames and truncating any torn tail. A file that is neither
// a log nor the torn start of one is refused and not modified.
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

// putHeader writes into h the header of a log whose first record has
// LSN base.
func putHeader(h []byte, base uint64) {
	copy(h, fileMagic)
	binary.BigEndian.PutUint64(h[len(fileMagic):], base)
	binary.BigEndian.PutUint32(h[headerSize-4:], crc32.Checksum(h[:headerSize-4], crcTable))
}

// parseHeader returns the base LSN a file's first bytes state, and
// whether they are a header: headerSize bytes, this format's magic, a
// base of at least 1 and a matching CRC.
func parseHeader(h []byte) (base uint64, ok bool) {
	if len(h) < headerSize {
		return 0, false
	}
	base = binary.BigEndian.Uint64(h[len(fileMagic):])
	return base, string(h[:len(fileMagic)]) == fileMagic && base != 0 &&
		binary.BigEndian.Uint32(h[headerSize-4:]) == crc32.Checksum(h[:headerSize-4], crcTable)
}

// recoverTail checks the header, walks the frames and truncates the
// file after the last valid one.
func (l *FileLog) recoverTail() error {
	fi, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: open %s: %w", l.path, err)
	}
	head := make([]byte, min(fi.Size(), int64(headerSize)))
	if _, err := l.f.ReadAt(head, 0); err != nil {
		return fmt.Errorf("wal: open %s: %w", l.path, err)
	}
	fresh := make([]byte, headerSize)
	putHeader(fresh, 1)
	end := int64(headerSize)
	var ok bool
	if l.base, ok = parseHeader(head); ok {
		if end, l.lastLSN, err = walkFrames(l.f, fi.Size(), l.base, func([]Record) error { return nil }); err != nil {
			return fmt.Errorf("wal: scan %s: %w", l.path, err)
		}
	} else if !bytes.HasPrefix(fresh, head) {
		return fmt.Errorf("wal: %s is not a log file (no valid %q header); refusing to open it", l.path, fileMagic)
	} else { // new, or torn in its first write
		l.base = 1
		if _, err := l.f.WriteAt(fresh, 0); err != nil {
			return fmt.Errorf("wal: init %s: %w", l.path, err)
		}
		// Until its directory is fsynced a new file may vanish in a host
		// crash, and with it every record fsynced into it.
		if l.sync {
			if err := syncDir(filepath.Dir(l.path)); err != nil {
				return fmt.Errorf("wal: init %s: %w", l.path, err)
			}
		}
	}
	if err := l.f.Truncate(end); err != nil {
		return fmt.Errorf("wal: truncate torn tail of %s: %w", l.path, err)
	}
	l.size = end
	return nil
}

// appendFrame appends to buf the frame holding entries from LSN first
// on. It refuses a body over maxFrameBody before growing buf.
func appendFrame(buf []byte, first uint64, entries []BatchEntry) ([]byte, error) {
	n := 0
	for _, e := range entries {
		n += 1 + uvarintLen(uint64(len(e.Data))) + len(e.Data)
	}
	if n > maxFrameBody {
		return buf, fmt.Errorf("wal: a batch of %d records needs a %d-byte frame, over the %d-byte bound", len(entries), n, maxFrameBody)
	}
	buf = slices.Grow(buf, binary.MaxVarintLen32+4+n)
	buf = binary.AppendUvarint(buf, uint64(n))
	crcOff := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	for _, e := range entries {
		buf = binary.AppendUvarint(append(buf, byte(e.Kind)), uint64(len(e.Data)))
		buf = append(buf, e.Data...)
	}
	binary.BigEndian.PutUint32(buf[crcOff:], frameCRC(first, buf[crcOff+4:]))
	return buf, nil
}

// frameCRC is the checksum of a frame whose first record has LSN first:
// crc32c of the body, seeded with the LSN folded to 32 bits. A CRC's
// seed shifts it by an invertible map, so the same body under another
// LSN fails its check: the LSN is checked, not stored.
func frameCRC(first uint64, body []byte) uint32 {
	return crc32.Update(uint32(first)^uint32(first>>32), crcTable, body)
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// walkFrames reads the frames of a log file whose header states base
// through one buffer and calls fn with each frame's records, whose Data
// alias that buffer. It stops at the end of the valid prefix — a frame
// that is torn or empty, does not parse, or fails its checksum at the
// LSN that follows the previous frame's last — and returns where it
// ends and its last LSN; err is I/O's or fn's.
func walkFrames(f io.ReaderAt, size int64, base uint64, fn func([]Record) error) (end int64, last uint64, err error) {
	end, last = int64(headerSize), base-1
	r := bufio.NewReaderSize(io.NewSectionReader(f, end, size-end), int(min(max(size-end, 16), 64<<10)))
	var body []byte
	var recs []Record
	for {
		hdr, err := r.Peek(int(min(binary.MaxVarintLen32+4, size-end)))
		if err != nil && err != io.EOF {
			return end, last, err
		}
		n, k := binary.Uvarint(hdr)
		if k <= 0 || len(hdr) < k+4 || n == 0 || n > maxFrameBody || int64(n) > size-end-int64(k+4) {
			return end, last, nil
		}
		crc := binary.BigEndian.Uint32(hdr[k:])
		r.Discard(k + 4)
		body = slices.Grow(body[:0], int(n))[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return end, last, err
		}
		first := last + 1
		if frameCRC(first, body) != crc {
			return end, last, nil
		}
		recs = recs[:0]
		for p := 0; p < len(body); {
			ln, m := binary.Uvarint(body[p+1:])
			if m <= 0 || ln > uint64(len(body)-p-1-m) {
				return end, last, nil
			}
			data := body[p+1+m : p+1+m+int(ln) : p+1+m+int(ln)]
			recs = append(recs, Record{LSN: first + uint64(len(recs)), Kind: RecordKind(body[p]), Data: data})
			p += 1 + m + int(ln)
		}
		if err := fn(recs); err != nil {
			return end, last, err
		}
		end, last = end+int64(k+4)+int64(n), first+uint64(len(recs))-1
	}
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
	for k := RecVmCreate; k <= RecName; k++ {
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

// Reset implements Log: a device has no volatile half.
func (l *FileLog) Reset() int { return 0 }

// AppendBatch implements BatchAppender: the whole batch is one frame,
// written with one WriteAt and made stable with one fsync — the
// force-write amortization group commit is built on. A batch whose
// frame would exceed the bound is refused whole; the log stays usable.
func (l *FileLog) AppendBatch(entries []BatchEntry) (uint64, error) {
	if len(entries) == 0 {
		return 0, fmt.Errorf("wal: empty batch")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	start := time.Now()
	first := l.lastLSN + 1
	buf, err := appendFrame(l.encBuf[:0], first, entries)
	if err != nil {
		return 0, err
	}
	if l.encBuf = buf[:0]; cap(buf) > maxRetainedEncBuf {
		l.encBuf = nil // don't pin a giant checkpoint frame
	}
	if _, err := l.f.WriteAt(buf, l.size); err != nil {
		return 0, fmt.Errorf("wal: append to %s: %w", l.path, err)
	}
	if l.sync {
		syncStart := time.Now()
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
// scan sees a consistent pre- or post-compaction image. Every frame is
// read into one buffer, so a record's Data is valid until fn returns.
func (l *FileLog) Scan(from uint64, fn func(Record) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	size, base := l.size, l.base
	f, err := os.Open(l.path)
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: scan %s: %w", l.path, err)
	}
	defer f.Close()
	end, _, err := walkFrames(f, size, base, func(recs []Record) error {
		for _, r := range recs {
			if r.LSN >= from {
				if err := fn(r); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err == nil && end != size {
		err = fmt.Errorf("wal: scan %s: invalid frame at offset %d", l.path, end)
	}
	return err
}

// Compact implements Log: rewrite the file keeping only records with
// LSN > upto, each frame's survivors as one frame (within the bound, as
// a subset of a valid frame), behind a header whose base is the first
// survivor's LSN or, if none survive, the next LSN. Callers keep their
// latest checkpoint, so the new
// image is that and its suffix, built in memory; it replaces the file by
// rename, so a crash mid-compaction leaves the old log or the new one.
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
	img := make([]byte, headerSize)
	base := l.lastLSN + 1 // unless a record survives
	var kept []BatchEntry
	end, _, err := walkFrames(l.f, l.size, l.base, func(recs []Record) error {
		kept = kept[:0]
		for _, r := range recs {
			if r.LSN > upto {
				kept = append(kept, BatchEntry{Kind: r.Kind, Data: r.Data})
			}
		}
		if len(kept) == 0 {
			return nil
		}
		first := recs[len(recs)-len(kept)].LSN
		base = min(base, first)
		var err error
		img, err = appendFrame(img, first, kept)
		return err
	})
	if err == nil && end != l.size {
		err = fmt.Errorf("invalid frame at offset %d", end)
	}
	putHeader(img, base)
	if err == nil {
		_, err = out.Write(img)
	}
	if err == nil {
		err = out.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		out.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	l.f.Close()
	l.f, l.size, l.base = out, int64(len(img)), base
	// Until the directory is fsynced a host crash may leave the path
	// naming the old inode, losing appends fsynced into the new one.
	if l.sync {
		if err := syncDir(filepath.Dir(l.path)); err != nil {
			return fmt.Errorf("wal: compact %s: %w", l.path, err)
		}
	}
	return nil
}

// syncDir fsyncs a directory, making the entries created or renamed in
// it durable. A variable so tests can count the calls.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
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
