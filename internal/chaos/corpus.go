package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"dvp"
	"dvp/internal/ident"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// CaptureCorpus runs one chaos scenario with a network tap and turns
// what actually went over the wire and into the logs into checked-in
// seed corpus entries for the repository's fuzz targets:
//
//   - every distinct envelope kind tapped off the simulated network →
//     internal/wire/testdata/fuzz/FuzzUnmarshal
//   - every distinct WAL record payload scanned from the sites' logs,
//     by kind, with commits that accept Vm apart from those that do not
//     → internal/wal/testdata/fuzz/FuzzDecodeRecords
//   - complete and torn file-log images built from those records →
//     internal/wal/testdata/fuzz/FuzzFileLogRecovery
//
// internalDir is the repository's internal/ directory (regenerate with
// `dvpsim chaos -seed 7 -corpus internal` from the repo root: seed 7's
// schedule checkpoints, so its logs hold checkpoint records). Entries
// are named chaos-* and overwrite previous captures.
func CaptureCorpus(seed int64, internalDir string) error {
	sched := Build(seed)

	var mu sync.Mutex
	frames := make(map[wire.Kind][][]byte)
	payloads := make(map[string][]wal.Record)
	var scanErr error

	rep, err := Run(sched, Options{
		Tap: func(from, to ident.SiteID, kind wire.Kind, frame []byte) {
			mu.Lock()
			defer mu.Unlock()
			if len(frames[kind]) < perKind {
				frames[kind] = append(frames[kind], append([]byte(nil), frame...))
			}
		},
		OnQuiescent: func(c *dvp.Cluster) {
			mu.Lock()
			defer mu.Unlock()
			if err := capturePayloads(c, sched.Sites, payloads); err != nil && scanErr == nil {
				scanErr = err
			}
		},
	})
	if err != nil {
		return fmt.Errorf("chaos corpus run: %w", err)
	}
	if scanErr != nil {
		return fmt.Errorf("chaos corpus capture: %w", scanErr)
	}
	fmt.Printf("corpus capture: %s\n", rep)

	wireDir := filepath.Join(internalDir, "wire", "testdata", "fuzz", "FuzzUnmarshal")
	for kind, fs := range frames {
		for i, frame := range fs {
			name := fmt.Sprintf("chaos-%s-%d", sanitize(kind.String()), i)
			if err := writeCorpusFile(filepath.Join(wireDir, name), frame); err != nil {
				return err
			}
		}
	}

	recDir := filepath.Join(internalDir, "wal", "testdata", "fuzz", "FuzzDecodeRecords")
	var allRecords []wal.Record
	for shape, recs := range payloads {
		for i, rec := range recs {
			name := fmt.Sprintf("chaos-%s-%d", sanitize(shape), i)
			if err := writeCorpusFile(filepath.Join(recDir, name), rec.Data); err != nil {
				return err
			}
			allRecords = append(allRecords, rec)
		}
	}

	images, err := fileLogImages(allRecords)
	if err != nil {
		return err
	}
	logDir := filepath.Join(internalDir, "wal", "testdata", "fuzz", "FuzzFileLogRecovery")
	for i, img := range images {
		name := fmt.Sprintf("chaos-filelog-%d", i)
		if err := writeCorpusFile(filepath.Join(logDir, name), img); err != nil {
			return err
		}
	}
	return nil
}

// perKind bounds the corpus entries captured of each envelope kind and
// record shape.
const perKind = 3

// capturePayloads adds to payloads up to perKind record payloads of
// each shape from the stable logs of sites 1..sites — by kind, with
// commits that accept Vm apart from those that do not. A log it cannot
// read, or a record that does not decode with the names its log defined
// before it, is an error.
func capturePayloads(c *dvp.Cluster, sites int, payloads map[string][]wal.Record) error {
	for i := 1; i <= sites; i++ {
		var names wal.Names
		err := c.SiteEngine(i).Log().Scan(1, func(rec wal.Record) error {
			var err error
			switch rec.Kind {
			case wal.RecName:
				_, err = names.DecodeName(rec.Data)
			case wal.RecCheckpoint:
				_, err = names.DecodeCheckpoint(rec.Data)
			case wal.RecCommit:
				_, err = names.DecodeCommit(rec.Data)
			case wal.RecVmCreate:
				_, err = names.DecodeVmCreate(rec.Data)
			case wal.RecVmAccept:
				_, err = names.DecodeVmAccept(rec.Data)
			}
			if err != nil {
				return fmt.Errorf("LSN %d: %w", rec.LSN, err)
			}
			shape := rec.Kind.String()
			if rec.Kind == wal.RecCommit {
				acc, err := wal.Accepted(rec)
				if err != nil {
					return fmt.Errorf("LSN %d: %w", rec.LSN, err)
				}
				if len(acc) > 0 {
					shape = "commit-accepts"
				}
			}
			if len(payloads[shape]) < perKind {
				payloads[shape] = append(payloads[shape],
					wal.Record{Kind: rec.Kind, Data: append([]byte(nil), rec.Data...)})
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("site %d log: %w", i, err)
		}
	}
	return nil
}

// fileLogImages builds seed inputs for torn-tail recovery: a clean
// file-log image containing real records, its last three written as one
// batch (one frame), then the same image with a torn tail, with a
// flipped byte mid-file (CRC damage), and torn in the middle of that
// batch.
func fileLogImages(records []wal.Record) ([][]byte, error) {
	dir, err := os.MkdirTemp("", "chaos-corpus-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "img.wal")
	l, err := wal.OpenFileLog(path, wal.FileLogOptions{})
	if err != nil {
		return nil, err
	}
	defer l.Close()
	split := max(len(records)-3, 0)
	for _, rec := range records[:split] {
		if _, err := l.Append(rec.Kind, rec.Data); err != nil {
			return nil, err
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var batch []wal.BatchEntry
	for _, rec := range records[split:] {
		batch = append(batch, wal.BatchEntry{Kind: rec.Kind, Data: rec.Data})
	}
	if len(batch) > 0 {
		if _, err := l.AppendBatch(batch); err != nil {
			return nil, err
		}
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	images := [][]byte{clean}
	if len(clean) > 7 {
		torn := append([]byte(nil), clean[:len(clean)-7]...)
		images = append(images, torn)
		flipped := append([]byte(nil), clean...)
		flipped[len(flipped)/2] ^= 0x40
		images = append(images, flipped)
		batchStart := int(fi.Size())
		images = append(images, append([]byte(nil), clean[:batchStart+(len(clean)-batchStart)/2]...))
	}
	return images, nil
}

// writeCorpusFile writes one entry in the `go test fuzz v1` seed
// corpus encoding.
func writeCorpusFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	return os.WriteFile(path, []byte(content), 0o644)
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, s)
}
