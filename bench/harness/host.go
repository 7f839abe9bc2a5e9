package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// Fingerprint labels a result with the host it was measured on. These
// are labels, not metrics: they say which results may be compared.
type Fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// FSType is the filesystem holding the WAL directory.
	FSType string `json:"wal_fs_type"`
	// FsyncUs is the median of 200 × (64-byte append + fsync) there.
	FsyncUs float64 `json:"fsync_us"`
	// SleepOvershootUs is how much longer than asked time.Sleep(200µs)
	// takes (median of 50).
	SleepOvershootUs float64 `json:"sleep_200us_overshoot_us"`
}

// fsyncFloorUs is the calibrated fsync below which the device is not a
// device: on tmpfs a force costs nothing and every *_durable workload
// degenerates into local_cpu.
const fsyncFloorUs = 20

var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
	0xF2F52010: "f2fs",
	0x65735546: "fuse",
}

// TakeFingerprint measures the host, calibrating on dir (the directory
// the WALs will live in).
func TakeFingerprint(dir string) (Fingerprint, error) {
	fp := Fingerprint{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(rel))
	} else {
		fp.Kernel = "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return fp, err
	}
	magic := int64(st.Type) & 0xFFFFFFFF
	if name, ok := fsNames[magic]; ok {
		fp.FSType = name
	} else {
		fp.FSType = fmt.Sprintf("0x%x", magic)
	}

	path := filepath.Join(dir, "calibrate.tmp")
	f, err := os.Create(path)
	if err != nil {
		return fp, err
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 64)
	syncs := make([]float64, 0, 200)
	for i := 0; i < cap(syncs); i++ {
		t := time.Now()
		if _, err := f.Write(buf); err != nil {
			return fp, err
		}
		if err := f.Sync(); err != nil {
			return fp, err
		}
		syncs = append(syncs, float64(time.Since(t))/1e3)
	}
	fp.FsyncUs = Median(syncs)

	sleeps := make([]float64, 0, 50)
	for i := 0; i < cap(sleeps); i++ {
		t := time.Now()
		time.Sleep(200 * time.Microsecond)
		sleeps = append(sleeps, float64(time.Since(t)-200*time.Microsecond)/1e3)
	}
	fp.SleepOvershootUs = Median(sleeps)
	return fp, nil
}

// Warning returns a loud message when the host cannot give the durable
// workloads a meaning ("" when it can).
func (fp Fingerprint) Warning() string {
	if fp.FsyncUs < fsyncFloorUs {
		return fmt.Sprintf("WARNING: calibrated fsync on %s is %.1f µs (< %d µs): this is not a durable device, every *_durable workload degenerates into local_cpu",
			fp.FSType, fp.FsyncUs, fsyncFloorUs)
	}
	return ""
}

// Comparable says whether results from two hosts may be compared, and
// why not: the discrete labels must match and the calibrated fsync must
// be within a factor of four — wide enough for one shared host's own
// swings (105–212 µs were seen within an hour), narrow enough to tell
// tmpfs from a disk and an SSD from spinning rust.
func (fp Fingerprint) Comparable(other Fingerprint) error {
	var diffs []string
	add := func(what string, a, b any) {
		if a != b {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", what, a, b))
		}
	}
	add("nproc", fp.NumCPU, other.NumCPU)
	add("GOMAXPROCS", fp.GOMAXPROCS, other.GOMAXPROCS)
	add("go", fp.GoVersion, other.GoVersion)
	add("kernel", fp.Kernel, other.Kernel)
	add("wal fs", fp.FSType, other.FSType)
	if lo, hi := min(fp.FsyncUs, other.FsyncUs), max(fp.FsyncUs, other.FsyncUs); hi > 4*lo {
		diffs = append(diffs, fmt.Sprintf("fsync %.0f µs vs %.0f µs", fp.FsyncUs, other.FsyncUs))
	}
	if len(diffs) > 0 {
		return fmt.Errorf("fingerprints differ: %s", strings.Join(diffs, "; "))
	}
	return nil
}
