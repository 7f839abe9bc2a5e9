package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dvp"
	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/simnet"
	"dvp/internal/site"
	"dvp/internal/wal"
)

// TestMain lets a test run this binary as dvpnode: when the first
// argument after the test flags is "dvpnode", the rest is a dvpnode
// command line and main runs on it.
func TestMain(m *testing.M) {
	flag.Parse()
	if args := flag.Args(); len(args) > 0 && args[0] == "dvpnode" {
		os.Args = args
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadCommandLineExitsTwo runs dvpnode on command lines it must
// refuse before opening its log: each exits 2 and names what is wrong.
func TestBadCommandLineExitsTwo(t *testing.T) {
	required := func(extra ...string) []string {
		return append([]string{
			"-site", "1", "-listen", "127.0.0.1:0", "-ctl", "127.0.0.1:0",
			"-peers", "1=127.0.0.1:0", "-wal", filepath.Join(t.TempDir(), "s1.wal"),
		}, extra...)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"group-commit off", required("-group-commit=false"), "-group-commit=false"},
		{"deleted tuning flag", required("-checkpoint-bytes", "4096"), "checkpoint-bytes"},
		{"missing wal", []string{"-site", "1", "-listen", ":0", "-ctl", ":0", "-peers", "1=:0"}, "-wal are required"},
		{"unknown scheme", required("-cc", "conc3"), "conc3"},
		{"repeated peer", required("-peers", "1=a:1,1=b:2"), "site 1 listed twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"dvpnode"}, tc.args...)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("dvpnode %s: %v, want exit status 2\n%s", strings.Join(tc.args, " "), err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("dvpnode %s: stderr does not name %q:\n%s", strings.Join(tc.args, " "), tc.want, stderr.String())
			}
		})
	}
}

// TestFlagSurface pins dvpnode's flags by name and default. Adding a
// flag means editing this table — ROADMAP's "no new flag without
// removing one", executable — and the ten the benchmark harness passes
// (-site -listen -ctl -peers -wal -create -group-commit -timeout
// -retransmit -sync) must keep their defaults. -group-commit is kept
// only because the harness passes it: it is true, and false is refused
// (TestBadCommandLineExitsTwo).
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"site":               "0",
		"listen":             "",
		"ctl":                "",
		"peers":              "",
		"wal":                "",
		"create":             "",
		"cc":                 "conc1",
		"timeout":            "250ms",
		"sync":               "false",
		"group-commit":       "true",
		"checkpoint-records": "0",
		"metrics":            "",
		"rebalance":          "false",
		"retransmit":         "25ms",
	}
	fs := flag.NewFlagSet("dvpnode", flag.ContinueOnError)
	defineFlags(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}

// nodeSite builds the site dvpnode runs over the log at path, with reg
// as its registry (nil for none), without starting it.
func nodeSite(t *testing.T, path string, reg *obs.Registry) *site.Site {
	t.Helper()
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	s, err := openNode(path, false, site.Config{ID: 1, Peers: []ident.SiteID{1}, Endpoint: net.Endpoint(1), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestNodeLogSeries pins the log series a node registers, by name and
// labels (a histogram by its _count line): the file's write, fsync and
// per-kind record counts beside the group log's forces, batches, holds
// and records. bench/ reads five of them by name.
func TestNodeLogSeries(t *testing.T) {
	reg := obs.NewRegistry()
	nodeSite(t, filepath.Join(t.TempDir(), "s1.wal"), reg)
	var got []string
	for _, line := range strings.Split(reg.Render(), "\n") {
		if series, _, _ := strings.Cut(line, " "); strings.HasPrefix(series, "dvp_wal_") && !strings.Contains(series, "_bucket{") && !strings.Contains(series, "_sum{") {
			got = append(got, series)
		}
	}
	want := []string{
		`dvp_wal_append_seconds_count{site="s1"}`,
		`dvp_wal_flush_seconds_count{site="s1"}`,
		`dvp_wal_fsync_seconds_count{site="s1"}`,
		`dvp_wal_group_batch_count{site="s1"}`,
		`dvp_wal_group_flushes_total{by="committer",site="s1"}`,
		`dvp_wal_group_flushes_total{by="flusher",site="s1"}`,
		`dvp_wal_group_hold_seconds_count{site="s1"}`,
		`dvp_wal_group_holds_total{outcome="joined",site="s1"}`,
		`dvp_wal_group_holds_total{outcome="timeout",site="s1"}`,
		`dvp_wal_group_records_total{site="s1"}`,
	}
	for _, k := range []string{"applied", "checkpoint", "clock", "commit", "decision", "name", "prepare", "vm-accept", "vm-create"} {
		want = append(want, `dvp_wal_records_total{kind="`+k+`",site="s1"}`)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("log series:\n got %q\nwant %q", got, want)
	}
}

// records returns the kinds and payloads of every record in l, or with
// only, of every record of those kinds.
func records(t *testing.T, l wal.Log, only ...wal.RecordKind) (kinds []wal.RecordKind, data [][]byte) {
	t.Helper()
	if err := l.Scan(1, func(r wal.Record) error {
		if len(only) > 0 && !slices.Contains(only, r.Kind) {
			return nil
		}
		kinds = append(kinds, r.Kind)
		data = append(data, bytes.Clone(r.Data))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return kinds, data
}

// -create logs the whole initial placement as one record on a fresh
// WAL, behind the name of each item it places, and nothing on a restart
// over it: recovery restores every item.
func TestCreateLogsOnePlacementRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s1.wal")
	const spec = "a=5, b=0,c=7,a=9"
	want := map[ident.ItemID]core.Value{"a": 5, "b": 0, "c": 7}

	for _, run := range []string{"fresh WAL", "restart"} {
		s := nodeSite(t, path, nil)
		if err := place(s, spec); err != nil {
			t.Fatal(err)
		}
		placed := []wal.RecordKind{wal.RecName, wal.RecName, wal.RecName, wal.RecCommit}
		if kinds, _ := records(t, s.Log()); !reflect.DeepEqual(kinds, placed) {
			t.Errorf("%s: log holds %v, want three names and the one placement record", run, kinds)
		}
		for item, v := range want {
			if got := s.DB().Value(item); got != v {
				t.Errorf("%s: %s = %d, want %d", run, item, got, v)
			}
		}
		s.Close()
	}
}

// A placement is one record behind its items' names, whoever makes it:
// Cluster.CreateItemShares and dvpnode -create write the same bytes for
// the same share. (The Cluster's site has started, so its log also
// holds the clock reservation Start writes.)
func TestClusterAndCreatePlaceAlike(t *testing.T) {
	c, err := dvp.NewCluster(dvp.Config{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateItemShares("flight/A", []dvp.Value{50, 7}); err != nil {
		t.Fatal(err)
	}
	s := nodeSite(t, filepath.Join(t.TempDir(), "s1.wal"), nil)
	if err := place(s, "flight/A=50"); err != nil {
		t.Fatal(err)
	}
	ck, cd := records(t, c.SiteEngine(1).Log(), wal.RecName, wal.RecCommit)
	nk, nd := records(t, s.Log(), wal.RecName, wal.RecCommit)
	if !reflect.DeepEqual(ck, nk) || !reflect.DeepEqual(cd, nd) {
		t.Errorf("Cluster placed %v %x, dvpnode -create %v %x", ck, cd, nk, nd)
	}
	want := [][]byte{
		(&wal.NameRec{Ord: 1, Item: "flight/A"}).Encode(),
		(&wal.CommitRec{Actions: []wal.Action{{Item: "flight/A", Delta: 50, Ord: 1}}}).Encode(),
	}
	if !reflect.DeepEqual(nd, want) {
		t.Errorf("placement records %x, want %x", nd, want)
	}
}

func TestParsePeers(t *testing.T) {
	for _, tc := range []struct {
		arg     string
		peers   []ident.SiteID
		addrs   map[ident.SiteID]string
		wantErr string
	}{
		{arg: "2=b:2, 1=a:1", peers: []ident.SiteID{1, 2}, addrs: map[ident.SiteID]string{1: "a:1", 2: "b:2"}},
		{arg: "1=:7101", peers: []ident.SiteID{1}, addrs: map[ident.SiteID]string{1: ":7101"}},
		{arg: "1=a,1=b", wantErr: "site 1 listed twice"},
		{arg: "1", wantErr: "not id=addr"},
		{arg: "x=a", wantErr: `bad site id "x"`},
		{arg: "0=a", wantErr: `bad site id "0"`},
	} {
		peers, addrs, err := parsePeers(tc.arg)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parsePeers(%q) error = %v, want one containing %q", tc.arg, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(peers, tc.peers) || !reflect.DeepEqual(addrs, tc.addrs) {
			t.Errorf("parsePeers(%q) = %v, %v, %v; want %v, %v", tc.arg, peers, addrs, err, tc.peers, tc.addrs)
		}
	}
}

func TestParseCreate(t *testing.T) {
	for _, tc := range []struct {
		kv      string
		item    ident.ItemID
		share   core.Value
		wantErr string
	}{
		{kv: "flight/A=40", item: "flight/A", share: 40},
		{kv: " it/0=0", item: "it/0", share: 0},
		{kv: "flight/A", wantErr: "not item=share"},
		{kv: "=5", wantErr: "names no item"},
		{kv: " =5", wantErr: "names no item"},
		{kv: "flight/A=-1", wantErr: `bad share "-1"`},
		{kv: "flight/A=lots", wantErr: `bad share "lots"`},
	} {
		item, share, err := parseCreate(tc.kv)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseCreate(%q) error = %v, want one containing %q", tc.kv, err, tc.wantErr)
			}
			continue
		}
		if err != nil || item != tc.item || share != tc.share {
			t.Errorf("parseCreate(%q) = %q, %d, %v; want %q, %d", tc.kv, item, share, err, tc.item, tc.share)
		}
	}
}

func TestParseScheme(t *testing.T) {
	for name, want := range map[string]cc.Scheme{"conc1": cc.Conc1, "conc2": cc.Conc2, "Conc2": cc.Conc2} {
		if got, err := parseScheme(name); err != nil || got != want {
			t.Errorf("parseScheme(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"conc3", "", "2pl"} {
		if _, err := parseScheme(name); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("parseScheme(%q) error = %v, want one naming the value", name, err)
		}
	}
}
