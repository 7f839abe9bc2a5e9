package ctl

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/site"
	"dvp/internal/tcpnet"
	"dvp/internal/txn"
	"dvp/internal/wal"
)

const ctlTimeout = 2 * time.Second

// startServer listens a Server on loopback and arranges cleanup.
func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv.Addr()
}

func TestMetricsOutputSortedAndParseable(t *testing.T) {
	reg := obs.NewRegistry()
	// Register deliberately out of order: the exposition must come back
	// sorted by (name, labels) regardless.
	reg.Counter("zeta_total", "site", "s2").Add(7)
	reg.Counter("zeta_total", "site", "s1").Add(3)
	reg.Gauge("alpha_gauge", "site", "s9").Set(2)
	reg.Counter("mid_total").Add(11)
	reg.Histogram("dvp_step_seconds", "site", "s1", "step", "apply").Record(time.Millisecond)

	addr := startServer(t, &Server{Metrics: reg})
	lines, err := Do(addr, "METRICS", ctlTimeout)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := ParseMetrics(lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no samples parsed")
	}
	// Families must render in sorted order...
	var families []string
	kinds := make(map[string]string)
	for _, line := range lines {
		var name, kind string
		if _, err := fmt.Sscanf(line, "# TYPE %s %s", &name, &kind); err == nil {
			families = append(families, name)
			kinds[name] = kind
		}
	}
	if !sort.StringsAreSorted(families) {
		t.Errorf("metric families not sorted: %v", families)
	}
	// ...and within counter/gauge families, samples sort by labels.
	// (Histogram expansion orders buckets numerically, not lexically.)
	scalar := ms[:0:0]
	for _, m := range ms {
		if k := kinds[m.Name]; k == "counter" || k == "gauge" {
			scalar = append(scalar, m)
		}
	}
	if !sort.SliceIsSorted(scalar, func(i, j int) bool {
		if scalar[i].Name != scalar[j].Name {
			return scalar[i].Name < scalar[j].Name
		}
		return scalar[i].Labels < scalar[j].Labels
	}) {
		t.Errorf("samples not sorted by (name, labels):\n%s", strings.Join(lines, "\n"))
	}
	want := map[string]float64{
		`zeta_total{site="s1"}`:  3,
		`zeta_total{site="s2"}`:  7,
		`alpha_gauge{site="s9"}`: 2,
		`mid_total`:              11,
	}
	got := make(map[string]float64, len(ms))
	for _, m := range ms {
		got[m.Key()] = m.Value
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("sample %s = %v, want %v", k, got[k], v)
		}
	}
	// Two fetches must render identically: deterministic output is what
	// lets scripts diff scrapes.
	again, err := Do(addr, "METRICS", ctlTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(lines, "\n") != strings.Join(again, "\n") {
		t.Error("METRICS output changed between identical fetches")
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"noval", "x{y=\"z\" 1", "name notanumber"} {
		if _, err := ParseMetrics([]string{bad}); err == nil {
			t.Errorf("ParseMetrics(%q) did not fail", bad)
		}
	}
	// Comments and blank lines are skipped, not errors.
	ms, err := ParseMetrics([]string{"# HELP x y", "", "x 1"})
	if err != nil || len(ms) != 1 {
		t.Errorf("got %v, %v; want one sample", ms, err)
	}
}

// tnode is one in-process "node": a site over real TCP plus its own
// observability (per-node ring and flight, as in dvpnode) and control
// server.
type tnode struct {
	site   *site.Site
	ring   *obs.Ring
	flight *obs.Flight
	ctl    string
}

// cluster boots n sites on loopback TCP, each with its own registry,
// trace ring, flight recorder and control port — the same shape as n
// dvpnode processes.
func cluster(t *testing.T, n int) []*tnode {
	t.Helper()
	eps := make([]*tcpnet.Endpoint, n)
	addrs := make(map[ident.SiteID]string, n)
	var peers []ident.SiteID
	for i := 0; i < n; i++ {
		id := ident.SiteID(i + 1)
		ep, err := tcpnet.New(tcpnet.Config{Site: id, Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
		addrs[id] = ep.Addr()
		peers = append(peers, id)
	}
	nodes := make([]*tnode, n)
	for i := 0; i < n; i++ {
		id := ident.SiteID(i + 1)
		eps[i].SetPeers(addrs)
		reg := obs.NewRegistry()
		ring := obs.NewRing(256)
		flight := obs.NewFlight(256)
		s, err := site.Open(wal.NewMemLog(), site.Config{
			ID: id, Peers: peers,
			Endpoint:        eps[i],
			CC:              cc.New(cc.Conc1),
			RetransmitEvery: 10 * time.Millisecond,
			DefaultTimeout:  time.Second,
			Metrics:         reg,
			Trace:           ring,
			Flight:          flight,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := &Server{Site: s, DB: s.DB(), Metrics: reg, Traces: ring, Flight: flight}
		nodes[i] = &tnode{site: s, ring: ring, flight: flight, ctl: startServer(t, srv)}
	}
	for _, nd := range nodes {
		nd.site.Start()
		t.Cleanup(func() { nd.site.Close() })
	}
	return nodes
}

// TestTraceStitchEndToEnd is the tentpole's acceptance test: commit a
// transfer that needs remote value, then stitch its spans from every
// node's control port and check the causal tree — origin txn root with
// its protocol steps, an rds-create hop on each granting site, and
// that hop's vm-accept (at the origin) and vm-ack (back at the
// granter) children, in causal order.
func TestTraceStitchEndToEnd(t *testing.T) {
	nodes := cluster(t, 3)
	nodes[0].site.DB().Create("flight/A", 2)
	nodes[1].site.DB().Create("flight/A", 20)
	nodes[2].site.DB().Create("flight/A", 20)

	res := nodes[0].site.Run(&txn.Txn{
		Ops:   []txn.ItemOp{{Item: "flight/A", Op: core.Decr{M: 10}}},
		Ask:   txn.AskAll,
		Label: "e2e-transfer",
	})
	if !res.Committed() {
		t.Fatalf("transfer did not commit: %v", res.Status)
	}
	ts := uint64(res.TS)
	ctls := []string{nodes[0].ctl, nodes[1].ctl, nodes[2].ctl}

	// Acks ride piggybacks and retransmit ticks; poll until every hop's
	// full lifecycle (create → accept → ack) has been recorded.
	var spans []*obs.Trace
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		spans, err = FetchSpans(ctls, ts, ctlTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if complete(spans) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	roots := BuildTree(spans)
	if len(roots) != 1 {
		t.Fatalf("want one stitched root, got %d: %+v", len(roots), dumpKinds(spans))
	}
	root := roots[0]
	if root.Trace.Kind != "txn" || root.Trace.Site != "s1" || root.Trace.Outcome != "committed" {
		t.Fatalf("bad root: %+v", root.Trace)
	}
	stepNames := make(map[string]bool)
	for _, st := range root.Trace.Steps {
		stepNames[st.Name] = true
	}
	for _, want := range []string{"admit", "cc-check", "ask", "vm-accept", "lock", "wal-flush", "apply"} {
		if !stepNames[want] {
			t.Errorf("origin root missing protocol step %q (have %v)", want, root.Trace.Steps)
		}
	}

	creates := 0
	for _, hop := range root.Children {
		if hop.Trace.Kind != "rds-create" {
			t.Errorf("unexpected root child kind %q", hop.Trace.Kind)
			continue
		}
		creates++
		if hop.Trace.Site == "s1" {
			t.Errorf("rds-create recorded at origin, want a remote site")
		}
		if hop.Trace.Origin != "s1" || hop.Trace.TS != ts {
			t.Errorf("hop lost its causal identity: %+v", hop.Trace)
		}
		kinds := make(map[string]*SpanNode)
		for _, c := range hop.Children {
			kinds[c.Trace.Kind] = c
		}
		acc, ack := kinds["vm-accept"], kinds["vm-ack"]
		if acc == nil || ack == nil {
			t.Fatalf("hop at %s missing vm-accept/vm-ack children: have %v",
				hop.Trace.Site, dumpKinds(spans))
		}
		if acc.Trace.Site != "s1" {
			t.Errorf("vm-accept recorded at %s, want origin s1", acc.Trace.Site)
		}
		if ack.Trace.Site != hop.Trace.Site {
			t.Errorf("vm-ack recorded at %s, want granting site %s", ack.Trace.Site, hop.Trace.Site)
		}
		// Causal order: create starts after the origin asked, accept
		// after the create, ack after the accept was possible. All
		// clocks here are one process, so wall order is causal order.
		if hop.Trace.StartUnixNano < root.Trace.StartUnixNano {
			t.Errorf("hop starts before its root")
		}
		if acc.Trace.StartUnixNano < hop.Trace.StartUnixNano {
			t.Errorf("vm-accept starts before its rds-create")
		}
	}
	if creates == 0 {
		t.Fatalf("no rds-create hop stitched under root: %v", dumpKinds(spans))
	}

	// The rendered tree is the dvpctl-facing artifact: spot-check it
	// names every participant and carries hop latencies.
	var sb strings.Builder
	RenderTree(&sb, roots)
	out := sb.String()
	for _, want := range []string{"txn site=s1", "ts=", "rds-create", "vm-accept site=s1", "vm-ack", "hop=+", "outcome=committed"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, out)
		}
	}

	// A granting site's flight recorder, read over its control port,
	// holds its lifecycle but not the grant: the hop lives in the trace
	// ring above, and an event per grant would push every rare one out
	// of the recorder.
	for i, nd := range nodes[1:] {
		lines, err := Do(nd.ctl, "FLIGHT", ctlTimeout)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.Join(lines, "\n")
		if !strings.Contains(joined, "site-up") || strings.Contains(joined, "rds-create") {
			t.Errorf("site %d FLIGHT output %q: want its site-up and no rds-create", i+2, joined)
		}
	}
}

// complete reports whether the span set already contains the full hop
// lifecycle for EVERY fetched rds-create: each must have both a
// vm-accept and a vm-ack parented on it. (Waiting on all of them
// matters — the fetch visits rings one by one, so a second granter's
// ack span can land while its accept span was published after that
// ring's fetch.)
func complete(spans []*obs.Trace) bool {
	byParent := make(map[uint64]map[string]bool)
	var createSpans []uint64
	for _, t := range spans {
		if t.Kind == "rds-create" {
			createSpans = append(createSpans, t.Span)
		}
		if t.Parent != 0 {
			m := byParent[t.Parent]
			if m == nil {
				m = make(map[string]bool)
				byParent[t.Parent] = m
			}
			m[t.Kind] = true
		}
	}
	if len(createSpans) == 0 {
		return false
	}
	for _, id := range createSpans {
		if !byParent[id]["vm-accept"] || !byParent[id]["vm-ack"] {
			return false
		}
	}
	return true
}

func dumpKinds(spans []*obs.Trace) []string {
	var out []string
	for _, t := range spans {
		out = append(out, t.Site+"/"+t.Kind)
	}
	return out
}

func TestTraceTSCommandValidation(t *testing.T) {
	addr := startServer(t, &Server{Traces: obs.NewRing(16)})
	if _, err := Do(addr, "TRACE TS notanumber", ctlTimeout); err == nil {
		t.Error("bad ts accepted")
	}
	if lines, err := Do(addr, "TRACE TS 12345", ctlTimeout); err != nil || len(lines) != 0 {
		t.Errorf("unknown ts: got %v, %v; want empty reply", lines, err)
	}
	if _, err := Do(addr, "FLIGHT", ctlTimeout); err == nil {
		t.Error("FLIGHT with no recorder should ERR")
	}
}

// fields splits an ASCII line as strings.Fields does, keeping the
// first maxFields and counting the rest.
func TestFieldsMatchesStringsFields(t *testing.T) {
	const alphabet = "aZ/0 \t\r\n\v\f"
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		line := make([]byte, rng.Intn(24))
		for j := range line {
			line[j] = alphabet[rng.Intn(len(alphabet))]
		}
		want := strings.Fields(string(line))
		f, n := fields(line)
		if n != len(want) {
			t.Fatalf("fields(%q) counted %d, strings.Fields %d", line, n, len(want))
		}
		for k := 0; k < min(n, maxFields); k++ {
			if string(f[k]) != want[k] {
				t.Fatalf("fields(%q)[%d] = %q, want %q", line, k, f[k], want[k])
			}
		}
	}
}
