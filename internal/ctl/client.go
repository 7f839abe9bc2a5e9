package ctl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"dvp/internal/obs"
)

// Do dials addr, sends one command line, and returns the reply lines.
// Single-line replies come back as one element; multi-line replies
// (METRICS, TRACE, FLIGHT) are returned without their "." terminator.
// An "ERR ..." or "ABORT ..." first line is returned as an error.
func Do(addr, cmd string, timeout time.Duration) ([]string, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))

	if _, err := fmt.Fprintln(conn, cmd); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("ctl %s: no reply", addr)
	}
	first := sc.Text()
	if strings.HasPrefix(first, "ERR") || strings.HasPrefix(first, "ABORT") {
		return nil, fmt.Errorf("ctl %s: %s", addr, first)
	}
	if !multiLine(cmd) {
		return []string{first}, nil
	}
	if first == "." {
		return nil, nil
	}
	lines := []string{first}
	for sc.Scan() {
		line := sc.Text()
		if line == "." {
			return lines, nil
		}
		lines = append(lines, line)
	}
	return nil, fmt.Errorf("ctl %s: reply truncated (no terminator)", addr)
}

// multiLine reports whether cmd's reply is "." terminated. It reads
// the verb as the server does.
func multiLine(cmd string) bool {
	f, n := fields([]byte(cmd))
	if n == 0 {
		return false
	}
	var buf verbBuf
	switch string(upper(&buf, f[0])) {
	case "METRICS", "TRACE", "FLIGHT":
		return true
	}
	return false
}

// Metric is one sample parsed from the Prometheus text exposition.
type Metric struct {
	// Name is the metric name (histogram series keep their _bucket/
	// _sum/_count suffix).
	Name string
	// Labels is the raw label block including braces ("" if none).
	Labels string
	// Value is the sample value.
	Value float64
}

// Key is the sample's identity: name plus label block.
func (m Metric) Key() string { return m.Name + m.Labels }

// ParseMetrics parses exposition-format lines (as returned by a
// METRICS command) into samples, skipping comments and blanks.
func ParseMetrics(lines []string) ([]Metric, error) {
	var out []Metric
	for _, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("bad sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %v", line, err)
		}
		series := line[:sp]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
			if !strings.HasSuffix(labels, "}") {
				return nil, fmt.Errorf("unterminated label block in %q", line)
			}
		}
		out = append(out, Metric{Name: name, Labels: labels, Value: v})
	}
	return out, nil
}

// FetchSpans asks every control address for the spans of transaction
// ts and merges the answers, deduplicating spans served by more than
// one address (nodes sharing a process share a ring). It fails only
// when every address is unreachable; a partial view is still a view.
func FetchSpans(addrs []string, ts uint64, timeout time.Duration) ([]*obs.Trace, error) {
	var (
		spans    []*obs.Trace
		seen     = make(map[string]bool)
		firstErr error
		ok       bool
	)
	for _, addr := range addrs {
		lines, err := Do(addr, fmt.Sprintf("TRACE TS %d", ts), timeout)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ok = true
		for _, line := range lines {
			t := new(obs.Trace)
			if err := json.Unmarshal([]byte(line), t); err != nil {
				return nil, fmt.Errorf("ctl %s: bad span line %q: %v", addr, line, err)
			}
			key := fmt.Sprintf("%s/%d/%s/%d", t.Site, t.Span, t.Kind, t.StartUnixNano)
			if seen[key] {
				continue
			}
			seen[key] = true
			spans = append(spans, t)
		}
	}
	if !ok {
		if firstErr == nil {
			firstErr = fmt.Errorf("no control addresses")
		}
		return nil, firstErr
	}
	return spans, nil
}

// SpanNode is one span in the stitched causal tree.
type SpanNode struct {
	Trace    *obs.Trace
	Children []*SpanNode
}

// BuildTree stitches spans (all sharing one transaction TS) into
// causal trees: a span whose Parent matches another span's id becomes
// its child; everything else — roots proper, and hops whose parent
// span fell out of a ring — surfaces as a root. Children sort by
// start time.
func BuildTree(spans []*obs.Trace) []*SpanNode {
	nodes := make([]*SpanNode, len(spans))
	byID := make(map[uint64]*SpanNode, len(spans))
	for i, t := range spans {
		nodes[i] = &SpanNode{Trace: t}
		if t.Span != 0 {
			byID[t.Span] = nodes[i]
		}
	}
	var roots []*SpanNode
	for _, n := range nodes {
		if p := byID[n.Trace.Parent]; n.Trace.Parent != 0 && p != nil && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	order := func(ns []*SpanNode) {
		sort.SliceStable(ns, func(i, j int) bool {
			return ns[i].Trace.StartUnixNano < ns[j].Trace.StartUnixNano
		})
	}
	order(roots)
	for _, n := range nodes {
		order(n.Children)
	}
	return roots
}

// RenderTree prints the stitched span tree. Each span line shows its
// kind, recording site, outcome and duration; child spans additionally
// show their hop latency — wall-clock offset from the parent span's
// start (clock skew between sites and all, it is what the rings saw).
// Protocol steps print as leaf lines offset from their span's start.
func RenderTree(w io.Writer, roots []*SpanNode) {
	for i, r := range roots {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, spanHead(r.Trace, 0, true))
		renderChildren(w, r, "")
	}
}

func renderChildren(w io.Writer, n *SpanNode, prefix string) {
	total := len(n.Trace.Steps) + len(n.Children)
	i := 0
	connect := func() (string, string) {
		i++
		if i == total {
			return prefix + "└─ ", prefix + "   "
		}
		return prefix + "├─ ", prefix + "│  "
	}
	for _, st := range n.Trace.Steps {
		conn, _ := connect()
		line := fmt.Sprintf("%s%s +%s", conn, st.Name, fmtMicros(st.AtMicros))
		if st.Detail != "" {
			line += " " + st.Detail
		}
		fmt.Fprintln(w, line)
	}
	for _, c := range n.Children {
		conn, childPrefix := connect()
		hop := (c.Trace.StartUnixNano - n.Trace.StartUnixNano) / 1000
		fmt.Fprintln(w, conn+spanHead(c.Trace, hop, false))
		renderChildren(w, c, childPrefix)
	}
}

// spanHead renders one span's header line. hopMicros is the offset
// from the parent span's start (ignored for roots).
func spanHead(t *obs.Trace, hopMicros int64, root bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s site=%s", t.Kind, t.Site)
	if t.Label != "" {
		fmt.Fprintf(&sb, " label=%s", t.Label)
	}
	if root {
		fmt.Fprintf(&sb, " ts=%d", t.TS)
	} else {
		fmt.Fprintf(&sb, " hop=+%s", fmtMicros(hopMicros))
	}
	fmt.Fprintf(&sb, " outcome=%s (%s)", t.Outcome, fmtMicros(t.LatencyMicros))
	return sb.String()
}

// fmtMicros renders a microsecond count humanely.
func fmtMicros(us int64) string {
	switch {
	case us >= 1_000_000 || us <= -1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000 || us <= -1_000:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}
