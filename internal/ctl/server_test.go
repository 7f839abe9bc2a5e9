package ctl

import (
	"bufio"
	"bytes"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/simnet"
	"dvp/internal/site"
	"dvp/internal/vclock"
	"dvp/internal/wal"
)

// oneSite is a lone site on a memory group log and the given clock,
// served by a Server.
func oneSite(tb testing.TB, clock vclock.Clock) (*Server, *site.Site) {
	tb.Helper()
	net := simnet.New(simnet.Config{})
	tb.Cleanup(func() { net.Close() })
	reg := obs.NewRegistry()
	ring := obs.NewRing(16)
	flight := obs.NewFlight(64)
	s, err := site.Open(wal.NewMemLog(), site.Config{
		ID: 1, Peers: []ident.SiteID{1},
		Endpoint:        net.Endpoint(1),
		Clock:           clock,
		CC:              cc.New(cc.Conc1),
		RetransmitEvery: time.Hour,
		DefaultTimeout:  time.Second,
		Metrics:         reg,
		Trace:           ring,
		Flight:          flight,
	})
	if err != nil {
		tb.Fatal(err)
	}
	s.Start()
	tb.Cleanup(func() { s.Close() })
	return &Server{Site: s, DB: s.DB(), Metrics: reg, Traces: ring, Flight: flight}, s
}

// exchange is one command line and the reply it must draw. want holds
// the reply's lines byte for byte, except that <#> stands for a run of
// digits and <clock> for a time of day: fields the wall clock fills.
// A multi-line reply is checked by its first line and its "."
// terminator; want then holds those two lines, or "." alone.
type exchange struct {
	send  string
	want  []string
	multi bool
}

// placeholder turns a want line into an anchored pattern.
var placeholder = strings.NewReplacer(`<#>`, `[0-9]+`, `<clock>`, `[0-9][0-9]:[0-9][0-9]:[0-9][0-9]\.[0-9]{6}`)

func lineMatches(want, got string) bool {
	return regexp.MustCompile(`^` + placeholder.Replace(regexp.QuoteMeta(want)) + `$`).MatchString(got)
}

// converse sends every exchange over one connection to addr, in order,
// and compares each reply with its want.
func converse(t *testing.T, addr string, table []exchange) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, ctlTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	rd := bufio.NewReader(conn)
	readLine := func() string {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("reading a reply: %v", err)
		}
		return strings.TrimSuffix(line, "\n")
	}
	for _, x := range table {
		if _, err := conn.Write([]byte(x.send)); err != nil {
			t.Fatal(err)
		}
		got := []string{readLine()}
		if x.multi && got[0] != "." {
			last := readLine()
			for last != "." {
				last = readLine()
			}
			got = append(got, last)
		}
		if len(got) != len(x.want) {
			t.Errorf("%q: got %q, want %q", x.send, got, x.want)
			continue
		}
		for i := range got {
			if !lineMatches(x.want[i], got[i]) {
				t.Errorf("%q: line %d is %q, want %q", x.send, i, got[i], x.want[i])
			}
		}
	}
}

// TestServerReplies pins the control protocol's replies byte for byte:
// every verb, every usage error, and the forms of a line the parser
// must accept — lower-case verbs, CRLF endings, runs of spaces and
// tabs.
//
// The site's clock is virtual and never moves, so a local commit's
// latency reads 0.00ms and its reply is the same bytes on every run.
func TestServerReplies(t *testing.T) {
	srv, s := oneSite(t, vclock.NewVirtual(time.Unix(1_700_000_000, 0)))
	s.DB().Create("it/0", 100)
	s.DB().Create("it/1", 7)
	srv.Flight.Record("s1", "note", "golden")
	addr := startServer(t, srv)

	committed := func(ts string) []string { return []string{"OK committed in 0.00ms ts=" + ts} }
	converse(t, addr, []exchange{
		{send: "PING\n", want: []string{"OK pong"}},
		{send: "ping\n", want: []string{"OK pong"}},
		{send: "PING\r\n", want: []string{"OK pong"}},
		{send: "\n", want: []string{"ERR empty command"}},
		{send: " \t \r\n", want: []string{"ERR empty command"}},
		{send: "QUOTA it/0\n", want: []string{"OK 100"}},
		{send: "  quota \t it/0  \n", want: []string{"OK 100"}},
		{send: "QUOTA nosuch\n", want: []string{"OK 0"}},
		{send: "QUOTA\n", want: []string{"ERR usage: QUOTA <item>"}},
		{send: "QUOTA a b\n", want: []string{"ERR usage: QUOTA <item>"}},
		{send: "RESERVE it/0 3\n", want: committed("65537")},
		{send: "reserve\tit/0   2\r\n", want: committed("131073")},
		{send: "CANCEL it/0 1\n", want: committed("196609")},
		{send: "TRANSFER it/0 it/1 4\n", want: committed("262145")},
		{send: "READ it/1\n", want: []string{"OK 11 ts=327681"}},
		{send: "read it/0\n", want: []string{"OK 92 ts=393217"}},
		{send: "QUOTA it/0\n", want: []string{"OK 92"}},
		{send: "RESERVE it/0\n", want: []string{"ERR usage: RESERVE <item> <n>"}},
		{send: "cancel it/0 1 2\n", want: []string{"ERR usage: cancel <item> <n>"}},
		{send: "RESERVE it/0 -1\n", want: []string{"ERR bad amount"}},
		{send: "CANCEL it/0 x\n", want: []string{"ERR bad amount"}},
		{send: "TRANSFER a b\n", want: []string{"ERR usage: TRANSFER <from> <to> <n>"}},
		{send: "TRANSFER a b -2\n", want: []string{"ERR bad amount"}},
		{send: "READ\n", want: []string{"ERR usage: READ <item>"}},
		{send: "STATS\n", want: []string{"OK committed=6 aborts=0 abort_lock=0 abort_cc=0 abort_timeout=0 abort_down=0 honored=0 vm-accepted=0 retransmits=0"}},
		{send: "RECOVERY\n", want: []string{"OK checkpoint_lsn=0 checkpoints_skipped=0 records_scanned=0 actions_redone=0 vm_restored=0 elapsed_us=<#> network_calls=0"}},
		{send: "METRICS\n", multi: true, want: []string{"# TYPE dvp_checkpoint_bytes counter", "."}},
		{send: "TRACE 1\n", multi: true, want: []string{`{"ts":393217,"site":"s1","origin":"s1","kind":"txn","span":1099511627782,"label":"read","outcome":"committed","start_unix_nano":<#>,"latency_us":<#>,"steps":[{"name":"admit","at_us":<#>},{"name":"cc-check","at_us":<#>},{"name":"lock","at_us":<#>},{"name":"ask","at_us":<#>,"detail":"requests=0 policy=ask-all"},{"name":"vm-accept","at_us":<#>,"detail":"accepted=0"},{"name":"apply","at_us":<#>},{"name":"wal-flush","at_us":<#>}]}`, "."}},
		{send: "trace ts 327681\n", multi: true, want: []string{`{"ts":327681,"site":"s1","origin":"s1","kind":"txn","span":1099511627781,"label":"read","outcome":"committed","start_unix_nano":<#>,"latency_us":<#>,"steps":[{"name":"admit","at_us":<#>},{"name":"cc-check","at_us":<#>},{"name":"lock","at_us":<#>},{"name":"ask","at_us":<#>,"detail":"requests=0 policy=ask-all"},{"name":"vm-accept","at_us":<#>,"detail":"accepted=0"},{"name":"apply","at_us":<#>},{"name":"wal-flush","at_us":<#>}]}`, "."}},
		{send: "TRACE TS 1\n", multi: true, want: []string{"."}},
		{send: "TRACE 0\n", want: []string{"ERR usage: TRACE [n] | TRACE TS <ts>"}},
		{send: "TRACE x\n", want: []string{"ERR usage: TRACE [n] | TRACE TS <ts>"}},
		{send: "TRACE 1 2 3\n", want: []string{"ERR usage: TRACE [n] | TRACE TS <ts>"}},
		{send: "TRACE TS x\n", want: []string{"ERR usage: TRACE TS <ts>"}},
		{send: "TRACE TS 0\n", want: []string{"ERR usage: TRACE TS <ts>"}},
		{send: "FLIGHT 1\n", multi: true, want: []string{"<clock> s1   note           golden", "."}},
		{send: "FLIGHT 0\n", want: []string{"ERR usage: FLIGHT [n]"}},
		{send: "FLIGHT 1 2\n", want: []string{"ERR usage: FLIGHT [n]"}},
		{send: "NOPE x\n", want: []string{"ERR unknown command NOPE"}},
		{send: "nope\n", want: []string{"ERR unknown command nope"}},
	})

	// A site that is down aborts every transaction.
	s.Crash()
	converse(t, addr, []exchange{
		{send: "RESERVE it/0 1\n", want: []string{"ABORT site-down"}},
		{send: "TRANSFER it/0 it/1 1\n", want: []string{"ABORT site-down"}},
		{send: "READ it/0\n", want: []string{"ABORT site-down"}},
	})

	// Without a registry, a ring or a recorder, their verbs say so; an
	// empty ring or recorder answers with the terminator alone.
	converse(t, startServer(t, &Server{}), []exchange{
		{send: "METRICS\n", want: []string{"ERR metrics disabled"}},
		{send: "TRACE\n", want: []string{"ERR tracing disabled"}},
		{send: "FLIGHT\n", want: []string{"ERR flight recorder disabled"}},
	})
	converse(t, startServer(t, &Server{Traces: obs.NewRing(16), Flight: obs.NewFlight(64)}), []exchange{
		{send: "TRACE\n", multi: true, want: []string{"."}},
		{send: "FLIGHT\n", multi: true, want: []string{"."}},
	})
}

// BenchmarkServeReserve measures one RESERVE through the control
// protocol — read the line, parse it, run the local commit, format and
// write the reply — on a memory group log, over an in-memory pipe.
// check.sh gates its allocs/op.
func BenchmarkServeReserve(b *testing.B) {
	srv, s := oneSite(b, vclock.Real{})
	s.DB().Create("bench/0", core.Value(b.N)+1)
	client, server := net.Pipe()
	defer client.Close()
	srv.wg.Add(1)
	go srv.serve(server)
	rd := bufio.NewReader(client)
	cmd := []byte("RESERVE bench/0 1\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Write(cmd); err != nil {
			b.Fatal(err)
		}
		reply, err := rd.ReadSlice('\n')
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.HasPrefix(reply, []byte("OK committed")) {
			b.Fatalf("reply %q", reply)
		}
	}
}
