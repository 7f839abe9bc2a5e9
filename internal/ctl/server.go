// Package ctl implements dvpnode's line-oriented control protocol:
// the server side embedded in each node process, and the client side
// used by dvpctl — including the cross-site trace stitcher that fetches
// one transaction's spans from every node's ring and reassembles the
// causal tree.
package ctl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/site"
	"dvp/internal/store"
	"dvp/internal/txn"
)

// Server speaks a tiny line protocol for clients (dvpctl):
//
//	RESERVE <item> <n>      decrement (bounded at zero)
//	CANCEL  <item> <n>      increment
//	TRANSFER <from> <to> <n> move value between items
//	READ    <item>          full read (gathers all shares here)
//	QUOTA   <item>          this site's local share (no txn)
//	STATS                   site counters
//	RECOVERY                what the last recovery pass did
//	METRICS                 Prometheus text exposition (multi-line)
//	TRACE [n]               last n spans as JSON lines
//	TRACE TS <ts>           every retained span of transaction ts
//	FLIGHT [n]              last n flight-recorder events
//	PING                    liveness
//
// Replies are single lines — "OK ...", "ABORT <status>", "ERR <msg>" —
// except METRICS, TRACE and FLIGHT, whose replies are the payload
// lines followed by a lone "." terminator line.
type Server struct {
	Site    *site.Site
	DB      *store.Durable
	Metrics *obs.Registry
	Traces  *obs.Ring
	Flight  *obs.Flight

	mu sync.Mutex
	ln net.Listener
	wg sync.WaitGroup
}

// Listen starts accepting control connections on addr.
func (c *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.ln = ln
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go c.serve(conn)
		}
	}()
	return nil
}

// Addr returns the bound listen address ("" before Listen).
func (c *Server) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Close stops the listener and waits for in-flight handlers.
func (c *Server) Close() {
	c.mu.Lock()
	ln := c.ln
	c.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	c.wg.Wait()
}

func (c *Server) serve(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	// A line, its newline included, must fit the reader's buffer of
	// 64 KiB; a longer one ends the connection.
	rd := bufio.NewReaderSize(conn, bufio.MaxScanTokenSize)
	var out []byte
	for {
		line, err := rd.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return
		}
		if len(line) > 0 {
			out = c.handle(out[:0], line)
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// maxFields is the most fields a command takes: TRANSFER's four. A
// line with more is a usage error, so fields past it are counted, not
// kept.
const maxFields = 4

// isSpace marks the ASCII white space that separates fields. The
// protocol is ASCII: any other byte belongs to a field.
var isSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fields splits line at runs of white space into views of the line,
// keeping the first maxFields; n counts them all.
func fields(line []byte) (f [maxFields][]byte, n int) {
	for i := 0; i < len(line); {
		if isSpace[line[i]] {
			i++
			continue
		}
		j := i
		for j < len(line) && !isSpace[line[j]] {
			j++
		}
		if n < maxFields {
			f[n] = line[i:j]
		}
		n++
		i = j
	}
	return f, n
}

// verbBuf holds a verb in upper case: the longest, TRANSFER, fills it.
type verbBuf [len("TRANSFER")]byte

// upper returns verb in ASCII upper case, in buf; a verb longer than
// buf names no command and comes back as it is.
func upper(buf *verbBuf, verb []byte) []byte {
	if len(verb) > len(buf) {
		return verb
	}
	for i, b := range verb {
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		buf[i] = b
	}
	return buf[:len(verb)]
}

// handle runs one command line and appends its reply, newline
// included, to out.
func (c *Server) handle(out, line []byte) []byte {
	f, n := fields(line)
	if n == 0 {
		return append(out, "ERR empty command\n"...)
	}
	var buf verbBuf
	verb := upper(&buf, f[0])
	switch string(verb) {
	case "PING":
		return append(out, "OK pong\n"...)
	case "QUOTA":
		if n != 2 {
			return append(out, "ERR usage: QUOTA <item>\n"...)
		}
		out = strconv.AppendInt(append(out, "OK "...), int64(c.DB.Value(ident.ItemID(f[1]))), 10)
		return append(out, '\n')
	case "STATS":
		st := c.Site.Stats()
		// Abort reasons reported separately so partition experiments
		// can tell timeout aborts from CC rejections; aborts= keeps
		// the total for script compatibility.
		out = appendUint(out, "OK committed=", st.Committed)
		out = appendUint(out, " aborts=", st.AbortLockConflict+st.AbortCCRejected+st.AbortTimeout+st.AbortSiteDown)
		out = appendUint(out, " abort_lock=", st.AbortLockConflict)
		out = appendUint(out, " abort_cc=", st.AbortCCRejected)
		out = appendUint(out, " abort_timeout=", st.AbortTimeout)
		out = appendUint(out, " abort_down=", st.AbortSiteDown)
		out = appendUint(out, " honored=", st.RequestsHonored)
		out = appendUint(out, " vm-accepted=", st.VmAccepted)
		out = appendUint(out, " retransmits=", st.Retransmissions)
		return append(out, '\n')
	case "RECOVERY":
		r := c.Site.LastRecovery()
		out = appendUint(out, "OK checkpoint_lsn=", r.CheckpointLSN)
		out = appendInt(out, " checkpoints_skipped=", int64(r.CheckpointsSkipped))
		out = appendInt(out, " records_scanned=", int64(r.RecordsScanned))
		out = appendInt(out, " actions_redone=", int64(r.ActionsRedone))
		out = appendInt(out, " vm_restored=", int64(r.VmRestored))
		out = appendInt(out, " elapsed_us=", r.Elapsed.Microseconds())
		out = appendInt(out, " network_calls=", int64(r.NetworkCalls))
		return append(out, '\n')
	case "METRICS":
		if c.Metrics == nil {
			return append(out, "ERR metrics disabled\n"...)
		}
		out = append(out, strings.TrimRight(c.Metrics.Render(), "\n")...)
		return append(out, "\n.\n"...)
	case "TRACE":
		if c.Traces == nil {
			return append(out, "ERR tracing disabled\n"...)
		}
		if n == 3 && bytes.EqualFold(f[1], []byte("TS")) {
			ts, err := strconv.ParseUint(string(f[2]), 10, 64)
			if err != nil || ts == 0 {
				return append(out, "ERR usage: TRACE TS <ts>\n"...)
			}
			return appendBlock(out, func(w io.Writer) error {
				enc := json.NewEncoder(w)
				for _, t := range c.Traces.ByTS(ts) {
					if err := enc.Encode(t); err != nil {
						return err
					}
				}
				return nil
			})
		}
		k, ok := optCount(f, n, 10)
		if !ok {
			return append(out, "ERR usage: TRACE [n] | TRACE TS <ts>\n"...)
		}
		return appendBlock(out, func(w io.Writer) error { return c.Traces.DumpJSON(w, k) })
	case "FLIGHT":
		if c.Flight == nil {
			return append(out, "ERR flight recorder disabled\n"...)
		}
		k, ok := optCount(f, n, 100)
		if !ok {
			return append(out, "ERR usage: FLIGHT [n]\n"...)
		}
		return appendBlock(out, func(w io.Writer) error { return c.Flight.WriteText(w, k) })
	case "RESERVE", "CANCEL":
		if n != 3 {
			out = append(append(out, "ERR usage: "...), f[0]...)
			return append(out, " <item> <n>\n"...)
		}
		m, ok := amount(f[2])
		if !ok {
			return append(out, "ERR bad amount\n"...)
		}
		t := txn.Txn{
			Ops:   []txn.ItemOp{{Item: ident.ItemID(f[1]), Op: core.Decr{M: m}}},
			Ask:   txn.AskAll,
			Label: "reserve",
		}
		if string(verb) == "CANCEL" {
			t.Ops[0].Op, t.Label = core.Incr{M: m}, "cancel"
		}
		return appendTxnReply(out, c.runRetry(&t))
	case "TRANSFER":
		if n != 4 {
			return append(out, "ERR usage: TRANSFER <from> <to> <n>\n"...)
		}
		m, ok := amount(f[3])
		if !ok {
			return append(out, "ERR bad amount\n"...)
		}
		return appendTxnReply(out, c.runRetry(&txn.Txn{
			Ops: []txn.ItemOp{
				{Item: ident.ItemID(f[1]), Op: core.Decr{M: m}},
				{Item: ident.ItemID(f[2]), Op: core.Incr{M: m}},
			},
			Ask:   txn.AskAll,
			Label: "transfer",
		}))
	case "READ":
		if n != 2 {
			return append(out, "ERR usage: READ <item>\n"...)
		}
		item := ident.ItemID(f[1])
		res := c.runRetry(&txn.Txn{Reads: []ident.ItemID{item}, Ask: txn.AskAll, Label: "read"})
		if !res.Committed() {
			return appendTxnReply(out, res)
		}
		out = strconv.AppendInt(append(out, "OK "...), int64(res.Reads[item]), 10)
		out = appendUint(out, " ts=", uint64(res.TS))
		return append(out, '\n')
	default:
		out = append(append(out, "ERR unknown command "...), f[0]...)
		return append(out, '\n')
	}
}

// amount parses a transaction's amount: a non-negative decimal.
func amount(field []byte) (core.Value, bool) {
	m, err := strconv.ParseInt(string(field), 10, 64)
	return core.Value(m), err == nil && m >= 0
}

// optCount reads the optional positive count of TRACE [n] and
// FLIGHT [n], def when it is absent.
func optCount(f [maxFields][]byte, n, def int) (int, bool) {
	switch n {
	case 1:
		return def, true
	case 2:
		v, err := strconv.Atoi(string(f[1]))
		return v, err == nil && v > 0
	}
	return 0, false
}

// appendBlock appends a multi-line reply: what write writes, its
// trailing newlines trimmed, then a lone "." line. A write that writes
// nothing leaves the "." alone; one that fails leaves an ERR line.
func appendBlock(out []byte, write func(io.Writer) error) []byte {
	start := len(out)
	body := bytes.NewBuffer(out)
	if err := write(body); err != nil {
		return append(append(append(out[:start], "ERR "...), err.Error()...), '\n')
	}
	out = bytes.TrimRight(body.Bytes(), "\n")
	if len(out) == start {
		return append(out, ".\n"...)
	}
	return append(out, "\n.\n"...)
}

func appendUint(out []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(out, key...), v, 10)
}

func appendInt(out []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(out, key...), v, 10)
}

// runRetry is the application-level retry loop the paper assumes
// (§5): aborted transactions are simply resubmitted; each attempt
// draws a fresher timestamp, which also heals post-recovery and
// post-decline conditions.
func (c *Server) runRetry(t *txn.Txn) *txn.Result {
	var res *txn.Result
	for i := 0; i < 3; i++ {
		res = c.Site.Run(t)
		if res.Committed() {
			return res
		}
	}
	return res
}

// appendTxnReply appends a transaction's one-line reply.
func appendTxnReply(out []byte, res *txn.Result) []byte {
	if !res.Committed() {
		return append(append(append(out, "ABORT "...), res.Status.String()...), '\n')
	}
	out = strconv.AppendFloat(append(out, "OK committed in "...), float64(res.Latency.Microseconds())/1000, 'f', 2, 64)
	out = appendUint(out, "ms ts=", uint64(res.TS))
	return append(out, '\n')
}
