// Package ctl implements dvpnode's line-oriented control protocol:
// the server side embedded in each node process, and the client side
// used by dvpctl — including the cross-site trace stitcher that fetches
// one transaction's spans from every node's ring and reassembles the
// causal tree.
package ctl

import (
	"bufio"
	"encoding/json"
	"fmt"
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
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		reply := c.handle(strings.Fields(sc.Text()))
		if _, err := fmt.Fprintln(conn, reply); err != nil {
			return
		}
	}
}

func (c *Server) handle(args []string) string {
	if len(args) == 0 {
		return "ERR empty command"
	}
	switch strings.ToUpper(args[0]) {
	case "PING":
		return "OK pong"
	case "QUOTA":
		if len(args) != 2 {
			return "ERR usage: QUOTA <item>"
		}
		return fmt.Sprintf("OK %d", c.DB.Value(ident.ItemID(args[1])))
	case "STATS":
		st := c.Site.Stats()
		// Abort reasons reported separately so partition experiments
		// can tell timeout aborts from CC rejections; aborts= keeps
		// the total for script compatibility.
		return fmt.Sprintf("OK committed=%d aborts=%d abort_lock=%d abort_cc=%d abort_timeout=%d abort_down=%d honored=%d vm-accepted=%d retransmits=%d",
			st.Committed,
			st.AbortLockConflict+st.AbortCCRejected+st.AbortTimeout+st.AbortSiteDown,
			st.AbortLockConflict, st.AbortCCRejected, st.AbortTimeout, st.AbortSiteDown,
			st.RequestsHonored, st.VmAccepted, st.Retransmissions)
	case "RECOVERY":
		r := c.Site.LastRecovery()
		return fmt.Sprintf("OK checkpoint_lsn=%d checkpoints_skipped=%d records_scanned=%d actions_redone=%d vm_restored=%d elapsed_us=%d network_calls=%d",
			r.CheckpointLSN, r.CheckpointsSkipped, r.RecordsScanned,
			r.ActionsRedone, r.VmRestored,
			r.Elapsed.Microseconds(), r.NetworkCalls)
	case "METRICS":
		if c.Metrics == nil {
			return "ERR metrics disabled"
		}
		return strings.TrimRight(c.Metrics.Render(), "\n") + "\n."
	case "TRACE":
		if c.Traces == nil {
			return "ERR tracing disabled"
		}
		if len(args) == 3 && strings.EqualFold(args[1], "TS") {
			ts, err := strconv.ParseUint(args[2], 10, 64)
			if err != nil || ts == 0 {
				return "ERR usage: TRACE TS <ts>"
			}
			spans := c.Traces.ByTS(ts)
			if len(spans) == 0 {
				return "."
			}
			var sb strings.Builder
			enc := json.NewEncoder(&sb)
			for _, t := range spans {
				if err := enc.Encode(t); err != nil {
					return "ERR " + err.Error()
				}
			}
			return strings.TrimRight(sb.String(), "\n") + "\n."
		}
		n := 10
		if len(args) == 2 {
			v, err := strconv.Atoi(args[1])
			if err != nil || v <= 0 {
				return "ERR usage: TRACE [n] | TRACE TS <ts>"
			}
			n = v
		} else if len(args) > 2 {
			return "ERR usage: TRACE [n] | TRACE TS <ts>"
		}
		var sb strings.Builder
		if err := c.Traces.DumpJSON(&sb, n); err != nil {
			return "ERR " + err.Error()
		}
		if sb.Len() == 0 {
			return "."
		}
		return strings.TrimRight(sb.String(), "\n") + "\n."
	case "FLIGHT":
		if c.Flight == nil {
			return "ERR flight recorder disabled"
		}
		n := 100
		if len(args) == 2 {
			v, err := strconv.Atoi(args[1])
			if err != nil || v <= 0 {
				return "ERR usage: FLIGHT [n]"
			}
			n = v
		} else if len(args) > 2 {
			return "ERR usage: FLIGHT [n]"
		}
		var sb strings.Builder
		if err := c.Flight.WriteText(&sb, n); err != nil {
			return "ERR " + err.Error()
		}
		if sb.Len() == 0 {
			return "."
		}
		return strings.TrimRight(sb.String(), "\n") + "\n."
	case "RESERVE", "CANCEL":
		if len(args) != 3 {
			return "ERR usage: " + args[0] + " <item> <n>"
		}
		n, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil || n < 0 {
			return "ERR bad amount"
		}
		var op core.Op = core.Decr{M: core.Value(n)}
		if strings.EqualFold(args[0], "CANCEL") {
			op = core.Incr{M: core.Value(n)}
		}
		res := c.runRetry(&txn.Txn{
			Ops:   []txn.ItemOp{{Item: ident.ItemID(args[1]), Op: op}},
			Ask:   txn.AskAll,
			Label: strings.ToLower(args[0]),
		})
		return txnReply(res, "")
	case "TRANSFER":
		if len(args) != 4 {
			return "ERR usage: TRANSFER <from> <to> <n>"
		}
		n, err := strconv.ParseInt(args[3], 10, 64)
		if err != nil || n < 0 {
			return "ERR bad amount"
		}
		res := c.runRetry(&txn.Txn{
			Ops: []txn.ItemOp{
				{Item: ident.ItemID(args[1]), Op: core.Decr{M: core.Value(n)}},
				{Item: ident.ItemID(args[2]), Op: core.Incr{M: core.Value(n)}},
			},
			Ask:   txn.AskAll,
			Label: "transfer",
		})
		return txnReply(res, "")
	case "READ":
		if len(args) != 2 {
			return "ERR usage: READ <item>"
		}
		item := ident.ItemID(args[1])
		res := c.runRetry(&txn.Txn{Reads: []ident.ItemID{item}, Ask: txn.AskAll, Label: "read"})
		if res.Committed() {
			return fmt.Sprintf("OK %d ts=%d", res.Reads[item], uint64(res.TS))
		}
		return txnReply(res, "")
	default:
		return "ERR unknown command " + args[0]
	}
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

func txnReply(res *txn.Result, extra string) string {
	if res.Committed() {
		return strings.TrimSpace(fmt.Sprintf("OK committed in %.2fms ts=%d %s",
			float64(res.Latency.Microseconds())/1000, uint64(res.TS), extra))
	}
	return "ABORT " + res.Status.String()
}
