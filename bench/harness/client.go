package harness

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// opTimeout bounds one command's round trip. The server gives up a
// transaction after 3 attempts of 250 ms, so a healthy node always
// answers well inside it.
const opTimeout = 10 * time.Second

// ctlConn is one persistent control-port connection: a caller that
// writes a command line and waits for its reply line.
type ctlConn struct {
	c net.Conn
	r *bufio.Reader
}

func dialCtl(addr string) (*ctlConn, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &ctlConn{c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *ctlConn) Close() { c.c.Close() }

// do sends one command (line includes its newline) and returns the
// single reply line without its newline.
func (c *ctlConn) do(line string) (string, error) {
	if err := c.c.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return "", err
	}
	if _, err := c.c.Write([]byte(line)); err != nil {
		return "", err
	}
	reply, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(reply, "\n"), nil
}

// doMulti sends a command whose reply is payload lines ended by a lone
// "." (METRICS) and returns the payload lines.
func (c *ctlConn) doMulti(line string) ([]string, error) {
	first, err := c.do(line)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(first, "ERR") {
		return nil, fmt.Errorf("%s: %s", strings.TrimSpace(line), first)
	}
	var lines []string
	for l := first; l != "."; {
		lines = append(lines, l)
		next, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		l = strings.TrimRight(next, "\n")
	}
	return lines, nil
}

// metrics takes one METRICS snapshot.
func (c *ctlConn) metrics() (Snapshot, error) {
	lines, err := c.doMulti("METRICS\n")
	if err != nil {
		return Snapshot{}, err
	}
	return ParseSnapshot(lines)
}

// quota reads one item's local share.
func (c *ctlConn) quota(item int) (int64, error) {
	reply, err := c.do("QUOTA it/" + strconv.Itoa(item) + "\n")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(reply)
	if len(f) != 2 || f[0] != "OK" {
		return 0, fmt.Errorf("QUOTA it/%d: %s", item, reply)
	}
	return strconv.ParseInt(f[1], 10, 64)
}

// reply is a parsed single-line answer to RESERVE, CANCEL or READ.
type reply struct {
	ok       bool
	serverNs int64  // "committed in X.XXms" (commits only)
	value    int64  // READ result
	txn      uint64 // ts=
}

// parseReply decodes "OK committed in 0.42ms ts=65537" and
// "OK 2999 ts=262145"; anything else is a failed op.
func parseReply(line string) reply {
	f := strings.Fields(line)
	if len(f) < 2 || f[0] != "OK" {
		return reply{}
	}
	r := reply{ok: true}
	if f[1] == "committed" && len(f) >= 4 {
		if ms, err := strconv.ParseFloat(strings.TrimSuffix(f[3], "ms"), 64); err == nil {
			r.serverNs = int64(ms * 1e6)
		}
	} else if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
		r.value = v
	}
	for _, tok := range f[2:] {
		if ts, ok := strings.CutPrefix(tok, "ts="); ok {
			r.txn, _ = strconv.ParseUint(ts, 10, 64) // a missing ts only unkeys the traced op
		}
	}
	return r
}
