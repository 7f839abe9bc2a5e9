package harness

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Sites is the cluster size every workload runs on.
const Sites = 3

// startTimeout bounds how long a node may take to answer PING on its
// control port before the run fails with the node's last log lines.
const startTimeout = 5 * time.Second

// node is one dvpnode process.
type node struct {
	site     int
	args     []string
	ctlAddr  string
	walPath  string
	logPath  string
	cmd      *exec.Cmd
	waitDone chan struct{}
}

// Cluster is three dvpnode processes on loopback with ephemeral ports,
// each with a WAL file and a stderr log in dir.
type Cluster struct {
	bin   string
	dir   string
	nodes [Sites]*node
}

// freeAddrs reserves n distinct loopback ports by binding and
// releasing them; dvpnode needs every peer's address on its command
// line, so it cannot bind :0 itself.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	var held []net.Listener
	defer func() {
		for _, l := range held {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		held = append(held, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// StartCluster spawns the three nodes for workload w and waits until
// each answers PING. WAL files and node logs live in dir, which must
// exist. On any failure every node already started is killed.
func StartCluster(ctx context.Context, bin, dir string, w Workload) (*Cluster, error) {
	addrs, err := freeAddrs(2 * Sites)
	if err != nil {
		return nil, err
	}
	peers := make([]string, Sites)
	for i := 0; i < Sites; i++ {
		peers[i] = fmt.Sprintf("%d=%s", i+1, addrs[i])
	}
	c := &Cluster{bin: bin, dir: dir}
	for i := 0; i < Sites; i++ {
		site := i + 1
		n := &node{
			site:    site,
			ctlAddr: addrs[Sites+i],
			walPath: filepath.Join(dir, fmt.Sprintf("site%d.wal", site)),
			logPath: filepath.Join(dir, fmt.Sprintf("site%d.log", site)),
		}
		n.args = []string{
			"-site", strconv.Itoa(site),
			"-listen", addrs[i],
			"-ctl", n.ctlAddr,
			"-peers", strings.Join(peers, ","),
			"-wal", n.walPath,
			"-create", w.createArg(site),
			"-group-commit",
			"-timeout", "250ms",
			"-retransmit", "25ms",
		}
		if w.Sync {
			n.args = append(n.args, "-sync")
		}
		c.nodes[i] = n
	}
	for _, n := range c.nodes {
		if err := n.spawn(bin); err != nil {
			c.Kill()
			return nil, err
		}
	}
	for _, n := range c.nodes {
		if err := n.await(ctx, "PING\n", "start-up", startTimeout); err != nil {
			c.Kill()
			return nil, err
		}
	}
	return c, nil
}

// spawn starts the process in its own process group, stderr appended
// to the node's log file.
func (n *node) spawn(bin string) error {
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, n.args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start site %d: %w", n.site, err)
	}
	n.cmd = cmd
	n.waitDone = make(chan struct{})
	go func(done chan struct{}) {
		_ = cmd.Wait() // exit status of a killed node is not news
		close(done)
	}(n.waitDone)
	return nil
}

// await polls the control port until cmd is answered OK, the process
// dies, ctx ends or timeout passes; what names the wait in errors.
func (n *node) await(ctx context.Context, cmd, what string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if conn, err := dialCtl(n.ctlAddr); err == nil {
			reply, err := conn.do(cmd)
			conn.Close()
			if err == nil && strings.HasPrefix(reply, "OK") {
				return nil
			}
		}
		select {
		case <-n.waitDone:
			return fmt.Errorf("site %d exited during %s; last log lines:\n%s", n.site, what, tailFile(n.logPath, 15))
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("site %d: control port %s did not answer within %s of %s; last log lines:\n%s",
				n.site, n.ctlAddr, timeout, what, tailFile(n.logPath, 15))
		}
	}
}

// kill SIGKILLs the node's process group and waits for it to be reaped.
func (n *node) kill() {
	if n.cmd == nil {
		return
	}
	_ = syscall.Kill(-n.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	<-n.waitDone
	n.cmd = nil
}

// Kill stops every node and waits until each has ended.
func (c *Cluster) Kill() {
	for _, n := range c.nodes {
		if n != nil {
			n.kill()
		}
	}
}

// Restart SIGKILLs one site and respawns it on the same WAL, ports and
// flags, returning once it answers QUOTA it/0 — the time a client
// would wait for the site to come back.
func (c *Cluster) Restart(ctx context.Context, site int) (time.Duration, error) {
	n := c.nodes[site-1]
	n.kill()
	start := time.Now()
	if err := n.spawn(c.bin); err != nil {
		return 0, err
	}
	// Replaying the log comes before the control port opens, so a
	// restart may take several start-ups' worth of time.
	if err := n.await(ctx, "QUOTA it/0\n", "restart", 4*startTimeout); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// CtlAddr is a site's control-port address.
func (c *Cluster) CtlAddr(site int) string { return c.nodes[site-1].ctlAddr }

// WalBytes sums the sizes of the three WAL files.
func (c *Cluster) WalBytes() (int64, error) {
	var total int64
	for _, n := range c.nodes {
		st, err := os.Stat(n.walPath)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// procStat is what /proc tells about one process.
type procStat struct {
	cpuTicks int64 // utime + stime, in USER_HZ ticks
	volCtxSw int64 // voluntary context switches, all threads
	rssKB    int64
}

// userHz is the unit of /proc/<pid>/stat times. It is 100 on every
// Linux architecture Go supports; the kernel's own HZ does not leak
// into /proc.
const userHz = 100

// Proc reads a site's process statistics.
func (c *Cluster) Proc(site int) (procStat, error) {
	n := c.nodes[site-1]
	if n.cmd == nil {
		return procStat{}, fmt.Errorf("site %d not running", site)
	}
	return readProc(n.cmd.Process.Pid)
}

func readProc(pid int) (procStat, error) {
	var ps procStat
	base := fmt.Sprintf("/proc/%d", pid)
	stat, err := os.ReadFile(base + "/stat")
	if err != nil {
		return ps, err
	}
	// The command name (field 2) may hold spaces; fields after the
	// closing paren are well-formed. utime and stime are fields 14, 15.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return ps, fmt.Errorf("short %s/stat", base)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return ps, err
	}
	ps.cpuTicks = ut + st

	tasks, err := os.ReadDir(base + "/task")
	if err != nil {
		return ps, err
	}
	for _, t := range tasks {
		// A thread may exit between ReadDir and ReadFile; it no longer counts.
		status, err := os.ReadFile(base + "/task/" + t.Name() + "/status")
		if err != nil {
			continue
		}
		ps.volCtxSw += statusField(status, "voluntary_ctxt_switches:")
	}
	status, err := os.ReadFile(base + "/status")
	if err != nil {
		return ps, err
	}
	ps.rssKB = statusField(status, "VmRSS:")
	return ps, nil
}

// statusField returns the first integer after key in a /proc status
// file (0 if absent).
func statusField(status []byte, key string) int64 {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64) // malformed reads as 0, like absent
				return v
			}
		}
	}
	return 0
}

// tailFile returns the last n lines of a file, for error messages.
func tailFile(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "(" + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
