//go:build linux

package main

// Every contact with the system under test lives in this file: the
// swatd command line, cluster.Config, wire.NewServer/UseMonitor and
// multi.Options. A later flag or API change is a one-file edit here;
// workloads and metrics never change shape.

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/streamsum/swat/internal/cluster"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/durable"
	"github.com/streamsum/swat/internal/multi"
	"github.com/streamsum/swat/internal/wire"
)

// geometry is one tree shape; every node of a fleet and its twins
// share it.
type geometry struct {
	window, coeffs int
}

func (g geometry) core() core.Options {
	return core.Options{WindowSize: g.window, Coefficients: g.coeffs}
}

// Fixed by the benchmark so both commits of a comparison see the same
// placement and value range.
const (
	valueLo, valueHi = 0, 100
	ringSeed         = 7
	ringVNodes       = 512
	basePort         = 27481
	portBlocks       = 8 // fallback blocks of 10 ports when the first is taken
)

var (
	fleetGeometry = geometry{window: 1024, coeffs: 1}
	queryGeometry = geometry{window: 4096, coeffs: 4}
)

// node is one server of a fleet: a swatd child process, or (tests and
// ladder rungs) a wire.Server inside this process.
type node struct {
	addr    string
	startMS float64

	cmd *exec.Cmd // child process; nil in-process
	log *os.File

	srv *wire.Server // in-process
	mon *multi.Monitor

	// filled by stop for children
	cpu   time.Duration
	rssMB float64
}

// procPeakRSS is a live process's peak resident set in MiB, from
// /proc. The exit accounting's ru_maxrss is no substitute: a child
// inherits its parent's high-water mark across exec.
func procPeakRSS(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// fleetSpec says what to start.
type fleetSpec struct {
	nodes   int
	geo     geometry
	streams bool   // swatd -streams: one tree per named stream
	swatd   string // binary path; "" starts in-process nodes
	workDir string // child logs
	shed    bool   // in-process only: one-slot ingest queue that sheds, for testing the checker
}

// startFleet starts spec.nodes servers and waits until each accepts.
// Child fleets listen on fixed loopback ports so ring placement — a
// hash of the address — is the same on every run.
func startFleet(spec fleetSpec) ([]*node, error) {
	if spec.swatd == "" {
		nodes := make([]*node, 0, spec.nodes)
		for i := 0; i < spec.nodes; i++ {
			n, err := startLocalNode(spec.geo, spec.streams, spec.shed)
			if err != nil {
				stopFleet(nodes)
				return nil, err
			}
			nodes = append(nodes, n)
		}
		return nodes, nil
	}
	var lastErr error
	for block := 0; block < portBlocks; block++ {
		port := basePort + 10*block
		if !portsFree(port, spec.nodes) {
			lastErr = fmt.Errorf("ports %d..%d in use", port, port+spec.nodes-1)
			continue
		}
		nodes := make([]*node, 0, spec.nodes)
		for i := 0; i < spec.nodes; i++ {
			n, err := spawnSwatd(spec, port+i)
			if err != nil {
				stopFleet(nodes)
				return nil, err
			}
			nodes = append(nodes, n)
		}
		return nodes, nil
	}
	return nil, fmt.Errorf("bench: no free port block: %w", lastErr)
}

func portsFree(port, n int) bool {
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port+i))
		if err != nil {
			return false
		}
		ln.Close()
	}
	return true
}

// spawnSwatd runs one swatd child and waits for its port. Pdeathsig
// reaps the child even when the benchmark itself is killed.
func spawnSwatd(spec fleetSpec, port int) (*node, error) {
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{
		"-addr", addr,
		"-window", strconv.Itoa(spec.geo.window),
		"-coeffs", strconv.Itoa(spec.geo.coeffs),
	}
	if spec.streams {
		args = append(args, "-streams")
	}
	logf, err := os.Create(filepath.Join(spec.workDir, "swatd-"+strconv.Itoa(port)+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(spec.swatd, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("bench: start swatd: %w", err)
	}
	n := &node{addr: addr, cmd: cmd, log: logf}
	children.add(cmd)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			break
		}
		if time.Since(begin) > 10*time.Second {
			n.stop()
			return nil, fmt.Errorf("bench: swatd on %s never accepted (see %s): %w", addr, logf.Name(), err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	n.startMS = msSince(begin)
	return n, nil
}

// startLocalNode serves one in-process node on an ephemeral loopback
// port, wired the way cmd/swatd wires it.
func startLocalNode(geo geometry, streams, shed bool) (*node, error) {
	srv, err := wire.NewServer(geo.core())
	if err != nil {
		return nil, err
	}
	srv.Logf = func(string, ...any) {}
	if shed {
		srv.Policy, srv.IngestQueue = wire.IngestShed, 1
	}
	n := &node{srv: srv}
	if streams {
		mon, err := multi.New(multi.Options{WindowSize: geo.window, Coefficients: geo.coeffs})
		if err != nil {
			return nil, err
		}
		if err := srv.UseMonitor(mon); err != nil {
			mon.Close()
			return nil, err
		}
		n.mon = mon
	}
	begin := time.Now()
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		n.stop()
		return nil, err
	}
	go srv.Serve() // returns when stop closes the server
	n.addr = bound.String()
	n.startMS = msSince(begin)
	return n, nil
}

// stop ends the node and, for a child, records its peak resident set
// and its CPU time.
func (n *node) stop() {
	if n.srv != nil {
		n.srv.Close()
		if n.mon != nil {
			n.mon.Close()
		}
		n.srv, n.mon = nil, nil
		return
	}
	if n.cmd == nil {
		return
	}
	n.rssMB = procPeakRSS(n.cmd.Process.Pid)
	n.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { n.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		n.cmd.Process.Kill()
		<-done
	}
	if ps := n.cmd.ProcessState; ps != nil {
		n.cpu = ps.UserTime() + ps.SystemTime()
	}
	children.remove(n.cmd)
	n.log.Close()
	n.cmd = nil
}

func stopFleet(nodes []*node) {
	for _, n := range nodes {
		n.stop()
	}
}

// liveCPU is a running child's on-CPU time: the scheduler's
// nanosecond run time summed over its threads, or user+system in 10 ms
// ticks where schedstat is absent. 0 for in-process nodes.
func (n *node) liveCPU() time.Duration {
	if n.cmd == nil {
		return 0
	}
	return procCPU(n.cmd.Process.Pid)
}

func procCPU(pid int) time.Duration {
	dir := "/proc/" + strconv.Itoa(pid)
	if tasks, err := os.ReadDir(dir + "/task"); err == nil {
		var ns int64
		ok := len(tasks) > 0
		for _, t := range tasks {
			data, err := os.ReadFile(dir + "/task/" + t.Name() + "/schedstat")
			if err != nil {
				ok = false
				break
			}
			f := strings.Fields(string(data))
			if len(f) == 0 {
				ok = false
				break
			}
			v, _ := strconv.ParseInt(f[0], 10, 64)
			ns += v
		}
		if ok {
			return time.Duration(ns)
		}
	}
	data, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return 0
	}
	// utime and stime are the 14th and 15th fields; the command name
	// before them may contain spaces, so count from its closing paren.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * (time.Second / 100)
}

func fleetCPU(nodes []*node) time.Duration {
	var d time.Duration
	for _, n := range nodes {
		d += n.liveCPU()
	}
	return d
}

func addrs(nodes []*node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.addr
	}
	return out
}

// newClusterClient builds the client every fleet workload shards with.
func newClusterClient(geo geometry, nodeAddrs []string) (*cluster.Client, error) {
	return cluster.New(cluster.Config{
		Nodes:        nodeAddrs,
		WindowSize:   geo.window,
		Coefficients: geo.coeffs,
		ValueLo:      valueLo,
		ValueHi:      valueHi,
		Seed:         ringSeed,
		VNodes:       ringVNodes,
		// Gathers over thousands of streams share two cores with the
		// nodes; a deadline hit would be a benchmark artefact.
		Timeout: 30 * time.Second,
	})
}

func newRing(nodeAddrs []string) (*cluster.Ring, error) {
	return cluster.NewRing(ringSeed, ringVNodes, nodeAddrs)
}

// newMonitor is the non-durable monitor of the multi rungs.
func newMonitor(geo geometry) (*multi.Monitor, error) {
	return multi.New(multi.Options{WindowSize: geo.window, Coefficients: geo.coeffs})
}

// durableOptions are the store defaults the durable workload runs and
// checks its loss bound against.
var durableOptions = durable.Options{}

// durableCheckpointEvery is the automatic checkpoint cadence those
// defaults mean, in arrivals.
const durableCheckpointEvery = 4096

// newDurableMonitor opens (recovering whatever the directory holds) a
// monitor whose streams are write-ahead logged under dir.
func newDurableMonitor(geo geometry, dir string) (*multi.Monitor, error) {
	return multi.New(multi.Options{
		WindowSize:   geo.window,
		Coefficients: geo.coeffs,
		DataDir:      dir,
		Durable:      durableOptions,
	})
}

// openStore opens one durable store over a fresh tree (durable rungs).
func openStore(geo geometry, dir string) (*durable.Store, error) {
	tree, err := core.New(geo.core())
	if err != nil {
		return nil, err
	}
	return durable.Open(dir, tree, durableOptions)
}

func newTree(geo geometry) *core.Tree {
	t, err := core.New(geo.core())
	if err != nil {
		panic(err) // the benchmark's fixed geometries are valid
	}
	return t
}

// nodeStats reads one node's v2 counters over a throwaway connection.
func nodeStats(addr string) (wire.StatsV2, error) {
	bc, err := wire.DialBinary(addr)
	if err != nil {
		return wire.StatsV2{}, err
	}
	defer bc.Close()
	return bc.Stats()
}

// awaitApplied blocks until the node's shared tree (plain swatd) has
// applied want arrivals: a Ping only bounds enqueueing.
func awaitApplied(bc *wire.BinClient, want int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := bc.Stats()
		if err != nil {
			return err
		}
		if st.Arrivals >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: node applied %d of %d arrivals", st.Arrivals, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// awaitStream blocks until the stream's owner has applied want
// arrivals. One ingest worker per node applies a connection's batches
// in order, so the last stream sent to a node covers the ones before.
func awaitStream(c *cluster.Client, stream string, want int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		a := c.Point(stream, 0)
		if a.Err == nil && !a.Degraded && a.Arrivals >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: stream %q at %d of %d arrivals (%v)", stream, a.Arrivals, want, a.Err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// summaryBytes re-encodes a fetched summary canonically, for
// byte-for-byte comparison with a twin's AppendSummary.
func summaryBytes(s *core.Summary) ([]byte, error) {
	t, err := core.FromSummary(s)
	if err != nil {
		return nil, err
	}
	return t.AppendSummary(nil), nil
}
