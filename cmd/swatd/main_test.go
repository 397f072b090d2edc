//go:build linux

package main

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/wire"
)

// runMainEnv makes the test binary run swatd's main instead of its
// tests, so a test can start a real swatd process from itself.
const runMainEnv = "SWATD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// daemon is one swatd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string

	mu   sync.Mutex
	logs strings.Builder
	done chan struct{} // closed when stderr reaches EOF
}

var servingLine = regexp.MustCompile(`serving N=\d+ k=\d+ minLevel=\d+ on (\S+)`)

// startDaemon re-executes the test binary as swatd with args and waits
// for the address it serves on.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(os.Args[0], args...), done: make(chan struct{})}
	d.cmd.Env = append(os.Environ(), runMainEnv+"=1")
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	addrs := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.mu.Lock()
			d.logs.WriteString(sc.Text() + "\n")
			d.mu.Unlock()
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
				addrs <- m[1]
			}
		}
	}()
	select {
	case d.addr = <-addrs:
	case <-d.done:
		t.Fatalf("swatd exited before serving:\n%s", d.log())
	case <-time.After(30 * time.Second):
		t.Fatalf("swatd never served:\n%s", d.log())
	}
	return d
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logs.String()
}

// stop sends SIGTERM and requires a clean exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("swatd did not exit after SIGTERM:\n%s", d.log())
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("swatd exit: %v\n%s", err, d.log())
	}
}

func dial(t *testing.T, addr string) *wire.BinClient {
	t.Helper()
	c, err := wire.DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSIGTERMKeepsEveryValue pins swatd's shutdown order with -data-dir:
// batches still queued when SIGTERM arrives are applied and logged, a
// subscriber receives the final flush of the default stream, and a
// restart over the same directory serves the default stream and every
// named stream exactly as twins fed every sent value.
func TestSIGTERMKeepsEveryValue(t *testing.T) {
	dir := t.TempDir()
	geom := core.Options{WindowSize: 64, Coefficients: 2}
	args := []string{"-addr", "127.0.0.1:0", "-window", "64", "-coeffs", "2", "-data-dir", dir}
	d := startDaemon(t, args...)

	sub := dial(t, d.addr)
	_, notes, err := sub.Subscribe(query.Query{Ages: []int{0}, Weights: []float64{1}}, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}

	const batches, perBatch = 100, 1000
	streams := []string{"", "alpha", "beta"}
	twins := map[string]*core.Tree{}
	for _, name := range streams {
		if twins[name], err = core.New(geom); err != nil {
			t.Fatal(err)
		}
	}
	feeder := dial(t, d.addr)
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, perBatch)
	for b := 0; b < batches; b++ {
		for _, name := range streams {
			for i := range vals {
				vals[i] = math.Round(rng.Float64() * 100)
			}
			if name == "" && b == batches-1 {
				vals[perBatch-1] = 1e6 // a final value the subscriber has never seen
			}
			twins[name].UpdateBatch(vals)
			if name == "" {
				err = feeder.FeedBatch(vals)
			} else {
				err = feeder.FeedStream(name, vals)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := feeder.Ping(); err != nil { // every batch is queued now
		t.Fatal(err)
	}
	d.stop(t)

	var last wire.Notification
	for n := range notes {
		last = n
	}
	want, err := twins[""].PointQuery(0)
	if err != nil {
		t.Fatal(err)
	}
	if last.Arrivals != batches*perBatch || last.Value != want {
		t.Errorf("last notification %+v, want the final flush (%v at %d arrivals)", last, want, batches*perBatch)
	}

	d2 := startDaemon(t, args...)
	c := dial(t, d2.addr)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Arrivals != batches*perBatch {
		t.Errorf("default stream recovered %d arrivals, want %d", st.Arrivals, batches*perBatch)
	}
	res := make([]wire.StreamPointResult, 2)
	if err := c.StreamPoints(streams[1:], 0, res); err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		name := streams[1+i]
		v, _ := twins[name].PointQuery(0)
		if r.Err != nil || r.Arrivals != batches*perBatch || r.Value != v {
			t.Errorf("stream %q after restart: %+v, want %v at %d arrivals", name, r, v, batches*perBatch)
		}
	}
	for _, name := range streams {
		var sum *core.Summary
		if name == "" {
			sum, err = c.FetchSummary()
		} else {
			sum, err = c.FetchStreamSummary(name)
		}
		if err != nil {
			t.Fatalf("summary %q: %v", name, err)
		}
		tr, err := core.FromSummary(sum)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tr.AppendSummary(nil), twins[name].AppendSummary(nil)) {
			t.Errorf("stream %q recovered differently from its twin", name)
		}
	}
	d2.stop(t)
}
