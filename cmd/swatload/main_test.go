package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/multi"
	"github.com/streamsum/swat/internal/wire"
)

// runMainEnv makes the test binary run swatload's main instead of its
// tests, so a test can run the real command against in-process servers.
const runMainEnv = "SWATLOAD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// startServer serves a swatd-shaped node in process: the default
// geometry (N 1024, k 1) with a monitor for named streams.
func startServer(t *testing.T) string {
	t.Helper()
	srv, err := wire.NewServer(core.Options{WindowSize: 1024, Coefficients: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	mon, err := multi.New(multi.Options{WindowSize: 1024, Coefficients: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseMonitor(mon); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		srv.Close()
		mon.Close()
	})
	return addr.String()
}

// runLoad re-executes the test binary as swatload with args and decodes
// its -json result.
func runLoad(t *testing.T, args ...string) result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-json", "-duration", "300ms"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("swatload %v: %v\n%s", args, err, stderr.String())
	}
	var res result
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("swatload %v: %v\n%s", args, err, out)
	}
	return res
}

// checkDelivered requires that the run shipped values and that the
// servers took every one of them: each worker's final Sync or Ping
// bounds delivery under the block policy, so the servers' enqueued
// counts sum to exactly the values swatload reports.
func checkDelivered(t *testing.T, res result, addrs []string) {
	t.Helper()
	if res.Values <= 0 {
		t.Fatalf("values = %d, want > 0", res.Values)
	}
	var enqueued, shed uint64
	for _, a := range addrs {
		c, err := wire.DialBinary(a)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Stats()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		enqueued += st.EnqueuedValues
		shed += st.ShedValues
	}
	if shed != 0 {
		t.Errorf("servers shed %d values, want 0", shed)
	}
	if enqueued != uint64(res.Values) {
		t.Errorf("servers enqueued %d values, swatload reports %d", enqueued, res.Values)
	}
}

func TestClusterLoad(t *testing.T) {
	addrs := []string{startServer(t), startServer(t)}
	res := runLoad(t, "-cluster", strings.Join(addrs, ","))
	if res.Proto != "cluster" || res.Nodes != len(addrs) {
		t.Errorf("proto %q over %d nodes, want cluster over %d", res.Proto, res.Nodes, len(addrs))
	}
	checkDelivered(t, res, addrs)
}

func TestSingleNodeLoad(t *testing.T) {
	addr := startServer(t)
	res := runLoad(t, "-addr", addr)
	if res.Proto != "v2" {
		t.Errorf("proto %q, want v2", res.Proto)
	}
	checkDelivered(t, res, []string{addr})
}
