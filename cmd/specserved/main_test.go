package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// Bad flags are errors naming the flag, returned before the server
// builds a corpus or listens. Every case here fails during flag
// checking, so none of them reaches the listener.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-sweep-seconds", "0"}, "-sweep-seconds"},
		{[]string{"-sweep-seconds", "-5"}, "-sweep-seconds"},
		{[]string{"-no-sweeps", "-sweep-seconds", "-5"}, "-sweep-seconds"},
		{[]string{"-workspace", "-1"}, "-workspace"},
	} {
		var out, errBuf bytes.Buffer
		err := run(context.Background(), c.args, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("args %v: error %v does not name %s", c.args, err, c.flag)
		}
	}
}

// TestRunServesUntilCancelled starts the server on an ephemeral
// loopback port, reads the bound address from the "listening on" line,
// checks /healthz, then cancels the context: run must return nil within
// the deadline and the port must refuse connections.
func TestRunServesUntilCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-no-sweeps"}, io.Discard, pw)
		pw.Close()
		done <- err
	}()
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "specserved: listening on "); ok {
				addrc <- addr
			}
		}
	}()

	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("run returned before listening: %v", err)
	case <-time.After(time.Minute):
		t.Fatal("no listening line within a minute")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: status %d body %q err %v", resp.StatusCode, body, err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(shutdownTimeout + 10*time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatalf("%s still accepts connections after shutdown", addr)
	}
}

// TestRunSelftest runs the end-to-end API smoke check — byte-identity,
// revalidation, every figure, a re-verified reload and a linted scrape
// whose latency histogram counts the figure requests — over a real
// loopback listener, at two seeds: the selftest must pass whichever
// years its keyed 64-server fleet holds (seed 1's holds no 2016
// server, so a summary of it answers 422).
func TestRunSelftest(t *testing.T) {
	for _, seed := range []string{"1", "5"} {
		var out, errBuf bytes.Buffer
		if err := run(context.Background(), []string{"-selftest", "-no-sweeps", "-seed", seed}, &out, &errBuf); err != nil {
			t.Fatalf("seed %s selftest: %v\nstdout:\n%s\nstderr:\n%s", seed, err, out.String(), errBuf.String())
		}
		if !strings.Contains(out.String(), "selftest: ok") {
			t.Fatalf("seed %s selftest output lacks \"selftest: ok\":\n%s", seed, out.String())
		}
	}
}

// TestRunVerifyRefusesCorpus serves the seed-1 corpus cut to 200 rows
// with -verify: too few servers for several paper invariants, so run
// must refuse to start with an error naming them, before it listens.
func TestRunVerifyRefusesCorpus(t *testing.T) {
	rp, err := synth.NewRepository(synth.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, rp.All()[:200]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out, errBuf bytes.Buffer
	err = run(context.Background(), []string{"-in", path, "-verify", "-addr", "127.0.0.1:0"}, &out, &errBuf)
	if err == nil {
		t.Fatalf("a 200-row corpus passed -verify:\n%s", errBuf.String())
	}
	failed, names, ok := strings.Cut(err.Error(), " paper invariants: ")
	if !ok || !strings.HasPrefix(failed, "snapshot failed ") || names == "" {
		t.Fatalf("error %q does not name the failed invariants", err)
	}
	if strings.Contains(errBuf.String(), "listening on") {
		t.Fatalf("run listened despite the failed invariants:\n%s", errBuf.String())
	}
}
