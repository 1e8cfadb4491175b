package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// freePort grabs an ephemeral port from the kernel and releases it for
// the daemon to re-bind. The gap is racy in principle; in a test
// process that just allocated it, collisions don't happen in practice.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// TestServeMainLifecycle boots the real daemon — training, image-cached
// replica compile, HTTP listener, maintenance ticker — serves one
// inference, scrapes /healthz and /metrics, then delivers the SIGTERM
// the unit manager would and requires a clean drain.
func TestServeMainLifecycle(t *testing.T) {
	port := freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- serveMain(port, 1, 2, time.Millisecond, 16,
			10*time.Second, time.Minute, 5, 2020,
			t.TempDir(), 50*time.Millisecond, 30*time.Second)
	}()

	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	client := &http.Client{Timeout: 5 * time.Second}

	// Wait for the daemon to train, compile and start listening.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became healthy")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// One inference through the full stack. MNISTLike inputs are 16x16.
	in := struct {
		Input []float64 `json:"input"`
	}{Input: make([]float64, 256)}
	body, _ := json.Marshal(in)
	resp, err := client.Post(base+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer status %d: %s", resp.StatusCode, payload)
	}
	var out struct {
		Prediction int `json:"prediction"`
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatalf("infer response not JSON: %v: %s", err, payload)
	}
	if out.Prediction < 0 || out.Prediction > 9 {
		t.Fatalf("prediction %d out of class range", out.Prediction)
	}

	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"nebula_serve_requests_served_total 1",
		"nebula_fleet_replicas",
		"nebula_image_cache",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Let the maintenance ticker fire at least once before shutdown.
	time.Sleep(150 * time.Millisecond)

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveMain returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
}
