package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServeLifecycle drives a full serve cycle in-process: bind an
// ephemeral port, publish it via --addr-file, accept one build, then
// cancel the context (the SIGTERM path) and expect a clean exit 0.
func TestServeLifecycle(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	exit := make(chan int, 1)
	go func() {
		exit <- serve(ctx, []string{
			"--listen", "127.0.0.1:0",
			"--addr-file", addrFile,
			"--jobs", "2",
			"--drain-timeout", "10s",
		})
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if data, err := os.ReadFile(addrFile); err == nil {
			base = strings.TrimSpace(string(data))
		}
		if time.Now().After(deadline) {
			t.Fatal("addr-file never appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.HasPrefix(base, "http://") {
		t.Fatalf("advertised address %q is not http", base)
	}

	body, _ := json.Marshal(map[string]string{
		"tag":        "serve-test:latest",
		"dockerfile": "FROM alpine:3.19\nRUN echo ok > /ok\n",
	})
	resp, err := http.Post(base+"/v1/builds", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var op struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&op); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/builds: status %d", resp.StatusCode)
	}

	for {
		resp, err := http.Get(base + "/v1/operations/" + op.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cur.Status == "succeeded" {
			break
		}
		if cur.Status == "failed" || cur.Status == "cancelled" {
			t.Fatalf("operation %s: %s (%s)", op.ID, cur.Status, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("operation %s stuck in %s", op.ID, cur.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("serve exited %d, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve never exited after cancel")
	}
}

// TestServeFlagErrors covers the exit-2 surface.
func TestServeFlagErrors(t *testing.T) {
	cases := [][]string{
		{"--bogus"},
		{"--jobs", "0"},
		{"--force", "magic"},
	}
	for _, args := range cases {
		if code := serve(context.Background(), args); code != 2 {
			t.Errorf("serve(%v) = %d, want 2", args, code)
		}
	}
}

// TestListenUnix binds a unix socket and advertises unix:PATH.
func TestListenUnix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sock")
	ln, adv, err := listenOn("unix:" + path)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if adv != "unix:"+path {
		t.Fatalf("advertised %q", adv)
	}
	// A stale socket file must not fail a rebind.
	ln.Close()
	if err := os.WriteFile(path, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	ln2, _, err := listenOn("unix:" + path)
	if err != nil {
		t.Fatalf("rebind over stale socket: %v", err)
	}
	ln2.Close()
}
